//! Shared output helpers for the figure/table harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure from the
//! paper's evaluation:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig10` | Figure 10a/10b — port-contention latencies, mul vs div victim |
//! | `fig11` | Figure 11 — Td1 probe latencies across three replays |
//! | `table1` | Table 1 — side-channel taxonomy, measured |
//! | `table_defenses` | §8 — countermeasure evaluation |
//! | `sec7_handles` | §7 — TSX-abort and mispredict replay handles |
//! | `sec7_rdrand` | §7.2 — RDRAND biasing vs the fence |
//! | `aes_trace` | §6.2 — full single-run AES access-trace extraction |
//! | `ablate_walk` | §4.1.2 — speculation-window size vs walk tuning |
//! | `sec8_analyze` | static attack-plan analysis, validated in-simulator |

/// The workspace's one JSON module, re-exported for the repo benchmark, `perfbench`.
pub use microscope_probe::json;

/// Renders a latency series as a compact ASCII scatter summary: count per
/// bucket, plus min/median/p99/max.
pub fn summarize_latencies(name: &str, samples: &[u64]) -> String {
    if samples.is_empty() {
        return format!("{name}: (no samples)");
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let pct = |p: f64| sorted[((p * (sorted.len() - 1) as f64).round()) as usize];
    format!(
        "{name}: n={} min={} p50={} p99={} max={}",
        samples.len(),
        sorted[0],
        pct(0.50),
        pct(0.99),
        sorted[sorted.len() - 1],
    )
}

/// Renders an ASCII histogram with the given bucket width.
pub fn histogram(samples: &[u64], bucket: u64, max_rows: usize) -> String {
    if samples.is_empty() {
        return String::from("(empty)\n");
    }
    let max = *samples.iter().max().expect("non-empty");
    let buckets = (max / bucket + 1).min(max_rows as u64);
    let mut counts = vec![0usize; buckets as usize];
    let mut overflow = 0usize;
    for s in samples {
        let b = s / bucket;
        if (b as usize) < counts.len() {
            counts[b as usize] += 1;
        } else {
            overflow += 1;
        }
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, c) in counts.iter().enumerate() {
        let bar = "#".repeat((c * 60).div_ceil(peak).min(60));
        out.push_str(&format!(
            "{:>6}-{:<6} {:>6} {}\n",
            i as u64 * bucket,
            (i as u64 + 1) * bucket - 1,
            c,
            bar
        ));
    }
    if overflow > 0 {
        out.push_str(&format!("   (+{overflow} beyond range)\n"));
    }
    out
}

/// Prints an aligned table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// `--trace-out` / `--metrics-out` flags shared by the figure binaries.
///
/// When either is set the binary enables the cross-layer probe, runs the
/// attack, and writes the Chrome trace-event JSON (Perfetto-loadable) and/or
/// the JSONL metric dump of the resulting
/// [`AttackReport`](microscope_core::AttackReport).
#[derive(Clone, Debug, Default)]
pub struct ExportFlags {
    /// Destination for the Chrome-trace JSON (`--trace-out PATH`).
    pub trace_out: Option<std::path::PathBuf>,
    /// Destination for the JSONL metric dump (`--metrics-out PATH`).
    pub metrics_out: Option<std::path::PathBuf>,
}

/// A command-line parsing failure, reported by the library and turned
/// into an exit code by the binary (library code never calls
/// `process::exit`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A flag that requires a value was last on the line or followed by
    /// another flag.
    MissingValue {
        /// The flag missing its value.
        flag: String,
    },
    /// A flag's value did not parse.
    InvalidValue {
        /// The offending flag.
        flag: String,
        /// What was given.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue { flag } => {
                write!(f, "parsing {flag} failed: a value must follow it")
            }
            ArgError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(
                f,
                "parsing {flag} failed: got {value:?}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ArgError {}

/// Writing an export artifact failed.
#[derive(Debug)]
pub struct ExportError {
    /// The destination that could not be written.
    pub path: std::path::PathBuf,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "export to {} failed: {}",
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for ExportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Unwraps a parse result or exits with code 2 and the error on stderr —
/// the *binaries'* policy for [`ArgError`], kept out of the parsing code.
pub fn parse_or_exit<T>(result: Result<T, ArgError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Pulls one valued flag (`--flag V` or `--flag=V`) out of `args`,
/// removing it. A following `--`-prefixed token or end-of-args is a
/// [`ArgError::MissingValue`], not a silent swallow.
pub fn extract_flag_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, ArgError> {
    let prefix = format!("{flag}=");
    let mut found = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            args.remove(i);
            if i >= args.len() || args[i].starts_with("--") {
                return Err(ArgError::MissingValue { flag: flag.into() });
            }
            found = Some(args.remove(i));
        } else if let Some(v) = args[i].strip_prefix(&prefix) {
            found = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(found)
}

/// Removes a boolean flag (`--flag`) from `args`, returning whether it
/// was present (any number of occurrences collapses to one).
pub fn extract_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Extracts a count flag (`--flag N` / `--flag=N`, N >= 1) such as
/// `--jobs` (the sweep worker count), `--samples` or `--trials`. `None`
/// means the flag was absent and the binary's default applies; a value
/// that is not a whole number >= 1 is an [`ArgError::InvalidValue`].
pub fn extract_count<T>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, ArgError>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    match extract_flag_value(args, flag)? {
        None => Ok(None),
        Some(v) => match v.parse::<T>() {
            Ok(n) if n >= T::from(1) => Ok(Some(n)),
            _ => Err(ArgError::InvalidValue {
                flag: flag.into(),
                value: v,
                expected: "a whole number >= 1",
            }),
        },
    }
}

impl ExportFlags {
    /// Extracts the export flags from `args` (removing them), leaving
    /// unrelated arguments for the binary's own parser. A dangling
    /// `--trace-out`/`--metrics-out` with no PATH is an error.
    pub fn extract(args: &mut Vec<String>) -> Result<ExportFlags, ArgError> {
        Ok(ExportFlags {
            trace_out: extract_flag_value(args, "--trace-out")?.map(Into::into),
            metrics_out: extract_flag_value(args, "--metrics-out")?.map(Into::into),
        })
    }

    /// Whether any export was requested (tracing must then be enabled).
    pub fn active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// The recorder configuration implied by the flags: `Some` (enabled)
    /// when an export destination was given, `None` otherwise.
    pub fn recorder(&self) -> Option<microscope_probe::RecorderConfig> {
        self.active()
            .then(microscope_probe::RecorderConfig::default)
    }

    /// Writes the report's trace and metrics to the requested paths.
    pub fn export(&self, report: &microscope_core::AttackReport) -> Result<(), ExportError> {
        self.export_with(report, &microscope_probe::MetricSet::new())
    }

    /// Like [`export`](Self::export), but merges `extra` metrics (e.g. a
    /// sweep's aggregated registry) into the metric dump.
    pub fn export_with(
        &self,
        report: &microscope_core::AttackReport,
        extra: &microscope_probe::MetricSet,
    ) -> Result<(), ExportError> {
        let write = |path: &std::path::Path, contents: &str| {
            std::fs::write(path, contents).map_err(|source| ExportError {
                path: path.to_path_buf(),
                source,
            })
        };
        if let Some(path) = &self.trace_out {
            let json = microscope_probe::export::chrome_trace(&report.trace);
            write(path, &json)?;
            println!(
                "wrote {} trace events ({} dropped) to {}",
                report.trace.len(),
                report.dropped_events,
                path.display()
            );
        }
        if let Some(path) = &self.metrics_out {
            let mut metrics = report.metrics.clone();
            metrics.merge(extra);
            write(path, &metrics.to_jsonl())?;
            println!("wrote {} metrics to {}", metrics.len(), path.display());
        }
        Ok(())
    }
}

/// Unwraps an export result or exits with code 1 and the error on stderr.
pub fn export_or_exit(result: Result<(), ExportError>) {
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// A PASS/FAIL shape check, printed and returned.
pub fn shape_check(name: &str, ok: bool, detail: &str) -> bool {
    println!(
        "[{}] {} — {}",
        if ok { "PASS" } else { "FAIL" },
        name,
        detail
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_percentiles() {
        let s = summarize_latencies("x", &[1, 2, 3, 4, 100]);
        assert!(s.contains("n=5"));
        assert!(s.contains("max=100"));
        assert_eq!(summarize_latencies("y", &[]), "y: (no samples)");
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = histogram(&[0, 1, 10, 1000], 10, 3);
        assert!(h.contains("beyond range"));
        assert!(histogram(&[], 10, 3).contains("empty"));
    }

    #[test]
    fn shape_check_reports() {
        assert!(shape_check("t", true, "d"));
        assert!(!shape_check("t", false, "d"));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn export_flags_extract_both_forms_and_leave_the_rest() {
        let mut a = args(&[
            "--samples",
            "9",
            "--trace-out",
            "t.json",
            "--metrics-out=m.jsonl",
        ]);
        let flags = ExportFlags::extract(&mut a).expect("well-formed flags");
        assert_eq!(
            flags.trace_out.as_deref(),
            Some(std::path::Path::new("t.json"))
        );
        assert_eq!(
            flags.metrics_out.as_deref(),
            Some(std::path::Path::new("m.jsonl"))
        );
        assert!(flags.active());
        assert_eq!(a, args(&["--samples", "9"]));
    }

    #[test]
    fn dangling_flag_is_an_error_not_an_exit() {
        let mut a = args(&["--trace-out"]);
        let err = ExportFlags::extract(&mut a).expect_err("dangling flag rejected");
        assert_eq!(
            err,
            ArgError::MissingValue {
                flag: "--trace-out".into()
            }
        );
        // A following flag must not be swallowed as the value either.
        let mut a = args(&["--metrics-out", "--jobs", "2"]);
        assert!(ExportFlags::extract(&mut a).is_err());
        assert!(err.to_string().contains("--trace-out"));
    }

    #[test]
    fn count_flags_parse_and_validate() {
        let mut a = args(&["--jobs", "4", "x"]);
        assert_eq!(extract_count(&mut a, "--jobs"), Ok(Some(4usize)));
        assert_eq!(a, args(&["x"]));
        let mut a = args(&["--samples=500"]);
        assert_eq!(extract_count(&mut a, "--samples"), Ok(Some(500u64)));
        assert!(a.is_empty());
        let mut a = args(&["--jobs", "2", "--trials=3"]);
        assert_eq!(extract_count(&mut a, "--trials"), Ok(Some(3u32)));
        assert_eq!(a, args(&["--jobs", "2"]));
        let mut a = args(&[]);
        assert_eq!(extract_count::<usize>(&mut a, "--jobs"), Ok(None));
        for bad in ["0", "x", "-3", "2.5"] {
            let mut a = args(&["--samples", bad]);
            assert_eq!(
                extract_count::<u64>(&mut a, "--samples"),
                Err(ArgError::InvalidValue {
                    flag: "--samples".into(),
                    value: bad.into(),
                    expected: "a whole number >= 1",
                })
            );
        }
        let mut a = args(&["--trials"]);
        assert_eq!(
            extract_count::<u32>(&mut a, "--trials"),
            Err(ArgError::MissingValue {
                flag: "--trials".into()
            })
        );
        let mut a = args(&["--trials", "--jobs", "2"]);
        assert!(extract_count::<u32>(&mut a, "--trials").is_err());
        let err = extract_count::<usize>(&mut args(&["--jobs", "many"]), "--jobs")
            .expect_err("non-numeric rejected");
        assert!(err.to_string().contains("--jobs"));
    }
}
