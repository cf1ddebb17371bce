//! The front end of the figure/table harness binaries: their flags,
//! their sweep runner, their exports and their stdout.
//!
//! Each binary under `src/bin/` regenerates one table or figure from the
//! paper's evaluation and accepts only the flags listed for it; any other
//! argument exits 2:
//!
//! | binary | paper artifact | flags |
//! |---|---|---|
//! | `fig10` | Figure 10a/10b — port-contention latencies, mul vs div victim | `--jobs`, `--samples`, `--trace-out`, `--metrics-out` |
//! | `fig11` | Figure 11 — Td1 probe latencies across three replays | `--jobs`, `--trace-out`, `--metrics-out` |
//! | `table1` | Table 1 — side-channel taxonomy, measured | `--jobs`, `--trials`, `--trace-out`, `--metrics-out` |
//! | `table_defenses` | §8 — countermeasure evaluation | `--jobs` |
//! | `sec7_handles` | §7 — TSX-abort and mispredict replay handles | `--jobs` |
//! | `sec7_rdrand` | §7.2 — RDRAND biasing vs the fence | `--jobs` |
//! | `aes_trace` | §6.2 — full single-run AES access-trace extraction | none |
//! | `ablate_walk` | §4.1.2 — speculation-window size vs walk tuning | `--jobs` |
//! | `sec8_analyze` | static attack-plan analysis, validated in-simulator | `--jobs`, `--audit-defenses` |
//!
//! The exit policy is stated here once: 2 for a bad command line
//! ([`flags`]); 1 for a failed sweep point ([`run_grid`]), export
//! ([`ExportFlags::write`]), stdout write ([`write_stdout`]) or shape check
//! ([`exit_with`]); 0 otherwise, a reader closing stdout early included.
//! The library crates never exit.

use microscope_core::sweep::{SweepOutcome, SweepSpec};
use microscope_core::AttackReport;
use microscope_probe::MetricSet;

/// The workspace's one JSON module, re-exported for the repo benchmark, `perfbench`.
pub use microscope_probe::json;

/// Writes to stdout: the one path every harness binary prints its report
/// through ([`out!`], [`outln!`], [`print_table`], [`shape_check`]). A
/// reader that closes the pipe early (`| head -1`) has taken all it
/// wanted, so a broken pipe ends the process with status 0 and nothing on
/// stderr; any other write error exits 1 with the error on stderr.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    let result = std::io::Write::write_fmt(&mut std::io::stdout().lock(), args);
    match result {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("error: writing stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

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
        outln!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// `--trace-out` / `--metrics-out`: where a figure binary writes its
/// cross-layer trace and metrics.
///
/// When either is set the binary enables the cross-layer probe, runs the
/// attack, and writes the Chrome trace-event JSON (Perfetto-loadable) and/or
/// the JSONL metric dump of the resulting [`AttackReport`].
#[derive(Clone, Debug, Default)]
pub struct ExportFlags {
    /// Destination for the Chrome-trace JSON (`--trace-out PATH`).
    pub trace_out: Option<std::path::PathBuf>,
    /// Destination for the JSONL metric dump (`--metrics-out PATH`).
    pub metrics_out: Option<std::path::PathBuf>,
}

/// Every flag a harness binary can take. Each binary names the ones it
/// accepts when it calls [`flags`]; a flag it does not accept is an
/// [`ArgError::Unknown`], never silently ignored.
#[derive(Clone, Debug, Default)]
pub struct Flags {
    /// `--jobs N`: sweep workers (`None` = available parallelism).
    pub jobs: Option<usize>,
    /// `--samples N`: monitor samples (`None` = the binary's default).
    pub samples: Option<u64>,
    /// `--trials N`: trials per row (`None` = the binary's default).
    pub trials: Option<u32>,
    /// `--audit-defenses`, a bare switch.
    pub audit_defenses: bool,
    /// `--trace-out PATH` / `--metrics-out PATH`.
    pub export: ExportFlags,
}

/// A command-line parsing failure. [`flags`] turns it into exit status 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// An argument the binary does not accept: an unknown flag, a
    /// positional argument, or a value given to a bare switch.
    Unknown {
        /// The argument as given.
        arg: String,
    },
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
            ArgError::Unknown { arg } => {
                write!(f, "parsing {arg} failed: not an accepted argument")
            }
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

/// Parses `args` (the program name already dropped) into [`Flags`],
/// accepting only the flags named in `accepted`. Valued flags take
/// `--flag V` or `--flag=V`, and a repeated flag keeps its last value;
/// `--audit-defenses` takes none. A valued flag that is last or followed by
/// another `--` flag is [`ArgError::MissingValue`]; a count that is not a
/// whole number >= 1 is [`ArgError::InvalidValue`].
pub fn parse_flags(args: &[String], accepted: &[&str]) -> Result<Flags, ArgError> {
    let mut flags = Flags::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) if name.starts_with("--") => (name, Some(value)),
            _ => (arg.as_str(), None),
        };
        let unknown = || ArgError::Unknown { arg: arg.clone() };
        if !accepted.contains(&name) {
            return Err(unknown());
        }
        if name == "--audit-defenses" {
            if inline.is_some() {
                return Err(unknown());
            }
            flags.audit_defenses = true;
            continue;
        }
        let value = match inline {
            Some(v) => v,
            None => match rest.next() {
                Some(v) if !v.starts_with("--") => v.as_str(),
                _ => return Err(ArgError::MissingValue { flag: name.into() }),
            },
        };
        match name {
            "--jobs" => flags.jobs = Some(count(name, value)?),
            "--samples" => flags.samples = Some(count(name, value)?),
            "--trials" => flags.trials = Some(count(name, value)?),
            "--trace-out" => flags.export.trace_out = Some(value.into()),
            "--metrics-out" => flags.export.metrics_out = Some(value.into()),
            _ => return Err(unknown()),
        }
    }
    Ok(flags)
}

/// Parses a count flag's value: a whole number >= 1.
fn count<T>(flag: &str, value: &str) -> Result<T, ArgError>
where
    T: std::str::FromStr + PartialOrd + From<u8>,
{
    match value.parse::<T>() {
        Ok(n) if n >= T::from(1) => Ok(n),
        _ => Err(ArgError::InvalidValue {
            flag: flag.into(),
            value: value.into(),
            expected: "a whole number >= 1",
        }),
    }
}

/// The binary's [`Flags`], parsed from `std::env::args` by [`parse_flags`].
/// A bad command line prints the error and the accepted flags to stderr
/// and exits 2 before anything reaches stdout.
pub fn flags(accepted: &[&str]) -> Flags {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_flags(&args, accepted).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        if accepted.is_empty() {
            eprintln!("this binary takes no flags");
        } else {
            let usage: Vec<String> = accepted
                .iter()
                .map(|flag| match *flag {
                    "--audit-defenses" => flag.to_string(),
                    "--trace-out" | "--metrics-out" => format!("{flag} PATH"),
                    _ => format!("{flag} N"),
                })
                .collect();
            eprintln!("accepted flags: {}", usage.join(", "));
        }
        std::process::exit(2);
    })
}

/// Runs a harness's sweep grid on `jobs` workers (`None` = available
/// parallelism). The scheduling summary and each failed point go to
/// stderr, so stdout is byte-identical for any worker count. A failed point
/// exits 1, so the outcome returned has every point's record in
/// [`ok`](SweepOutcome::ok), in grid order.
pub fn run_grid<P: Sync, R: Send>(
    spec: SweepSpec<'_, P, R>,
    jobs: Option<usize>,
) -> SweepOutcome<P, R> {
    let spec = match jobs {
        Some(n) => spec.jobs(n),
        None => spec,
    };
    let sweep = spec.run();
    eprintln!("{}", sweep.schedule_summary());
    for (pt, err) in sweep.errors() {
        eprintln!("error: point {:?}: {err}", pt.label);
    }
    if sweep.errors().next().is_some() {
        std::process::exit(1);
    }
    sweep
}

/// Ends the binary: status 0 when every shape check passed, 1 otherwise.
pub fn exit_with(checks: &[bool]) -> ! {
    std::process::exit(if checks.iter().all(|ok| *ok) { 0 } else { 1 })
}

impl ExportFlags {
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

    /// Writes the report's trace, and its metrics with `extra` (e.g. a
    /// sweep's aggregated registry) merged in, to the requested paths,
    /// naming each file on stdout. A failed write exits 1 with the path and
    /// the error on stderr.
    pub fn write(&self, report: &AttackReport, extra: &MetricSet) {
        let write = |path: &std::path::Path, contents: &str| {
            if let Err(e) = std::fs::write(path, contents) {
                eprintln!("error: export to {} failed: {e}", path.display());
                std::process::exit(1);
            }
        };
        if let Some(path) = &self.trace_out {
            write(path, &microscope_probe::export::chrome_trace(&report.trace));
            outln!(
                "wrote {} trace events ({} dropped) to {}",
                report.trace.len(),
                report.dropped_events,
                path.display()
            );
        }
        if let Some(path) = &self.metrics_out {
            let mut metrics = report.metrics.clone();
            metrics.merge(extra);
            write(path, &metrics.to_jsonl());
            outln!("wrote {} metrics to {}", metrics.len(), path.display());
        }
    }
}

/// A PASS/FAIL shape check, printed and returned.
pub fn shape_check(name: &str, ok: bool, detail: &str) -> bool {
    outln!(
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

    fn parse(list: &[&str], accepted: &[&str]) -> Result<Flags, ArgError> {
        let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
        parse_flags(&args, accepted)
    }

    const ALL: &[&str] = &[
        "--jobs",
        "--samples",
        "--trials",
        "--audit-defenses",
        "--trace-out",
        "--metrics-out",
    ];

    #[test]
    fn both_value_forms_parse_and_the_last_value_wins() {
        let f = parse(
            &[
                "--jobs",
                "4",
                "--samples=500",
                "--trials",
                "3",
                "--audit-defenses",
                "--trace-out",
                "t.json",
                "--metrics-out=m.jsonl",
                "--jobs=2",
            ],
            ALL,
        )
        .expect("well-formed flags");
        assert_eq!(
            (f.jobs, f.samples, f.trials, f.audit_defenses),
            (Some(2), Some(500), Some(3), true)
        );
        assert_eq!(
            f.export.trace_out.as_deref(),
            Some(std::path::Path::new("t.json"))
        );
        assert_eq!(
            f.export.metrics_out.as_deref(),
            Some(std::path::Path::new("m.jsonl"))
        );
        assert!(f.export.active());
        assert_eq!(
            parse(&[], ALL).map(|f| (f.jobs, f.audit_defenses, f.export.active())),
            Ok((None, false, false))
        );
    }

    fn err(list: &[&str], accepted: &[&str]) -> Option<ArgError> {
        parse(list, accepted).err()
    }

    #[test]
    fn arguments_not_accepted_are_unknown() {
        let unknown = |arg: &str| Some(ArgError::Unknown { arg: arg.into() });
        assert_eq!(err(&["--samples", "9"], &["--jobs"]), unknown("--samples"));
        assert_eq!(
            err(&["--jobs", "2", "extra"], &["--jobs"]),
            unknown("extra")
        );
        assert_eq!(
            err(&["--audit-defenses=1"], ALL),
            unknown("--audit-defenses=1")
        );
        assert_eq!(err(&["--smaples=50"], ALL), unknown("--smaples=50"));
        assert_eq!(err(&["--jobs"], &[]), unknown("--jobs"));
    }

    #[test]
    fn a_flag_without_its_value_is_missing_one() {
        let missing = |flag: &str| Some(ArgError::MissingValue { flag: flag.into() });
        assert_eq!(err(&["--trials"], ALL), missing("--trials"));
        assert_eq!(err(&["--trace-out"], ALL), missing("--trace-out"));
        // A following flag must not be swallowed as the value either.
        assert_eq!(
            err(&["--metrics-out", "--jobs", "2"], ALL),
            missing("--metrics-out")
        );
    }

    #[test]
    fn counts_are_whole_numbers_of_at_least_one() {
        for bad in ["0", "x", "-3", "2.5"] {
            assert_eq!(
                err(&["--samples", bad], ALL),
                Some(ArgError::InvalidValue {
                    flag: "--samples".into(),
                    value: bad.into(),
                    expected: "a whole number >= 1",
                })
            );
        }
        let msg = err(&["--jobs=many"], ALL).map(|e| e.to_string());
        assert!(msg.is_some_and(|m| m.contains("--jobs")));
    }
}
