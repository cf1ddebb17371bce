//! Regenerates **Figure 10** (paper §6.1): latencies of 10,000 monitor
//! measurements while the victim replays (a) two multiplications or (b)
//! two divisions — plus the §6.1 headline numbers: over-threshold counts
//! and their ratio (paper: 4 vs 64, a 16× gap).
//!
//! Run with `cargo run --release -p microscope-bench --bin fig10`.
//! Pass `--samples N` to change the monitor sample count, `--jobs N` to
//! run the two victims on parallel sweep workers (output is identical for
//! any worker count), `--trace-out PATH` / `--metrics-out PATH` to export
//! the division victim's cross-layer trace (Perfetto-loadable) and the
//! sweep's merged metric registry.

use microscope_bench::{
    exit_with, flags, histogram, out, outln, print_table, run_grid, shape_check,
    summarize_latencies,
};
use microscope_channels::port_contention::{analyze, run_attack, PortContentionConfig};
use microscope_core::sweep::{SweepPoint, SweepSpec};
use microscope_core::SimConfig;

fn main() {
    let flags = flags(&["--jobs", "--samples", "--trace-out", "--metrics-out"]);
    let samples = flags.samples.unwrap_or(10_000);
    let cfg = PortContentionConfig {
        samples,
        replays: samples / 2,
        probe: flags.export.recorder(),
        ..PortContentionConfig::default()
    };
    outln!("== Figure 10: port-contention attack ({samples} monitor samples) ==");
    outln!("victim: control-flow secret (Fig. 4c/6); monitor: timed divsd loop (Fig. 7)");
    outln!("replay handle: addq counter on its own page; walk tuning: long\n");

    // One sweep point per victim variant; the secret rides as the payload.
    let spec = SweepSpec::new("fig10", |pt: &SweepPoint<bool>| {
        Ok(run_attack(pt.payload, &cfg))
    })
    .point("mul victim (10a)", SimConfig::default(), false)
    .point("div victim (10b)", SimConfig::default(), true);
    let sweep = run_grid(spec, flags.jobs);
    let reports: Vec<_> = sweep.ok().map(|(_, rep)| rep).collect();
    let (mul, div) = (reports[0], reports[1]);
    let mut r = analyze(mul.monitor_samples.clone(), div.monitor_samples.clone());
    r.mul_report = Some(mul.clone());
    r.div_report = Some(div.clone());

    outln!(
        "{}",
        summarize_latencies("Fig10a (mul victim)", &r.mul_samples)
    );
    outln!(
        "{}",
        summarize_latencies("Fig10b (div victim)", &r.div_samples)
    );
    outln!("\nFig10a latency histogram (cycles):");
    out!("{}", histogram(&r.mul_samples, 8, 16));
    outln!("\nFig10b latency histogram (cycles):");
    out!("{}", histogram(&r.div_samples, 8, 16));

    print_table(
        &["series", "samples", "over threshold", "threshold"],
        &[
            vec![
                "mul victim (10a)".into(),
                r.mul_samples.len().to_string(),
                r.over.0.to_string(),
                r.threshold.to_string(),
            ],
            vec![
                "div victim (10b)".into(),
                r.div_samples.len().to_string(),
                r.over.1.to_string(),
                r.threshold.to_string(),
            ],
        ],
    );
    outln!(
        "\nover-threshold ratio (div/mul): {:.1}x (paper: 16x — 64 vs 4)",
        r.ratio
    );

    if let Some(report) = &r.div_report {
        flags.export.write(report, &sweep.merged_metrics());
    }

    let ok1 = shape_check(
        "few baseline outliers",
        r.over.0 * 50 < r.mul_samples.len(),
        &format!(
            "{} of {} mul samples over threshold",
            r.over.0,
            r.mul_samples.len()
        ),
    );
    let ok2 = shape_check(
        "division victim clearly distinguishable",
        r.detects_divisions(8.0),
        &format!("ratio {:.1}x >= 8x", r.ratio),
    );
    let ok3 = shape_check(
        "secret recovered from one logical run",
        r.detects_divisions(8.0),
        "presence of two divide instructions detected",
    );
    exit_with(&[ok1, ok2, ok3]);
}
