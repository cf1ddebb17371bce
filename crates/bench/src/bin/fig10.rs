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
    extract_count, histogram, parse_or_exit, print_table, shape_check, summarize_latencies,
    ExportFlags,
};
use microscope_channels::port_contention::{analyze, run_attack, PortContentionConfig};
use microscope_core::sweep::{SweepPoint, SweepSpec};
use microscope_core::SimConfig;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let export = parse_or_exit(ExportFlags::extract(&mut args));
    let jobs = parse_or_exit(extract_count(&mut args, "--jobs"));
    let samples: u64 = parse_or_exit(extract_count(&mut args, "--samples")).unwrap_or(10_000);
    let cfg = PortContentionConfig {
        samples,
        replays: samples / 2,
        probe: export.recorder(),
        ..PortContentionConfig::default()
    };
    println!("== Figure 10: port-contention attack ({samples} monitor samples) ==");
    println!("victim: control-flow secret (Fig. 4c/6); monitor: timed divsd loop (Fig. 7)");
    println!("replay handle: addq counter on its own page; walk tuning: long\n");

    // One sweep point per victim variant; the secret rides as the payload.
    let sweep = SweepSpec::new("fig10", |pt: &SweepPoint<bool>| {
        Ok(run_attack(pt.payload, &cfg))
    })
    .point("mul victim (10a)", SimConfig::default(), false)
    .point("div victim (10b)", SimConfig::default(), true)
    .jobs_opt(jobs)
    .run();
    // Scheduling details go to stderr: stdout stays byte-identical
    // whatever --jobs was.
    eprintln!("{}", sweep.schedule_summary());
    for (pt, err) in sweep.errors() {
        eprintln!("error: point {:?}: {err}", pt.label);
    }
    let reports: Vec<_> = sweep.ok().map(|(_, rep)| rep).collect();
    let [mul, div] = reports.as_slice() else {
        std::process::exit(1);
    };
    let mut r = analyze(mul.monitor_samples.clone(), div.monitor_samples.clone());
    r.mul_report = Some((*mul).clone());
    r.div_report = Some((*div).clone());

    println!(
        "{}",
        summarize_latencies("Fig10a (mul victim)", &r.mul_samples)
    );
    println!(
        "{}",
        summarize_latencies("Fig10b (div victim)", &r.div_samples)
    );
    println!("\nFig10a latency histogram (cycles):");
    print!("{}", histogram(&r.mul_samples, 8, 16));
    println!("\nFig10b latency histogram (cycles):");
    print!("{}", histogram(&r.div_samples, 8, 16));

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
    println!(
        "\nover-threshold ratio (div/mul): {:.1}x (paper: 16x — 64 vs 4)",
        r.ratio
    );

    if let Some(report) = &r.div_report {
        microscope_bench::export_or_exit(export.export_with(report, &sweep.merged_metrics()));
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
    std::process::exit(if ok1 && ok2 && ok3 { 0 } else { 1 });
}
