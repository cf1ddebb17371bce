//! Regenerates **Table 1** (paper §2.4): the taxonomy of SGX side channels
//! by spatial granularity, temporal resolution and noise — with every row
//! *measured* by running the corresponding channel model on the simulator.
//!
//! The paper's table is qualitative; this harness reports the claimed
//! class next to a measured single-trace accuracy (noise proxy: accuracy
//! 1.0 ⇒ noiseless; ≪1.0 ⇒ the attack needs many traces) and the
//! channel's spatial granularity in bytes. The ten rows run as one sweep
//! grid — pass `--jobs N` to fan them out across workers; the printed
//! table is identical for any worker count.

use microscope_bench::{exit_with, flags, outln, print_table, run_grid, shape_check};
use microscope_channels::taxonomy::{catalog, Measurement, Noise, Temporal};
use microscope_core::sweep::{SweepPoint, SweepSpec};
use microscope_core::SimConfig;

/// One taxonomy row's sweep payload: its experiment fn plus trial count.
type RowRun = (fn(u32, u64) -> Measurement, u32);

fn main() {
    let flags = flags(&["--jobs", "--trials", "--trace-out", "--metrics-out"]);
    let (export, trials) = (flags.export, flags.trials.unwrap_or(30));
    outln!("== Table 1: side-channel taxonomy, measured ({trials} trials/row) ==\n");
    let rows_catalog = catalog();
    // Each taxonomy row is one sweep point; the payload carries the row's
    // experiment fn and its trial count (MicroScope-class experiments are
    // slower, so their trials scale down).
    let defs: Vec<(String, SimConfig, RowRun)> = rows_catalog
        .iter()
        .map(|row| {
            let t = if row.name.contains("MicroScope") || row.name.contains("one shot") {
                (trials / 3).max(4)
            } else {
                trials
            };
            (
                row.name.to_string(),
                SimConfig::default(),
                (row.experiment, t),
            )
        })
        .collect();
    let spec = SweepSpec::new("table1", |pt: &SweepPoint<RowRun>| {
        let (experiment, t) = pt.payload;
        // The historical per-row seed formula, kept so the measured
        // numbers match the serial harness exactly.
        Ok(experiment(t, 0xdecade + t as u64))
    })
    .points(defs);
    let sweep = run_grid(spec, flags.jobs);
    let results: Vec<_> = rows_catalog
        .iter()
        .zip(sweep.ok().map(|(_, m)| *m))
        .collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(row, m)| {
            vec![
                row.name.to_string(),
                row.citation.to_string(),
                format!(
                    "{}{}",
                    if row.spatial.is_fine_grain() {
                        "fine "
                    } else {
                        "coarse "
                    },
                    row.spatial.bytes()
                ),
                match row.temporal {
                    Temporal::Low => "low".into(),
                    Temporal::MediumHigh => "medium/high".into(),
                },
                match row.noise {
                    Noise::None => "none".into(),
                    Noise::Medium => "medium".into(),
                    Noise::High => "high".into(),
                },
                format!("{:.2}", m.single_trace_accuracy),
                m.samples_per_run.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "attack",
            "paper ref",
            "spatial (B)",
            "temporal",
            "noise (claim)",
            "1-trace acc",
            "samples/run",
        ],
        &rows,
    );

    outln!();
    // Shape checks: the table's key orderings.
    let acc = |name: &str| {
        results
            .iter()
            .find(|(r, _)| r.name.contains(name))
            .map(|(_, m)| m.single_trace_accuracy)
            .expect("row present")
    };
    let ok1 = shape_check(
        "noiseless page channels",
        acc("Controlled") >= 0.99 && acc("Sneaky") >= 0.7,
        "controlled channel succeeds every time; SPM loses only to \
         speculative A-bit pollution",
    );
    let ok2 = shape_check(
        "contention channels are noisy",
        acc("one shot") < 0.95 || acc("DRAMA") < 1.0 || acc("TLB") < 1.0,
        "single traces misclassify under ambient noise",
    );
    let ok3 = shape_check(
        "MicroScope: fine grain, high resolution, no noise",
        acc("MicroScope") >= 0.99,
        &format!(
            "accuracy {:.2} from a single logical run",
            acc("MicroScope")
        ),
    );
    let ok4 = shape_check(
        "MicroScope >= one-shot port contention",
        acc("MicroScope") >= acc("one shot"),
        &format!("{:.2} vs {:.2}", acc("MicroScope"), acc("one shot")),
    );
    // On request, export the cross-layer trace/metrics of one
    // representative MicroScope run (the table rows themselves only return
    // aggregate accuracies) plus the sweep's merged per-row metrics.
    if export.active() {
        let cfg = microscope_channels::port_contention::PortContentionConfig {
            samples: 400,
            replays: 300,
            ambient_interrupt_retires: None,
            probe: export.recorder(),
            ..Default::default()
        };
        let report = microscope_channels::port_contention::run_attack(true, &cfg);
        export.write(&report, &sweep.merged_metrics());
    }
    exit_with(&[ok1, ok2, ok3, ok4]);
}
