//! Regenerates the paper's **§8 countermeasure discussion** as a table:
//! each defense implemented, attacked, and scored. The seven evaluations
//! run as one sweep grid — pass `--jobs N` to fan them out; the table is
//! identical for any worker count.

use microscope_bench::{exit_with, flags, outln, print_table, run_grid, shape_check};
use microscope_core::sweep::{SweepPoint, SweepSpec};
use microscope_core::SimConfig;
use microscope_defenses::{evaluators, DefenseOutcome};

fn main() {
    let flags = flags(&["--jobs"]);
    outln!("== §8: possible countermeasures, evaluated against the attack ==\n");
    let spec = SweepSpec::new(
        "table-defenses",
        |pt: &SweepPoint<fn() -> DefenseOutcome>| Ok((pt.payload)()),
    )
    .points(
        evaluators()
            .into_iter()
            .map(|(name, f)| (name.to_string(), SimConfig::default(), f)),
    );
    let sweep = run_grid(spec, flags.jobs);
    let outcomes: Vec<DefenseOutcome> = sweep.ok().map(|(_, o)| o.clone()).collect();
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.name.to_string(),
                o.leak_undefended.to_string(),
                o.leak_defended.to_string(),
                if o.reduction().is_infinite() {
                    "inf".into()
                } else {
                    format!("{:.1}x", o.reduction())
                },
                if o.effective { "yes" } else { "NO" }.to_string(),
                o.caveat.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "defense",
            "leak (undefended)",
            "leak (defended)",
            "reduction",
            "effective",
            "caveat",
        ],
        &rows,
    );
    outln!();
    let get = |name: &str| {
        outcomes
            .iter()
            .find(|o| o.name.contains(name))
            .expect("defense present")
    };
    let ok1 = shape_check(
        "pipeline-flush fence bounds replays",
        get("pipeline flush").leak_defended <= 2,
        "leak capped at ~the first execution",
    );
    let tsgx = get("T-SGX");
    let ok2 = shape_check(
        "T-SGX leaves N-1 replays",
        !tsgx.effective && tsgx.leak_defended >= 9,
        &format!("{} speculative windows with N=10", tsgx.leak_defended),
    );
    let ok3 = shape_check(
        "Deja Vu bypassed by clock starving",
        !get("Déjà Vu").effective,
        "adaptive replayer evades detection",
    );
    let pf = get("PF-oblivious");
    let ok4 = shape_check(
        "PF-obliviousness adds replay handles",
        pf.leak_defended > pf.leak_undefended,
        &format!(
            "{} -> {} candidate handles",
            pf.leak_undefended, pf.leak_defended
        ),
    );
    let ok5 = shape_check(
        "invisible speculation: cache channel dies, port channel survives",
        get("vs cache").effective && !get("vs port").effective,
        "coverage gap exactly as the paper argues",
    );
    exit_with(&[ok1, ok2, ok3, ok4, ok5]);
}
