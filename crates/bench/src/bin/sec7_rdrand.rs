//! Regenerates **§7.2 "Attacks on Program Integrity"**: biasing RDRAND by
//! selective replay — and the fence that stops it.
//!
//! The paper: "we managed to get all the components of such an attack to
//! work correctly. However … the current implementation of RDRAND on Intel
//! platforms includes a form of fence … and the attack does not go
//! through. The lesson is that there should be such a fence, for security
//! reasons." Both worlds are runnable here via a config bit.

use microscope_bench::{exit_with, flags, outln, print_table, run_grid, shape_check};
use microscope_core::sweep::{SweepPoint, SweepSpec};
use microscope_core::SimConfig;
use microscope_defenses::fences::rdrand_bias_successes;

fn main() {
    let flags = flags(&["--jobs"]);
    let trials = 24;
    outln!("== §7.2: biasing RDRAND via selective replay ==");
    outln!("victim: handle load; r = RDRAND; transmit(table[(r&1)<<12]); commit r");
    outln!("replayer: release the handle only when the observed speculative draw");
    outln!("has the target low bit; otherwise flush the probe lines and replay.\n");

    // Both worlds run as one sweep grid — `--jobs N` fans them out; each
    // trial seeds its own machine from the trial number, so results (and
    // stdout) are byte-identical for any worker count.
    let spec = SweepSpec::new("sec7-rdrand", move |pt: &SweepPoint<bool>| {
        Ok(rdrand_bias_successes(pt.payload, trials, 1))
    })
    .point("unfenced", SimConfig::default(), false)
    .point("fenced", SimConfig::default(), true);
    let sweep = run_grid(spec, flags.jobs);
    let results: Vec<u32> = sweep.ok().map(|(_, n)| *n).collect();
    let (unfenced, fenced) = (results[0], results[1]);
    print_table(
        &[
            "RDRAND implementation",
            "target-bit commits",
            "trials",
            "bias",
        ],
        &[
            vec![
                "unfenced (hypothetical)".into(),
                unfenced.to_string(),
                trials.to_string(),
                format!("{:.0}%", 100.0 * f64::from(unfenced) / f64::from(trials)),
            ],
            vec![
                "fenced (shipping Intel behaviour)".into(),
                fenced.to_string(),
                trials.to_string(),
                format!("{:.0}%", 100.0 * f64::from(fenced) / f64::from(trials)),
            ],
        ],
    );
    outln!();
    let ok1 = shape_check(
        "unfenced RDRAND is biasable",
        f64::from(unfenced) >= 0.85 * f64::from(trials),
        &format!("{unfenced}/{trials} commits had the attacker's bit"),
    );
    let ok2 = shape_check(
        "the fence defeats the attack",
        f64::from(fenced) <= 0.75 * f64::from(trials),
        &format!("{fenced}/{trials} ≈ chance — \"there should be such a fence\""),
    );
    exit_with(&[ok1, ok2]);
}
