//! The sweep engine's headline invariant, as a property: for an arbitrary
//! small grid of attack configurations, running the same `SweepSpec` with
//! 1 worker and with 4 workers produces **byte-identical** aggregated
//! output — cycles, replay counts, monitor samples, merged metrics, all
//! of it. Scheduling order must never leak into results.

use microscope::core::sweep::{SweepOutcome, SweepPoint, SweepSpec};
use microscope::core::{AttackReport, RunRequest, SessionBuilder, SimConfig};
use microscope::cpu::{Assembler, ContextId, CoreConfig, Reg};
use microscope::mem::{PteFlags, VAddr};
use microscope::os::WalkTuning;
use proptest::prelude::*;

/// One grid point's knobs, drawn by proptest.
#[derive(Clone, Copy, Debug)]
struct Knobs {
    replays: u64,
    rob_size: usize,
    walk_levels: u8,
    table_lines: u64,
}

fn arb_knobs() -> impl Strategy<Value = Knobs> {
    (1u64..5, 0u8..2, 1u8..5, 2u64..6).prop_map(|(replays, small_rob, walk_levels, table_lines)| {
        Knobs {
            replays,
            rob_size: if small_rob == 0 { 64 } else { 224 },
            walk_levels,
            table_lines,
        }
    })
}

/// Builds and runs one cache-transmit replay attack from a grid point:
/// handle load, then a table load the Replayer probes between replays.
fn run_point(pt: &SweepPoint<Knobs>) -> AttackReport {
    let mut b = SessionBuilder::new();
    b.sim(pt.sim);
    let aspace = b.new_aspace(1);
    let handle = VAddr(0x1000_0000);
    let table = VAddr(0x1000_2000);
    aspace.alloc_map(b.phys(), handle, 4096, PteFlags::user_data());
    aspace.alloc_map(b.phys(), table, 4096, PteFlags::user_data());
    // The seed picks which line the victim touches — any deterministic
    // function of the per-point seed works; the property is only that the
    // result does not depend on which worker ran it.
    let secret = pt.seed % pt.payload.table_lines;
    let (hp, hv, tp, tv) = (Reg(1), Reg(2), Reg(3), Reg(4));
    let mut asm = Assembler::new();
    asm.imm(hp, handle.0)
        .imm(tp, table.0 + secret * 64)
        .load(hv, hp, 0)
        .load(tv, tp, 0)
        .halt();
    b.victim(asm.finish(), aspace);
    let id = b.module().provide_replay_handle(ContextId(0), handle);
    {
        let recipe = b.module().recipe_mut(id);
        recipe.replays_per_step = pt.payload.replays;
        recipe.walk = WalkTuning::Length {
            levels: pt.payload.walk_levels,
        };
        recipe.prime_between_replays = true;
        for l in 0..pt.payload.table_lines {
            recipe.monitor_addrs.push(table.offset(l * 64));
        }
    }
    b.build()
        .expect("determinism-test session has a victim")
        .execute(RunRequest::cold(10_000_000))
        .expect("a cold run cannot fail")
}

fn run_grid(grid: &[Knobs], jobs: usize) -> SweepOutcome<Knobs, AttackReport> {
    let mut spec = SweepSpec::new("determinism", |pt: &SweepPoint<Knobs>| Ok(run_point(pt)));
    for (i, k) in grid.iter().enumerate() {
        let sim = SimConfig::new().with_core(CoreConfig {
            rob_size: k.rob_size,
            ..CoreConfig::default()
        });
        spec = spec.point(format!("g{i}"), sim, *k);
    }
    spec.jobs(jobs).run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn jobs_1_and_jobs_4_aggregate_byte_identically(
        grid in prop::collection::vec(arb_knobs(), 2..6),
    ) {
        let serial = run_grid(&grid, 1);
        let parallel = run_grid(&grid, 4);
        prop_assert_eq!(serial.jobs, 1);
        // The whole deterministic surface at once: labels, seeds, exits,
        // cycles, replay counters, monitor samples, merged metrics.
        prop_assert_eq!(serial.digest(), parallel.digest());
        // And every point's whole report, beyond the fields the digest encodes.
        for (s, p) in serial.results.iter().zip(parallel.results.iter()) {
            prop_assert!(s.output.is_ok(), "serial point ran");
            prop_assert_eq!(&s.output, &p.output);
        }
    }
}

/// `SimConfig` is the single configuration surface: piecewise overrides go
/// through `sim()`/`sim_mut()` (the old per-layer delegate setters are
/// gone — they let late calls silently clobber a supplied `SimConfig`).
#[test]
fn sim_config_is_the_single_configuration_surface() {
    let mut b = SessionBuilder::new();
    let core = CoreConfig {
        rob_size: 96,
        ..CoreConfig::default()
    };
    b.sim(SimConfig::new());
    // Targeted post-hoc adjustment goes through sim_mut, in place.
    b.sim_mut().core = core;
    assert_eq!(
        *b.sim_mut(),
        SimConfig::new().with_core(core),
        "sim()/sim_mut() writes land in the consolidated SimConfig"
    );

    // And a session configured through SimConfig attacks fine.
    let aspace = b.new_aspace(1);
    let handle = VAddr(0x1000_0000);
    aspace.alloc_map(b.phys(), handle, 4096, PteFlags::user_data());
    let mut asm = Assembler::new();
    asm.imm(Reg(1), handle.0).load(Reg(2), Reg(1), 0).halt();
    b.victim(asm.finish(), aspace);
    let id = b.module().provide_replay_handle(ContextId(0), handle);
    b.module().recipe_mut(id).replays_per_step = 3;
    let report = b
        .build()
        .expect("victim installed")
        .execute(RunRequest::cold(10_000_000))
        .expect("a cold run cannot fail");
    assert_eq!(report.replays(), 3);
}

/// Builder misuse surfaces as typed errors, not panics.
#[test]
fn builder_and_run_errors_are_results_not_panics() {
    use microscope::core::{BuildError, RunError};

    let err = match SessionBuilder::new().build() {
        Err(e) => e,
        Ok(_) => panic!("building without a victim must fail"),
    };
    assert_eq!(err, BuildError::NoVictim);
    assert!(err.to_string().contains("victim"));

    let mut b = SessionBuilder::new();
    let aspace = b.new_aspace(1);
    let handle = VAddr(0x1000_0000);
    aspace.alloc_map(b.phys(), handle, 4096, PteFlags::user_data());
    let mut asm = Assembler::new();
    asm.imm(Reg(1), handle.0).load(Reg(2), Reg(1), 0).halt();
    b.victim(asm.finish(), aspace);
    let mut session = b.build().expect("victim installed");
    let err = session
        .execute(RunRequest::cold(1_000_000).until_monitor_done())
        .expect_err("no monitor installed");
    assert!(matches!(err, RunError::NoMonitor { .. }));
    assert!(err.to_string().contains("monitor"));
}
