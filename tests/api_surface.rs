//! Pins the public API surface the rest of the ecosystem leans on:
//!
//! 1. **The prelude is sufficient** — `use microscope::prelude::*` brings
//!    in everything a driver binary needs to build, run and sweep attacks.
//! 2. **Errors are well-behaved** — every error type in the workspace is
//!    `Send + Sync + 'static` (usable in `anyhow`/`Box<dyn Error>`
//!    pipelines and across sweep worker threads), renders as
//!    "what failed: why", and exposes its cause chain through
//!    [`std::error::Error::source`].
//! 3. **`RunRequest` composes** — the builder flags are independent and
//!    order-insensitive.

use microscope::cpu::Assembler;
use microscope::mem::VAddr;
use microscope::prelude::*;
use std::error::Error;

/// Compile-time proof that a type can cross threads and live in boxed
/// error chains.
fn assert_error_type<E: Error + Send + Sync + 'static>() {}

#[test]
fn every_error_type_is_send_sync_static() {
    assert_error_type::<BuildError>();
    assert_error_type::<RunError>();
    assert_error_type::<SweepError>();
    assert_error_type::<microscope_bench::ArgError>();
    assert_error_type::<microscope::analyze::ValidateError>();
    assert_error_type::<microscope::cpu::ProgramError>();
    assert_error_type::<microscope::os::WalkLengthError>();
}

#[test]
fn prelude_exports_cover_the_driver_workflow() {
    // Session assembly + run requests come straight from the prelude.
    let mut b = SessionBuilder::new();
    b.sim(SimConfig::default());
    let req = RunRequest::cold(1_000);
    assert_eq!(req.max_cycles(), 1_000);
    // Sweep types too.
    let spec: SweepSpec<'_, (), AttackReport> = SweepSpec::new("surface", |_pt: &SweepPoint<()>| {
        Err(SweepError::Point("unused".into()))
    });
    assert!(spec.is_empty());
    // And building without a victim is the canonical BuildError.
    assert!(matches!(b.build(), Err(BuildError::NoVictim)));
}

#[test]
fn run_request_flags_compose_in_any_order() {
    let a = RunRequest::cold(5).from_checkpoint().until_monitor_done();
    let b = RunRequest::cold(5).until_monitor_done().from_checkpoint();
    assert_eq!(a, b);
    assert!(a.is_from_checkpoint() && a.is_until_monitor_done());
    // Cross-checked runs replay from the checkpoint by definition.
    let c = RunRequest::cold(5).cross_checked();
    assert!(c.is_cross_checked() && c.is_from_checkpoint());
}

/// A cross-check divergence as `execute` reports it, between the report
/// of a real one-instruction run and a copy that ends a cycle later.
fn diverged() -> RunError {
    let mut b = SessionBuilder::new();
    let aspace = b.new_aspace(1);
    let mut asm = Assembler::new();
    asm.halt();
    b.victim(asm.finish(), aspace);
    let mut session = b.build().expect("session has a victim");
    let report = session.execute(RunRequest::cold(1_000)).expect("cold run");
    RunError::CrossCheckDiverged {
        field: "cycles",
        fast_forward: Box::new(AttackReport {
            cycles: report.cycles + 1,
            ..report.clone()
        }),
        cycle_by_cycle: Box::new(report),
    }
}

#[test]
fn displays_follow_what_failed_colon_why() {
    let cases: Vec<String> = vec![
        BuildError::NoVictim.to_string(),
        RunError::NoMonitor {
            operation: "run until monitor done",
        }
        .to_string(),
        RunError::NoCheckpoint {
            operation: "replay from checkpoint",
        }
        .to_string(),
        RunError::CheckpointMismatch { capture_cycle: 17 }.to_string(),
        diverged().to_string(),
        SweepError::Point("injected".into()).to_string(),
        SweepError::Panicked { label: "p3".into() }.to_string(),
        microscope_bench::ArgError::MissingValue {
            flag: "--jobs".into(),
        }
        .to_string(),
        microscope_bench::ArgError::InvalidValue {
            flag: "--jobs".into(),
            value: "many".into(),
            expected: "a positive integer",
        }
        .to_string(),
        microscope::analyze::ValidateError::Run(RunError::CheckpointMismatch { capture_cycle: 9 })
            .to_string(),
        microscope::cpu::ProgramError::BadRegister { at: 0, reg: 40 }.to_string(),
        BuildError::MonitorBufferUnmapped {
            vaddr: VAddr(0x7000_0008),
        }
        .to_string(),
        BuildError::InvalidConfig {
            field: "hierarchy.dram.banks",
            value: 3,
        }
        .to_string(),
        microscope_bench::ArgError::Unknown {
            arg: "--smaples".into(),
        }
        .to_string(),
        BuildError::InvalidRecipe {
            recipe: microscope::os::RecipeId(1),
            field: "walk.levels",
            value: 0,
        }
        .to_string(),
        microscope::os::WalkLengthError { length: 5 }.to_string(),
    ];
    for msg in &cases {
        assert!(
            msg.contains(" failed: "),
            "error message {msg:?} must read \"what failed: why\""
        );
    }
    // Context actually lands in the rendering.
    assert!(cases[1].starts_with("run until monitor done failed:"));
    assert!(cases[3].contains("cycle 17"));
    assert!(cases[4].starts_with("fast-forward cross-check failed:"));
    assert_eq!(
        cases[4],
        "fast-forward cross-check failed: the reports differ first in `cycles`"
    );
    assert!(cases[7].contains("--jobs"));
    assert!(cases[9].starts_with("validation run failed: checkpoint restore failed:"));
    assert!(cases[10].contains("pc 0") && cases[10].contains("r40"));
    assert!(cases[11].contains("v:0x70000008"), "{}", cases[11]);
    assert!(
        cases[12].contains("hierarchy.dram.banks = 3"),
        "{}",
        cases[12]
    );
    assert_eq!(
        cases[13],
        "parsing --smaples failed: not an accepted argument"
    );
    assert_eq!(
        cases[14],
        "session build failed: recipe 1 walk.levels = 0 breaks its rule"
    );
    assert_eq!(
        cases[15],
        "initiate_page_walk failed: length 5 is outside 1..=4"
    );
}

#[test]
fn error_sources_chain_to_the_cause() {
    let wrapped = SweepError::Run(RunError::NoCheckpoint {
        operation: "replay from checkpoint",
    });
    let source = wrapped.source().expect("SweepError::Run has a cause");
    let run = source
        .downcast_ref::<RunError>()
        .expect("cause is the RunError");
    assert!(matches!(run, RunError::NoCheckpoint { .. }));

    let build = SweepError::Build(BuildError::NoVictim);
    assert!(build
        .source()
        .unwrap()
        .downcast_ref::<BuildError>()
        .is_some());
    // Leaves have no source.
    assert!(BuildError::NoVictim.source().is_none());
    assert!(SweepError::Point("x".into()).source().is_none());
    assert!(
        diverged().source().is_none(),
        "a divergence is its own cause"
    );
    let wrapped = SweepError::Run(diverged());
    assert_eq!(
        wrapped.source().unwrap().downcast_ref::<RunError>(),
        Some(&diverged())
    );

    let validate = microscope::analyze::ValidateError::Run(diverged());
    assert_eq!(
        validate.source().unwrap().downcast_ref::<RunError>(),
        Some(&diverged())
    );
}
