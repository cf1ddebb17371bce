//! Figure-3 timeline structure and the enclave information boundary.

use microscope::core::{RunRequest, SessionBuilder};
use microscope::cpu::ContextId;
use microscope::enclave::EnclaveRegion;
use microscope::mem::VAddr;
use microscope::probe::{EventKind, RecorderConfig};
use microscope::victims::single_secret;

fn attacked_session(replays: u64, enclave: bool) -> microscope::core::AttackSession {
    let mut b = SessionBuilder::new();
    b.probe(RecorderConfig::default());
    let aspace = b.new_aspace(1);
    let secrets: Vec<f64> = (0..8).map(|i| i as f64 + 1.0).collect();
    let (prog, layout) =
        single_secret::build(b.phys(), aspace, VAddr(0x1000_0000), &secrets, 3, 2.0);
    b.victim(prog, aspace);
    if enclave {
        b.victim_enclave(EnclaveRegion::new(VAddr(0x1000_0000), 64));
    }
    let id = b.module().provide_replay_handle(ContextId(0), layout.count);
    b.module().recipe_mut(id).replays_per_step = replays;
    b.build().expect("timeline session has a victim")
}

#[test]
fn replay_cycle_has_the_figure3_event_order() {
    let mut session = attacked_session(4, false);
    let report = session
        .execute(RunRequest::cold(10_000_000))
        .expect("a cold run cannot fail");
    assert_eq!(report.replays(), 4);
    // Walk the trace: every Fault must be followed (eventually) by a
    // page-fault Squash and a HandlerReturn, and the same pc must fault
    // repeatedly (the replay).
    let events = session.probe().events();
    let mut fault_pcs = Vec::new();
    let mut squashes = 0;
    let mut handlers = 0;
    for e in events {
        match e.kind {
            EventKind::FaultRaised { pc, .. } => fault_pcs.push(pc),
            EventKind::Squash {
                cause: microscope::cpu::SquashCause::PageFault,
                ..
            } => squashes += 1,
            EventKind::HandlerReturn { .. } => handlers += 1,
            _ => {}
        }
    }
    assert_eq!(fault_pcs.len(), 4, "one Fault record per replay");
    assert_eq!(squashes, 4);
    assert_eq!(handlers, 4);
    assert!(
        fault_pcs.windows(2).all(|w| w[0] == w[1]),
        "every replay faults at the same instruction: {fault_pcs:?}"
    );
    // Speculative execution happened between faults: instructions younger
    // than the handle were fetched and squashed.
    assert!(report.stats.contexts[0].squashed > 4);
}

#[test]
fn enclave_hides_the_page_offset_from_the_os() {
    let mut session = attacked_session(2, true);
    let report = session
        .execute(RunRequest::cold(10_000_000))
        .expect("a cold run cannot fail");
    assert_eq!(report.replays(), 2);
    for (_, vaddr) in &report.module.fault_log {
        assert_eq!(
            vaddr.page_offset(),
            0,
            "AEX must sanitize the fault address to page granularity"
        );
    }
}

#[test]
fn run_once_attestation_does_not_stop_microarchitectural_replay() {
    // The §3 asymmetry: the victim's run-once counter blocks conventional
    // replay (relaunching), but the microarchitectural replay happens
    // inside ONE authorized launch.
    let mut policy = microscope::enclave::RunOncePolicy::new(42);
    let permit = policy.authorize(7).expect("first launch authorized");
    assert!(policy.authorize(7).is_err(), "relaunch refused");

    // Within that single permitted launch:
    let mut session = attacked_session(25, true);
    let report = session
        .execute(RunRequest::cold(20_000_000))
        .expect("a cold run cannot fail");
    assert_eq!(permit.input_id(), 7);
    assert_eq!(
        report.replays(),
        25,
        "25 replays inside one authorized launch — attestation never consulted"
    );
}
