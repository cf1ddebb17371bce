//! Quickstart: mount a MicroScope replay attack on the paper's Figure-5
//! single-secret victim and watch the Figure-3 timeline unfold.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use microscope::cpu::ContextId;
use microscope::enclave::EnclaveRegion;
use microscope::mem::VAddr;
use microscope::prelude::*;
use microscope::probe::{EventKind, RecorderConfig};
use microscope::victims::single_secret;

fn main() {
    // ------------------------------------------------------------------
    // 1. The victim: Figure 5's getSecret(): count++ is the replay handle,
    //    secrets[id] / key is the transmit computation. It runs inside an
    //    SGX-style enclave, so the OS sees faults at page granularity only.
    // ------------------------------------------------------------------
    let mut b = SessionBuilder::new();
    b.probe(RecorderConfig::default());
    let aspace = b.new_aspace(1);
    let secrets = single_secret::secrets_with_subnormal(16, 5);
    let (prog, layout) =
        single_secret::build(b.phys(), aspace, VAddr(0x1000_0000), &secrets, 5, 3.0);
    b.victim(prog, aspace);
    b.victim_enclave(EnclaveRegion::new(VAddr(0x1000_0000), 64));

    // ------------------------------------------------------------------
    // 2. The Replayer: the in-kernel MicroScope module, configured through
    //    the paper's Table-2 API. Five replays of the handle.
    // ------------------------------------------------------------------
    let id = b.module().provide_replay_handle(ContextId(0), layout.count);
    b.module().recipe_mut(id).replays_per_step = 5;
    b.module().recipe_mut(id).name = "quickstart".into();

    // ------------------------------------------------------------------
    // 3. Run and inspect.
    // ------------------------------------------------------------------
    let mut session = b.build().expect("quickstart installs a victim");
    let report = session
        .execute(RunRequest::cold(10_000_000))
        .expect("a cold run cannot fail");

    println!("== MicroScope quickstart ==");
    println!(
        "victim halted after {} cycles; handle replayed {} times",
        report.cycles,
        report.replays()
    );
    println!(
        "victim architectural result: secrets[5]/3.0 = {:e}",
        session
            .machine()
            .context(ContextId(0))
            .reg_f64(single_secret::regs::RESULT)
    );
    println!(
        "squashed (yet executed!) instructions: {}",
        report.stats.contexts[0].squashed
    );

    // The Figure-3 timeline, straight from the probe: issue of the replay
    // handle, speculative execution of younger instructions, the fault,
    // the squash, and the replay.
    println!("\n-- timeline excerpt (Figure 3) --");
    let events = session.probe().events();
    let mut faults_seen = 0;
    for e in events {
        let interesting = matches!(
            e.kind,
            EventKind::FaultRaised { .. }
                | EventKind::Squash { .. }
                | EventKind::HandlerReturn { .. }
        );
        if interesting {
            println!("{e}");
            if matches!(e.kind, EventKind::FaultRaised { .. }) {
                faults_seen += 1;
                if faults_seen >= 3 {
                    println!("... (remaining replays elided)");
                    break;
                }
            }
        }
    }
    println!("\nThe division executed speculatively on every replay — one");
    println!(
        "logical run, {} noisy samples for the attacker.",
        report.replays()
    );
}
