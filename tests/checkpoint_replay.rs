//! The checkpoint/fast-replay engine's contract, as properties:
//!
//! 1. **Restore is exact** — re-running a session from its armed
//!    [`MachineCheckpoint`](microscope::cpu::MachineCheckpoint) produces
//!    an [`AttackReport`](microscope::core::AttackReport) equal (`==`)
//!    to that of a cold re-execution of an identically built
//!    session, across arbitrary victims, replay counts and core configs,
//!    whether the checkpoint was captured up front or mid-run at a
//!    deferred-arm interrupt. So is every context's per-pc issue count
//!    (`Context::issues_at`), which the report does not carry.
//! 2. **Fast-forward is invisible** — idle-cycle clock jumps change
//!    nothing observable: cycle-by-cycle and fast-forwarded execution
//!    yield equal reports (also enforced internally by
//!    `RunRequest::cross_checked`), including over divisions that wait on
//!    a divider an SMT sibling keeps busy and over fenced windows. The
//!    per-pc issue counts agree as well.
//! 3. **The probe ring counts its drops** — a ring too small for the
//!    event stream records `capacity` events and counts the rest, so
//!    `recorded + dropped` equals the full stream's length.
//! 4. **CoW restore is a deep-clone restore** — arbitrary interleaved
//!    dirty writes between capture and restore never leak through a
//!    copy-on-write snapshot: restoring it yields the same bytes a
//!    byte-for-byte deep copy taken at capture time holds.
//! 5. **Fast-forward's step count is pinned** — the real steps a small
//!    Figure-10 session takes are an exact witness of the wake rule.
//! 6. **Capture works at any cycle** — stopping a run at an arbitrary
//!    cycle k (exactly k, fast-forward on or off), checkpointing, and
//!    running on — live or after a restore — ends with a report equal to
//!    the uninterrupted run's, issue counts included.

use microscope::channels::port_contention::{self, PortContentionConfig};
use microscope::core::{AttackReport, AttackSession, RunRequest, SessionBuilder};
use microscope::cpu::{AluOp, Assembler, Cond, ContextId, CoreConfig, Machine, Reg, RunExit};
use microscope::mem::{PAddr, PhysMem, PteFlags, VAddr, PAGE_BYTES};
use microscope::os::WalkTuning;
use microscope::probe::RecorderConfig;
use proptest::prelude::*;

/// One generated victim: a handle load at a random position inside a
/// straight-line mix of ALU ops, loads and multiplies — optionally also
/// divisions, fences and (fenced) RDRANDs — with an optional SMT sibling
/// that hammers the shared divider.
#[derive(Clone, Copy, Debug)]
struct Knobs {
    ops: u8,
    handle_frac: u8,
    replays: u64,
    rob_small: bool,
    walk_levels: u8,
    probe_capacity: usize,
    /// Widen the op mix with `FDiv`, `Fence` and `RdRand`: ready entries
    /// that wait on the busy divider or on an older entry completing.
    serializing: bool,
    /// Iterations of the sibling context's two-division loop (0 = no
    /// sibling).
    hammer_divs: u8,
}

fn arb_knobs() -> impl Strategy<Value = Knobs> {
    (
        (4u8..24, 0u8..100, 1u64..10, 0u8..2, 1u8..5, 0u8..3),
        (0u8..2, prop_oneof![Just(0u8), 1u8..40]),
    )
        .prop_map(
            |((ops, handle_frac, replays, rob_small, walk_levels, cap), (serializing, hammer))| {
                Knobs {
                    ops,
                    handle_frac,
                    replays,
                    rob_small: rob_small == 1,
                    walk_levels,
                    // Exercise tiny, wrapped and roomy rings.
                    probe_capacity: [64, 1_000, 100_000][cap as usize],
                    serializing: serializing == 1,
                    hammer_divs: hammer,
                }
            },
        )
}

/// Builds one session from the knobs (deterministic in the knobs, so two
/// calls produce identically behaving sessions).
fn build(k: &Knobs) -> AttackSession {
    build_deferred(k, None)
}

/// [`build`], with arming deferred until the victim has retired `defer`
/// instructions: the session then captures its checkpoint mid-run, at the
/// arming interrupt, instead of at the first poll of the first run.
fn build_deferred(k: &Knobs, defer: Option<u64>) -> AttackSession {
    let mut b = SessionBuilder::new();
    if let Some(retires) = defer {
        b.defer_arm(retires);
    }
    b.sim_mut().core = CoreConfig {
        rob_size: if k.rob_small { 64 } else { 224 },
        ..CoreConfig::default()
    };
    b.probe(RecorderConfig {
        enabled: true,
        capacity: k.probe_capacity,
    });
    let aspace = b.new_aspace(1);
    let handle = VAddr(0x1000_0000);
    let data = VAddr(0x1000_2000);
    aspace.alloc_map(b.phys(), handle, 4096, PteFlags::user_data());
    aspace.alloc_map(b.phys(), data, 4096, PteFlags::user_data());
    let (hp, dp) = (Reg(14), Reg(13));
    let mut asm = Assembler::new();
    asm.imm(hp, handle.0).imm(dp, data.0);
    for r in 1..8u8 {
        asm.imm(Reg(r), u64::from(r) * 11 + 3);
    }
    let handle_pos = usize::from(k.ops) * usize::from(k.handle_frac) / 100;
    for i in 0..usize::from(k.ops) {
        if i == handle_pos {
            asm.load(Reg(15), hp, 0);
        }
        // A deterministic op mix keyed off the index: some ALU pressure,
        // some memory traffic, some multiplies to occupy ports, and with
        // `serializing` divider work and ops that wait for older ones.
        match i % if k.serializing { 7 } else { 4 } {
            0 => {
                asm.alu_imm(AluOp::Add, Reg(1 + (i % 7) as u8), Reg(1), i as u64);
            }
            1 => {
                asm.load(Reg(2 + (i % 5) as u8), dp, (i as i64 % 8) * 8);
            }
            2 => {
                asm.mul(Reg(3), Reg(2), Reg(1));
            }
            3 => {
                asm.store(Reg(4), dp, (i as i64 % 8) * 8);
            }
            4 => {
                asm.fence();
            }
            5 => {
                asm.fdiv(Reg(5), Reg(1 + (i % 3) as u8), Reg(6));
            }
            _ => {
                asm.rdrand(Reg(7));
            }
        }
    }
    asm.halt();
    b.victim(asm.finish(), aspace);
    if k.hammer_divs > 0 {
        // The SMT sibling: a loop of independent divisions, so the
        // victim's divisions queue on a divider the sibling keeps busy.
        let sibling = b.new_aspace(2);
        let mut asm = Assembler::new();
        asm.imm_f64(Reg(1), 9.0)
            .imm_f64(Reg(2), 3.0)
            .imm(Reg(5), 0)
            .imm(Reg(6), u64::from(k.hammer_divs));
        let top = asm.label();
        asm.bind(top)
            .fdiv(Reg(3), Reg(1), Reg(2))
            .fdiv(Reg(4), Reg(2), Reg(1))
            .alu_imm(AluOp::Add, Reg(5), Reg(5), 1)
            .branch(Cond::Lt, Reg(5), Reg(6), top)
            .halt();
        b.monitor(asm.finish(), sibling, None);
    }
    let id = b.module().provide_replay_handle(ContextId(0), handle);
    {
        let recipe = b.module().recipe_mut(id);
        recipe.replays_per_step = k.replays;
        recipe.walk = WalkTuning::Length {
            levels: k.walk_levels,
        };
    }
    b.build().expect("generated session has a victim")
}

/// Every context's per-pc issue counts, which are not in the report.
fn issue_counts(session: &AttackSession) -> Vec<Vec<u64>> {
    let m = session.machine();
    (0..m.context_count())
        .map(|c| {
            let ctx = m.context(ContextId(c));
            (0..ctx.program().len())
                .map(|pc| ctx.issues_at(pc))
                .collect()
        })
        .collect()
}

const BUDGET: u64 = 40_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 1: cold re-execution vs restore-from-checkpoint.
    #[test]
    fn rerun_from_checkpoint_matches_cold_execution(k in arb_knobs()) {
        let mut cold_session = build(&k);
        let cold = cold_session
            .execute(RunRequest::cold(BUDGET))
            .expect("a cold run cannot fail");
        let cold_issues = issue_counts(&cold_session);
        let mut session = build(&k);
        let first = session
            .execute(RunRequest::cold(BUDGET))
            .expect("a cold run cannot fail");
        prop_assert_eq!(&first, &cold, "same build must replay identically");
        prop_assert!(session.armed_checkpoint().is_some(), "handle armed at build");
        for _ in 0..2 {
            let again = session
            .execute(RunRequest::cold(BUDGET).from_checkpoint())
            .expect("checkpoint captured");
            prop_assert_eq!(&again, &cold, "rerun must equal cold");
            prop_assert_eq!(
                &issue_counts(&session),
                &cold_issues,
                "a rerun must count every issue as the cold run did"
            );
        }
        // The counters the CoW engine threads through the session must
        // never leak into the report (they differ between cold and warm
        // executions, and the equality above would be unprovable).
        let stats = session.checkpoint_metrics();
        prop_assert!(matches!(
            stats.get("checkpoint.restores"),
            Some(microscope::probe::MetricValue::Count(n)) if n >= 2
        ));
        prop_assert!(cold.metrics.get("checkpoint.restores").is_none());
    }

    /// Property 2: fast-forward on vs off (both cold and rerun paths).
    #[test]
    fn fast_forward_is_observationally_invisible(k in arb_knobs()) {
        let mut slow = build(&k);
        slow.machine_mut().set_fast_forward(false);
        let slow_report = slow
            .execute(RunRequest::cold(BUDGET))
            .expect("a cold run cannot fail");
        let mut fast = build(&k);
        let fast_report = fast
            .execute(RunRequest::cold(BUDGET))
            .expect("a cold run cannot fail");
        prop_assert_eq!(&fast_report, &slow_report);
        prop_assert_eq!(issue_counts(&fast), issue_counts(&slow));
        // And the built-in cross-check mode agrees with a cycle-by-cycle
        // run of its shape: it stops when the sibling halts, if any.
        let shape = |req: RunRequest| {
            if k.hammer_divs > 0 {
                req.until_monitor_done()
            } else {
                req
            }
        };
        let mut slow = build(&k);
        slow.machine_mut().set_fast_forward(false);
        let slow_report = slow
            .execute(shape(RunRequest::cold(BUDGET)))
            .expect("the sibling is the monitor");
        let mut checked = build(&k);
        checked
            .execute(RunRequest::cold(BUDGET))
            .expect("a cold run cannot fail");
        let report = checked
            .execute(RunRequest::cold(BUDGET).cross_checked())
            .expect("checkpoint captured");
        prop_assert_eq!(&report, &slow_report);
        prop_assert_eq!(issue_counts(&checked), issue_counts(&slow));
    }

    /// Property 4: a CoW snapshot restores exactly what a byte-for-byte
    /// deep copy taken at the same instant holds, no matter what dirty
    /// writes (to old pages or freshly allocated ones) land in between.
    #[test]
    fn cow_restore_matches_deep_clone_restore(
        seed_writes in prop::collection::vec((0u64..8, 0u64..PAGE_BYTES, 0u8..255), 1..64),
        dirty_writes in prop::collection::vec((0u64..12, 0u64..PAGE_BYTES, 0u8..255), 1..128),
    ) {
        let mut phys = PhysMem::new();
        let base = phys.alloc_frames(8);
        for &(frame, off, v) in &seed_writes {
            phys.write_u8(PAddr((base + frame) * PAGE_BYTES + off), v);
        }

        // Deep clone: every resident byte, copied out by hand.
        let deep: Vec<Vec<u8>> = (0..8)
            .map(|frame| {
                let mut page = vec![0u8; PAGE_BYTES as usize];
                phys.read_bytes(PAddr((base + frame) * PAGE_BYTES), &mut page);
                page
            })
            .collect();
        // CoW clone: one Arc bump.
        let snap = phys.clone();
        phys.begin_epoch();

        // Interleave dirty writes over the original: the first 8 frames
        // are shared with `snap`, the rest are fresh allocations.
        let extra = phys.alloc_frames(4);
        for &(frame, off, v) in &dirty_writes {
            let pa = if frame < 8 {
                (base + frame) * PAGE_BYTES + off
            } else {
                (extra + frame - 8) * PAGE_BYTES + off
            };
            phys.write_u8(PAddr(pa), v);
        }

        // Restore is a clone of the snapshot — and must equal the deep copy.
        let dirtied = phys.epoch_dirty_pages();
        phys = snap.clone();
        for (frame, want) in deep.iter().enumerate() {
            let mut got = vec![0u8; PAGE_BYTES as usize];
            phys.read_bytes(PAddr((base + frame as u64) * PAGE_BYTES), &mut got);
            prop_assert_eq!(&got, want, "frame {} diverged after CoW restore", frame);
        }
        // Restore cost is bounded by what was actually dirtied, never the
        // resident footprint.
        prop_assert!(dirtied <= dirty_writes.len() as u64 + 4);
    }
}

/// Runs `session`'s machine until every context halts or the cycle count
/// reaches [`BUDGET`], then reports.
fn run_to_end(session: &mut AttackSession) -> AttackReport {
    let left = BUDGET - session.machine().cycle();
    let exit = if session.machine_mut().run_until(left, Machine::all_halted) {
        RunExit::AllHalted
    } else {
        RunExit::MaxCycles
    };
    session.report(exit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 6: a run stopped at cycle k = `pct`% of the uninterrupted
    /// run's length, checkpointed there and run on, ends exactly as the
    /// uninterrupted run does; so does a second run on after restoring the
    /// checkpoint. Covers both the cycle-by-cycle and the fast-forwarded
    /// loop, so the budget stop must be exact under fast-forward too.
    #[test]
    fn capture_at_any_cycle_resumes_like_a_continuous_run(
        k in arb_knobs(),
        pct in 0u64..101,
    ) {
        for fast_forward in [false, true] {
            let mut whole = build(&k);
            whole.machine_mut().set_fast_forward(fast_forward);
            let want = run_to_end(&mut whole);
            let want_issues = issue_counts(&whole);
            let cut = whole.machine().cycle() * pct / 100;

            let mut split = build(&k);
            split.machine_mut().set_fast_forward(fast_forward);
            split.machine_mut().run_until(cut, |_| false);
            // The uninterrupted run first halts at its last cycle, so this
            // one cannot halt before `cut`.
            prop_assert_eq!(split.machine().cycle(), cut, "fast-forward {}", fast_forward);
            let cp = split.machine().checkpoint();
            prop_assert_eq!(&run_to_end(&mut split), &want, "live, fast-forward {}", fast_forward);
            prop_assert_eq!(&issue_counts(&split), &want_issues);
            prop_assert!(split.machine_mut().restore(&cp));
            prop_assert_eq!(&run_to_end(&mut split), &want, "restored, fast-forward {}", fast_forward);
            prop_assert_eq!(&issue_counts(&split), &want_issues);
        }
    }
}

/// The monitor path (SMT sibling sampling + step interrupts) round-trips
/// through the checkpoint too: a checkpointed monitor-done request
/// reproduces the cold monitor-done report of an identically built
/// session.
#[test]
fn monitor_session_rerun_matches_cold() {
    let cfg = PortContentionConfig {
        samples: 80,
        replays: 60,
        handler_cycles: 500,
        walk: WalkTuning::Long,
        max_cycles: 20_000_000,
        ambient_interrupt_retires: Some(5_000),
        probe: Some(RecorderConfig::with_capacity(50_000)),
    };
    let cold = {
        let mut s = port_contention::build_session(true, &cfg);
        s.execute(RunRequest::cold(cfg.max_cycles).until_monitor_done())
            .expect("monitor installed")
    };
    let mut s = port_contention::build_session(true, &cfg);
    let first = s
        .execute(RunRequest::cold(cfg.max_cycles).until_monitor_done())
        .expect("monitor installed");
    assert_eq!(first, cold);
    let again = s
        .execute(
            RunRequest::cold(cfg.max_cycles)
                .until_monitor_done()
                .from_checkpoint(),
        )
        .expect("checkpoint captured on first run");
    assert_eq!(again, cold);
}

/// Mid-run capture round-trips too: a session armed at a deferred-arm
/// interrupt captures its checkpoint mid-run, and every request shape run
/// on it — cold, from the checkpoint, cross-checked — reproduces a fresh
/// cold report, with and without an SMT sibling that halts first.
#[test]
fn mid_run_capture_replays_like_cold() {
    for hammer_divs in [0, 6] {
        let k = Knobs {
            ops: 16,
            handle_frac: 50,
            replays: 3,
            rob_small: false,
            walk_levels: 3,
            probe_capacity: 100_000,
            serializing: true,
            hammer_divs,
        };
        let req = if hammer_divs > 0 {
            RunRequest::cold(BUDGET).until_monitor_done()
        } else {
            RunRequest::cold(BUDGET)
        };
        // Arming must happen before the sibling halts, or nothing is
        // captured: keep `defer` below the retirements the victim reaches
        // by then.
        for defer in [None, Some(1), Some(3), Some(6)] {
            let run = |s: &mut AttackSession, req: RunRequest| {
                s.execute(req).expect("a captured session runs")
            };
            let cold = run(&mut build_deferred(&k, defer), req);
            assert_eq!(run(&mut build_deferred(&k, defer), req), cold);
            let mut s = build_deferred(&k, defer);
            assert_eq!(run(&mut s, req), cold, "defer {defer:?}");
            let capture_cycle = s.armed_checkpoint().expect("armed during the run").cycle();
            assert_eq!(capture_cycle > 0, defer.is_some(), "defer {defer:?}");
            for _ in 0..2 {
                assert_eq!(run(&mut s, req.from_checkpoint()), cold, "defer {defer:?}");
            }
            assert_eq!(run(&mut s, req.cross_checked()), cold, "defer {defer:?}");
        }
    }
}

/// Property 3: the ring's counted-drops invariant. A roomy ring captures
/// the whole stream; a tiny ring over the same execution must satisfy
/// `recorded == capacity` and `recorded + dropped == full stream length`.
#[test]
fn probe_ring_overflow_counts_every_dropped_event() {
    let k = Knobs {
        ops: 20,
        handle_frac: 40,
        replays: 8,
        rob_small: false,
        walk_levels: 4,
        probe_capacity: 1_000_000,
        serializing: false,
        hammer_divs: 0,
    };
    let full = build(&k)
        .execute(RunRequest::cold(BUDGET))
        .expect("a cold run cannot fail");
    assert_eq!(full.dropped_events, 0, "roomy ring must not drop");
    let emitted = full.trace.len() as u64;

    let tiny_cap = 128u64;
    let tiny = build(&Knobs {
        probe_capacity: tiny_cap as usize,
        ..k
    })
    .execute(RunRequest::cold(BUDGET))
    .expect("a cold run cannot fail");
    assert!(emitted > tiny_cap, "workload must overflow the tiny ring");
    assert_eq!(
        tiny.trace.len() as u64,
        tiny_cap,
        "ring keeps exactly capacity"
    );
    assert_eq!(
        tiny.dropped_events,
        emitted - tiny.trace.len() as u64,
        "events_dropped must equal emitted minus recorded"
    );
}

/// Real steps a small Figure-10 session takes, counted the way the
/// benchmark's `cpu.steps_per_op` counts them: polls of an always-false
/// `run_until` predicate, which is evaluated once per real step and once
/// more when the run ends.
fn fig10_steps(secret: bool) -> u64 {
    let cfg = PortContentionConfig {
        samples: 24,
        replays: 30,
        handler_cycles: 800,
        walk: WalkTuning::Long,
        max_cycles: 20_000_000,
        ambient_interrupt_retires: None,
        probe: None,
    };
    let mut s = port_contention::build_session(secret, &cfg);
    let mut polls = 0u64;
    let fired = s.machine_mut().run_until(cfg.max_cycles, |_| {
        polls += 1;
        false
    });
    assert!(!fired && s.machine().all_halted(), "both contexts finish");
    polls - 2
}

/// The exact-steps witness for the fast-forward wake rule. Step counts
/// are deterministic, so they are pinned exactly: a change to what
/// fast-forward may skip moves them, and a deliberate one re-pins them
/// here, quoting the delta. Skipping the cycles in which a ready division
/// waits only on the busy divider (crediting the stalls) took the
/// division victim's count from 1,153 to 493 (the multiplication victim's
/// stayed at 493).
#[test]
fn fast_forward_steps_witness() {
    assert_eq!([fig10_steps(false), fig10_steps(true)], [493, 493]);
}
