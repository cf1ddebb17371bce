//! `AttackSession::execute` rebuilt from the public calls it is made of,
//! so a traced operation can time each layer from outside:
//!
//! * `session.capture` — [`Machine::checkpoint`](microscope_cpu::Machine::checkpoint)
//! * `session.restore` — [`Machine::restore`](microscope_cpu::Machine::restore)
//! * `cpu.run` — [`Machine::run_until`](microscope_cpu::Machine::run_until)
//!   with an always-false predicate that counts the steps it is polled on
//! * `session.report` — [`AttackSession::report`]
//!
//! Only build-time-armed sessions are composed (no deferred arming), for
//! which `execute` captures the armed checkpoint at the top of the first
//! cold run. The traced workloads check that each composed report is
//! byte-identical to `execute()`'s.

use crate::layers::Counts;
use crate::spans::Recorder;
use microscope_core::{AttackReport, AttackSession};
use microscope_cpu::{MachineCheckpoint, RunExit};
use microscope_probe::EventKind;

/// Where the spans of one composed call go: the recorder, the operation
/// id and the parent span.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    /// Span sink.
    pub rec: &'a Recorder,
    /// Operation id (0 = set-up).
    pub op: u64,
    /// Parent span id.
    pub parent: Option<u64>,
}

impl Scope<'_> {
    /// Times `f` as a child span `name` of this scope.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.rec.span(self.op, self.parent, name, |_| f())
    }

    /// Times `f` as a child span `name` and hands `f` a scope under it.
    pub fn nest<T>(&self, name: &'static str, f: impl FnOnce(Scope<'_>) -> T) -> T {
        self.rec.span(self.op, self.parent, name, |id| {
            f(Scope {
                parent: Some(id),
                ..*self
            })
        })
    }
}

/// Runs the machine for `max_cycles` through `run_until`, counting polls
/// of an always-false predicate (one per real step, plus two for the
/// final checks), and records steps and advanced cycles into `counts`.
fn run_counted(
    s: &mut AttackSession,
    max_cycles: u64,
    at: Scope<'_>,
    counts: &mut Counts,
) -> RunExit {
    let machine = s.machine_mut();
    let before = machine.cycle();
    let mut polls = 0u64;
    at.span("cpu.run", || {
        machine.run_until(max_cycles, |_| {
            polls += 1;
            false
        })
    });
    counts.steps += polls.saturating_sub(2);
    counts.run_cycles += machine.cycle() - before;
    if machine.all_halted() {
        RunExit::AllHalted
    } else {
        RunExit::MaxCycles
    }
}

fn emit_session_start(s: &AttackSession) {
    s.probe().emit(
        None,
        EventKind::SessionStart {
            contexts: s.machine().context_count() as u32,
        },
    );
}

fn emit_run_end(s: &AttackSession, exit: RunExit) {
    let cycles = s.machine().cycle();
    s.probe().set_cycle(cycles);
    s.probe().emit(
        None,
        EventKind::RunEnd {
            cycles,
            all_halted: exit == RunExit::AllHalted,
        },
    );
}

/// `execute(RunRequest::cold(max_cycles))` on a freshly built, armed
/// session. Returns the report and the armed checkpoint, which the caller
/// must keep alive as long as `execute` would (copy-on-write costs depend
/// on it).
pub fn cold(
    s: &mut AttackSession,
    max_cycles: u64,
    at: Scope<'_>,
    counts: &mut Counts,
) -> (AttackReport, MachineCheckpoint) {
    let cp = at.span("session.capture", || s.machine().checkpoint());
    emit_session_start(s);
    let exit = run_counted(s, max_cycles, at, counts);
    emit_run_end(s, exit);
    let report = at.span("session.report", || s.report(exit));
    (report, cp)
}

/// `execute(RunRequest::cold(max_cycles).from_checkpoint())` against the
/// armed checkpoint `cp` (captured at cycle 0 of a build-time-armed
/// session). `None` when the supervisor rejects the checkpoint.
pub fn replay(
    s: &mut AttackSession,
    cp: &MachineCheckpoint,
    max_cycles: u64,
    at: Scope<'_>,
    counts: &mut Counts,
) -> Option<AttackReport> {
    if !at.span("session.restore", || s.machine_mut().restore(cp)) {
        return None;
    }
    emit_session_start(s);
    let exit = run_counted(s, max_cycles.saturating_sub(cp.cycle()), at, counts);
    emit_run_end(s, exit);
    Some(at.span("session.report", || s.report(exit)))
}
