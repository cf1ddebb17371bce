//! Cross-checks a static [`AttackPlan`] against the cycle-level
//! simulator: drives the plan's replay handle through an
//! [`AttackSession`] and counts how many times the predicted transmitter
//! actually issued in the handle's shadow. The count is the core's own
//! per-pc issue counter
//! ([`Context::issues_at`](microscope_cpu::Context::issues_at)), so
//! validation runs with tracing off.

use crate::plan::{AttackPlan, HandleKind};
use microscope_core::{AttackSession, BuildError, RunError, RunRequest, SessionBuilder};
use microscope_cpu::ContextId;
use microscope_mem::VAddr;
use microscope_probe::RecorderConfig;
use std::fmt;

/// Why a plan could not be driven through the simulator.
#[derive(Debug)]
pub enum ValidateError {
    /// Only page-fault handles map onto the MicroScope module's
    /// `provide_replay_handle` recipe; TSX/mispredict handles are
    /// analysis-only predictions here.
    UnsupportedHandle(HandleKind),
    /// The session failed to assemble.
    Build(BuildError),
    /// The cold run was refused.
    Run(RunError),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::UnsupportedHandle(k) => {
                write!(f, "handle kind {k:?} cannot be driven by the replay module")
            }
            ValidateError::Build(e) => write!(f, "session build failed: {e}"),
            ValidateError::Run(e) => write!(f, "validation run failed: {e}"),
        }
    }
}

impl std::error::Error for ValidateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValidateError::UnsupportedHandle(_) => None,
            ValidateError::Build(e) => Some(e),
            ValidateError::Run(e) => Some(e),
        }
    }
}

/// The measured outcome of replaying one predicted plan.
#[derive(Clone, Copy, Debug)]
pub struct PlanValidation {
    /// The handle pc the plan predicted.
    pub handle_pc: usize,
    /// The transmitter pc the plan predicted.
    pub transmitter_pc: usize,
    /// How many times the transmitter issued (the core's per-pc issue
    /// count): >1 means it ran again under replay.
    pub transmitter_executions: u64,
    /// Replays the module performed on the handle.
    pub replays: u64,
    /// Whether the measurement confirms the static prediction: the
    /// module replayed at least once *and* the transmitter issued at
    /// least twice (original + replayed shadow).
    pub confirmed: bool,
    /// Result of re-running the attack from the armed
    /// [`MachineCheckpoint`](microscope_cpu::MachineCheckpoint) instead
    /// of from cold: `Some(true)` when the re-run's report equals the cold
    /// one and the transmitter issued as often again (the fast path is
    /// trustworthy for this plan), `None` when the handle never armed so
    /// there was no checkpoint to re-run from.
    pub replay_reconfirmed: Option<bool>,
}

impl fmt::Display for PlanValidation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "handle pc {} -> transmitter pc {}: {} issues over {} replays => {}",
            self.handle_pc,
            self.transmitter_pc,
            self.transmitter_executions,
            self.replays,
            if self.confirmed {
                "CONFIRMED"
            } else {
                "not confirmed"
            }
        )
    }
}

/// Runs `plan` through the simulator. The caller supplies a
/// [`SessionBuilder`] with the victim (and its memory image) already
/// installed; this function turns the probe off, installs the replay
/// recipe for the plan's handle, runs for `max_cycles`, and reads the
/// transmitter's issue count from the victim context.
///
/// A validation bounded at 4 replays per step keeps runs short while
/// still distinguishing "replayed" (>= 2 issues of the transmitter)
/// from "executed once normally".
///
/// `pivot` enables the §4.2.2 stepwise recipe: when the handle page is
/// touched more than once before the planned access (AES walks the
/// round-key page load by load), a pivot on a *different* recurring
/// page lets the module re-arm the handle after each release, stepping
/// the fault forward until the planned handle is the one that replays.
/// Single-access handle pages should pass `None`.
///
/// # Errors
///
/// [`ValidateError::UnsupportedHandle`] for TSX/mispredict handles,
/// [`ValidateError::Build`] when the session cannot be assembled,
/// [`ValidateError::Run`] when the cold run is refused.
pub fn validate_plan(
    mut builder: SessionBuilder,
    plan: &AttackPlan,
    pivot: Option<VAddr>,
    max_cycles: u64,
) -> Result<PlanValidation, ValidateError> {
    let HandleKind::PageFault { vaddr, .. } = plan.handle.kind else {
        return Err(ValidateError::UnsupportedHandle(plan.handle.kind));
    };
    builder.probe(RecorderConfig::disabled());
    let id = builder.module().provide_replay_handle(ContextId(0), vaddr);
    {
        let recipe = builder.module().recipe_mut(id);
        recipe.replays_per_step = 4;
        recipe.pivot = pivot;
        recipe.max_steps = if pivot.is_some() { 64 } else { 1 };
    }
    let mut session = builder.build().map_err(ValidateError::Build)?;
    let report = session
        .execute(RunRequest::cold(max_cycles))
        .map_err(ValidateError::Run)?;
    let executions = victim_issues(&session, plan.transmitter.pc);
    let replays: u64 = report.module.replays.iter().sum();
    // Cross-check the checkpoint/fast-replay engine on this plan: rewind
    // to the armed snapshot and re-run. A rerun that disagrees with the
    // cold measurement means the fast path cannot be trusted for sweeps
    // over this victim, which the caller should know about.
    let replay_reconfirmed = session
        .execute(RunRequest::cold(max_cycles).from_checkpoint())
        .ok()
        .map(|again| again == report && victim_issues(&session, plan.transmitter.pc) == executions);
    Ok(PlanValidation {
        handle_pc: plan.handle.pc,
        transmitter_pc: plan.transmitter.pc,
        transmitter_executions: executions,
        replays,
        confirmed: replays >= 1 && executions >= 2,
        replay_reconfirmed,
    })
}

/// Measures how often `pc` issues with *no* attack installed (baseline
/// for fence-audit runs: a hardened program should keep the transmitter
/// at its natural issue count even under replay pressure — see
/// [`validate_plan`] for the attacked variant).
///
/// # Errors
///
/// [`ValidateError::Build`] when the session cannot be assembled,
/// [`ValidateError::Run`] when the cold run is refused.
pub fn baseline_executions(
    mut builder: SessionBuilder,
    pc: usize,
    max_cycles: u64,
) -> Result<u64, ValidateError> {
    builder.probe(RecorderConfig::disabled());
    let mut session = builder.build().map_err(ValidateError::Build)?;
    session
        .execute(RunRequest::cold(max_cycles))
        .map_err(ValidateError::Run)?;
    Ok(victim_issues(&session, pc))
}

/// How many times the victim's instruction at `pc` has issued so far.
fn victim_issues(session: &AttackSession, pc: usize) -> u64 {
    session.machine().context(ContextId(0)).issues_at(pc)
}
