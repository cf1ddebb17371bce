//! `fig10_replay`: the replay hot path. One operation is one warm
//! `execute(RunRequest::cold(..).from_checkpoint())` of each Figure-10
//! port-contention session, the multiplication victim's and the division
//! victim's: 400 replays of the victim's handle each, while the SMT
//! monitor samples the divider. Replaying both victims in every operation
//! keeps operations one shape, so a percentile of operation times covers
//! both instead of the cheaper one. The seed picks which victim goes first
//! in each operation, and which one the cross-check runs.
//!
//! Set-up builds both sessions and arms them with one cold run each, and
//! checks that the attacker tells the two victims apart
//! (`Fig10Result::detects_divisions`).

use super::{combine, maybe_span, no_panic, Outcome, Rng, Workload};
use crate::compose::{self, Scope};
use crate::layers::Counts;
use microscope_channels::port_contention::{self, PortContentionConfig};
use microscope_core::{AttackReport, AttackSession, RunRequest};
use microscope_cpu::MachineCheckpoint;
use microscope_os::WalkTuning;

const MAX_CYCLES: u64 = 80_000_000;

/// Division-victim over multiplication-victim ratio of over-threshold
/// samples the attacker needs (the scaled-down Figure 10 of the channel's
/// own tests uses the same bar).
const MIN_RATIO: f64 = 4.0;

fn config() -> PortContentionConfig {
    PortContentionConfig {
        samples: 256,
        replays: 400,
        handler_cycles: 800,
        walk: WalkTuning::Long,
        max_cycles: MAX_CYCLES,
        ambient_interrupt_retires: None,
        probe: None,
    }
}

/// One victim variant: its session, the armed state captured from
/// outside (what traced operations restore), and the arming run's report.
struct Variant {
    session: AttackSession,
    armed: MachineCheckpoint,
    reference: AttackReport,
    /// Whether a traced replay was already compared byte for byte.
    verified: bool,
}

/// Whether a replay reproduced the arming run's attacker-visible output.
fn matches(r: &AttackReport, reference: &AttackReport) -> bool {
    r.replays() == reference.replays() && r.monitor_samples == reference.monitor_samples
}

impl Variant {
    /// One warm replay through `execute`.
    fn replay(&mut self) -> Outcome {
        let mut counts = Counts::default();
        let ok = match self
            .session
            .execute(RunRequest::cold(MAX_CYCLES).from_checkpoint())
        {
            Ok(r) => {
                counts.add_report(&r);
                matches(&r, &self.reference)
            }
            Err(_) => false,
        };
        Outcome { ok, counts }
    }

    /// The same replay composed from its layer calls.
    fn traced_replay(&mut self, at: Scope<'_>) -> Outcome {
        let mut counts = Counts::default();
        let before = self.session.machine().checkpoint_stats();
        let report = compose::replay(&mut self.session, &self.armed, MAX_CYCLES, at, &mut counts);
        let after = self.session.machine().checkpoint_stats();
        counts.pages_cow += after.pages_cow - before.pages_cow;
        counts.restore_pages += after.restore_pages - before.restore_pages;
        let ok = match report {
            Some(r) => {
                counts.add_report(&r);
                let ok = if self.verified {
                    matches(&r, &self.reference)
                } else {
                    // The composed replay must equal execute()'s report
                    // byte for byte (a cold run and its checkpointed rerun
                    // report identically).
                    self.verified = true;
                    format!("{r:?}") == format!("{:?}", self.reference)
                };
                if !ok {
                    eprintln!("fig10_replay: composed replay differs from execute()");
                }
                ok
            }
            None => false,
        };
        Outcome { ok, counts }
    }
}

pub struct Fig10Replay {
    /// Index 0: multiplication victim; 1: division victim.
    variants: [Variant; 2],
    rng: Rng,
    cross_pick: usize,
}

impl Fig10Replay {
    pub fn setup(seed: u64, at: Option<Scope<'_>>) -> Result<Self, String> {
        let cfg = config();
        let arm = |secret: bool| -> Result<Variant, String> {
            let mut session = maybe_span(at, "session.build", || {
                port_contention::build_session(secret, &cfg)
            });
            // Armed at build time: the state now is exactly what the first
            // cold run checkpoints.
            let armed = maybe_span(at, "session.capture", || session.machine().checkpoint());
            let reference = maybe_span(at, "session.execute", || {
                session.execute(RunRequest::cold(MAX_CYCLES))
            })
            .map_err(|e| format!("arming run failed: {e}"))?;
            if reference.replays() != cfg.replays {
                return Err(format!(
                    "arming run replayed {} times, expected {}",
                    reference.replays(),
                    cfg.replays
                ));
            }
            Ok(Variant {
                session,
                armed,
                reference,
                verified: false,
            })
        };
        let variants = [arm(false)?, arm(true)?];
        let fig10 = port_contention::analyze(
            variants[0].reference.monitor_samples.clone(),
            variants[1].reference.monitor_samples.clone(),
        );
        if !fig10.detects_divisions(MIN_RATIO) {
            return Err(format!(
                "the division victim does not stand out: ratio {} < {MIN_RATIO}",
                fig10.ratio
            ));
        }
        let mut rng = Rng::new(seed, 1);
        let cross_pick = rng.below(2) as usize;
        Ok(Fig10Replay {
            variants,
            rng,
            cross_pick,
        })
    }

    /// The victims in the next operation's order, drawn from the seed.
    fn order(&mut self) -> [usize; 2] {
        let first = self.rng.below(2) as usize;
        [first, 1 - first]
    }
}

impl Workload for Fig10Replay {
    fn op(&mut self) -> Outcome {
        combine(self.order().map(|k| self.variants[k].replay()))
    }

    fn traced_op(&mut self, at: Scope<'_>) -> Outcome {
        combine(self.order().map(|k| self.variants[k].traced_replay(at)))
    }

    fn cross_check(&mut self) -> Result<String, String> {
        let v = &mut self.variants[self.cross_pick];
        let report = no_panic("fig10_replay cross-check", || {
            v.session
                .execute(RunRequest::cold(MAX_CYCLES).cross_checked())
        })?
        .map_err(|e| format!("cross-checked run failed: {e}"))?;
        Ok(format!("{report:?}"))
    }
}
