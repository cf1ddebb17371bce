//! Attack recipes (paper §5.2.1).

use crate::ops::WALK_LENGTHS;
use microscope_cpu::ContextId;
use microscope_mem::VAddr;

/// Identifies a recipe registered with the module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RecipeId(pub usize);

/// How the module re-arms the page walk between replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkTuning {
    /// Flush all four entry lines and the PWC: a maximal (>1000-cycle)
    /// speculation window. Used by the port-contention attack.
    Long,
    /// Leave the upper levels warm so exactly `levels` page-table levels
    /// are fetched from memory (1..=4): a tunable, shorter window. The AES
    /// single-stepping attack uses small values so a replay covers "only a
    /// small number of instructions" (§4.4).
    Length {
        /// Levels served from DRAM (1..=4).
        levels: u8,
    },
    /// Leave cache state as the fault left it (shortest window: everything
    /// the walker just touched is still in L1).
    Natural,
}

/// Everything the module needs for one microarchitectural replay attack —
/// "the replay handle, the pivot, and addresses to monitor … a set of
/// attack functions" (§5.2.1). The paper's confidence threshold, which
/// stops a step early once the probes agree, is not modelled: no harness
/// used it, so every step runs `replays_per_step` replays.
#[derive(Clone, Debug)]
pub struct AttackRecipe {
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// The victim context this recipe targets.
    pub victim: ContextId,
    /// The replay handle: any address on the page whose accesses will fault.
    pub replay_handle: VAddr,
    /// Optional pivot on a *different* page, used to step through loops
    /// (§4.2.2). When the handle is released, the pivot is armed; when the
    /// pivot faults, it is released and the handle re-armed.
    pub pivot: Option<VAddr>,
    /// Victim-virtual addresses whose cache lines the replayer probes after
    /// every replay (cache-attack configuration). Empty for contention
    /// attacks where a separate Monitor context measures.
    pub monitor_addrs: Vec<VAddr>,
    /// Replays of the handle per step before releasing it.
    pub replays_per_step: u64,
    /// Number of handle→pivot steps before the attack disarms itself.
    /// 1 for single-secret attacks (no pivot transitions needed).
    pub max_steps: u64,
    /// Walk-duration tuning applied before every replay.
    pub walk: WalkTuning,
    /// Whether to evict the monitored lines before resuming the victim
    /// (Prime+Probe priming; Figure 11's "Replay 1/2" behaviour).
    pub prime_between_replays: bool,
    /// Simulated cycles the fault handler occupies the victim context.
    pub handler_cycles: u64,
}

impl AttackRecipe {
    /// A recipe with the paper's defaults: long walks, no pivot, no probes,
    /// effectively-unbounded replays. Callers customize from here.
    pub fn new(victim: ContextId, replay_handle: VAddr) -> Self {
        AttackRecipe {
            name: "recipe".to_owned(),
            victim,
            replay_handle,
            pivot: None,
            monitor_addrs: Vec::new(),
            replays_per_step: u64::MAX,
            max_steps: 1,
            walk: WalkTuning::Long,
            prime_between_replays: false,
            handler_cycles: 800,
        }
    }

    /// Checks the two rules the module relies on, naming the first field
    /// that breaks one with its value: the pivot lives on a different page
    /// than the replay handle (§4.2.2: "we choose the pivot from a
    /// different page than the replay handle"), and a tuned walk fetches
    /// 1..=4 levels.
    pub fn check(&self) -> Result<(), (&'static str, u64)> {
        if let Some(p) = self.pivot.filter(|p| p.same_page(self.replay_handle)) {
            return Err(("pivot", p.0));
        }
        match self.walk {
            WalkTuning::Length { levels } if !WALK_LENGTHS.contains(&levels) => {
                Err(("walk.levels", u64::from(levels)))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_long_unbounded_single_step() {
        let r = AttackRecipe::new(ContextId(0), VAddr(0x1000));
        assert_eq!(r.walk, WalkTuning::Long);
        assert_eq!(r.max_steps, 1);
        assert!(r.pivot.is_none());
        assert_eq!(r.check(), Ok(()));
    }

    #[test]
    fn check_names_the_broken_field() {
        let mut r = AttackRecipe::new(ContextId(0), VAddr(0x1000));
        r.pivot = Some(VAddr(0x2000));
        assert_eq!(r.check(), Ok(()));
        r.pivot = Some(VAddr(0x1008));
        assert_eq!(r.check(), Err(("pivot", 0x1008)));
        r.pivot = None;
        for (levels, want) in [
            (0, Err(("walk.levels", 0))),
            (4, Ok(())),
            (5, Err(("walk.levels", 5))),
        ] {
            r.walk = WalkTuning::Length { levels };
            assert_eq!(r.check(), want, "levels {levels}");
        }
    }
}
