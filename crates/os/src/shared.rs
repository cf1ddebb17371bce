//! Observation state shared between the in-kernel module and the host-side
//! attacker tooling.
//!
//! The kernel (and the module inside it) is moved into the simulated
//! machine as its supervisor; the attacker's user-space tooling keeps a
//! [`SharedHandle`] to read measurements out afterwards — the analogue of
//! the shared memory the real module uses to "communicate … with the
//! Monitor" (§5.2.2, operation four).

use crate::recipe::RecipeId;
use microscope_mem::VAddr;
use std::cell::RefCell;
use std::rc::Rc;

/// One replay's worth of probe measurements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observation {
    /// Which recipe produced it.
    pub recipe: RecipeId,
    /// The step (pivot transition count) it belongs to.
    pub step: u64,
    /// Replay index within the step (1-based).
    pub replay: u64,
    /// Cycle the fault was handled at.
    pub cycle: u64,
    /// `(address, probe latency)` for every monitored address.
    pub probes: Vec<(VAddr, u64)>,
}

impl Observation {
    /// Addresses classified as cache hits under `threshold`.
    pub fn hits(&self, threshold: u64) -> Vec<VAddr> {
        self.probes
            .iter()
            .filter(|(_, lat)| *lat < threshold)
            .map(|(va, _)| *va)
            .collect()
    }
}

/// Module outputs visible to the host-side attacker.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModuleShared {
    /// Probe measurements, in fault order.
    pub observations: Vec<Observation>,
    /// `(cycle, faulting vaddr)` log of every fault the module claimed.
    pub fault_log: Vec<(u64, VAddr)>,
    /// Total replays performed per recipe.
    pub replays: Vec<u64>,
    /// Steps completed per recipe.
    pub steps: Vec<u64>,
    /// Whether each recipe has disarmed itself.
    pub finished: Vec<bool>,
    /// Whether [`crate::MicroScopeModule::arm`] has run. The attack
    /// session's run predicate polls it before every real step and
    /// captures its machine checkpoint at the first poll that sees it set:
    /// before the first step when the module armed at build time, or right
    /// after the stepping interrupt that performs a *deferred* arm.
    pub armed: bool,
}

/// A cloneable handle to the module's shared state.
pub type SharedHandle = Rc<RefCell<ModuleShared>>;

/// Creates a fresh shared-state handle.
pub fn new_shared() -> SharedHandle {
    Rc::new(RefCell::new(ModuleShared::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_filter_by_threshold() {
        let o = Observation {
            recipe: RecipeId(0),
            step: 0,
            replay: 1,
            cycle: 10,
            probes: vec![(VAddr(0x1000), 4), (VAddr(0x2000), 400)],
        };
        assert_eq!(o.hits(100), vec![VAddr(0x1000)]);
        assert!(o.hits(1).is_empty());
    }
}
