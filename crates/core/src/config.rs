//! The consolidated hardware configuration consumed by
//! [`SessionBuilder::sim`](crate::SessionBuilder::sim).

use microscope_cache::HierarchyConfig;
use microscope_cpu::CoreConfig;
use microscope_mem::{TlbHierarchyConfig, WalkerConfig};

/// Every hardware knob of one simulated machine, in one value.
///
/// Historically the session builder exposed four scattered setters
/// (`core_config`, `hierarchy`, `tlb`, `walker`); sweeping over
/// configurations meant threading four values around. `SimConfig` is the
/// single unit a sweep grid is made of: it is `Copy`, comparable, and
/// `Send`, so a [`SweepSpec`](crate::sweep::SweepSpec) can fan points out
/// across worker threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimConfig {
    /// Out-of-order core configuration (ROB, widths, latencies, knobs).
    pub core: CoreConfig,
    /// Cache-hierarchy configuration (L1/L2/L3 geometry and latencies).
    pub hierarchy: HierarchyConfig,
    /// TLB-hierarchy configuration.
    pub tlb: TlbHierarchyConfig,
    /// Hardware page-walker configuration.
    pub walker: WalkerConfig,
}

impl SimConfig {
    /// The default machine (same hardware every figure harness uses).
    pub fn new() -> Self {
        SimConfig::default()
    }

    /// Replaces the core configuration (chainable).
    pub fn with_core(mut self, core: CoreConfig) -> Self {
        self.core = core;
        self
    }

    /// Replaces the cache-hierarchy configuration (chainable).
    pub fn with_hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.hierarchy = hierarchy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chainable_overrides_replace_only_their_section() {
        let cfg = SimConfig::new().with_core(CoreConfig {
            rob_size: 64,
            ..CoreConfig::default()
        });
        assert_eq!(cfg.core.rob_size, 64);
        assert_eq!(cfg.hierarchy, HierarchyConfig::default());
        assert_eq!(cfg, cfg);
        assert_ne!(cfg, SimConfig::default());
    }

    #[test]
    fn sim_config_is_send_and_copy() {
        fn assert_send_copy<T: Send + Copy>() {}
        assert_send_copy::<SimConfig>();
    }
}
