//! Unprivileged Prime+Probe over the shared, inclusive L3.
//!
//! Unlike the Replayer's privileged probing (which can `clflush` and read
//! page tables), this is the classic user-level attack: build an eviction
//! set for the target's L3 set from the attacker's own memory, prime by
//! touching it, let the victim run, and probe — a slow probe means the
//! victim displaced one of the attacker's lines, i.e. touched the target
//! set.

use microscope_cache::PAddr;
use microscope_cpu::HwParts;

/// One Prime+Probe context for a single target line.
#[derive(Clone, Debug)]
pub struct PrimeProbe {
    eviction_set: Vec<PAddr>,
    /// Probe latency above this indicates a victim access.
    pub threshold: u64,
}

impl PrimeProbe {
    /// Builds an eviction set for `target` using attacker memory starting
    /// at `attacker_pool` (must not alias victim data).
    pub fn new(hw: &HwParts, target: PAddr, attacker_pool: PAddr) -> Self {
        let eviction_set = hw.hier.l3_eviction_set(target, attacker_pool);
        let cfg = hw.hier.config();
        // Anything that has to come from beyond the L3 is a "miss".
        let threshold = cfg.l1.hit_latency + cfg.l2.hit_latency + cfg.l3.hit_latency;
        PrimeProbe {
            eviction_set,
            threshold,
        }
    }

    /// Prime: fill the target set with attacker lines.
    pub fn prime(&self, hw: &mut HwParts) {
        for a in &self.eviction_set {
            hw.hier.access(*a);
        }
    }

    /// Probe: re-touch the eviction set; returns the number of attacker
    /// lines that had been displaced (≥1 ⇒ the victim touched the set).
    pub fn probe(&self, hw: &mut HwParts) -> usize {
        self.eviction_set
            .iter()
            .filter(|a| hw.hier.access(**a).latency > self.threshold)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_cache::{HierarchyConfig, MemoryHierarchy};
    use microscope_cpu::{BranchPredictor, PredictorConfig};
    use microscope_mem::{PageWalker, PhysMem, TlbHierarchy, TlbHierarchyConfig, WalkerConfig};

    fn hw() -> HwParts {
        HwParts {
            phys: PhysMem::new(),
            hier: MemoryHierarchy::new(HierarchyConfig::default()),
            tlb: TlbHierarchy::new(TlbHierarchyConfig::default()),
            walker: PageWalker::new(WalkerConfig::default()),
            predictor: BranchPredictor::new(PredictorConfig::default()),
        }
    }

    #[test]
    fn detects_victim_access_to_the_target_set() {
        let mut hw = hw();
        let target = PAddr(0x123_4040);
        let pp = PrimeProbe::new(&hw, target, PAddr(0x4000_0000));
        pp.prime(&mut hw);
        assert_eq!(pp.probe(&mut hw), 0, "quiet set probes clean");
        pp.prime(&mut hw);
        hw.hier.access(target); // victim access
        assert!(pp.probe(&mut hw) >= 1, "victim access must displace a line");
    }

    #[test]
    fn unrelated_victim_accesses_stay_invisible() {
        let mut hw = hw();
        let target = PAddr(0x123_4040);
        let pp = PrimeProbe::new(&hw, target, PAddr(0x4000_0000));
        pp.prime(&mut hw);
        // Access something mapping to a different L3 set.
        hw.hier.access(PAddr(0x123_4080));
        assert_eq!(pp.probe(&mut hw), 0);
    }
}
