//! Configuration types for individual caches and the whole hierarchy.

use crate::dram::DramConfig;

/// Geometry and latency of one set-associative cache.
///
/// ```
/// use microscope_cache::CacheConfig;
/// let l1 = CacheConfig::new(64, 8, 4);
/// assert_eq!(l1.capacity_bytes(), 32 * 1024);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets. Must be a power of two.
    pub sets: usize,
    /// Associativity (ways per set). Must be non-zero.
    pub ways: usize,
    /// Latency in cycles charged when an access hits at this level.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Creates a new configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two, or if `ways` is zero.
    pub fn new(sets: usize, ways: usize, hit_latency: u64) -> Self {
        assert!(sets.is_power_of_two(), "cache sets must be a power of two");
        assert!(ways > 0, "cache must have at least one way");
        CacheConfig {
            sets,
            ways,
            hit_latency,
        }
    }

    /// Total capacity in bytes (sets × ways × 64 B lines).
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * crate::LINE_BYTES as usize
    }
}

/// Configuration of the full three-level hierarchy plus DRAM.
///
/// The default mirrors the paper's evaluation platform (Intel Xeon E5-1630
/// v3, Haswell-EP): 32 KiB 8-way L1D, 256 KiB 8-way L2, 8 MiB (modelled as
/// 2 MiB to keep simulations brisk; only relative latencies matter) 16-way
/// L3, with classic 4/12/40-cycle hit latencies and a row-buffer DRAM model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Shared, inclusive L3.
    pub l3: CacheConfig,
    /// DRAM timing behind the L3.
    pub dram: DramConfig,
    /// Number of L1 banks for the CacheBleed-style bank-contention model.
    /// Must be a power of two. Banks are selected by bits [2..] of the
    /// address (4-byte interleaving, as on Sandy Bridge-era parts).
    pub l1_banks: usize,
    /// Extra cycles an access pays when it conflicts on a busy L1 bank.
    pub bank_conflict_penalty: u64,
}

impl HierarchyConfig {
    /// Checks the rules the models' constructors assert, which a struct
    /// literal bypasses: every `sets`, `l1_banks`, `dram.banks` and
    /// `dram.lines_per_row` is a power of two, and every `ways` non-zero.
    ///
    /// # Errors
    ///
    /// The first field, in that order, that breaks its rule, as its path
    /// from a simulation config's `hierarchy` field
    /// (`"hierarchy.l2.sets"`, `"hierarchy.dram.banks"`) and its value.
    pub fn check(&self) -> Result<(), (&'static str, u64)> {
        let (l1, l2, l3, dram) = (self.l1, self.l2, self.l3, self.dram);
        let powers_of_two = [
            ("hierarchy.l1.sets", l1.sets as u64),
            ("hierarchy.l2.sets", l2.sets as u64),
            ("hierarchy.l3.sets", l3.sets as u64),
            ("hierarchy.l1_banks", self.l1_banks as u64),
            ("hierarchy.dram.banks", dram.banks as u64),
            ("hierarchy.dram.lines_per_row", dram.lines_per_row),
        ];
        let ways = [
            ("hierarchy.l1.ways", l1.ways as u64),
            ("hierarchy.l2.ways", l2.ways as u64),
            ("hierarchy.l3.ways", l3.ways as u64),
        ];
        let bad_power = powers_of_two
            .into_iter()
            .find(|&(_, v)| !v.is_power_of_two());
        let no_ways = ways.into_iter().find(|&(_, w)| w == 0);
        bad_power.or(no_ways).map_or(Ok(()), Err)
    }

    /// A tiny hierarchy for fast unit tests: direct-mapped-ish caches with
    /// the same latency *ordering* as the default.
    pub fn tiny() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new(4, 2, 4),
            l2: CacheConfig::new(8, 2, 12),
            l3: CacheConfig::new(16, 4, 40),
            dram: DramConfig::default(),
            l1_banks: 4,
            bank_conflict_penalty: 2,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new(64, 8, 4),
            l2: CacheConfig::new(512, 8, 12),
            l3: CacheConfig::new(2048, 16, 40),
            dram: DramConfig::default(),
            l1_banks: 16,
            bank_conflict_penalty: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_haswell_l1() {
        let cfg = HierarchyConfig::default();
        assert_eq!(cfg.l1.capacity_bytes(), 32 * 1024);
        assert_eq!(cfg.l2.capacity_bytes(), 256 * 1024);
        assert!(cfg.l1.hit_latency < cfg.l2.hit_latency);
        assert!(cfg.l2.hit_latency < cfg.l3.hit_latency);
    }

    #[test]
    fn check_names_the_first_broken_field() {
        assert_eq!(HierarchyConfig::default().check(), Ok(()));
        assert_eq!(HierarchyConfig::tiny().check(), Ok(()));
        let mut cfg = HierarchyConfig::default();
        cfg.l1.ways = 0;
        assert_eq!(cfg.check(), Err(("hierarchy.l1.ways", 0)));
        cfg.dram.banks = 3;
        let first = Err(("hierarchy.dram.banks", 3));
        assert_eq!(cfg.check(), first, "sets and banks first");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheConfig::new(3, 2, 1);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = CacheConfig::new(4, 0, 1);
    }
}
