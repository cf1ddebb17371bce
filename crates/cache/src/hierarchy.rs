//! The inclusive three-level hierarchy with DRAM behind it.

use crate::addr::{LineAddr, PAddr};
use crate::banks::BankModel;
use crate::cache::Cache;
use crate::config::HierarchyConfig;
use crate::dram::DramModel;
use crate::stats::HierarchyStats;
use microscope_probe::{CacheTier, EventKind, Probe};

/// The level at which an access was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// L1 data cache.
    L1,
    /// Unified L2.
    L2,
    /// Shared last-level cache.
    L3,
    /// Main memory.
    Memory,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Level::L1 => "L1",
            Level::L2 => "L2",
            Level::L3 => "L3",
            Level::Memory => "memory",
        };
        f.write_str(s)
    }
}

impl From<Level> for CacheTier {
    fn from(level: Level) -> CacheTier {
        match level {
            Level::L1 => CacheTier::L1,
            Level::L2 => CacheTier::L2,
            Level::L3 => CacheTier::L3,
            Level::Memory => CacheTier::Memory,
        }
    }
}

/// The outcome of a hierarchy access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Total cycles charged for the access.
    pub latency: u64,
    /// Where the line was found.
    pub level: Level,
}

/// An inclusive L1/L2/L3 hierarchy with a row-buffer DRAM model.
///
/// Inclusion is enforced downward: when L3 evicts a line, any L1/L2 copies
/// are back-invalidated. This matters for the attack: an adversary that
/// evicts a victim line from the (shared) L3 with an eviction set is
/// guaranteed to have evicted it from the victim's private caches too, which
/// is what makes L3-based Prime+Probe work from another core.
///
/// ```
/// use microscope_cache::{HierarchyConfig, MemoryHierarchy, PAddr, Level};
/// let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
/// let a = PAddr(0x100);
/// assert_eq!(h.access(a).level, Level::Memory);
/// assert_eq!(h.access(a).level, Level::L1);
/// h.flush_line(a);
/// assert_eq!(h.access(a).level, Level::Memory);
/// ```
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    dram: DramModel,
    banks: BankModel,
    stats: HierarchyStats,
    probe: Probe,
}

impl MemoryHierarchy {
    /// Creates an empty (fully cold) hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        MemoryHierarchy {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            dram: DramModel::new(cfg.dram),
            banks: BankModel::new(cfg.l1_banks, cfg.bank_conflict_penalty),
            cfg,
            stats: HierarchyStats::default(),
            probe: Probe::disabled(),
        }
    }

    /// Connects the hierarchy to a shared event bus.
    pub fn attach_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Performs a demand access: returns latency and fill level, and fills
    /// all levels above the hit level (inclusive hierarchy).
    pub fn access(&mut self, addr: PAddr) -> AccessResult {
        self.access_line(addr.line())
    }

    /// Like [`MemoryHierarchy::access`], taking a line address directly.
    pub fn access_line(&mut self, line: LineAddr) -> AccessResult {
        let result = self.access_line_inner(line);
        self.probe.emit(
            None,
            EventKind::CacheAccess {
                line: line.0,
                tier: result.level.into(),
                latency: result.latency,
            },
        );
        result
    }

    fn access_line_inner(&mut self, line: LineAddr) -> AccessResult {
        let mut latency = self.cfg.l1.hit_latency;
        if self.l1.lookup(line) {
            self.stats.l1.hits += 1;
            return AccessResult {
                latency,
                level: Level::L1,
            };
        }
        self.stats.l1.misses += 1;
        latency += self.cfg.l2.hit_latency;
        if self.l2.lookup(line) {
            self.stats.l2.hits += 1;
            self.fill_l1(line);
            return AccessResult {
                latency,
                level: Level::L2,
            };
        }
        self.stats.l2.misses += 1;
        latency += self.cfg.l3.hit_latency;
        if self.l3.lookup(line) {
            self.stats.l3.hits += 1;
            self.fill_l2(line);
            self.fill_l1(line);
            return AccessResult {
                latency,
                level: Level::L3,
            };
        }
        self.stats.l3.misses += 1;
        self.stats.dram_accesses += 1;
        latency += self.dram.access(line);
        self.fill_l3(line);
        self.fill_l2(line);
        self.fill_l1(line);
        AccessResult {
            latency,
            level: Level::Memory,
        }
    }

    fn fill_l1(&mut self, line: LineAddr) {
        self.l1.insert(line);
    }

    fn fill_l2(&mut self, line: LineAddr) {
        self.l2.insert(line);
    }

    fn fill_l3(&mut self, line: LineAddr) {
        if let Some(victim) = self.l3.insert(line) {
            // Inclusive hierarchy: L3 eviction back-invalidates inner levels.
            let mut invalidated = false;
            if self.l1.flush_line(victim.line) {
                self.stats.back_invalidations += 1;
                invalidated = true;
            }
            if self.l2.flush_line(victim.line) {
                self.stats.back_invalidations += 1;
                invalidated = true;
            }
            if invalidated {
                self.probe.emit(
                    None,
                    EventKind::BackInvalidate {
                        line: victim.line.0,
                    },
                );
            }
        }
    }

    /// Invalidates one line from every level (`clflush`).
    pub fn flush_line(&mut self, addr: PAddr) {
        let line = addr.line();
        self.l1.flush_line(line);
        self.l2.flush_line(line);
        self.l3.flush_line(line);
        self.stats.line_flushes += 1;
        self.probe
            .emit(None, EventKind::CacheFlush { line: line.0 });
    }

    /// Invalidates every line at every level (`wbinvd`).
    pub fn flush_all(&mut self) {
        self.l1.flush_all();
        self.l2.flush_all();
        self.l3.flush_all();
        self.dram.close_all_rows();
    }

    /// The innermost level currently holding the line, if any. This is a
    /// *non-destructive* inspection used by tests and by attack oracles; a
    /// real attacker infers it from probe latency instead.
    pub fn level_of(&self, addr: PAddr) -> Option<Level> {
        let line = addr.line();
        if self.l1.contains(line) {
            Some(Level::L1)
        } else if self.l2.contains(line) {
            Some(Level::L2)
        } else if self.l3.contains(line) {
            Some(Level::L3)
        } else {
            None
        }
    }

    /// The latency an access to `addr` *would* take right now. Unlike
    /// [`MemoryHierarchy::access`] this does not change any state; the CPU
    /// model uses `access`, while analytical tooling uses this.
    pub fn peek_latency(&self, addr: PAddr) -> u64 {
        let c = &self.cfg;
        match self.level_of(addr) {
            Some(Level::L1) => c.l1.hit_latency,
            Some(Level::L2) => c.l1.hit_latency + c.l2.hit_latency,
            Some(Level::L3) => c.l1.hit_latency + c.l2.hit_latency + c.l3.hit_latency,
            Some(Level::Memory) | None => {
                c.l1.hit_latency + c.l2.hit_latency + c.l3.hit_latency + c.dram.row_miss_latency
            }
        }
    }

    /// Builds an eviction set for `target` in the L3: the first `ways` line
    /// addresses at or above `pool_base`'s line that map to the target's L3
    /// set, skipping the target's own line, in ascending order. Accessing all
    /// of them evicts `target` from the whole (inclusive) hierarchy. This is
    /// the paper's "priming the caches" primitive expressed without
    /// privileged flushes.
    ///
    /// Costs O(ways): a line's L3 set is its number modulo the power-of-two
    /// set count, so the congruent lines are computed, not searched for.
    pub fn l3_eviction_set(&self, target: PAddr, pool_base: PAddr) -> Vec<PAddr> {
        let sets = self.cfg.l3.sets as u64;
        let ways = self.cfg.l3.ways;
        let target = target.line().0;
        let base = pool_base.line().0;
        // The lowest line >= base congruent to the target modulo `sets`.
        let mut line = base + (target.wrapping_sub(base) & (sets - 1));
        let mut out = Vec::with_capacity(ways);
        while out.len() < ways {
            if line != target {
                out.push(LineAddr(line).base());
            }
            line += sets;
        }
        out
    }

    /// Touches every address in `set` (used to prime/evict). Returns total
    /// latency of the touches.
    pub fn touch_all(&mut self, set: &[PAddr]) -> u64 {
        set.iter().map(|a| self.access(*a).latency).sum()
    }

    /// Bank-conflict bookkeeping for the current cycle; see [`BankModel`].
    pub fn bank_model(&mut self) -> &mut BankModel {
        &mut self.banks
    }

    /// Read-only DRAM model access (for DRAMA-style row-buffer inspection).
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LINE_BYTES;

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::tiny())
    }

    #[test]
    fn miss_fill_hit_progression() {
        let mut h = hier();
        let a = PAddr(0x40);
        assert_eq!(h.access(a).level, Level::Memory);
        assert_eq!(h.access(a).level, Level::L1);
        assert_eq!(h.level_of(a), Some(Level::L1));
    }

    #[test]
    fn latencies_strictly_ordered_by_level() {
        let mut h = hier();
        let a = PAddr(0);
        let mem = h.access(a).latency;
        let l1 = h.access(a).latency;
        assert!(l1 < mem);
        // Evict from L1 only by filling its sets, keeping L2 copy: flush L1
        // directly through a fresh hierarchy instead for determinism.
        let mut h2 = hier();
        h2.access(a);
        // Knock it out of L1 by touching enough conflicting lines.
        let l1_sets = h2.config().l1.sets as u64;
        let l1_ways = h2.config().l1.ways as u64;
        for i in 1..=l1_ways + 1 {
            h2.access(PAddr(i * l1_sets * LINE_BYTES));
        }
        let lvl = h2.level_of(a);
        assert!(lvl == Some(Level::L2) || lvl == Some(Level::L3));
        let outer = h2.access(a).latency;
        assert!(l1 < outer && outer < mem);
    }

    #[test]
    fn flush_line_restores_memory_latency() {
        let mut h = hier();
        let a = PAddr(0x80);
        h.access(a);
        h.flush_line(a);
        assert_eq!(h.level_of(a), None);
        assert_eq!(h.access(a).level, Level::Memory);
    }

    #[test]
    fn l3_conflicts_evict_through_the_hierarchy() {
        let mut h = hier();
        let target = PAddr(0);
        h.access(target);
        assert_eq!(h.level_of(target), Some(Level::L1));
        // Fill the L3 set of `target` with conflicting lines.
        let l3_sets = h.config().l3.sets as u64;
        let ways = h.config().l3.ways as u64;
        for i in 1..=ways {
            h.access(PAddr(i * l3_sets * LINE_BYTES));
        }
        // Target must have left the entire hierarchy (inclusive).
        assert_eq!(h.level_of(target), None, "{:?}", h.stats());
    }

    #[test]
    fn inclusion_back_invalidates_l1_resident_lines() {
        let mut h = hier();
        let target = PAddr(0);
        let l3_sets = h.config().l3.sets as u64;
        let ways = h.config().l3.ways as u64;
        h.access(target);
        // Interleave conflicting L3-set fills with L1 *hits* on the target.
        // L1 hits keep the target resident in L1 but do not refresh its L3
        // LRU position, so the final conflicting access evicts the target
        // from L3 while its L1 copy is live — forcing a back-invalidation.
        for i in 1..ways {
            h.access(PAddr(i * l3_sets * LINE_BYTES));
            assert_eq!(h.access(target).level, Level::L1);
        }
        assert_eq!(h.level_of(target), Some(Level::L1));
        // The set-filling access: evicts the (L3-LRU, L1-resident) target.
        h.access(PAddr(ways * l3_sets * LINE_BYTES));
        assert_eq!(h.level_of(target), None, "{:?}", h.stats());
        assert!(h.stats().back_invalidations > 0, "{:?}", h.stats());
    }

    #[test]
    fn eviction_set_evicts_target() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::default());
        let target = PAddr(0x12345 * LINE_BYTES);
        h.access(target);
        let set = h.l3_eviction_set(target, PAddr(0x4000_0000));
        assert_eq!(set.len(), h.config().l3.ways);
        h.touch_all(&set);
        assert_eq!(h.level_of(target), None);
    }

    #[test]
    fn peek_latency_matches_access_latency() {
        let mut h = hier();
        let a = PAddr(0x1c0);
        let predicted = h.peek_latency(a);
        let actual = h.access(a).latency;
        assert_eq!(predicted, actual);
        let predicted_hit = h.peek_latency(a);
        let actual_hit = h.access(a).latency;
        assert_eq!(predicted_hit, actual_hit);
        assert!(actual_hit < actual);
    }

    #[test]
    fn stats_accumulate() {
        let mut h = hier();
        h.access(PAddr(0));
        h.access(PAddr(0));
        let s = h.stats();
        assert_eq!(s.l1.hits, 1);
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.dram_accesses, 1);
    }
}
