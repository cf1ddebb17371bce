//! Translation lookaside buffers (Figure 1 of the paper).
//!
//! The model follows the paper's description: entries carry a VPN, PPN,
//! flags and a PCID; Intel parts have split L1 TLBs and a unified L2. Only
//! the data side is modelled (instruction fetch does not fault in this
//! simulator). The OS keeps TLBs coherent with `invlpg`-style invalidation,
//! which the Replayer must perform after clearing a Present bit — forgetting
//! it would let the victim translate through a stale entry and dodge the
//! replay, a behaviour the tests pin down.

use crate::pte::PteFlags;
use crate::vaddr::VAddr;
use std::rc::Rc;

/// A cached translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number.
    pub vpn: u64,
    /// Physical page number.
    pub ppn: u64,
    /// Leaf-PTE flags at fill time.
    pub flags: PteFlags,
    /// Process-context ID tagging the entry.
    pub pcid: u16,
}

/// Geometry and latency of one TLB level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Lookup latency in cycles.
    pub hit_latency: u64,
}

impl TlbConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` is a power of two and `ways` is non-zero.
    pub fn new(sets: usize, ways: usize, hit_latency: u64) -> Self {
        assert!(sets.is_power_of_two(), "TLB sets must be a power of two");
        assert!(ways > 0, "TLB needs at least one way");
        TlbConfig {
            sets,
            ways,
            hit_latency,
        }
    }

    /// Total entry capacity.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }
}

#[derive(Clone, Copy, Debug)]
struct TlbWay {
    entry: TlbEntry,
    last_used: u64,
}

/// One set-associative TLB.
///
/// The entry array is [`Rc`]-shared: cloning a `Tlb` (checkpoint capture)
/// is a reference bump; the first mutation after a clone copies the array
/// back out via [`Rc::make_mut`].
#[derive(Clone, Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    sets: Rc<Vec<Vec<TlbWay>>>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        Tlb {
            sets: Rc::new(vec![Vec::with_capacity(cfg.ways); cfg.sets]),
            cfg,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    fn set_of(&self, vpn: u64) -> usize {
        (vpn as usize) & (self.cfg.sets - 1)
    }

    /// Looks up `(vpn, pcid)`, refreshing LRU on a hit.
    pub fn lookup(&mut self, vpn: u64, pcid: u16) -> Option<TlbEntry> {
        self.tick += 1;
        let tick = self.tick;
        let idx = self.set_of(vpn);
        match Rc::make_mut(&mut self.sets)[idx]
            .iter_mut()
            .find(|w| w.entry.vpn == vpn && w.entry.pcid == pcid)
        {
            Some(w) => {
                w.last_used = tick;
                self.hits += 1;
                Some(w.entry)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts an entry, evicting LRU within its set when full. Re-inserting
    /// an existing (vpn, pcid) pair replaces its contents.
    pub fn insert(&mut self, entry: TlbEntry) {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.cfg.ways;
        let idx = self.set_of(entry.vpn);
        let set = &mut Rc::make_mut(&mut self.sets)[idx];
        if let Some(w) = set
            .iter_mut()
            .find(|w| w.entry.vpn == entry.vpn && w.entry.pcid == entry.pcid)
        {
            w.entry = entry;
            w.last_used = tick;
            return;
        }
        if set.len() < ways {
            set.push(TlbWay {
                entry,
                last_used: tick,
            });
            return;
        }
        let lru = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.last_used)
            .map(|(i, _)| i)
            .expect("full set is non-empty");
        set[lru] = TlbWay {
            entry,
            last_used: tick,
        };
    }

    /// Invalidates the entry for `(vpn, pcid)` if present (`invlpg`).
    pub fn invlpg(&mut self, vpn: u64, pcid: u16) -> bool {
        let idx = self.set_of(vpn);
        let set = &mut Rc::make_mut(&mut self.sets)[idx];
        match set
            .iter()
            .position(|w| w.entry.vpn == vpn && w.entry.pcid == pcid)
        {
            Some(pos) => {
                set.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    /// Drops every entry belonging to `pcid` (context switch without PCID
    /// preservation).
    pub fn flush_pcid(&mut self, pcid: u16) {
        for set in Rc::make_mut(&mut self.sets) {
            set.retain(|w| w.entry.pcid != pcid);
        }
    }

    /// Empties the TLB.
    pub fn flush_all(&mut self) {
        for set in Rc::make_mut(&mut self.sets) {
            set.clear();
        }
    }

    /// Resident entry count.
    pub fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Configuration for the two-level TLB hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbHierarchyConfig {
    /// L1 data TLB.
    pub l1d: TlbConfig,
    /// Unified L2 TLB.
    pub l2: TlbConfig,
}

impl TlbHierarchyConfig {
    /// Checks the rules [`TlbConfig::new`] asserts, which a struct literal
    /// bypasses: every `sets` is a power of two and every `ways` non-zero.
    ///
    /// # Errors
    ///
    /// The first field, in that order, that breaks its rule, as its path
    /// from a simulation config's `tlb` field (`"tlb.l1d.ways"`) and its
    /// value.
    pub fn check(&self) -> Result<(), (&'static str, u64)> {
        let (l1d, l2) = (self.l1d, self.l2);
        let powers_of_two = [
            ("tlb.l1d.sets", l1d.sets as u64),
            ("tlb.l2.sets", l2.sets as u64),
        ];
        let ways = [
            ("tlb.l1d.ways", l1d.ways as u64),
            ("tlb.l2.ways", l2.ways as u64),
        ];
        let bad_power = powers_of_two
            .into_iter()
            .find(|&(_, v)| !v.is_power_of_two());
        let no_ways = ways.into_iter().find(|&(_, w)| w == 0);
        bad_power.or(no_ways).map_or(Ok(()), Err)
    }
}

impl Default for TlbHierarchyConfig {
    /// 64-entry 4-way L1 DTLB (1 cycle), 1536-entry 12-way L2 (7 cycles) —
    /// Haswell-era numbers.
    fn default() -> Self {
        TlbHierarchyConfig {
            l1d: TlbConfig::new(16, 4, 1),
            l2: TlbConfig::new(128, 12, 7),
        }
    }
}

/// Split L1 / unified L2 TLB pair as seen by data accesses.
#[derive(Clone, Debug)]
pub struct TlbHierarchy {
    l1d: Tlb,
    l2: Tlb,
    probe: microscope_probe::Probe,
}

/// Result of a TLB hierarchy lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbLookup {
    /// The entry, if any level hit.
    pub entry: Option<TlbEntry>,
    /// Cycles spent searching (both levels on a miss).
    pub latency: u64,
}

impl TlbHierarchy {
    /// Creates an empty hierarchy.
    pub fn new(cfg: TlbHierarchyConfig) -> Self {
        TlbHierarchy {
            l1d: Tlb::new(cfg.l1d),
            l2: Tlb::new(cfg.l2),
            probe: microscope_probe::Probe::disabled(),
        }
    }

    /// Connects the TLBs to a shared event bus.
    pub fn attach_probe(&mut self, probe: microscope_probe::Probe) {
        self.probe = probe;
    }

    /// Looks up a data translation; an L2 hit refills L1.
    pub fn lookup(&mut self, vpn: u64, pcid: u16) -> TlbLookup {
        let result = self.lookup_inner(vpn, pcid);
        self.probe.emit(
            None,
            microscope_probe::EventKind::TlbLookup {
                vpn,
                hit: result.entry.is_some(),
                latency: result.latency,
            },
        );
        result
    }

    fn lookup_inner(&mut self, vpn: u64, pcid: u16) -> TlbLookup {
        let mut latency = self.l1d.config().hit_latency;
        if let Some(e) = self.l1d.lookup(vpn, pcid) {
            return TlbLookup {
                entry: Some(e),
                latency,
            };
        }
        latency += self.l2.config().hit_latency;
        if let Some(e) = self.l2.lookup(vpn, pcid) {
            self.l1d.insert(e);
            return TlbLookup {
                entry: Some(e),
                latency,
            };
        }
        TlbLookup {
            entry: None,
            latency,
        }
    }

    /// Fills both levels after a successful page walk.
    pub fn insert(&mut self, entry: TlbEntry) {
        self.l1d.insert(entry);
        self.l2.insert(entry);
    }

    /// Selectively invalidates one translation at both levels.
    pub fn invlpg(&mut self, vaddr: VAddr, pcid: u16) -> bool {
        let vpn = vaddr.vpn();
        let a = self.l1d.invlpg(vpn, pcid);
        let b = self.l2.invlpg(vpn, pcid);
        a || b
    }

    /// Flushes both levels.
    pub fn flush_all(&mut self) {
        self.l1d.flush_all();
        self.l2.flush_all();
    }

    /// Flushes one PCID from both levels.
    pub fn flush_pcid(&mut self, pcid: u16) {
        self.l1d.flush_pcid(pcid);
        self.l2.flush_pcid(pcid);
    }

    /// The L1 DTLB (for contention channels and tests).
    pub fn l1d(&self) -> &Tlb {
        &self.l1d
    }

    /// The unified L2 TLB.
    pub fn l2(&self) -> &Tlb {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(vpn: u64, pcid: u16) -> TlbEntry {
        TlbEntry {
            vpn,
            ppn: vpn + 100,
            flags: PteFlags::user_data(),
            pcid,
        }
    }

    #[test]
    fn hit_after_insert_miss_after_invlpg() {
        let mut h = TlbHierarchy::new(TlbHierarchyConfig::default());
        h.insert(entry(5, 1));
        assert!(h.lookup(5, 1).entry.is_some());
        assert!(h.invlpg(VAddr(5 * 4096), 1));
        assert!(h.lookup(5, 1).entry.is_none());
    }

    #[test]
    fn pcid_isolates_processes() {
        let mut h = TlbHierarchy::new(TlbHierarchyConfig::default());
        h.insert(entry(5, 1));
        assert!(h.lookup(5, 2).entry.is_none());
        assert!(h.lookup(5, 1).entry.is_some());
    }

    #[test]
    fn l2_hit_is_slower_and_refills_l1() {
        let cfg = TlbHierarchyConfig {
            l1d: TlbConfig::new(1, 1, 1),
            l2: TlbConfig::new(16, 4, 7),
        };
        let mut h = TlbHierarchy::new(cfg);
        h.insert(entry(1, 1));
        h.insert(entry(2, 1)); // evicts vpn=1 from the 1-entry L1 only
        let r = h.lookup(1, 1);
        assert!(r.entry.is_some());
        assert_eq!(r.latency, 8, "L1 probe + L2 hit");
        let again = h.lookup(1, 1);
        assert_eq!(again.latency, 1, "refilled into L1");
    }

    #[test]
    fn miss_pays_both_levels() {
        let mut h = TlbHierarchy::new(TlbHierarchyConfig::default());
        let r = h.lookup(42, 1);
        assert!(r.entry.is_none());
        assert_eq!(r.latency, 1 + 7);
    }

    #[test]
    fn set_associativity_and_lru() {
        let mut t = Tlb::new(TlbConfig::new(1, 2, 1));
        t.insert(entry(1, 1));
        t.insert(entry(2, 1));
        assert!(t.lookup(1, 1).is_some()); // 2 becomes LRU
        t.insert(entry(3, 1));
        assert!(t.lookup(2, 1).is_none());
        assert!(t.lookup(1, 1).is_some());
        assert_eq!(t.resident(), 2);
    }

    #[test]
    fn flush_pcid_only_affects_that_pcid() {
        let mut t = Tlb::new(TlbConfig::new(4, 2, 1));
        t.insert(entry(1, 1));
        t.insert(entry(2, 2));
        t.flush_pcid(1);
        assert!(t.lookup(1, 1).is_none());
        assert!(t.lookup(2, 2).is_some());
    }
}
