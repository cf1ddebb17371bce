//! The page-walk cache (PWC).
//!
//! Modern MMUs keep a small translation cache holding recently used entries
//! of the three *upper* page-table levels (PGD/PUD/PMD); a walk that hits in
//! the PWC skips the memory accesses for those levels. The paper's Replayer
//! must flush the PWC (alongside the data caches) to guarantee that a replay
//! handle's walk is long; conversely, leaving upper levels in the PWC is one
//! of the knobs for *shortening* the walk (`initiate_page_walk(addr, length)`
//! in the paper's Table 2).
//!
//! The model keys entries by the physical address of the page-table entry
//! itself. Because that address is a pure function of (CR3, virtual-address
//! prefix), this is behaviourally equivalent to the conventional VPN-prefix
//! tagging, and it lets the OS flush "the four page table entries" with one
//! address-based primitive, exactly as the kernel module does.

use crate::addr::PAddr;
use std::rc::Rc;

/// Configuration of the page-walk cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PwcConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Latency of a PWC hit, in cycles.
    pub hit_latency: u64,
}

impl Default for PwcConfig {
    fn default() -> Self {
        PwcConfig {
            entries: 32,
            hit_latency: 1,
        }
    }
}

/// A small fully-associative LRU cache of upper-level page-table entries.
///
/// ```
/// use microscope_cache::{PageWalkCache, PwcConfig, PAddr};
/// let mut pwc = PageWalkCache::new(PwcConfig::default());
/// let pte = PAddr(0x5000);
/// assert!(!pwc.lookup(pte));
/// pwc.insert(pte);
/// assert!(pwc.lookup(pte));
/// pwc.flush_entry(pte);
/// assert!(!pwc.lookup(pte));
/// ```
#[derive(Clone, Debug)]
pub struct PageWalkCache {
    cfg: PwcConfig,
    // Rc-shared so checkpoint capture is a reference bump; the first
    // mutation after a clone copies the (small) array back out.
    entries: Rc<Vec<(PAddr, u64)>>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl PageWalkCache {
    /// Creates an empty PWC.
    pub fn new(cfg: PwcConfig) -> Self {
        PageWalkCache {
            entries: Rc::new(Vec::with_capacity(cfg.entries)),
            cfg,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PwcConfig {
        &self.cfg
    }

    /// Looks up the entry whose page-table slot lives at `entry_paddr`,
    /// refreshing LRU on hit.
    pub fn lookup(&mut self, entry_paddr: PAddr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match Rc::make_mut(&mut self.entries)
            .iter_mut()
            .find(|(p, _)| *p == entry_paddr)
        {
            Some((_, used)) => {
                *used = tick;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Inserts an entry, evicting LRU when full. A zero-entry PWC holds
    /// nothing.
    pub fn insert(&mut self, entry_paddr: PAddr) {
        self.tick += 1;
        let tick = self.tick;
        let max = self.cfg.entries;
        let entries = Rc::make_mut(&mut self.entries);
        if let Some((_, used)) = entries.iter_mut().find(|(p, _)| *p == entry_paddr) {
            *used = tick;
            return;
        }
        if entries.len() < max {
            entries.push((entry_paddr, tick));
            return;
        }
        let lru = entries.iter_mut().min_by_key(|(_, used)| *used);
        if let Some(lru) = lru {
            *lru = (entry_paddr, tick);
        }
    }

    /// Removes one entry if present.
    pub fn flush_entry(&mut self, entry_paddr: PAddr) -> bool {
        match self.entries.iter().position(|(p, _)| *p == entry_paddr) {
            Some(i) => {
                Rc::make_mut(&mut self.entries).swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Empties the PWC.
    pub fn flush_all(&mut self) {
        Rc::make_mut(&mut self.entries).clear();
    }

    /// (hits, misses) observed so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_when_full() {
        let mut pwc = PageWalkCache::new(PwcConfig {
            entries: 2,
            hit_latency: 1,
        });
        pwc.insert(PAddr(1));
        pwc.insert(PAddr(2));
        assert!(pwc.lookup(PAddr(1))); // 2 becomes LRU
        pwc.insert(PAddr(3));
        assert!(pwc.lookup(PAddr(1)));
        assert!(!pwc.lookup(PAddr(2)));
        assert!(pwc.lookup(PAddr(3)));
    }

    #[test]
    fn zero_entry_pwc_holds_nothing() {
        let mut pwc = PageWalkCache::new(PwcConfig {
            entries: 0,
            hit_latency: 1,
        });
        pwc.insert(PAddr(1));
        assert!(!pwc.lookup(PAddr(1)));
    }

    #[test]
    fn flush_all_empties() {
        let mut pwc = PageWalkCache::new(PwcConfig::default());
        pwc.insert(PAddr(1));
        pwc.flush_all();
        assert!(!pwc.lookup(PAddr(1)));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut pwc = PageWalkCache::new(PwcConfig::default());
        pwc.lookup(PAddr(1));
        pwc.insert(PAddr(1));
        pwc.lookup(PAddr(1));
        assert_eq!(pwc.stats(), (1, 1));
    }
}
