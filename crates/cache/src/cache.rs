//! A single set-associative cache with true-LRU replacement.

use crate::addr::LineAddr;
use crate::config::CacheConfig;
use std::rc::Rc;

/// The line displaced by an insertion, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictionVictim {
    /// The displaced line.
    pub line: LineAddr,
}

#[derive(Clone, Copy, Debug)]
struct Way {
    line: LineAddr,
    last_used: u64,
}

/// A set-associative cache with LRU replacement.
///
/// The cache stores only presence (tags), not data — data lives in the
/// simulated physical memory and caches affect *timing* only, exactly the
/// abstraction level the attack operates at.
///
/// The tag array is [`Rc`]-shared: cloning a `Cache` (checkpoint capture)
/// is a reference bump, and the first mutation after a clone lazily copies
/// the array back out ([`Rc::make_mut`]). Restores swap the `Rc` instead
/// of copying sets. The count is not atomic, so `make_mut` on every lookup
/// costs a plain compare, and a `Cache` stays on the thread that built it.
///
/// ```
/// use microscope_cache::{Cache, CacheConfig, LineAddr};
/// let mut c = Cache::new(CacheConfig::new(2, 2, 1));
/// assert!(!c.lookup(LineAddr(7)));
/// c.insert(LineAddr(7));
/// assert!(c.lookup(LineAddr(7)));
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Rc<Vec<Vec<Way>>>,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        Cache {
            sets: Rc::new(vec![Vec::with_capacity(cfg.ways); cfg.sets]),
            cfg,
            tick: 0,
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The set index a line maps to.
    pub fn set_index(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.cfg.sets - 1)
    }

    /// Looks a line up, refreshing its LRU position on a hit.
    pub fn lookup(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let idx = self.set_index(line);
        match Rc::make_mut(&mut self.sets)[idx]
            .iter_mut()
            .find(|w| w.line == line)
        {
            Some(w) => {
                w.last_used = tick;
                true
            }
            None => false,
        }
    }

    /// Whether the line is present, without disturbing LRU state.
    pub fn contains(&self, line: LineAddr) -> bool {
        let idx = self.set_index(line);
        self.sets[idx].iter().any(|w| w.line == line)
    }

    /// Inserts a line, returning the victim displaced by the insertion (if
    /// the set was full). Inserting an already-present line only refreshes
    /// its LRU position.
    pub fn insert(&mut self, line: LineAddr) -> Option<EvictionVictim> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.cfg.ways;
        let idx = self.set_index(line);
        let set = &mut Rc::make_mut(&mut self.sets)[idx];
        if let Some(w) = set.iter_mut().find(|w| w.line == line) {
            w.last_used = tick;
            return None;
        }
        if set.len() < ways {
            set.push(Way {
                line,
                last_used: tick,
            });
            return None;
        }
        // Evict true-LRU.
        let (lru_pos, _) = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.last_used)
            .expect("non-empty set");
        let victim = set[lru_pos].line;
        set[lru_pos] = Way {
            line,
            last_used: tick,
        };
        Some(EvictionVictim { line: victim })
    }

    /// Removes a line if present (a `clflush`-style invalidation). Returns
    /// whether the line was present.
    pub fn flush_line(&mut self, line: LineAddr) -> bool {
        let idx = self.set_index(line);
        let set = &mut Rc::make_mut(&mut self.sets)[idx];
        match set.iter().position(|w| w.line == line) {
            Some(pos) => {
                set.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    /// Empties the whole cache (a `wbinvd`-style flush).
    pub fn flush_all(&mut self) {
        for set in Rc::make_mut(&mut self.sets) {
            set.clear();
        }
    }

    /// The lines currently resident in a set, unordered.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= config().sets`.
    pub fn lines_in_set(&self, idx: usize) -> Vec<LineAddr> {
        self.sets[idx].iter().map(|w| w.line).collect()
    }

    /// Number of resident lines across all sets.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig::new(2, 2, 1))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let l = LineAddr(10);
        assert!(!c.lookup(l));
        assert_eq!(c.insert(l), None);
        assert!(c.lookup(l));
        assert!(c.contains(l));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Lines 0, 2, 4 all map to set 0 (even line numbers with 2 sets).
        c.insert(LineAddr(0));
        c.insert(LineAddr(2));
        // Touch 0 so 2 becomes LRU.
        assert!(c.lookup(LineAddr(0)));
        let victim = c.insert(LineAddr(4)).expect("set was full");
        assert_eq!(victim.line, LineAddr(2));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(4)));
        assert!(!c.contains(LineAddr(2)));
    }

    #[test]
    fn reinserting_refreshes_lru_without_eviction() {
        let mut c = small();
        c.insert(LineAddr(0));
        c.insert(LineAddr(2));
        assert_eq!(c.insert(LineAddr(0)), None);
        // Now 2 is LRU.
        let victim = c.insert(LineAddr(4)).unwrap();
        assert_eq!(victim.line, LineAddr(2));
    }

    #[test]
    fn flush_line_removes_only_target() {
        let mut c = small();
        c.insert(LineAddr(0));
        c.insert(LineAddr(1));
        assert!(c.flush_line(LineAddr(0)));
        assert!(!c.flush_line(LineAddr(0)));
        assert!(c.contains(LineAddr(1)));
    }

    #[test]
    fn flush_all_empties() {
        let mut c = small();
        for i in 0..4 {
            c.insert(LineAddr(i));
        }
        assert!(c.resident_lines() > 0);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn associativity_is_respected() {
        let mut c = Cache::new(CacheConfig::new(1, 4, 1));
        for i in 0..100 {
            c.insert(LineAddr(i));
        }
        assert_eq!(c.resident_lines(), 4);
        assert_eq!(c.lines_in_set(0).len(), 4);
    }
}
