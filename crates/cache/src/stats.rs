//! Access statistics kept by the hierarchy.

use microscope_probe::metrics::{MetricSet, MetricSource};

/// Hit/miss counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses that hit at this level.
    pub hits: u64,
    /// Accesses that probed this level and missed.
    pub misses: u64,
}

impl LevelStats {
    /// Total accesses that reached this level.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in [0, 1]; zero when the level was never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Statistics for the full hierarchy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 data cache counters.
    pub l1: LevelStats,
    /// L2 counters.
    pub l2: LevelStats,
    /// L3 counters.
    pub l3: LevelStats,
    /// Accesses served by DRAM.
    pub dram_accesses: u64,
    /// Lines invalidated in L1/L2 to preserve inclusion when L3 evicted.
    pub back_invalidations: u64,
    /// Explicit line flushes requested (clflush-style).
    pub line_flushes: u64,
}

impl MetricSource for HierarchyStats {
    fn collect_metrics(&self, prefix: &str, out: &mut MetricSet) {
        for (name, level) in [("l1", self.l1), ("l2", self.l2), ("l3", self.l3)] {
            out.set_count(format!("{prefix}.{name}.hits"), level.hits);
            out.set_count(format!("{prefix}.{name}.misses"), level.misses);
            out.set_gauge(format!("{prefix}.{name}.hit_rate"), level.hit_rate());
        }
        out.set_count(format!("{prefix}.dram_accesses"), self.dram_accesses);
        out.set_count(
            format!("{prefix}.back_invalidations"),
            self.back_invalidations,
        );
        out.set_count(format!("{prefix}.line_flushes"), self.line_flushes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_accesses() {
        let s = LevelStats::default();
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_is_fractional() {
        let s = LevelStats { hits: 1, misses: 3 };
        assert_eq!(s.accesses(), 4);
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn metrics_use_dotted_names() {
        let s = HierarchyStats {
            l1: LevelStats { hits: 3, misses: 1 },
            ..HierarchyStats::default()
        };
        let mut m = MetricSet::new();
        s.collect_metrics("cache", &mut m);
        assert_eq!(
            m.get("cache.l1.hits"),
            Some(microscope_probe::MetricValue::Count(3))
        );
        assert!(m.get("cache.l1.hit_rate").is_some());
        assert!(m.get("cache.line_flushes").is_some());
    }
}
