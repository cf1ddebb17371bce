//! A minimal DRAM timing model with per-bank row buffers.
//!
//! Two attacks in the paper's Table 1 depend on DRAM behaviour:
//!
//! * **DRAMA** (Pessl et al.) exploits row-buffer *reuse*: an access to an
//!   already-open row is measurably faster than one that must close the
//!   current row and activate another. The model exposes exactly that
//!   distinction.
//! * MicroScope's page-walk tuning uses main-memory latency as the "slow"
//!   end of the replay window (a fully uncached walk costs four DRAM
//!   accesses, which the paper reports as "over one thousand cycles").

use crate::addr::LineAddr;

/// DRAM organization and timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks. Must be a power of two.
    pub banks: usize,
    /// Lines per row (row size / 64 B). Must be a power of two.
    /// The default models 8 KiB rows = 128 lines.
    pub lines_per_row: u64,
    /// Latency of an access that hits the open row.
    pub row_hit_latency: u64,
    /// Latency of an access that must activate a new row.
    pub row_miss_latency: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            banks: 8,
            lines_per_row: 128,
            row_hit_latency: 160,
            row_miss_latency: 260,
        }
    }
}

/// The open-row state of a DRAM device.
///
/// ```
/// use microscope_cache::{DramConfig, DramModel, LineAddr};
/// let mut dram = DramModel::new(DramConfig::default());
/// let a = LineAddr(0);
/// let miss = dram.access(a);
/// let hit = dram.access(a);
/// assert!(hit < miss);
/// ```
#[derive(Clone, Debug)]
pub struct DramModel {
    cfg: DramConfig,
    open_rows: Vec<Option<u64>>,
    row_hits: u64,
    row_misses: u64,
}

impl DramModel {
    /// Creates a DRAM model with all rows closed.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `lines_per_row` is not a power of two.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.banks.is_power_of_two(), "banks must be a power of two");
        assert!(
            cfg.lines_per_row.is_power_of_two(),
            "lines_per_row must be a power of two"
        );
        DramModel {
            open_rows: vec![None; cfg.banks],
            cfg,
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The bank a line maps to. Bank bits sit directly above the row-offset
    /// bits so consecutive rows interleave across banks.
    pub fn bank_of(&self, line: LineAddr) -> usize {
        ((line.0 / self.cfg.lines_per_row) as usize) & (self.cfg.banks - 1)
    }

    /// The row (within its bank) a line maps to.
    pub fn row_of(&self, line: LineAddr) -> u64 {
        line.0 / self.cfg.lines_per_row / self.cfg.banks as u64
    }

    /// Performs an access, returning its latency and updating the open row.
    pub fn access(&mut self, line: LineAddr) -> u64 {
        let bank = self.bank_of(line);
        let row = self.row_of(line);
        if self.open_rows[bank] == Some(row) {
            self.row_hits += 1;
            self.cfg.row_hit_latency
        } else {
            self.open_rows[bank] = Some(row);
            self.row_misses += 1;
            self.cfg.row_miss_latency
        }
    }

    /// Closes every row (e.g. after refresh); the next access to each bank
    /// will pay the activation penalty.
    pub fn close_all_rows(&mut self) {
        for r in &mut self.open_rows {
            *r = None;
        }
    }

    /// (row hits, row misses) observed so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.row_hits, self.row_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut d = DramModel::new(DramConfig::default());
        let a = LineAddr(5);
        let miss = d.access(a);
        let hit = d.access(a);
        assert_eq!(miss, d.config().row_miss_latency);
        assert_eq!(hit, d.config().row_hit_latency);
        assert!(hit < miss);
    }

    #[test]
    fn same_row_lines_share_the_buffer() {
        let cfg = DramConfig::default();
        let mut d = DramModel::new(cfg);
        let a = LineAddr(0);
        let b = LineAddr(cfg.lines_per_row - 1); // same row, same bank
        d.access(a);
        assert_eq!(d.access(b), cfg.row_hit_latency);
    }

    #[test]
    fn different_banks_do_not_conflict() {
        let cfg = DramConfig::default();
        let mut d = DramModel::new(cfg);
        let a = LineAddr(0);
        let b = LineAddr(cfg.lines_per_row); // next bank
        assert_ne!(d.bank_of(a), d.bank_of(b));
        d.access(a);
        d.access(b);
        // Row for `a` still open.
        assert_eq!(d.access(a), cfg.row_hit_latency);
    }

    #[test]
    fn conflicting_rows_evict_the_open_row() {
        let cfg = DramConfig::default();
        let mut d = DramModel::new(cfg);
        let a = LineAddr(0);
        // Same bank, different row: stride = lines_per_row * banks.
        let b = LineAddr(cfg.lines_per_row * cfg.banks as u64);
        assert_eq!(d.bank_of(a), d.bank_of(b));
        assert_ne!(d.row_of(a), d.row_of(b));
        d.access(a);
        assert_eq!(d.access(b), cfg.row_miss_latency);
        assert_eq!(d.access(a), cfg.row_miss_latency);
    }

    #[test]
    fn close_all_rows_forces_activation() {
        let mut d = DramModel::new(DramConfig::default());
        let a = LineAddr(9);
        d.access(a);
        d.close_all_rows();
        assert_eq!(d.access(a), d.config().row_miss_latency);
    }
}
