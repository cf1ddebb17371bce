//! Execution statistics.

use crate::rob::SquashCause;
use microscope_probe::metrics::{MetricSet, MetricSource};

/// Per-context counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Instructions dispatched into the ROB.
    pub dispatched: u64,
    /// Instructions retired (architecturally executed).
    pub retired: u64,
    /// Instructions discarded by squashes — each one *executed or was ready
    /// to execute* and left microarchitectural traces; the attack lives in
    /// this number.
    pub squashed: u64,
    /// Squash events caused by page faults (replay cycles).
    pub fault_squashes: u64,
    /// Squash events caused by branch mispredictions.
    pub mispredict_squashes: u64,
    /// Squash events caused by transaction aborts.
    pub txn_aborts: u64,
    /// Squash events caused by stepping interrupts.
    pub interrupt_squashes: u64,
    /// Page faults delivered to the supervisor.
    pub page_faults: u64,
    /// Loads executed (including speculative ones).
    pub loads_executed: u64,
    /// Stores retired.
    pub stores_retired: u64,
    /// Transactions committed.
    pub txn_commits: u64,
}

impl ContextStats {
    /// Bumps the right squash counter.
    pub fn record_squash(&mut self, cause: SquashCause, discarded: usize) {
        self.squashed += discarded as u64;
        match cause {
            SquashCause::PageFault => self.fault_squashes += 1,
            SquashCause::Mispredict => self.mispredict_squashes += 1,
            SquashCause::TxnAbort => self.txn_aborts += 1,
            SquashCause::Interrupt => self.interrupt_squashes += 1,
        }
    }
}

impl MetricSource for ContextStats {
    fn collect_metrics(&self, prefix: &str, out: &mut MetricSet) {
        out.set_count(format!("{prefix}.dispatched"), self.dispatched);
        out.set_count(format!("{prefix}.retired"), self.retired);
        out.set_count(format!("{prefix}.squashed"), self.squashed);
        out.set_count(format!("{prefix}.fault_squashes"), self.fault_squashes);
        out.set_count(
            format!("{prefix}.mispredict_squashes"),
            self.mispredict_squashes,
        );
        out.set_count(format!("{prefix}.txn_aborts"), self.txn_aborts);
        out.set_count(
            format!("{prefix}.interrupt_squashes"),
            self.interrupt_squashes,
        );
        out.set_count(format!("{prefix}.page_faults"), self.page_faults);
        out.set_count(format!("{prefix}.loads_executed"), self.loads_executed);
        out.set_count(format!("{prefix}.stores_retired"), self.stores_retired);
        out.set_count(format!("{prefix}.txn_commits"), self.txn_commits);
    }
}

/// Whole-machine counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Per-context statistics.
    pub contexts: Vec<ContextStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_use_dotted_names() {
        let s = ContextStats {
            retired: 7,
            ..Default::default()
        };
        let mut m = MetricSet::new();
        s.collect_metrics("cpu.ctx0", &mut m);
        assert_eq!(
            m.get("cpu.ctx0.retired"),
            Some(microscope_probe::MetricValue::Count(7))
        );
    }

    #[test]
    fn squash_recording_routes_to_cause() {
        let mut s = ContextStats::default();
        s.record_squash(SquashCause::PageFault, 10);
        s.record_squash(SquashCause::Mispredict, 5);
        assert_eq!(s.squashed, 15);
        assert_eq!(s.fault_squashes, 1);
        assert_eq!(s.mispredict_squashes, 1);
    }
}
