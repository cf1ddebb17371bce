//! The result of running an attack session.

use microscope_cpu::{MachineStats, RunExit, SquashCause};
use microscope_os::ModuleShared;
use microscope_probe::{Event, EventKind, MetricSet};

/// Everything the attacker has after one session run.
#[derive(Clone, Debug, PartialEq)]
pub struct AttackReport {
    /// Why the run ended.
    pub exit: RunExit,
    /// Total cycles simulated.
    pub cycles: u64,
    /// The module's observations (probe latencies, fault log, replay and
    /// step counters).
    pub module: ModuleShared,
    /// Machine statistics (per-context squash/fault/retire counters).
    pub stats: MachineStats,
    /// Timing samples read from the monitor's buffer, when a monitor with a
    /// sample buffer was configured.
    pub monitor_samples: Vec<u64>,
    /// `(division issues, divider wait cycles)` — aggregate port-contention
    /// ground truth for calibration tests.
    pub div_stats: (u64, u64),
    /// The cross-layer event trace (empty unless tracing was enabled).
    pub trace: Vec<Event>,
    /// Events overwritten because the trace ring filled up.
    pub dropped_events: u64,
    /// Uniform metrics collected from every layer at the end of the run.
    pub metrics: MetricSet,
}

/// Per-replay analytics: what each replay cycle of the attack yielded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayAnalytics {
    /// Monitor-probe samples captured by each replay's observation, in
    /// replay order. Sums to the total denoising sample count.
    pub samples_per_replay: Vec<u64>,
    /// Instructions discarded by each page-fault squash of the victim —
    /// the length of each speculative window the attacker observed.
    pub window_lengths: Vec<u64>,
}

impl ReplayAnalytics {
    /// Derives the analytics from the module observations and the trace.
    pub fn from_parts(module: &ModuleShared, trace: &[Event]) -> Self {
        let samples_per_replay = module
            .observations
            .iter()
            .map(|o| o.probes.len() as u64)
            .collect();
        let window_lengths = trace
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Squash {
                    cause: SquashCause::PageFault,
                    discarded,
                } => Some(discarded),
                _ => None,
            })
            .collect();
        ReplayAnalytics {
            samples_per_replay,
            window_lengths,
        }
    }

    /// Speculation-window-length histogram as sorted `(length, count)`.
    pub fn window_histogram(&self) -> Vec<(u64, u64)> {
        let mut hist: Vec<(u64, u64)> = Vec::new();
        for &len in &self.window_lengths {
            match hist.binary_search_by_key(&len, |&(l, _)| l) {
                Ok(i) => hist[i].1 += 1,
                Err(i) => hist.insert(i, (len, 1)),
            }
        }
        hist
    }

    /// Mean speculation-window length (0.0 with no page-fault squashes).
    pub fn mean_window(&self) -> f64 {
        if self.window_lengths.is_empty() {
            return 0.0;
        }
        self.window_lengths.iter().sum::<u64>() as f64 / self.window_lengths.len() as f64
    }
}

/// A compact, exportable summary of one attack run.
#[derive(Clone, Debug)]
pub struct ReportSnapshot {
    /// Replays performed for recipe 0.
    pub replays: u64,
    /// Monitor-probe samples captured per replay.
    pub samples_per_replay: Vec<u64>,
    /// Speculation-window-length histogram, `(length, count)` sorted.
    pub window_histogram: Vec<(u64, u64)>,
    /// Mean speculation-window length.
    pub mean_window: f64,
    /// The full uniform metric registry.
    pub metrics: MetricSet,
}

impl AttackReport {
    /// Replays performed for recipe 0 (the common single-recipe case).
    pub fn replays(&self) -> u64 {
        self.module.replays.first().copied().unwrap_or(0)
    }

    /// Per-replay analytics derived from the observations and the trace.
    pub fn analytics(&self) -> ReplayAnalytics {
        ReplayAnalytics::from_parts(&self.module, &self.trace)
    }

    /// How many times the instruction at `pc` of context `ctx` *issued*
    /// (began execution) during the run, counting squashed-and-replayed
    /// executions — the ground truth a static attack plan is validated
    /// against: a transmitter predicted replayable must issue more than
    /// once. Counted from the trace, so it returns 0 when tracing was off,
    /// and it silently undercounts once the ring has overwritten events
    /// (`dropped_events > 0`). The exact count, kept with or without
    /// tracing, is
    /// [`Context::issues_at`](microscope_cpu::Context::issues_at).
    pub fn executions_of(&self, ctx: u32, pc: usize) -> u64 {
        self.trace
            .iter()
            .filter(|e| {
                e.ctx == Some(ctx)
                    && matches!(e.kind, EventKind::Issue { pc: p, .. } if p == pc as u64)
            })
            .count() as u64
    }

    /// A compact summary: replay counts, samples per replay, the
    /// speculation-window histogram, and the metric registry.
    pub fn snapshot(&self) -> ReportSnapshot {
        let analytics = self.analytics();
        ReportSnapshot {
            replays: self.replays(),
            samples_per_replay: analytics.samples_per_replay.clone(),
            window_histogram: analytics.window_histogram(),
            mean_window: analytics.mean_window(),
            metrics: self.metrics.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_histogram_counts_sorted_lengths() {
        let a = ReplayAnalytics {
            samples_per_replay: vec![2, 2],
            window_lengths: vec![7, 3, 7, 7],
        };
        assert_eq!(a.window_histogram(), vec![(3, 1), (7, 3)]);
        assert!((a.mean_window() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_analytics_are_well_defined() {
        let a = ReplayAnalytics::default();
        assert!(a.window_histogram().is_empty());
        assert_eq!(a.mean_window(), 0.0);
    }
}
