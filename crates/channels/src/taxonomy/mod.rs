//! The paper's Table 1, regenerated from experiments.
//!
//! Table 1 classifies SGX side channels along three axes: spatial
//! granularity (coarse = page level, fine = cache line or better),
//! temporal resolution (low = aggregate effects only, medium/high =
//! per-few-instructions), and noise (whether one trace suffices). Every
//! row here is backed by a small runnable model on the simulator; the
//! [`catalog`] function runs them all and reports measured single-trace
//! accuracy and granularity next to the paper's qualitative claim.

mod cache_attacks;
mod contention;
mod paging;
mod replay;

pub use cache_attacks::{cachezoom_experiment, l3_prime_probe_experiment};
pub use contention::{
    bank_contention_experiment, btb_collision_experiment, drama_experiment, tlb_experiment,
};
pub use paging::{controlled_channel_experiment, spm_experiment};
pub use replay::{microscope_experiment, portsmash_experiment};

/// Spatial granularity classes from Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Spatial {
    /// 4 KiB pages (coarse grain).
    Page,
    /// DRAM row (2–8 KiB; coarse grain).
    DramRow,
    /// 64 B cache lines (fine grain).
    CacheLine,
    /// Sub-line: 4 B cache banks (fine grain).
    CacheBank,
    /// Individual instructions / execution ports (fine grain).
    Instruction,
}

impl Spatial {
    /// Granularity in bytes (instruction-granularity reported as 1).
    pub fn bytes(self) -> u64 {
        match self {
            Spatial::Page => 4096,
            Spatial::DramRow => 8192,
            Spatial::CacheLine => 64,
            Spatial::CacheBank => 4,
            Spatial::Instruction => 1,
        }
    }

    /// Whether Table 1 files this under "fine grain".
    pub fn is_fine_grain(self) -> bool {
        matches!(
            self,
            Spatial::CacheLine | Spatial::CacheBank | Spatial::Instruction
        )
    }
}

/// Temporal resolution classes from Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Temporal {
    /// Only aggregate effects of many instructions are visible.
    Low,
    /// Individual (or a few) instructions are observable.
    MediumHigh,
}

/// Noise classes from Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Noise {
    /// A single trace suffices.
    None,
    /// Some repetition needed.
    Medium,
    /// Many traces needed.
    High,
}

/// One row of Table 1: the paper's claim plus our measurement hook.
pub struct ChannelRow {
    /// Attack name as in the paper.
    pub name: &'static str,
    /// Reference tag from the paper's bibliography.
    pub citation: &'static str,
    /// Claimed spatial granularity.
    pub spatial: Spatial,
    /// Claimed temporal resolution.
    pub temporal: Temporal,
    /// Claimed noise level.
    pub noise: Noise,
    /// The runnable model: `(trials, seed) -> measurement`.
    pub experiment: fn(u32, u64) -> Measurement,
}

/// What an experiment measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Fraction of trials where a single trace recovered the secret bit.
    pub single_trace_accuracy: f64,
    /// Trials run.
    pub trials: u32,
    /// Observations the attacker obtained per logical victim run (the
    /// quantity MicroScope multiplies).
    pub samples_per_run: u64,
}

impl Measurement {
    /// The measurement of `hits` correct recoveries out of `attempts`
    /// single-trace attempts, counting one trial per attempt (a row that
    /// attempts several secrets per trial sets `trials` itself). With no
    /// attempts the accuracy is 0.0: nothing was recovered.
    pub fn from_hits(hits: u32, attempts: u32, samples_per_run: u64) -> Measurement {
        let single_trace_accuracy = if attempts == 0 {
            0.0
        } else {
            f64::from(hits) / f64::from(attempts)
        };
        Measurement {
            single_trace_accuracy,
            trials: attempts,
            samples_per_run,
        }
    }
}

impl microscope_core::sweep::SweepRecord for Measurement {
    fn notes(&self) -> microscope_probe::MetricSet {
        let mut m = microscope_probe::MetricSet::new();
        m.set_gauge("single_trace_accuracy", self.single_trace_accuracy);
        m.set_count("trials", u64::from(self.trials));
        m.set_count("samples_per_run", self.samples_per_run);
        m
    }
}

/// The full Table-1 catalog.
pub fn catalog() -> Vec<ChannelRow> {
    vec![
        ChannelRow {
            name: "Controlled side channel",
            citation: "Xu et al. [60]",
            spatial: Spatial::Page,
            temporal: Temporal::Low,
            noise: Noise::None,
            experiment: controlled_channel_experiment,
        },
        ChannelRow {
            name: "Sneaky Page Monitoring",
            citation: "Wang et al. [58]",
            spatial: Spatial::Page,
            temporal: Temporal::Low,
            noise: Noise::None,
            experiment: spm_experiment,
        },
        ChannelRow {
            name: "TLB contention",
            citation: "TLBleed [20] / Hund et al. [25]",
            spatial: Spatial::Page,
            temporal: Temporal::Low,
            noise: Noise::Medium,
            experiment: tlb_experiment,
        },
        ChannelRow {
            name: "DRAMA row buffer",
            citation: "Pessl et al. [46]",
            spatial: Spatial::DramRow,
            temporal: Temporal::Low,
            noise: Noise::Medium,
            experiment: drama_experiment,
        },
        ChannelRow {
            name: "L3 Prime+Probe",
            citation: "SGX Prime+Probe [18], Software Grand Exposure [9]",
            spatial: Spatial::CacheLine,
            temporal: Temporal::Low,
            noise: Noise::High,
            experiment: l3_prime_probe_experiment,
        },
        ChannelRow {
            name: "Cache-bank contention",
            citation: "CacheBleed [64]",
            spatial: Spatial::CacheBank,
            temporal: Temporal::Low,
            noise: Noise::High,
            experiment: bank_contention_experiment,
        },
        ChannelRow {
            name: "BTB/PHT collision",
            citation: "Evtyushkin et al. [16], Acıiçmez et al. [1, 2]",
            spatial: Spatial::Instruction,
            temporal: Temporal::Low,
            noise: Noise::High,
            experiment: btb_collision_experiment,
        },
        ChannelRow {
            name: "Execution-port contention (one shot)",
            citation: "PortSmash [5]",
            spatial: Spatial::Instruction,
            temporal: Temporal::Low,
            noise: Noise::High,
            experiment: portsmash_experiment,
        },
        ChannelRow {
            name: "Interrupt-stepped L1 Prime+Probe",
            citation: "CacheZoom [40], SGX-Step [57], Hähnel et al. [23]",
            spatial: Spatial::CacheLine,
            temporal: Temporal::MediumHigh,
            noise: Noise::Medium,
            experiment: cachezoom_experiment,
        },
        ChannelRow {
            name: "MicroScope (this work)",
            citation: "this reproduction",
            spatial: Spatial::Instruction,
            temporal: Temporal::MediumHigh,
            noise: Noise::None,
            experiment: microscope_experiment,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_table1_classes() {
        let rows = catalog();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().any(|r| r.spatial == Spatial::Page));
        assert!(rows.iter().any(|r| r.spatial == Spatial::CacheBank));
        assert!(rows
            .iter()
            .any(|r| r.name.contains("MicroScope") && r.noise == Noise::None));
    }

    #[test]
    fn spatial_bytes_are_ordered() {
        assert!(Spatial::Page.bytes() > Spatial::CacheLine.bytes());
        assert!(Spatial::CacheLine.bytes() > Spatial::CacheBank.bytes());
        assert!(!Spatial::Page.is_fine_grain());
        assert!(Spatial::Instruction.is_fine_grain());
    }
}
