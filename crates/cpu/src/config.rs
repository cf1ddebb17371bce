//! Core configuration.

use crate::predictor::PredictorConfig;

/// Latencies of the non-pipelined floating-point divider.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DivLatency {
    /// Ordinary `divsd` latency (Haswell: ~20 cycles; we use the commonly
    /// cited 24 for 64-bit operands).
    pub normal: u64,
    /// Latency when an operand or the result is subnormal and the FPU takes
    /// a microcode assist (order ~100+ cycles on real parts).
    pub subnormal: u64,
}

impl Default for DivLatency {
    fn default() -> Self {
        DivLatency {
            normal: 24,
            subnormal: 130,
        }
    }
}

/// Static configuration of one simulated core (both SMT contexts share it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder-buffer capacity per hardware context. The speculation window
    /// can never exceed this many instructions (paper §4.1.4 step 3:
    /// "potentially until the ROB is full").
    pub rob_size: usize,
    /// Instructions fetched/dispatched per context per cycle.
    pub fetch_width: usize,
    /// Total instructions issued to ports per cycle (shared across SMT).
    pub issue_width: usize,
    /// Instructions retired per context per cycle.
    pub retire_width: usize,
    /// Single-cycle ALU latency.
    pub alu_latency: u64,
    /// Pipelined integer multiplier latency.
    pub mul_latency: u64,
    /// Pipelined FP add/mul latency.
    pub fp_latency: u64,
    /// Non-pipelined divider latencies.
    pub div: DivLatency,
    /// Cycles the frontend stalls after any squash (refetch/redirect cost).
    pub squash_penalty: u64,
    /// Branch predictor geometry.
    pub predictor: PredictorConfig,
    /// Whether `RDRAND` serializes like a `Fence` (current Intel parts do;
    /// §7.2 found the biasing attack blocked by exactly this fence): it
    /// issues only once every older instruction completed, and no younger
    /// one issues until it completes. The core and the static planner read
    /// this through the one rule,
    /// [`Inst::is_serializing`](crate::Inst::is_serializing). Set to
    /// `false` to simulate a hypothetical unfenced implementation.
    pub rdrand_is_fenced: bool,
    /// Defensive knob (§8 "Fences on Pipeline Flushes"): after every
    /// pipeline flush — page fault, mispredict, transaction abort or
    /// stepping interrupt — the first refetched instruction blocks younger
    /// ones: they may not begin execution until it completes.
    pub fence_after_pipeline_flush: bool,
    /// Defensive knob (InvisiSpec/SafeSpec-style): when set, loads issued
    /// speculatively (i.e. with any older un-completed instruction in the
    /// ROB) do not fill the caches; fills happen only at retirement.
    pub invisible_speculation: bool,
    /// Seed for per-context RDRAND streams (deterministic reproduction).
    pub rdrand_seed: u64,
    /// log2 of the DRBG output-buffer refill interval in cycles: RDRAND
    /// executions within the same interval observe the same buffered value
    /// (hardware DRBGs refill at a bounded rate). This is what lets a
    /// replayer that observed a speculative draw release the victim fast
    /// enough for the *same* value to commit — the §7.2 biasing mechanism.
    pub rdrand_refill_log2: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            rob_size: 192,
            fetch_width: 4,
            issue_width: 6,
            retire_width: 4,
            alu_latency: 1,
            mul_latency: 3,
            fp_latency: 4,
            div: DivLatency::default(),
            squash_penalty: 6,
            predictor: PredictorConfig::default(),
            rdrand_is_fenced: true,
            fence_after_pipeline_flush: false,
            invisible_speculation: false,
            rdrand_seed: 0x5ca1ab1e,
            rdrand_refill_log2: 14,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = CoreConfig::default();
        assert!(c.rob_size >= 64);
        assert!(c.div.subnormal > c.div.normal);
        assert!(c.rdrand_is_fenced);
        assert!(!c.fence_after_pipeline_flush);
    }
}
