//! Error types for session assembly and execution.
//!
//! Library code never calls `panic!`/`expect` on caller mistakes: a
//! missing victim or monitor is an ordinary [`Result`] the embedding
//! binary (or sweep worker) decides how to surface.
//!
//! All error types in the workspace follow one shape: every variant
//! carries the context needed to act on it, `Display` messages read
//! "what failed: why", chains are exposed through
//! [`std::error::Error::source`], and every type is `Send + Sync +
//! 'static` (pinned by `tests/api_surface.rs`).

use crate::report::AttackReport;
use microscope_mem::VAddr;
use microscope_os::RecipeId;
use std::error::Error;
use std::fmt;

/// Why [`SessionBuilder::build`](crate::SessionBuilder::build) refused to
/// assemble a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// No victim program was installed
    /// ([`SessionBuilder::victim`](crate::SessionBuilder::victim) was
    /// never called) — there is nothing to attack.
    NoVictim,
    /// A monitor sample buffer slot does not translate in the monitor's
    /// address space, so the report could not read it back. Names the
    /// first such 8-byte slot, or the buffer base when the buffer's end
    /// overflows the address space.
    MonitorBufferUnmapped {
        /// The first slot that does not translate.
        vaddr: VAddr,
    },
    /// A hierarchy, TLB, page-walker or branch-predictor field breaks the
    /// rule its model needs: cache and TLB `sets`, `l1_banks`,
    /// `dram.banks`, `dram.lines_per_row` and the predictor's
    /// `pht_entries` must be powers of two, cache and TLB `ways` and the
    /// page-walk cache's `entries` non-zero, and the predictor's
    /// `reset_value` at most 3 (see
    /// [`HierarchyConfig::check`](microscope_cache::HierarchyConfig::check),
    /// [`TlbHierarchyConfig::check`](microscope_mem::TlbHierarchyConfig::check),
    /// [`WalkerConfig::check`](microscope_mem::WalkerConfig::check) and
    /// [`PredictorConfig::check`](microscope_cpu::PredictorConfig::check)).
    InvalidConfig {
        /// The field, as a path inside `SimConfig` (`"hierarchy.l1.ways"`,
        /// `"tlb.l1d.sets"`, `"walker.pwc.entries"`).
        field: &'static str,
        /// Its value.
        value: u64,
    },
    /// An installed attack recipe breaks a rule of
    /// [`AttackRecipe::check`](microscope_os::AttackRecipe::check): a
    /// tuned walk fetches 1..=4 levels, and the pivot lives on a different
    /// page than the replay handle.
    InvalidRecipe {
        /// The recipe, as its module returned it.
        recipe: RecipeId,
        /// The field (`"walk.levels"` or `"pivot"`).
        field: &'static str,
        /// Its value (the level count, or the pivot address).
        value: u64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoVictim => {
                write!(
                    f,
                    "session build failed: no victim installed \
                     (call SessionBuilder::victim first)"
                )
            }
            BuildError::MonitorBufferUnmapped { vaddr } => {
                write!(
                    f,
                    "session build failed: monitor buffer slot {vaddr} is unmapped"
                )
            }
            BuildError::InvalidConfig { field, value } => {
                write!(f, "session build failed: {field} = {value} breaks its rule")
            }
            BuildError::InvalidRecipe {
                recipe,
                field,
                value,
            } => {
                let id = recipe.0;
                write!(
                    f,
                    "session build failed: recipe {id} {field} = {value} breaks its rule"
                )
            }
        }
    }
}

impl Error for BuildError {}

/// Why [`AttackSession::execute`](crate::AttackSession::execute) could not
/// carry out a [`RunRequest`](crate::RunRequest).
/// Not `Eq`: a divergence carries reports, whose metrics hold `f64`s.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum RunError {
    /// The request needs a monitor context, but none was installed via
    /// [`SessionBuilder::monitor`](crate::SessionBuilder::monitor).
    NoMonitor {
        /// The operation that required the monitor.
        operation: &'static str,
    },
    /// A checkpointed request arrived before the armed-state snapshot was
    /// captured — execute a cold request once first (for deferred arming
    /// the snapshot is taken mid-run, at the arming interrupt).
    NoCheckpoint {
        /// The operation that needed the checkpoint.
        operation: &'static str,
    },
    /// The armed-state checkpoint carries supervisor state the currently
    /// installed supervisor does not recognize (it was swapped since the
    /// capture), so the rewind would silently lose kernel/module state.
    CheckpointMismatch {
        /// Cycle at which the stale snapshot was captured.
        capture_cycle: u64,
    },
    /// A [`RunRequest::cross_checked`](crate::RunRequest::cross_checked)
    /// run found the cycle-by-cycle and fast-forwarded reports different:
    /// a simulator soundness bug, never a property of the workload.
    CrossCheckDiverged {
        /// The first [`AttackReport`] field, in declaration order, that differs.
        field: &'static str,
        /// The cycle-by-cycle report.
        cycle_by_cycle: Box<AttackReport>,
        /// The fast-forwarded report.
        fast_forward: Box<AttackReport>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::NoMonitor { operation } => {
                write!(
                    f,
                    "{operation} failed: no monitor context installed \
                     (call SessionBuilder::monitor first)"
                )
            }
            RunError::NoCheckpoint { operation } => {
                write!(
                    f,
                    "{operation} failed: no armed checkpoint captured yet \
                     (execute a cold RunRequest once first)"
                )
            }
            RunError::CheckpointMismatch { capture_cycle } => {
                write!(
                    f,
                    "checkpoint restore failed: the snapshot from cycle \
                     {capture_cycle} carries supervisor state the installed \
                     supervisor does not recognize (swapped since capture)"
                )
            }
            RunError::CrossCheckDiverged { field, .. } => {
                write!(
                    f,
                    "fast-forward cross-check failed: the reports differ first \
                     in `{field}`"
                )
            }
        }
    }
}

impl Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_what_failed_colon_why() {
        let b = BuildError::NoVictim.to_string();
        assert!(b.contains("failed:") && b.contains("victim"), "{b}");
        let r = RunError::NoMonitor {
            operation: "run until monitor done",
        }
        .to_string();
        assert!(r.starts_with("run until monitor done failed:"), "{r}");
        let c = RunError::CheckpointMismatch { capture_cycle: 42 }.to_string();
        assert!(c.contains("cycle 42"), "{c}");
    }
}
