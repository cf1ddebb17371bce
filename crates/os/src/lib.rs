//! The untrusted supervisor: an OS kernel with the MicroScope module inside.
//!
//! This crate is the reproduction of the paper's Section 5 ("MicroScope
//! Implementation"): a kernel whose page-fault handler contains a trampoline
//! into an attack module. The module holds *attack recipes* (§5.2.1) — the
//! replay handle, optional pivot and addresses to monitor — and performs
//! the attack operations of §5.2.2:
//!
//! 1. software page walks to locate the PGD/PUD/PMD/PTE entries of a
//!    virtual address,
//! 2. flushing those entries from the page-walk cache and cache hierarchy,
//! 3. TLB invalidation,
//! 4. signalling/monitoring coordination (through shared observation state),
//! 5. cache priming for Prime+Probe attacks.
//!
//! The user-facing API mirrors the paper's Table 2 exactly:
//! [`MicroScopeModule::provide_replay_handle`], `provide_pivot`,
//! `provide_monitor_addr`, `initiate_page_walk`, `initiate_page_fault`.
//!
//! The [`Kernel`] implements [`microscope_cpu::Supervisor`]: page faults
//! from the simulated core are first sanitized by the faulting process's
//! enclave (AEX — the OS sees only the VPN), then offered to the module's
//! trampoline; unclaimed faults fall through to an honest demand pager.
//!
//! The paper's confidence threshold (stop replaying a step once the
//! measurements agree) is not modelled: no harness used it, so every step
//! runs its recipe's `replays_per_step` replays.

mod kernel;
mod module;
mod ops;
mod recipe;
mod shared;

pub use kernel::{Kernel, Process};
pub use module::MicroScopeModule;
pub use ops::{flush_translation, translate_ignoring_present, WalkLengthError};
pub use recipe::{AttackRecipe, RecipeId, WalkTuning};
pub use shared::{ModuleShared, Observation, SharedHandle};
