//! The MicroScope attack framework: Replayer / Victim / Monitor sessions.
//!
//! This crate ties the substrates together into the three-actor structure
//! of the paper's Figure 3:
//!
//! * the **Victim** — a program (optionally enclave-shielded) running on
//!   SMT context 0;
//! * the **Monitor** — an optional program on SMT context 1 that creates
//!   and measures contention (port-contention attacks), or the Replayer
//!   itself probing caches between replays (cache attacks);
//! * the **Replayer** — the malicious kernel of [`microscope_os`], whose
//!   MicroScope module keeps the victim replaying on its replay handle.
//!
//! [`AttackSession`] assembles all of it, runs the machine, and returns an
//! [`AttackReport`] containing the module's observations, the monitor's
//! timing samples and the machine statistics. The [`denoise`] module turns
//! raw samples into decisions (threshold calibration, over-threshold
//! counting, majority voting across replays) — the paper's point being that
//! replay turns *one* noisy logical execution into as many samples as the
//! attacker wants.

mod config;
pub mod denoise;
mod error;
mod report;
mod session;
pub mod sweep;

pub use config::SimConfig;
pub use error::{BuildError, RunError};
pub use report::{AttackReport, ReplayAnalytics};
pub use session::{AttackSession, MonitorBuffer, RunRequest, SessionBuilder};
