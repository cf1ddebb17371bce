//! Side-channel monitors and the paper's Table-1 attack taxonomy.
//!
//! Two halves:
//!
//! * **Monitors** used by MicroScope itself:
//!   [`port_contention`] (the Figure-7 timed-division loop and the complete
//!   Figure-10 attack assembly) and [`prime_probe`] (eviction-set based
//!   Prime+Probe).
//! * **The taxonomy** ([`taxonomy`]): each prior attack class from the
//!   paper's Table 1 implemented as a small, runnable model on the same
//!   simulated machine, measured for spatial granularity, temporal
//!   resolution and single-trace accuracy — regenerating the table's
//!   qualitative layout from experiments instead of citations.

pub mod aes_attack;
pub mod modexp_attack;
pub mod physical;
pub mod port_contention;
pub mod prime_probe;
pub mod taxonomy;
