//! The benchmark's workloads. Each one is set up from the seed, then
//! driven one operation at a time by a closed loop: the next operation is
//! issued only after the previous one returned and was checked.

mod aes_step;
mod fig10_replay;
mod sec8_plan;
mod table1_sweep;

use crate::compose::Scope;
use crate::layers::Counts;

/// What one operation did and whether its outputs checked out.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcome {
    /// Every correctness check of the operation passed.
    pub ok: bool,
    /// Work the operation reported.
    pub counts: Counts,
}

/// Folds the outcomes of an operation's parts into the operation's: ok
/// when every part is, with their work summed.
pub fn combine(parts: impl IntoIterator<Item = Outcome>) -> Outcome {
    let start = Outcome {
        ok: true,
        ..Outcome::default()
    };
    parts.into_iter().fold(start, |mut acc, o| {
        acc.ok &= o.ok;
        acc.counts.add(&o.counts);
        acc
    })
}

/// A set-up workload, ready to run operations.
pub trait Workload {
    /// Runs the next operation through the simulator's top-level calls.
    fn op(&mut self) -> Outcome;

    /// Runs the next operation with a span around every layer call,
    /// composing it from the calls `op` makes internally where the API
    /// allows.
    fn traced_op(&mut self, at: Scope<'_>) -> Outcome;

    /// Once per run: executes one operation as a fast-forward cross-check
    /// (or, for the sweep, a `jobs = 1` versus `jobs = N` check) and returns
    /// the deterministic text the report digest is taken over.
    fn cross_check(&mut self) -> Result<String, String>;

    /// Sweep worker count (1 for workloads that do not sweep).
    fn jobs(&self) -> u64 {
        1
    }
}

/// Builds workload `name` from `seed`, with set-up spans under `at` when
/// tracing. Fails on an unknown name or a failed set-up check.
pub fn setup(name: &str, seed: u64, at: Option<Scope<'_>>) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "fig10_replay" => Box::new(fig10_replay::Fig10Replay::setup(seed, at)?),
        "aes_step" => Box::new(aes_step::AesStep::setup(seed)?),
        "table1_sweep" => Box::new(table1_sweep::Table1Sweep::setup(seed, at)?),
        "sec8_plan" => Box::new(sec8_plan::Sec8Plan::setup(seed)?),
        _ => return Err(format!("unknown workload {name:?}")),
    })
}

/// Threads workload `name` runs its operations on.
pub fn threads(name: &str) -> usize {
    if name == "table1_sweep" {
        table1_sweep::jobs()
    } else {
        1
    }
}

/// A deterministic stream of 64-bit values drawn from the seed.
pub struct Rng {
    seed: u64,
    next: u64,
}

impl Rng {
    /// The stream for `seed`; `stream` separates independent uses of one
    /// seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng {
            seed: microscope_core::sweep::point_seed(seed, stream),
            next: 0,
        }
    }

    /// The next value.
    pub fn next_u64(&mut self) -> u64 {
        self.next += 1;
        microscope_core::sweep::point_seed(self.seed, self.next)
    }

    /// The next value reduced to `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Times `f` as span `name` when tracing; otherwise just runs it.
pub fn maybe_span<T>(at: Option<Scope<'_>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match at {
        Some(s) => s.span(name, f),
        None => f(),
    }
}

/// Runs `f`, turning a panic into an error message (a cross-check panics
/// on divergence by design).
pub fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|_| format!("{what} panicked"))
}
