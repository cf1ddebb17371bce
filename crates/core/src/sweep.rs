//! A work-stealing parallel sweep engine with deterministic aggregation.
//!
//! Every evaluation harness ultimately does the same thing: enumerate a
//! grid of configurations ([`SimConfig`] × victim/recipe variants), run an
//! independent [`AttackSession`](crate::AttackSession) per point, and
//! tabulate the [`AttackReport`]s. This module is that batch layer, built
//! around two invariants:
//!
//! 1. **Thread count never changes output.** Each grid point gets a seed
//!    derived from its *grid index* (never from scheduling order or wall
//!    time), workers claim points from a shared queue, and results are
//!    re-ordered by grid index before aggregation. `--jobs 1` and
//!    `--jobs 64` produce byte-identical [`SweepOutcome::digest`]s.
//! 2. **Sessions never cross threads.** A worker builds, runs and tears
//!    down each session entirely on its own thread; only the plain-data
//!    results ([`AttackReport`] and friends, all `Send`) travel back.
//!
//! The scheduler is a single shared atomic cursor: idle workers steal the
//! next unclaimed point, so a grid whose points differ wildly in cost
//! (e.g. walk-tuning ablations where `Long` runs 100× `Length{1}`) still
//! load-balances without any static partitioning.

use crate::config::SimConfig;
use crate::error::{BuildError, RunError};
use crate::report::AttackReport;
use microscope_probe::MetricSet;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Returns the host's available parallelism (the `--jobs` default).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Derives the per-point seed from the sweep's base seed and the point's
/// grid index (splitmix64 finalizer): stable across thread counts and
/// scheduling orders by construction.
pub fn point_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One point of a sweep grid, handed to the runner closure.
#[derive(Clone, Debug)]
pub struct SweepPoint<P = ()> {
    /// Position in the grid (also the aggregation order).
    pub index: usize,
    /// Human-readable point label (row name in the printed table).
    pub label: String,
    /// Deterministic per-point seed, derived from the grid index.
    pub seed: u64,
    /// The hardware configuration for this point.
    pub sim: SimConfig,
    /// Harness-specific extras (victim variant, walk tuning, …).
    pub payload: P,
}

/// Why one grid point failed (the sweep itself keeps going).
#[derive(Clone, Debug, PartialEq)]
pub enum SweepError {
    /// Session assembly failed.
    Build(BuildError),
    /// A run method could not proceed.
    Run(RunError),
    /// Harness-specific failure, described in place.
    Point(String),
    /// The point's runner panicked. The panic is caught at the point
    /// boundary so one bad victim program cannot kill a 10k-point grid;
    /// the label identifies the offender deterministically.
    Panicked {
        /// Label of the point whose runner panicked.
        label: String,
    },
}

impl From<BuildError> for SweepError {
    fn from(e: BuildError) -> Self {
        SweepError::Build(e)
    }
}

impl From<RunError> for SweepError {
    fn from(e: RunError) -> Self {
        SweepError::Run(e)
    }
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Build(e) => write!(f, "point build failed: {e}"),
            SweepError::Run(e) => write!(f, "point run failed: {e}"),
            SweepError::Point(msg) => write!(f, "point failed: {msg}"),
            SweepError::Panicked { label } => {
                write!(f, "point {label:?} failed: runner panicked")
            }
        }
    }
}

impl Error for SweepError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SweepError::Build(e) => Some(e),
            SweepError::Run(e) => Some(e),
            SweepError::Point(_) | SweepError::Panicked { .. } => None,
        }
    }
}

/// What a runner hands back per point when it wants to attach extras to
/// the full report: deterministic, name-spaced annotation metrics that
/// ride along into [`SweepOutcome::merged_metrics`] and the digest.
#[derive(Clone, Debug)]
pub struct PointOutput {
    /// The session's report.
    pub report: AttackReport,
    /// Harness annotations (e.g. `decrypted_ok`, derived scores).
    pub notes: MetricSet,
}

impl From<AttackReport> for PointOutput {
    fn from(report: AttackReport) -> Self {
        PointOutput {
            report,
            notes: MetricSet::new(),
        }
    }
}

/// Anything a sweep can aggregate deterministically. Implemented for
/// [`AttackReport`] (the common case), [`PointOutput`] (report + notes),
/// and domain result types (e.g. the taxonomy's `Measurement`).
pub trait SweepRecord {
    /// The underlying session report, when the record carries one.
    fn report(&self) -> Option<&AttackReport> {
        None
    }

    /// Annotation metrics beyond the report (deterministic values only —
    /// no wall-clock readings, or the jobs-invariance property breaks).
    fn notes(&self) -> MetricSet {
        MetricSet::new()
    }
}

impl SweepRecord for AttackReport {
    fn report(&self) -> Option<&AttackReport> {
        Some(self)
    }
}

impl SweepRecord for PointOutput {
    fn report(&self) -> Option<&AttackReport> {
        Some(&self.report)
    }

    fn notes(&self) -> MetricSet {
        self.notes.clone()
    }
}

/// The boxed per-point runner a [`SweepSpec`] fans out over workers.
pub type PointRunner<'a, P, R> = Box<dyn Fn(&SweepPoint<P>) -> Result<R, SweepError> + Sync + 'a>;

/// A declarative sweep: the grid plus the closure that runs one point.
///
/// ```no_run
/// use microscope_core::sweep::SweepSpec;
/// use microscope_core::SimConfig;
///
/// let outcome = SweepSpec::new("walk-ablation", |pt: &microscope_core::sweep::SweepPoint<u64>| {
///     // build an AttackSession from pt.sim / pt.payload, run it…
///     # let _ = pt;
///     # Err::<microscope_core::AttackReport, _>(microscope_core::sweep::SweepError::Point("stub".into()))
/// })
/// .point("levels=1", SimConfig::default(), 1)
/// .point("levels=2", SimConfig::default(), 2)
/// .jobs(4)
/// .run();
/// assert_eq!(outcome.results.len(), 2);
/// ```
pub struct SweepSpec<'a, P = (), R = AttackReport> {
    name: String,
    defs: Vec<(String, SimConfig, P)>,
    base_seed: u64,
    jobs: Option<usize>,
    runner: PointRunner<'a, P, R>,
}

impl<'a, P, R> SweepSpec<'a, P, R> {
    /// Starts an empty sweep named `name` with the per-point runner.
    pub fn new(
        name: impl Into<String>,
        runner: impl Fn(&SweepPoint<P>) -> Result<R, SweepError> + Sync + 'a,
    ) -> Self {
        SweepSpec {
            name: name.into(),
            defs: Vec::new(),
            base_seed: 0x5eed_0000,
            jobs: None,
            runner: Box::new(runner),
        }
    }

    /// Appends one grid point.
    pub fn point(mut self, label: impl Into<String>, sim: SimConfig, payload: P) -> Self {
        self.defs.push((label.into(), sim, payload));
        self
    }

    /// Appends every `(label, sim, payload)` of an iterator.
    pub fn points(mut self, iter: impl IntoIterator<Item = (String, SimConfig, P)>) -> Self {
        self.defs.extend(iter);
        self
    }

    /// Sets the base seed per-point seeds are derived from.
    pub fn seed(mut self, base: u64) -> Self {
        self.base_seed = base;
        self
    }

    /// Sets the worker count (`None`/unset = available parallelism).
    /// Clamped to `[1, points]` at run time.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Sets the worker count only when `jobs` is `Some` (convenient for
    /// threading an optional `--jobs N` flag through).
    pub fn jobs_opt(mut self, jobs: Option<usize>) -> Self {
        if jobs.is_some() {
            self.jobs = jobs;
        }
        self
    }

    /// Number of grid points defined so far.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Runs every point and aggregates deterministically (results in grid
    /// order, regardless of completion order or worker count).
    pub fn run(self) -> SweepOutcome<P, R>
    where
        P: Sync,
        R: Send,
    {
        let base_seed = self.base_seed;
        let points: Vec<SweepPoint<P>> = self
            .defs
            .into_iter()
            .enumerate()
            .map(|(index, (label, sim, payload))| SweepPoint {
                index,
                label,
                seed: point_seed(base_seed, index as u64),
                sim,
                payload,
            })
            .collect();
        let jobs = self
            .jobs
            .unwrap_or_else(default_jobs)
            .clamp(1, points.len().max(1));
        let runner = &self.runner;
        let started = Instant::now();
        let mut outputs: Vec<(usize, Result<R, SweepError>)> = if jobs <= 1 {
            points
                .iter()
                .map(|pt| (pt.index, run_point_isolated(runner, pt)))
                .collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let done: Mutex<Vec<(usize, Result<R, SweepError>)>> =
                Mutex::new(Vec::with_capacity(points.len()));
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(|| loop {
                        // Steal the next unclaimed point; completion order
                        // is scheduling-dependent, which is why results are
                        // keyed (and later sorted) by grid index.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(pt) = points.get(i) else { break };
                        let out = run_point_isolated(runner, pt);
                        // A worker that died between lock() and push()
                        // poisons the mutex; the results it already pushed
                        // are intact, so recover them instead of cascading
                        // the panic across the whole grid.
                        done.lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .push((i, out));
                    });
                }
            });
            done.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
        };
        let wall = started.elapsed();
        outputs.sort_by_key(|(i, _)| *i);
        let results = points
            .into_iter()
            .zip(outputs)
            .map(|(point, (i, output))| {
                debug_assert_eq!(point.index, i);
                PointResult { point, output }
            })
            .collect();
        SweepOutcome {
            name: self.name,
            jobs,
            wall,
            results,
        }
    }
}

/// Runs one point with a panic firewall: a panicking runner becomes
/// [`SweepError::Panicked`] for that point and the rest of the grid keeps
/// going. The label (not the panic payload, whose formatting can vary) is
/// what reaches the digest, so jobs-invariance is preserved.
fn run_point_isolated<P, R>(
    runner: &PointRunner<'_, P, R>,
    pt: &SweepPoint<P>,
) -> Result<R, SweepError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner(pt))).unwrap_or_else(|_| {
        Err(SweepError::Panicked {
            label: pt.label.clone(),
        })
    })
}

/// One grid point plus what running it produced.
#[derive(Debug)]
pub struct PointResult<P, R> {
    /// The grid point.
    pub point: SweepPoint<P>,
    /// The runner's result for it.
    pub output: Result<R, SweepError>,
}

/// Everything a sweep produced, in grid order.
#[derive(Debug)]
pub struct SweepOutcome<P, R> {
    /// The sweep's name (metric prefix in exports).
    pub name: String,
    /// Worker threads actually used.
    pub jobs: usize,
    /// Engine wall-clock time (diagnostics only — never aggregated, so
    /// the deterministic surfaces stay jobs-invariant).
    pub wall: Duration,
    /// Per-point results, ordered by grid index.
    pub results: Vec<PointResult<P, R>>,
}

impl<P, R> SweepOutcome<P, R> {
    /// Successful `(point, record)` pairs, in grid order.
    pub fn ok(&self) -> impl Iterator<Item = (&SweepPoint<P>, &R)> {
        self.results
            .iter()
            .filter_map(|r| r.output.as_ref().ok().map(|out| (&r.point, out)))
    }

    /// Failed `(point, error)` pairs, in grid order.
    pub fn errors(&self) -> impl Iterator<Item = (&SweepPoint<P>, &SweepError)> {
        self.results
            .iter()
            .filter_map(|r| r.output.as_ref().err().map(|e| (&r.point, e)))
    }

    /// One-line scheduling summary for progress output (contains wall
    /// time — print it to stderr, not into deterministic artifacts).
    pub fn schedule_summary(&self) -> String {
        format!(
            "sweep {}: {} point(s) on {} job(s) in {:.3}s",
            self.name,
            self.results.len(),
            self.jobs,
            self.wall.as_secs_f64()
        )
    }
}

impl<P, R: SweepRecord> SweepOutcome<P, R> {
    /// Merges every point's metrics into one registry, name-spaced by grid
    /// index, plus the sweep-level progress surface:
    ///
    /// * `sweep.points` — grid size;
    /// * `sweep.errors` — failed points;
    /// * `sweep.wall_cycles` — total *simulated* cycles across all point
    ///   reports (the sweep's simulated wall — deterministic, unlike host
    ///   wall time);
    /// * `sweep.p<index>.<metric>` — each point's report metrics and notes.
    ///
    /// Worker count and host timings are deliberately excluded so the
    /// merged set is identical for any `--jobs` value.
    pub fn merged_metrics(&self) -> MetricSet {
        let mut m = MetricSet::new();
        m.set_count("sweep.points", self.results.len() as u64);
        m.set_count(
            "sweep.errors",
            self.results.iter().filter(|r| r.output.is_err()).count() as u64,
        );
        let sim_cycles: u64 = self
            .ok()
            .filter_map(|(_, rec)| rec.report().map(|r| r.cycles))
            .sum();
        m.set_count("sweep.wall_cycles", sim_cycles);
        for (pt, rec) in self.ok() {
            let prefix = format!("sweep.p{:03}", pt.index);
            if let Some(report) = rec.report() {
                for (name, value) in report.metrics.iter() {
                    match value {
                        microscope_probe::MetricValue::Count(v) => {
                            m.set_count(format!("{prefix}.{name}"), v)
                        }
                        microscope_probe::MetricValue::Gauge(v) => {
                            m.set_gauge(format!("{prefix}.{name}"), v)
                        }
                    }
                }
            }
            for (name, value) in rec.notes().iter() {
                match value {
                    microscope_probe::MetricValue::Count(v) => {
                        m.set_count(format!("{prefix}.note.{name}"), v)
                    }
                    microscope_probe::MetricValue::Gauge(v) => {
                        m.set_gauge(format!("{prefix}.note.{name}"), v)
                    }
                }
            }
        }
        m
    }

    /// A byte-stable serialization of everything deterministic the sweep
    /// produced: per point — label, seed, exit reason, cycles, replay and
    /// step counters, monitor samples, notes — plus the merged metrics.
    /// Two runs of the same spec compare equal with `==` on this string,
    /// whatever `--jobs` was.
    pub fn digest(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "sweep {} points={}", self.name, self.results.len());
        for r in &self.results {
            let _ = write!(
                out,
                "p{:03} label={:?} seed={:#018x} ",
                r.point.index, r.point.label, r.point.seed
            );
            match &r.output {
                Err(e) => {
                    let _ = writeln!(out, "error={e}");
                }
                Ok(rec) => {
                    if let Some(rep) = rec.report() {
                        let _ = writeln!(
                            out,
                            "exit={:?} cycles={} replays={:?} steps={:?} monitor={:?}",
                            rep.exit,
                            rep.cycles,
                            rep.module.replays,
                            rep.module.steps,
                            rep.monitor_samples
                        );
                    } else {
                        let _ = writeln!(out, "ok");
                    }
                    let notes = rec.notes();
                    if !notes.is_empty() {
                        let _ = write!(out, "{}", notes.to_jsonl());
                    }
                }
            }
        }
        out.push_str(&self.merged_metrics().to_jsonl());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionBuilder;
    use microscope_cpu::{Assembler, ContextId, Reg};
    use microscope_mem::{PteFlags, VAddr};

    /// A record with no session behind it, for engine-only tests.
    struct Plain(u64);

    impl SweepRecord for Plain {
        fn notes(&self) -> MetricSet {
            let mut m = MetricSet::new();
            m.set_count("value", self.0);
            m
        }
    }

    fn plain_spec(n: usize, jobs: usize) -> SweepOutcome<u64, Plain> {
        let mut spec = SweepSpec::new("plain", |pt: &SweepPoint<u64>| {
            // Scheduling-independent output: a pure function of the point.
            Ok(Plain(pt.seed ^ pt.payload))
        });
        for i in 0..n {
            spec = spec.point(format!("i{i}"), SimConfig::default(), i as u64 * 3);
        }
        spec.jobs(jobs).run()
    }

    #[test]
    fn results_are_grid_ordered_and_jobs_invariant() {
        let serial = plain_spec(9, 1);
        let parallel = plain_spec(9, 4);
        assert_eq!(serial.jobs, 1);
        assert_eq!(parallel.jobs, 4);
        for (i, r) in parallel.results.iter().enumerate() {
            assert_eq!(r.point.index, i);
        }
        assert_eq!(serial.digest(), parallel.digest());
    }

    #[test]
    fn seeds_depend_on_index_not_scheduling() {
        let a = plain_spec(4, 2);
        let seeds: Vec<u64> = a.results.iter().map(|r| r.point.seed).collect();
        let expect: Vec<u64> = (0..4).map(|i| point_seed(0x5eed_0000, i)).collect();
        assert_eq!(seeds, expect);
        // Distinct indices, distinct seeds.
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
    }

    #[test]
    fn errors_are_kept_in_place_and_counted() {
        let outcome = SweepSpec::new("mixed", |pt: &SweepPoint<bool>| {
            if pt.payload {
                Ok(Plain(1))
            } else {
                Err(SweepError::Point("injected".into()))
            }
        })
        .point("bad", SimConfig::default(), false)
        .point("good", SimConfig::default(), true)
        .jobs(2)
        .run();
        assert_eq!(outcome.errors().count(), 1);
        assert_eq!(outcome.ok().count(), 1);
        assert_eq!(
            outcome.merged_metrics().get("sweep.errors"),
            Some(microscope_probe::MetricValue::Count(1))
        );
        assert!(outcome.digest().contains("error=point failed: injected"));
    }

    #[test]
    fn panicking_point_is_isolated_and_digest_stays_jobs_invariant() {
        let run = |jobs: usize| {
            SweepSpec::new("panicky", |pt: &SweepPoint<bool>| {
                if pt.payload {
                    panic!("injected panic in point {}", pt.index);
                }
                Ok(Plain(pt.seed))
            })
            .point("ok0", SimConfig::default(), false)
            .point("boom", SimConfig::default(), true)
            .point("ok2", SimConfig::default(), false)
            .jobs(jobs)
            .run()
        };
        let serial = run(1);
        let parallel = run(3);
        // The grid survives: both healthy points complete, the panicking
        // one is reported in place under its label.
        assert_eq!(parallel.ok().count(), 2);
        let errs: Vec<_> = parallel.errors().collect();
        assert_eq!(errs.len(), 1);
        assert_eq!(
            errs[0].1,
            &SweepError::Panicked {
                label: "boom".into()
            }
        );
        assert!(parallel.digest().contains("panicked"));
        assert_eq!(serial.digest(), parallel.digest());
    }

    #[test]
    fn jobs_clamp_to_grid_size_and_empty_grids_work() {
        let outcome = plain_spec(2, 16);
        assert_eq!(outcome.jobs, 2);
        let empty: SweepOutcome<u64, Plain> =
            SweepSpec::new("empty", |_pt: &SweepPoint<u64>| Ok(Plain(0))).run();
        assert!(empty.results.is_empty());
        assert_eq!(
            empty.merged_metrics().get("sweep.points"),
            Some(microscope_probe::MetricValue::Count(0))
        );
    }

    /// End-to-end: real sessions per point, replay counts as payload, the
    /// parallel digest byte-equal to the serial one.
    #[test]
    fn real_sessions_sweep_deterministically_across_jobs() {
        let run_points = |jobs: usize| {
            SweepSpec::new("replay-grid", |pt: &SweepPoint<u64>| {
                let mut b = SessionBuilder::new();
                b.sim(pt.sim);
                let aspace = b.new_aspace(1);
                let handle = VAddr(0x1000_0000);
                aspace.alloc_map(b.phys(), handle, 4096, PteFlags::user_data());
                let mut asm = Assembler::new();
                asm.imm(Reg(1), handle.0)
                    .load(Reg(2), Reg(1), 0)
                    .alu_imm(microscope_cpu::AluOp::Add, Reg(3), Reg(2), 7)
                    .halt();
                b.victim(asm.finish(), aspace);
                let id = b.module().provide_replay_handle(ContextId(0), handle);
                b.module().recipe_mut(id).replays_per_step = pt.payload;
                let mut session = b.build()?;
                Ok(session.execute(crate::RunRequest::cold(10_000_000))?)
            })
            .point("r2", SimConfig::default(), 2)
            .point("r4", SimConfig::default(), 4)
            .point("r1", SimConfig::default(), 1)
            .jobs(jobs)
            .run()
        };
        let serial = run_points(1);
        let parallel = run_points(3);
        assert_eq!(serial.digest(), parallel.digest());
        let replays: Vec<u64> = parallel.ok().map(|(_, r)| r.replays()).collect();
        assert_eq!(replays, vec![2, 4, 1]);
        let m = parallel.merged_metrics();
        assert_eq!(
            m.get("sweep.points"),
            Some(microscope_probe::MetricValue::Count(3))
        );
        assert!(m.get("sweep.wall_cycles").is_some());
        assert!(m.get("sweep.p001.session.cycles").is_some());
    }
}
