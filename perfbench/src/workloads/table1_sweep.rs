//! `table1_sweep`: the parallel sweep. One operation is one pass of the
//! Table-1 side-channel catalog through `SweepSpec`, on
//! `min(2, available parallelism)` workers, with per-row seeds derived
//! from a base seed drawn from the benchmark seed. The rows build many
//! short cold sessions of very different shapes; the MicroScope row
//! dominates the pass.
//!
//! Each pass must finish without a `SweepError` and pass the `table1`
//! harness's shape checks. The harness checks one fixed seed; over
//! arbitrary seeds the Sneaky-Page-Monitoring accuracy spreads around
//! 0.75, so its floor here is 0.5 (with 100 trials per cheap row) instead
//! of the harness's 0.7.

use super::{maybe_span, Outcome, Rng, Workload};
use crate::compose::Scope;
use microscope_channels::taxonomy::{self, Measurement};
use microscope_core::sweep::{default_jobs, SweepOutcome, SweepPoint, SweepSpec};
use microscope_core::SimConfig;

/// One catalog row's sweep payload: its experiment and trial count.
type RowRun = (fn(u32, u64) -> Measurement, u32);

/// Trials of the two replay-scale rows (the `table1` harness's 30 / 3).
const SLOW_ROW_TRIALS: u32 = 10;
/// Trials of every other row (each costs well under a millisecond per
/// ten trials).
const FAST_ROW_TRIALS: u32 = 100;

pub struct Table1Sweep {
    rng: Rng,
    jobs: usize,
    cross_seed: u64,
}

fn rows() -> Vec<(String, SimConfig, RowRun)> {
    taxonomy::catalog()
        .into_iter()
        .map(|row| {
            let slow = row.name.contains("MicroScope") || row.name.contains("one shot");
            let trials = if slow {
                SLOW_ROW_TRIALS
            } else {
                FAST_ROW_TRIALS
            };
            (
                row.name.to_string(),
                SimConfig::default(),
                (row.experiment, trials),
            )
        })
        .collect()
}

/// One catalog pass; with `at`, spans the sweep (`sweep.run`) and every
/// point (`sweep.point`, recorded on the worker that ran it).
fn pass(base_seed: u64, jobs: usize, at: Option<Scope<'_>>) -> SweepOutcome<RowRun, Measurement> {
    let point = |pt: &SweepPoint<RowRun>, at: Option<Scope<'_>>| {
        let (experiment, trials) = pt.payload;
        Ok(maybe_span(at, "sweep.point", || {
            experiment(trials, pt.seed)
        }))
    };
    let run = |at: Option<Scope<'_>>| {
        SweepSpec::new("table1", move |pt: &SweepPoint<RowRun>| point(pt, at))
            .points(rows())
            .seed(base_seed)
            .jobs(jobs)
            .run()
    };
    match at {
        Some(s) => s.nest("sweep.run", |inner| run(Some(inner))),
        None => run(None),
    }
}

/// The `table1` harness's shape checks over one pass.
fn check(out: &SweepOutcome<RowRun, Measurement>) -> bool {
    if out.errors().next().is_some() {
        return false;
    }
    let acc = |name: &str| {
        out.ok()
            .find(|(pt, _)| pt.label.contains(name))
            .map_or(f64::NAN, |(_, m)| m.single_trace_accuracy)
    };
    let noiseless_pages = acc("Controlled") >= 0.99 && acc("Sneaky") >= 0.5;
    let noisy_contention = acc("one shot") < 0.95 || acc("DRAMA") < 1.0 || acc("TLB") < 1.0;
    let microscope = acc("MicroScope") >= 0.99 && acc("MicroScope") >= acc("one shot");
    noiseless_pages && noisy_contention && microscope
}

/// Sweep workers: `min(2, available parallelism)`.
pub fn jobs() -> usize {
    default_jobs().min(2)
}

impl Table1Sweep {
    pub fn setup(seed: u64, at: Option<Scope<'_>>) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 3);
        let jobs = jobs();
        let cross_seed = rng.next_u64();
        // Warm-up: one untimed pass, which must already check out.
        if !check(&pass(rng.next_u64(), jobs, at)) {
            return Err("warm-up pass failed its checks".into());
        }
        Ok(Table1Sweep {
            rng,
            jobs,
            cross_seed,
        })
    }
}

impl Workload for Table1Sweep {
    fn op(&mut self) -> Outcome {
        let out = pass(self.rng.next_u64(), self.jobs, None);
        Outcome {
            ok: check(&out),
            ..Outcome::default()
        }
    }

    fn traced_op(&mut self, at: Scope<'_>) -> Outcome {
        let out = pass(self.rng.next_u64(), self.jobs, Some(at));
        Outcome {
            ok: check(&out),
            ..Outcome::default()
        }
    }

    /// The sweep's own contract instead of a fast-forward cross-check (the
    /// rows build their sessions inside the catalog): one pass on one
    /// worker and one on `jobs` workers must digest identically.
    fn cross_check(&mut self) -> Result<String, String> {
        let serial = pass(self.cross_seed, 1, None).digest();
        let parallel = pass(self.cross_seed, self.jobs, None).digest();
        if serial != parallel {
            return Err("jobs = 1 and jobs = N sweeps digest differently".into());
        }
        Ok(serial)
    }

    fn jobs(&self) -> u64 {
        self.jobs as u64
    }
}
