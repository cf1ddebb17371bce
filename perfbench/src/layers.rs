//! Work counters and the per-layer metrics of a traced run.
//!
//! Counts come from the reports the simulator hands back (exact and
//! repeatable at a fixed seed); host times come from the spans the
//! benchmark records around each public call. Which end-to-end metric each
//! layer should move, and on which workload:
//!
//! | layer | metrics | moves |
//! |---|---|---|
//! | `core.session` | `session.{build,capture,restore,report}_us` | `op_p50_ref_ms` on `fig10_replay` (restore + report every op) and on `sec8_plan`, `table1_sweep` (build-bound); `setup_s` everywhere |
//! | `cpu` | `cpu.run_us`, `cpu.steps_per_op`, `cpu.ff_skip_ratio`, `cpu.ns_per_step`, `cpu.dispatched_per_op`, `cpu.squashed_per_op`, `sim.cycles_per_op` | `op_p50_ref_ms` (so replays/s and cycles/s) on `fig10_replay`, less on `aes_step` |
//! | `cache` | `cache.l1.{hits,misses}_per_op`, `cache.dram_accesses_per_op`, `cache.access_ns` | `op_p50_ref_ms` on `aes_step`; `fig10_replay` flat |
//! | `mem` | `mem.tlb.l1d.misses_per_op`, `mem.walker.walks_per_op`, `mem.walk_ns`, `checkpoint.{pages_cow,restore_pages}_per_op` | `op_p50_ref_ms` on `aes_step` (walks, CoW) and on `fig10_replay` (restore pages) |
//! | `os` | `os.replays_per_op`, `cpu.ctx0.page_faults_per_op` | exact witnesses for replays/s on `fig10_replay` and `aes_step` |
//! | `core.sweep` | `sweep.{wall_s,point_busy_s,efficiency,max_point_s}` | `op_p50_ref_ms` on `table1_sweep` only |
//! | `analyze` | `analyze.{cfg,taint,plan,validate}_us`, `analyze.confirmed_ratio` | `op_p50_ref_ms` on `sec8_plan` only |
//!
//! A layer a workload does not reach reports 0.

use crate::spans::{self, Span};
use microscope_core::AttackReport;
use microscope_probe::MetricValue;
use std::collections::BTreeMap;

/// Work done by some number of operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions dispatched, all contexts.
    pub insts: u64,
    /// Instructions squashed, all contexts.
    pub squashed: u64,
    /// Handle replays the module performed.
    pub replays: u64,
    /// Page faults taken by the victim context.
    pub ctx0_faults: u64,
    /// L1 data-cache hits.
    pub l1_hits: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// Accesses served by DRAM.
    pub dram: u64,
    /// L1 data-TLB misses.
    pub tlb_l1d_misses: u64,
    /// Hardware page walks.
    pub walks: u64,
    /// Real machine steps taken inside `cpu.run` spans.
    pub steps: u64,
    /// Cycles the machine advanced inside `cpu.run` spans.
    pub run_cycles: u64,
    /// Pages copied on write by the checkpoint engine.
    pub pages_cow: u64,
    /// Pages a restore discarded.
    pub restore_pages: u64,
    /// Direct `MemoryHierarchy::access` calls inside `cache.access` spans.
    pub direct_accesses: u64,
    /// Direct `PageWalker::walk` calls inside `mem.walk` spans.
    pub direct_walks: u64,
    /// Attack plans validated.
    pub plans: u64,
    /// Plans the simulator confirmed.
    pub confirmed: u64,
}

fn count(r: &AttackReport, name: &str) -> u64 {
    match r.metrics.get(name) {
        Some(MetricValue::Count(n)) => n,
        _ => 0,
    }
}

impl Counts {
    /// Adds the work one session run reported.
    pub fn add_report(&mut self, r: &AttackReport) {
        self.cycles += r.cycles;
        self.insts += r.stats.contexts.iter().map(|c| c.dispatched).sum::<u64>();
        self.squashed += r.stats.contexts.iter().map(|c| c.squashed).sum::<u64>();
        self.replays += r.module.replays.iter().sum::<u64>();
        self.ctx0_faults += r.stats.contexts.first().map_or(0, |c| c.page_faults);
        self.l1_hits += count(r, "cache.l1.hits");
        self.l1_misses += count(r, "cache.l1.misses");
        self.dram += count(r, "cache.dram_accesses");
        self.tlb_l1d_misses += count(r, "mem.tlb.l1d.misses");
        self.walks += count(r, "mem.walker.walks");
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.insts += o.insts;
        self.squashed += o.squashed;
        self.replays += o.replays;
        self.ctx0_faults += o.ctx0_faults;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.dram += o.dram;
        self.tlb_l1d_misses += o.tlb_l1d_misses;
        self.walks += o.walks;
        self.steps += o.steps;
        self.run_cycles += o.run_cycles;
        self.pages_cow += o.pages_cow;
        self.restore_pages += o.restore_pages;
        self.direct_accesses += o.direct_accesses;
        self.direct_walks += o.direct_walks;
        self.plans += o.plans;
        self.confirmed += o.confirmed;
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics as `(name, unit, better)`, in report order. The
/// `per_layer` list of `BENCHMARK.json` must match it.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("trace.ops_per_s", "1/s", "higher"),
    ("op.self_us", "us", "lower"),
    ("session.build_us", "us", "lower"),
    ("session.capture_us", "us", "lower"),
    ("session.restore_us", "us", "lower"),
    ("session.report_us", "us", "lower"),
    ("cpu.run_us", "us", "lower"),
    ("cpu.steps_per_op", "count", "lower"),
    ("cpu.ff_skip_ratio", "ratio", "higher"),
    ("cpu.ns_per_step", "ns", "lower"),
    ("cpu.dispatched_per_op", "count", "lower"),
    ("cpu.squashed_per_op", "count", "lower"),
    ("sim.cycles_per_op", "count", "lower"),
    ("cache.l1.hits_per_op", "count", "higher"),
    ("cache.l1.misses_per_op", "count", "lower"),
    ("cache.dram_accesses_per_op", "count", "lower"),
    ("cache.access_ns", "ns", "lower"),
    ("mem.tlb.l1d.misses_per_op", "count", "lower"),
    ("mem.walker.walks_per_op", "count", "lower"),
    ("mem.walk_ns", "ns", "lower"),
    ("checkpoint.pages_cow_per_op", "count", "lower"),
    ("checkpoint.restore_pages_per_op", "count", "lower"),
    ("os.replays_per_op", "count", "higher"),
    ("cpu.ctx0.page_faults_per_op", "count", "lower"),
    ("sweep.wall_s", "s", "lower"),
    ("sweep.point_busy_s", "s", "lower"),
    ("sweep.efficiency", "ratio", "higher"),
    ("sweep.max_point_s", "s", "lower"),
    ("analyze.cfg_us", "us", "lower"),
    ("analyze.taint_us", "us", "lower"),
    ("analyze.plan_us", "us", "lower"),
    ("analyze.validate_us", "us", "lower"),
    ("analyze.confirmed_ratio", "ratio", "higher"),
];

/// Computes every [`PER_LAYER`] metric of a traced run from its spans, the
/// summed counts of its `ops` timed operations, the sweep worker count and
/// the traced throughput.
pub fn per_layer(
    spans: &[Span],
    counts: &Counts,
    ops: u64,
    jobs: u64,
    traced_ops_per_s: f64,
) -> BTreeMap<&'static str, f64> {
    let t = spans::totals(spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let per_op = |n: u64| ratio(n as f64, ops as f64);
    let run = get("cpu.run");

    // Sweep figures are per operation: wall, summed point time and the
    // slowest point of each timed pass, averaged over passes. Set-up passes
    // all share op 0, so they are left out.
    let mut passes: BTreeMap<u64, (f64, f64, f64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.op != 0) {
        let d = s.duration_ns() as f64 / 1e9;
        match s.name {
            "sweep.run" => passes.entry(s.op).or_default().0 += d,
            "sweep.point" => {
                let e = passes.entry(s.op).or_default();
                e.1 += d;
                e.2 = e.2.max(d);
            }
            _ => {}
        }
    }
    let mean = |f: fn(&(f64, f64, f64)) -> f64| {
        ratio(passes.values().map(f).sum::<f64>(), passes.len() as f64)
    };
    let (wall, busy, max_point) = (mean(|p| p.0), mean(|p| p.1), mean(|p| p.2));

    let values = [
        ("trace.ops_per_s", traced_ops_per_s),
        ("op.self_us", get("op").mean_self_us()),
        ("session.build_us", get("session.build").mean_self_us()),
        ("session.capture_us", get("session.capture").mean_self_us()),
        ("session.restore_us", get("session.restore").mean_self_us()),
        ("session.report_us", get("session.report").mean_self_us()),
        ("cpu.run_us", run.mean_self_us()),
        ("cpu.steps_per_op", per_op(counts.steps)),
        (
            "cpu.ff_skip_ratio",
            if counts.run_cycles == 0 {
                0.0
            } else {
                1.0 - counts.steps as f64 / counts.run_cycles as f64
            },
        ),
        (
            "cpu.ns_per_step",
            ratio(run.self_ns as f64, counts.steps as f64),
        ),
        ("cpu.dispatched_per_op", per_op(counts.insts)),
        ("cpu.squashed_per_op", per_op(counts.squashed)),
        ("sim.cycles_per_op", per_op(counts.cycles)),
        ("cache.l1.hits_per_op", per_op(counts.l1_hits)),
        ("cache.l1.misses_per_op", per_op(counts.l1_misses)),
        ("cache.dram_accesses_per_op", per_op(counts.dram)),
        (
            "cache.access_ns",
            ratio(
                get("cache.access").total_ns as f64,
                counts.direct_accesses as f64,
            ),
        ),
        ("mem.tlb.l1d.misses_per_op", per_op(counts.tlb_l1d_misses)),
        ("mem.walker.walks_per_op", per_op(counts.walks)),
        (
            "mem.walk_ns",
            ratio(get("mem.walk").total_ns as f64, counts.direct_walks as f64),
        ),
        ("checkpoint.pages_cow_per_op", per_op(counts.pages_cow)),
        (
            "checkpoint.restore_pages_per_op",
            per_op(counts.restore_pages),
        ),
        ("os.replays_per_op", per_op(counts.replays)),
        ("cpu.ctx0.page_faults_per_op", per_op(counts.ctx0_faults)),
        ("sweep.wall_s", wall),
        ("sweep.point_busy_s", busy),
        ("sweep.efficiency", ratio(busy, jobs as f64 * wall)),
        ("sweep.max_point_s", max_point),
        ("analyze.cfg_us", get("analyze.cfg").mean_self_us()),
        ("analyze.taint_us", get("analyze.taint").mean_self_us()),
        ("analyze.plan_us", get("analyze.plan").mean_self_us()),
        (
            "analyze.validate_us",
            get("analyze.validate").mean_self_us(),
        ),
        (
            "analyze.confirmed_ratio",
            ratio(counts.confirmed as f64, counts.plans as f64),
        ),
    ];
    debug_assert_eq!(values.len(), PER_LAYER.len());
    values.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        op: u64,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn sweep_figures_average_the_timed_passes_only() {
        // Two long set-up passes (op 0), then two timed passes on two
        // workers: walls 100 and 200 ns, points 60+80 and 100+140 ns.
        let spans = vec![
            span(1, None, 0, "sweep.run", 0, 1000),
            span(2, Some(1), 0, "sweep.point", 0, 900),
            span(3, None, 0, "sweep.run", 1000, 2000),
            span(4, Some(3), 0, "sweep.point", 1000, 1800),
            span(5, None, 1, "sweep.run", 2000, 2100),
            span(6, Some(5), 1, "sweep.point", 2000, 2060),
            span(7, Some(5), 1, "sweep.point", 2000, 2080),
            span(8, None, 2, "sweep.run", 2100, 2300),
            span(9, Some(8), 2, "sweep.point", 2100, 2200),
            span(10, Some(8), 2, "sweep.point", 2100, 2240),
        ];
        let m = per_layer(&spans, &Counts::default(), 2, 2, 1.0);
        let close = |name: &str, ns: f64| {
            let want = ns / 1e9;
            assert!(
                (m[name] - want).abs() < 1e-15,
                "{name}: {} != {want}",
                m[name]
            );
        };
        close("sweep.wall_s", 150.0);
        close("sweep.point_busy_s", 190.0);
        close("sweep.max_point_s", 110.0);
        assert!((m["sweep.efficiency"] - 190.0 / 300.0).abs() < 1e-12);
    }
}
