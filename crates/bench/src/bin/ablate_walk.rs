//! Ablation of the paper's **§4.1.2 window-tuning claim**: "The Replayer
//! can tune the duration of the page walk time to take from a few cycles
//! to over one thousand cycles, by ensuring that the desired page table
//! entries are either present or absent from the cache hierarchy."
//!
//! A pointer-chasing victim leaks one cache line per ~DRAM-latency of
//! speculation window; sweeping the walk tuning from 1 to 4 memory levels
//! (plus the fully flushed "long" walk) shows the window — and therefore
//! the leak — scaling with the walk. Pass `--jobs N` to run the tunings
//! on parallel sweep workers; stdout is identical for any worker count.

use microscope_bench::{exit_with, flags, outln, print_table, run_grid, shape_check};
use microscope_core::sweep::{SweepPoint, SweepSpec};
use microscope_core::{RunRequest, SessionBuilder, SimConfig};
use microscope_cpu::{Assembler, ContextId, Reg};
use microscope_mem::{VAddr, LINE_BYTES};
use microscope_os::WalkTuning;
use microscope_victims::layout::DataLayout;

/// Builds a pointer-chase victim: `handle; p = *p` × `links`, where line
/// `i` stores the address of line `i+1`. Returns (program, handle, chain
/// line addresses).
fn chase_victim(
    b: &mut SessionBuilder,
    links: u64,
) -> (microscope_cpu::Program, VAddr, Vec<VAddr>) {
    let aspace = b.new_aspace(1);
    let mut layout = DataLayout::new(b.phys(), aspace, VAddr(0x1000_0000));
    let handle = layout.page(64);
    let chain = layout.page(links * LINE_BYTES);
    let lines: Vec<VAddr> = (0..links).map(|i| chain.offset(i * LINE_BYTES)).collect();
    for i in 0..links - 1 {
        layout.write_u64(lines[i as usize], lines[i as usize + 1].0);
    }
    let (hp, hv, p) = (Reg(1), Reg(2), Reg(3));
    let mut asm = Assembler::new();
    asm.imm(hp, handle.0).imm(p, chain.0);
    asm.load(hv, hp, 0); // the replay handle
    for _ in 0..links {
        asm.load(p, p, 0); // dependent chase: ~1 memory latency per link
    }
    asm.halt();
    let prog = asm.finish();
    b.victim(prog.clone(), aspace);
    (prog, handle, lines)
}

/// Measures (walk cycles between faults, lines leaked in the window) for a
/// given tuning. Uses 2 replays: the fault-log gap gives the period.
fn measure(sim: SimConfig, walk: WalkTuning) -> (u64, usize) {
    let links = 24u64;
    let mut b = SessionBuilder::new();
    b.sim(sim);
    let (_, handle, lines) = chase_victim(&mut b, links);
    let id = b.module().provide_replay_handle(ContextId(0), handle);
    {
        let recipe = b.module().recipe_mut(id);
        recipe.replays_per_step = 2;
        recipe.walk = walk;
        recipe.prime_between_replays = true;
        recipe.handler_cycles = 400;
        recipe.monitor_addrs = lines.clone();
    }
    let mut session = b.build().expect("ablation session has a victim");
    let report = session
        .execute(RunRequest::cold(20_000_000))
        .expect("a cold run cannot fail");
    // Second observation: primed before, so hits == the window's reach.
    let leaked = report
        .module
        .observations
        .get(1)
        .map(|o| o.hits(100).len())
        .unwrap_or(0);
    let period = match report.module.fault_log.as_slice() {
        [(c0, _), (c1, _), ..] => c1 - c0,
        _ => 0,
    };
    (period, leaked)
}

fn main() {
    let flags = flags(&["--jobs"]);
    outln!("== §4.1.2 ablation: walk tuning vs speculation window ==");
    outln!("victim: dependent pointer chase (1 line leaked per ~memory latency)\n");
    let grid = [
        ("length 1 (3 levels warm)", WalkTuning::Length { levels: 1 }),
        ("length 2", WalkTuning::Length { levels: 2 }),
        ("length 3", WalkTuning::Length { levels: 3 }),
        ("length 4 (fully cold)", WalkTuning::Length { levels: 4 }),
        ("long (flush everything)", WalkTuning::Long),
    ];
    let spec = SweepSpec::new("ablate-walk", |pt: &SweepPoint<WalkTuning>| {
        let (period, leaked) = measure(pt.sim, pt.payload);
        Ok((period, leaked))
    })
    .points(
        grid.iter()
            .map(|(name, tuning)| (name.to_string(), SimConfig::default(), *tuning)),
    );
    let sweep = run_grid(spec, flags.jobs);
    let results: Vec<(&str, u64, usize)> = sweep
        .ok()
        .map(|(pt, &(period, leaked))| (pt.label.as_str(), period, leaked))
        .collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(name, period, leaked)| {
            vec![name.to_string(), period.to_string(), leaked.to_string()]
        })
        .collect();
    print_table(
        &[
            "walk tuning",
            "replay period (cycles)",
            "lines leaked/replay",
        ],
        &rows,
    );
    outln!();
    let leaks: Vec<usize> = results.iter().map(|(_, _, l)| *l).collect();
    let ok1 = shape_check(
        "leak grows monotonically with walk length",
        leaks.windows(2).all(|w| w[0] <= w[1]) && leaks[0] < leaks[3],
        &format!("{leaks:?}"),
    );
    let ok2 = shape_check(
        "short walks enable single-stepping",
        leaks[0] <= 3,
        &format!("length-1 walk leaks only {} line(s)", leaks[0]),
    );
    let ok3 = shape_check(
        "long walks exceed a thousand cycles",
        results.last().map(|(_, p, _)| *p > 1000).unwrap_or(false),
        &format!(
            "replay period {} cycles with everything flushed",
            results.last().map(|(_, p, _)| *p).unwrap_or(0)
        ),
    );
    exit_with(&[ok1, ok2, ok3]);
}
