//! The execution-port contention channel (paper §4.3, Figures 6/7/10).
//!
//! The Monitor runs on the victim's SMT sibling and repeatedly times a
//! single `divsd`:
//!
//! ```c
//! for (j = 0; j < buff; j++) {
//!     t1 = read_timer();
//!     unit_div_contention();      // one divsd
//!     t2 = read_timer();
//!     buffer[j] = t2 - t1;
//! }
//! ```
//!
//! If the victim's speculative window contains divisions, the monitor's
//! division waits on the shared, non-pipelined divider and the sample
//! spikes. MicroScope's contribution is keeping the victim's window
//! replaying so that *one logical victim run* yields enough spikes to
//! classify.

use microscope_core::{
    denoise, AttackReport, AttackSession, MonitorBuffer, RunRequest, SessionBuilder,
};
use microscope_cpu::{Assembler, Cond, Program};
use microscope_mem::{AddressSpace, PhysMem, VAddr};
use microscope_os::WalkTuning;
use microscope_probe::RecorderConfig;
use microscope_victims::control_flow;
use microscope_victims::layout::DataLayout;

/// Registers used by the monitor program.
mod r {
    use microscope_cpu::Reg;
    pub const X: Reg = Reg(1);
    pub const Y: Reg = Reg(2);
    pub const Q: Reg = Reg(3);
    pub const T1: Reg = Reg(4);
    pub const T2: Reg = Reg(5);
    pub const D: Reg = Reg(6);
    pub const P: Reg = Reg(7);
    pub const I: Reg = Reg(8);
    pub const N: Reg = Reg(9);
    pub const TMP: Reg = Reg(10);
    pub const XV: Reg = Reg(11);
}

/// Builds the Figure-7 monitor: `samples` timed single divisions, written
/// to a fresh buffer in `aspace`. Returns the program and buffer
/// descriptor.
pub fn monitor_program(
    phys: &mut PhysMem,
    aspace: AddressSpace,
    base: VAddr,
    samples: u64,
) -> (Program, MonitorBuffer) {
    let mut layout = DataLayout::new(phys, aspace, base);
    let buf = layout.page(samples * 8);

    let mut asm = Assembler::new();
    asm.imm_f64(r::X, 9.0)
        .imm_f64(r::Y, 3.0)
        .imm(r::P, buf.0)
        .imm(r::I, 0)
        .imm(r::N, samples);
    asm.imm(r::D, 0);
    let top = asm.label();
    asm.bind(top);
    // Dependency-chained timing (the rdtscp/lfence idiom): t1 waits for the
    // previous sample, the division's dividend is data-dependent on t1, and
    // t2 waits for the quotient. Without the chain, out-of-order execution
    // would hoist every t1 read to the top of the window and the samples
    // would measure nothing.
    asm.read_timer_after(r::T1, r::D)
        .alu_imm(microscope_cpu::AluOp::And, r::TMP, r::T1, 0)
        .alu(microscope_cpu::AluOp::Or, r::XV, r::X, r::TMP)
        .fdiv(r::Q, r::XV, r::Y)
        .read_timer_after(r::T2, r::Q)
        .alu(microscope_cpu::AluOp::Sub, r::D, r::T2, r::T1)
        .store(r::D, r::P, 0)
        .alu_imm(microscope_cpu::AluOp::Add, r::P, r::P, 8)
        .alu_imm(microscope_cpu::AluOp::Add, r::I, r::I, 1)
        .branch(Cond::Lt, r::I, r::N, top)
        .halt();

    (asm.finish(), MonitorBuffer { base: buf, samples })
}

/// Parameters of the Figure-10 attack.
#[derive(Clone, Copy, Debug)]
pub struct PortContentionConfig {
    /// Monitor samples per run (the paper uses 10,000).
    pub samples: u64,
    /// Replays of the victim's handle.
    pub replays: u64,
    /// Fault-handler cost in cycles (most samples land here, below the
    /// threshold, as in the paper).
    pub handler_cycles: u64,
    /// Walk tuning for the replay window.
    pub walk: WalkTuning,
    /// Cycle budget.
    pub max_cycles: u64,
    /// Ambient system noise: deliver an OS timer interrupt to the monitor
    /// every this many retired instructions. An interrupt that lands
    /// between a sample's two timer reads re-executes the second read after
    /// the handler, producing the rare large outliers the paper's Figure
    /// 10a shows (4 of 10,000 samples above the threshold).
    pub ambient_interrupt_retires: Option<u64>,
    /// Cross-layer trace configuration (None = tracing off).
    pub probe: Option<RecorderConfig>,
}

impl Default for PortContentionConfig {
    fn default() -> Self {
        PortContentionConfig {
            samples: 10_000,
            replays: 4_000,
            handler_cycles: 800,
            walk: WalkTuning::Long,
            max_cycles: 80_000_000,
            ambient_interrupt_retires: Some(20_000),
            probe: None,
        }
    }
}

/// Assembles the Figure-10 session for one victim secret — the
/// control-flow victim (2 muls vs 2 divs) under replay, with the SMT
/// monitor installed — without running it. The perf-bench harness uses
/// this to alternate cold runs with checkpointed
/// [`RunRequest::from_checkpoint`](microscope_core::RunRequest::from_checkpoint)
/// monitor-done iterations of the *same* session.
pub fn build_session(secret: bool, cfg: &PortContentionConfig) -> AttackSession {
    let mut b = SessionBuilder::new();
    if let Some(p) = cfg.probe {
        b.probe(p);
    }
    let victim_asp = b.new_aspace(1);
    let monitor_asp = b.new_aspace(2);
    let (victim_prog, victim_layout) =
        control_flow::build(b.phys(), victim_asp, VAddr(0x1000_0000), secret);
    let (monitor_prog, buffer) =
        monitor_program(b.phys(), monitor_asp, VAddr(0x2000_0000), cfg.samples);
    b.victim(victim_prog, victim_asp);
    b.monitor(monitor_prog, monitor_asp, Some(buffer));
    let recipe_id = b
        .module()
        .provide_replay_handle(microscope_cpu::ContextId(0), victim_layout.handle);
    {
        let recipe = b.module().recipe_mut(recipe_id);
        recipe.name = "port-contention".into();
        recipe.replays_per_step = cfg.replays;
        recipe.walk = cfg.walk;
        recipe.handler_cycles = cfg.handler_cycles;
    }
    let mut session = b.build().expect("port-contention session has a victim");
    if let Some(every) = cfg.ambient_interrupt_retires {
        session
            .machine_mut()
            .set_step_interrupt(microscope_cpu::ContextId(1), Some(every));
    }
    session
}

/// Runs the full Figure-10 experiment for one victim secret: the
/// control-flow victim (2 muls vs 2 divs) under replay, with the monitor
/// sampling concurrently. Returns the attack report (monitor samples
/// included).
pub fn run_attack(secret: bool, cfg: &PortContentionConfig) -> AttackReport {
    build_session(secret, cfg)
        .execute(RunRequest::cold(cfg.max_cycles).until_monitor_done())
        .expect("port-contention session has a monitor")
}

/// The Figure-10 analysis: calibrate a threshold on the multiplication
/// victim's samples, then classify by over-threshold ratio.
#[derive(Clone, Debug)]
pub struct Fig10Result {
    /// Samples from the multiplication victim (Figure 10a).
    pub mul_samples: Vec<u64>,
    /// Samples from the division victim (Figure 10b).
    pub div_samples: Vec<u64>,
    /// The calibrated contention threshold.
    pub threshold: u64,
    /// Over-threshold counts (mul, div).
    pub over: (usize, usize),
    /// div/mul over-threshold ratio.
    pub ratio: f64,
    /// The multiplication victim's full report (trace, metrics), when the
    /// result came from [`figure10`] rather than bare [`analyze`].
    pub mul_report: Option<AttackReport>,
    /// The division victim's full report.
    pub div_report: Option<AttackReport>,
}

/// Runs both victims and produces the Figure-10 comparison.
pub fn figure10(cfg: &PortContentionConfig) -> Fig10Result {
    let mul = run_attack(false, cfg);
    let div = run_attack(true, cfg);
    let mut r = analyze(mul.monitor_samples.clone(), div.monitor_samples.clone());
    r.mul_report = Some(mul);
    r.div_report = Some(div);
    r
}

/// Pure analysis step, split out for testing.
pub fn analyze(mul_samples: Vec<u64>, div_samples: Vec<u64>) -> Fig10Result {
    // Warm-up samples (first few iterations: cold caches, cold predictor)
    // are discarded, as any real attacker would.
    let skip = (mul_samples.len() / 100).max(4).min(mul_samples.len());
    let mul_body = &mul_samples[skip..];
    let div_body = &div_samples[skip.min(div_samples.len())..];
    let threshold = denoise::calibrate_threshold(mul_body, 0.99, 2);
    let over_mul = denoise::count_over(mul_body, threshold);
    let over_div = denoise::count_over(div_body, threshold);
    Fig10Result {
        threshold,
        over: (over_mul, over_div),
        ratio: over_div as f64 / over_mul.max(1) as f64,
        mul_samples,
        div_samples,
        mul_report: None,
        div_report: None,
    }
}

impl Fig10Result {
    /// The attacker's verdict: did the victim execute divisions?
    pub fn detects_divisions(&self, min_ratio: f64) -> bool {
        self.ratio >= min_ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_cpu::{ContextId, MachineBuilder};

    #[test]
    fn monitor_measures_its_own_division_latency() {
        let mut phys = PhysMem::new();
        let asp = AddressSpace::new(&mut phys, 1);
        let (prog, buf) = monitor_program(&mut phys, asp, VAddr(0x2000_0000), 32);
        let mut m = MachineBuilder::new()
            .phys(phys)
            .context_in(prog, asp)
            .build();
        m.run(5_000_000);
        assert!(m.context(ContextId(0)).halted());
        let samples: Vec<u64> = (0..buf.samples)
            .map(|i| m.read_virt(ContextId(0), buf.base.offset(i * 8), 8))
            .collect();
        let div_lat = m.config().div.normal;
        // Uncontended samples sit a little above the divider latency.
        let steady = &samples[4..];
        assert!(steady.iter().all(|s| *s >= div_lat), "{steady:?}");
        assert!(
            steady.iter().filter(|s| **s < div_lat + 30).count() > steady.len() / 2,
            "most uncontended samples near the divider latency: {steady:?}"
        );
    }

    #[test]
    fn analysis_classifies_synthetic_distributions() {
        let mut mul = vec![30u64; 1000];
        mul[500] = 90;
        let mut div = vec![30u64; 940];
        div.extend([90u64; 60]);
        let r = analyze(mul, div);
        assert!(r.detects_divisions(8.0), "ratio={}", r.ratio);
        assert!(!analyze(vec![30; 1000], vec![30; 1000]).detects_divisions(8.0));
    }

    /// A scaled-down Figure 10 (the full 10k-sample version runs in the
    /// bench harness).
    #[test]
    fn microscope_denoises_port_contention_small() {
        let cfg = PortContentionConfig {
            samples: 400,
            replays: 300,
            handler_cycles: 500,
            walk: WalkTuning::Long,
            max_cycles: 30_000_000,
            ambient_interrupt_retires: None,
            probe: None,
        };
        let r = figure10(&cfg);
        assert!(
            r.detects_divisions(4.0),
            "division victim must stand out: over={:?} threshold={} ratio={}",
            r.over,
            r.threshold,
            r.ratio
        );
    }
}
