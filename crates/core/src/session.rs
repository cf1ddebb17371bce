//! Attack-session assembly and execution.

use crate::config::SimConfig;
use crate::error::{BuildError, RunError};
use crate::report::AttackReport;
use microscope_cpu::{ContextId, Machine, MachineBuilder, MachineCheckpoint, Program, RunExit};
use microscope_enclave::{Enclave, EnclaveRegion};
use microscope_mem::{AddressSpace, PhysMem, VAddr, PAGE_BYTES};
use microscope_os::{Kernel, MicroScopeModule, Process, SharedHandle};
use microscope_probe::{metrics::MetricSource, EventKind, MetricSet, Probe, RecorderConfig};

/// Where a monitor program stores its timing samples, so the session can
/// read them back after the run.
#[derive(Clone, Copy, Debug)]
pub struct MonitorBuffer {
    /// Base virtual address (in the monitor's address space).
    pub base: VAddr,
    /// Number of 8-byte samples.
    pub samples: u64,
}

/// Builds an [`AttackSession`] out of a victim, an optional monitor, and a
/// MicroScope module configured with attack recipes.
pub struct SessionBuilder {
    sim: SimConfig,
    phys: PhysMem,
    victim: Option<(Program, AddressSpace)>,
    victim_enclave: Option<EnclaveRegion>,
    monitor: Option<(Program, AddressSpace, Option<MonitorBuffer>)>,
    module: MicroScopeModule,
    defer_arm: Option<u64>,
    probe: Option<RecorderConfig>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionBuilder {
    /// Starts an empty session with default hardware configuration.
    pub fn new() -> Self {
        SessionBuilder {
            sim: SimConfig::default(),
            phys: PhysMem::new(),
            victim: None,
            victim_enclave: None,
            monitor: None,
            module: MicroScopeModule::new(),
            defer_arm: None,
            probe: None,
        }
    }

    /// The physical memory being assembled (victims install data here).
    pub fn phys(&mut self) -> &mut PhysMem {
        &mut self.phys
    }

    /// Allocates a fresh address space in this session's physical memory.
    pub fn new_aspace(&mut self, pcid: u16) -> AddressSpace {
        AddressSpace::new(&mut self.phys, pcid)
    }

    /// Installs the victim (context 0).
    pub fn victim(&mut self, program: Program, aspace: AddressSpace) -> &mut Self {
        self.victim = Some((program, aspace));
        self
    }

    /// Shields the victim in an enclave over `region`: faults there reach
    /// the OS at page granularity only (AEX).
    pub fn victim_enclave(&mut self, region: EnclaveRegion) -> &mut Self {
        self.victim_enclave = Some(region);
        self
    }

    /// Installs the monitor (context 1), optionally with a sample buffer
    /// the report reads back.
    pub fn monitor(
        &mut self,
        program: Program,
        aspace: AddressSpace,
        buffer: Option<MonitorBuffer>,
    ) -> &mut Self {
        self.monitor = Some((program, aspace, buffer));
        self
    }

    /// The attack module, for recipe installation (Table-2 API).
    pub fn module(&mut self) -> &mut MicroScopeModule {
        &mut self.module
    }

    /// Sets the whole hardware configuration in one call — the unit a
    /// [`SweepSpec`](crate::sweep::SweepSpec) grid is made of.
    pub fn sim(&mut self, cfg: SimConfig) -> &mut Self {
        self.sim = cfg;
        self
    }

    /// The current hardware configuration, for targeted adjustment.
    pub fn sim_mut(&mut self) -> &mut SimConfig {
        &mut self.sim
    }

    /// Sets the cross-layer probe configuration. Without this, the probe
    /// is disabled; [`RecorderConfig::default`] records up to 200,000
    /// events.
    pub fn probe(&mut self, cfg: RecorderConfig) -> &mut Self {
        self.probe = Some(cfg);
        self
    }

    /// Defers attack arming until the victim has retired `retires`
    /// instructions (paper §4.1: the Replayer single-steps the victim close
    /// to the replay handle, pauses it, and only then sets up the attack).
    /// Until then the victim runs undisturbed — and warms the caches.
    pub fn defer_arm(&mut self, retires: u64) -> &mut Self {
        self.defer_arm = Some(retires);
        self
    }

    /// Assembles the machine, arms the module, installs the kernel.
    ///
    /// Fails with [`BuildError::NoVictim`] when no victim was installed,
    /// [`BuildError::InvalidConfig`] when a hierarchy or TLB field breaks
    /// its rule, and [`BuildError::MonitorBufferUnmapped`] when a monitor
    /// buffer slot does not translate.
    pub fn build(self) -> Result<AttackSession, BuildError> {
        let (victim_prog, victim_asp) = self.victim.ok_or(BuildError::NoVictim)?;
        let invalid = |(field, value)| BuildError::InvalidConfig { field, value };
        self.sim.hierarchy.check().map_err(invalid)?;
        self.sim.tlb.check().map_err(invalid)?;
        if let Some((_, asp, Some(buf))) = &self.monitor {
            if let Some(vaddr) = first_unmapped_slot(&self.phys, asp, *buf) {
                return Err(BuildError::MonitorBufferUnmapped { vaddr });
            }
        }
        let shared = self.module.shared();
        let probe = Probe::new(self.probe.unwrap_or_else(RecorderConfig::disabled));
        let mut mb = MachineBuilder::new()
            .core_config(self.sim.core)
            .hierarchy(self.sim.hierarchy)
            .tlb(self.sim.tlb)
            .walker(self.sim.walker)
            .phys(self.phys)
            .probe(probe.clone())
            .context_in(victim_prog.clone(), victim_asp);
        let mut monitor_ctx = None;
        let mut monitor_buf = None;
        if let Some((prog, asp, buf)) = &self.monitor {
            mb = mb.context_in(prog.clone(), *asp);
            monitor_ctx = Some(ContextId(1));
            monitor_buf = *buf;
        }
        let mut machine = mb.build();
        // Arm recipes against the real (cold) hardware state — unless
        // arming is deferred to a stepping interrupt mid-run.
        let mut module = self.module;
        match self.defer_arm {
            None => module.arm(machine.hw_mut(), victim_asp),
            Some(retires) => {
                machine.set_step_interrupt(ContextId(0), Some(retires));
            }
        }
        // Build the kernel process table and install it.
        let enclave = self
            .victim_enclave
            .map(|region| Enclave::new(&victim_prog, region));
        let mut procs = vec![Process {
            aspace: victim_asp,
            enclave,
        }];
        if let Some((_, asp, _)) = &self.monitor {
            procs.push(Process {
                aspace: *asp,
                enclave: None,
            });
        }
        let mut kernel = Kernel::new(procs, module);
        kernel.attach_probe(probe.clone());
        if self.defer_arm.is_some() {
            kernel.arm_on_interrupt(ContextId(0));
        }
        machine.replace_supervisor(Box::new(kernel));
        Ok(AttackSession {
            machine,
            shared,
            monitor_ctx,
            monitor_buf,
            probe,
            armed_checkpoint: None,
        })
    }
}

/// Declarative description of one session execution, consumed by
/// [`AttackSession::execute`].
///
/// A request starts cold ([`RunRequest::cold`]) and is refined by chaining
/// builder methods:
///
/// * [`RunRequest::from_checkpoint`] — rewind to the armed checkpoint and
///   re-simulate only the post-arm window instead of running from reset;
/// * [`RunRequest::until_monitor_done`] — stop when the monitor context
///   halts (the victim may still be captive under replay);
/// * [`RunRequest::cross_checked`] — execute the window twice, with and
///   without idle-cycle fast-forward, and verify the reports are equal.
///
/// ```
/// use microscope_core::RunRequest;
/// let req = RunRequest::cold(1_000_000).from_checkpoint().until_monitor_done();
/// assert_eq!(req.max_cycles(), 1_000_000);
/// assert!(req.is_from_checkpoint() && req.is_until_monitor_done());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "a RunRequest does nothing until passed to AttackSession::execute"]
pub struct RunRequest {
    max_cycles: u64,
    from_checkpoint: bool,
    until_monitor_done: bool,
    cross_checked: bool,
}

impl RunRequest {
    /// A cold run from the current machine state, for at most `max_cycles`
    /// (counted from session start — a checkpointed replay therefore
    /// observes the same budget as the cold run it reproduces).
    pub fn cold(max_cycles: u64) -> Self {
        RunRequest {
            max_cycles,
            from_checkpoint: false,
            until_monitor_done: false,
            cross_checked: false,
        }
    }

    /// Rewinds to the armed checkpoint first; fails with
    /// [`RunError::NoCheckpoint`] when nothing has been captured yet.
    pub fn from_checkpoint(mut self) -> Self {
        self.from_checkpoint = true;
        self
    }

    /// Stops when the monitor halts instead of when every context halts;
    /// fails with [`RunError::NoMonitor`] on a monitor-less session.
    pub fn until_monitor_done(mut self) -> Self {
        self.until_monitor_done = true;
        self
    }

    /// Runs the post-arm window twice — cycle-by-cycle and fast-forwarded —
    /// and returns the fast-forwarded report when the two are equal (`==`);
    /// otherwise fails with [`RunError::CrossCheckDiverged`], naming the
    /// first field that differs (a simulator soundness bug, never a
    /// workload property).
    /// Implies [`RunRequest::from_checkpoint`]; the stop condition follows
    /// the session (monitor-done when a monitor is installed, every context
    /// halted otherwise, and the cycle budget either way).
    pub fn cross_checked(mut self) -> Self {
        self.cross_checked = true;
        self
    }

    /// The cycle budget, counted from session start.
    pub fn max_cycles(&self) -> u64 {
        self.max_cycles
    }

    /// Whether this request rewinds to the armed checkpoint.
    pub fn is_from_checkpoint(&self) -> bool {
        self.from_checkpoint || self.cross_checked
    }

    /// Whether this request stops at monitor completion.
    pub fn is_until_monitor_done(&self) -> bool {
        self.until_monitor_done
    }

    /// Whether this request cross-checks fast-forward soundness.
    pub fn is_cross_checked(&self) -> bool {
        self.cross_checked
    }
}

/// A ready-to-run attack: machine + installed kernel + observation handle.
pub struct AttackSession {
    machine: Machine,
    shared: SharedHandle,
    monitor_ctx: Option<ContextId>,
    monitor_buf: Option<MonitorBuffer>,
    probe: Probe,
    /// Snapshot taken the moment the replay handle went live, by the first
    /// cold run's stop predicate: at its first poll for build-time arming
    /// (so any host-side setup between `build()` and `execute()`, like step
    /// interrupts or seeded memory, is included), or at the poll after the
    /// arming interrupt for deferred arming. Either way it holds the run's
    /// `SessionStart` event. A `.from_checkpoint()` request rewinds here
    /// instead of re-simulating the victim from reset.
    armed_checkpoint: Option<MachineCheckpoint>,
}

impl AttackSession {
    /// The victim's context id.
    pub const VICTIM: ContextId = ContextId(0);

    /// The machine, for inspection.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (e.g. to arm stepping interrupts).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The monitor context, when one was installed.
    pub fn monitor_ctx(&self) -> Option<ContextId> {
        self.monitor_ctx
    }

    /// The cross-layer probe shared by every layer of this session.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// The armed-state checkpoint, once captured (see
    /// [`RunRequest::from_checkpoint`]).
    pub fn armed_checkpoint(&self) -> Option<&MachineCheckpoint> {
        self.armed_checkpoint.as_ref()
    }

    /// Executes one [`RunRequest`] and produces the report.
    ///
    /// A cold request's first execution captures the armed-state
    /// checkpoint — before its first step when the module armed at build
    /// time, or right after the arming interrupt when arming was deferred —
    /// enabling subsequent `.from_checkpoint()` requests, which rewind to
    /// it and re-simulate only the post-arm window (what makes
    /// MicroScope-style replay O(window) instead of O(program)).
    ///
    /// # Errors
    ///
    /// * [`RunError::NoMonitor`] — `.until_monitor_done()` on a session
    ///   without a monitor context;
    /// * [`RunError::NoCheckpoint`] — `.from_checkpoint()` or
    ///   `.cross_checked()` before any cold execution captured a snapshot;
    /// * [`RunError::CheckpointMismatch`] — the supervisor was swapped
    ///   since the capture;
    /// * [`RunError::CrossCheckDiverged`] — a `.cross_checked()` request
    ///   found the cycle-by-cycle and fast-forwarded reports unequal.
    pub fn execute(&mut self, req: RunRequest) -> Result<AttackReport, RunError> {
        let max_cycles = req.max_cycles();
        if req.is_cross_checked() {
            // Re-execute the post-arm window twice — once with the
            // reference cycle-by-cycle loop, once with idle-cycle
            // fast-forward — and return the fast report if the two are equal.
            let orig_ff = self.machine.fast_forward_enabled();
            self.machine.set_fast_forward(false);
            let reference = self.run_window(true, self.monitor_ctx, max_cycles);
            self.machine.set_fast_forward(true);
            let fast = self.run_window(true, self.monitor_ctx, max_cycles);
            self.machine.set_fast_forward(orig_ff);
            return compare_reports(reference?, fast?);
        }
        let monitor = if req.is_until_monitor_done() {
            Some(self.monitor_ctx.ok_or(RunError::NoMonitor {
                operation: if req.is_from_checkpoint() {
                    "replay until monitor done"
                } else {
                    "run until monitor done"
                },
            })?)
        } else {
            None
        };
        self.run_window(req.is_from_checkpoint(), monitor, max_cycles)
    }

    /// The one run path. Rewinds to the armed checkpoint first when
    /// `from_checkpoint`; otherwise starts from the current state, emits
    /// `SessionStart`, and captures the checkpoint at the first poll that
    /// sees the module armed — before the first step for build-time arming,
    /// or right after the deferred-arm interrupt — inside the run's single
    /// `run_until` call, so the step sequence is that of an uninterrupted
    /// run. Every checkpoint therefore already holds `SessionStart`, and a
    /// replay never emits it again. Stops when `monitor` halts (reported as
    /// [`RunExit::AllHalted`] even while the victim is still captive under
    /// replay) or, without one, when every context halts. `max_cycles`
    /// counts from session start either way, so a replay observes the same
    /// budget as the cold run it reproduces.
    fn run_window(
        &mut self,
        from_checkpoint: bool,
        monitor: Option<ContextId>,
        max_cycles: u64,
    ) -> Result<AttackReport, RunError> {
        let budget = if from_checkpoint {
            let cp = self
                .armed_checkpoint
                .as_ref()
                .ok_or(RunError::NoCheckpoint {
                    operation: "replay from checkpoint",
                })?;
            if !self.machine.restore(cp) {
                return Err(RunError::CheckpointMismatch {
                    capture_cycle: cp.cycle(),
                });
            }
            max_cycles.saturating_sub(cp.cycle())
        } else {
            self.probe.emit(
                None,
                EventKind::SessionStart {
                    contexts: self.machine.context_count() as u32,
                },
            );
            max_cycles
        };
        let armed_checkpoint = &mut self.armed_checkpoint;
        let shared = &self.shared;
        let halted = self.machine.run_until(budget, |m| {
            if armed_checkpoint.is_none() && shared.borrow().armed {
                *armed_checkpoint = Some(m.checkpoint());
            }
            monitor.map_or_else(|| m.all_halted(), |c| m.context(c).halted())
        });
        let exit = if halted {
            RunExit::AllHalted
        } else {
            RunExit::MaxCycles
        };
        self.probe.set_cycle(self.machine.cycle());
        self.probe.emit(
            None,
            EventKind::RunEnd {
                cycles: self.machine.cycle(),
                all_halted: exit == RunExit::AllHalted,
            },
        );
        Ok(self.report(exit))
    }

    /// Assembles a report from the current machine state.
    pub fn report(&self, exit: RunExit) -> AttackReport {
        let monitor_samples: Vec<u64> = match (self.monitor_ctx, self.monitor_buf) {
            (Some(ctx), Some(buf)) => (0..buf.samples)
                .map(|i| self.machine.read_virt(ctx, buf.base.offset(i * 8), 8))
                .collect(),
            _ => Vec::new(),
        };
        for (index, &value) in monitor_samples.iter().enumerate() {
            self.probe.emit(
                self.monitor_ctx.map(|c| c.0 as u32),
                EventKind::MonitorSample {
                    index: index as u64,
                    value,
                },
            );
        }
        AttackReport {
            exit,
            cycles: self.machine.cycle(),
            module: self.shared.borrow().clone(),
            stats: self.machine.stats(),
            monitor_samples,
            div_stats: self.machine.ports().div_stats(),
            trace: self.probe.events(),
            dropped_events: self.probe.dropped(),
            metrics: self.collect_metrics(),
        }
    }

    /// Checkpoint-engine cost counters as a metric registry:
    /// `checkpoint.captures`, `checkpoint.restores`, `checkpoint.pages_cow`
    /// and `checkpoint.restore_pages`.
    ///
    /// Deliberately *not* folded into [`AttackReport`] metrics: reports are
    /// pinned byte-identical between cold execution and checkpointed
    /// replay, and these counters measure the engine (which differs between
    /// those paths), not the workload.
    pub fn checkpoint_metrics(&self) -> MetricSet {
        let s = self.machine.checkpoint_stats();
        let mut m = MetricSet::new();
        m.set_count("checkpoint.captures", s.captures);
        m.set_count("checkpoint.restores", s.restores);
        m.set_count("checkpoint.pages_cow", s.pages_cow);
        m.set_count("checkpoint.restore_pages", s.restore_pages);
        m
    }

    /// Collects the uniform metric registry from every layer.
    pub fn collect_metrics(&self) -> MetricSet {
        let mut m = MetricSet::new();
        let stats = self.machine.stats();
        m.set_count("session.cycles", stats.cycles);
        for (i, ctx) in stats.contexts.iter().enumerate() {
            ctx.collect_metrics(&format!("cpu.ctx{i}"), &mut m);
        }
        let hw = self.machine.hw();
        hw.hier.stats().collect_metrics("cache", &mut m);
        let (l1d_hits, l1d_misses) = hw.tlb.l1d().stats();
        m.set_count("mem.tlb.l1d.hits", l1d_hits);
        m.set_count("mem.tlb.l1d.misses", l1d_misses);
        let (l2_hits, l2_misses) = hw.tlb.l2().stats();
        m.set_count("mem.tlb.l2.hits", l2_hits);
        m.set_count("mem.tlb.l2.misses", l2_misses);
        let (walks, walk_faults) = hw.walker.stats();
        m.set_count("mem.walker.walks", walks);
        m.set_count("mem.walker.faults", walk_faults);
        let sh = self.shared.borrow();
        m.set_count("os.replays", sh.replays.iter().sum());
        m.set_count("os.observations", sh.observations.len() as u64);
        m.set_count("probe.dropped", self.probe.dropped());
        m
    }
}

/// The first 8-byte slot of `buf` whose address does not translate in
/// `aspace`, or `buf.base` when the buffer's end overflows. A slot's
/// translation depends only on its page, so one slot per page is walked.
fn first_unmapped_slot(phys: &PhysMem, aspace: &AddressSpace, buf: MonitorBuffer) -> Option<VAddr> {
    let Some(end) = (buf.samples.checked_mul(8)).and_then(|len| buf.base.0.checked_add(len)) else {
        return Some(buf.base);
    };
    let mut slot = buf.base.0;
    while slot < end {
        if aspace.translate(phys, VAddr(slot), false).is_err() {
            return Some(VAddr(slot));
        }
        // The first slot on the next page; none is left past `u64::MAX`.
        slot = slot.checked_add((PAGE_BYTES - slot % PAGE_BYTES).div_ceil(8) * 8)?;
    }
    None
}

/// The cross-check relation: equal (`==`) reports give the fast one back.
/// The destructure lists every field, so one added to [`AttackReport`]
/// does not compile until it is compared here.
fn compare_reports(
    cycle_by_cycle: AttackReport,
    fast_forward: AttackReport,
) -> Result<AttackReport, RunError> {
    let AttackReport {
        exit,
        cycles,
        module,
        stats,
        monitor_samples,
        div_stats,
        trace,
        dropped_events,
        metrics,
    } = &cycle_by_cycle;
    let f = &fast_forward;
    let fields = [
        ("exit", *exit == f.exit),
        ("cycles", *cycles == f.cycles),
        ("module", *module == f.module),
        ("stats", *stats == f.stats),
        ("monitor_samples", *monitor_samples == f.monitor_samples),
        ("div_stats", *div_stats == f.div_stats),
        ("trace", *trace == f.trace),
        ("dropped_events", *dropped_events == f.dropped_events),
        ("metrics", *metrics == f.metrics),
    ];
    match fields.into_iter().find(|&(_, equal)| !equal) {
        None => Ok(fast_forward),
        Some((field, _)) => Err(RunError::CrossCheckDiverged {
            field,
            cycle_by_cycle: Box::new(cycle_by_cycle),
            fast_forward: Box::new(fast_forward),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_cpu::Assembler;
    use microscope_mem::PteFlags;

    fn halt() -> Program {
        let mut asm = Assembler::new();
        asm.halt();
        asm.finish()
    }

    /// Builds a one-instruction session on the default config as `edit`
    /// leaves it.
    fn build_on(edit: impl FnOnce(&mut SimConfig)) -> Option<BuildError> {
        let mut b = SessionBuilder::new();
        let aspace = b.new_aspace(1);
        b.victim(halt(), aspace);
        edit(b.sim_mut());
        b.build().err()
    }

    fn invalid(field: &'static str, value: u64) -> Option<BuildError> {
        Some(BuildError::InvalidConfig { field, value })
    }

    #[test]
    fn l1_banks_must_be_a_power_of_two() {
        assert_eq!(build_on(|_| {}), None);
        let banks = |n| build_on(|c| c.hierarchy.l1_banks = n);
        assert_eq!(banks(3), invalid("hierarchy.l1_banks", 3));
        assert_eq!(banks(0), invalid("hierarchy.l1_banks", 0));
    }

    #[test]
    fn dram_banks_must_be_a_power_of_two() {
        let got = build_on(|c| c.hierarchy.dram.banks = 3);
        assert_eq!(got, invalid("hierarchy.dram.banks", 3));
    }

    #[test]
    fn dram_lines_per_row_must_be_a_power_of_two() {
        let got = build_on(|c| c.hierarchy.dram.lines_per_row = 100);
        assert_eq!(got, invalid("hierarchy.dram.lines_per_row", 100));
    }

    #[test]
    fn cache_sets_must_be_a_power_of_two() {
        let got = build_on(|c| c.hierarchy.l2.sets = 6);
        assert_eq!(got, invalid("hierarchy.l2.sets", 6));
    }

    #[test]
    fn cache_ways_must_be_non_zero() {
        let got = build_on(|c| c.hierarchy.l1.ways = 0);
        assert_eq!(got, invalid("hierarchy.l1.ways", 0));
    }

    #[test]
    fn tlb_l1d_sets_must_be_a_power_of_two() {
        assert_eq!(build_on(|c| c.tlb.l1d.sets = 3), invalid("tlb.l1d.sets", 3));
    }

    #[test]
    fn tlb_l1d_ways_must_be_non_zero() {
        assert_eq!(build_on(|c| c.tlb.l1d.ways = 0), invalid("tlb.l1d.ways", 0));
    }

    #[test]
    fn tlb_l2_sets_must_be_a_power_of_two() {
        assert_eq!(build_on(|c| c.tlb.l2.sets = 0), invalid("tlb.l2.sets", 0));
    }

    #[test]
    fn tlb_l2_ways_must_be_non_zero() {
        assert_eq!(build_on(|c| c.tlb.l2.ways = 0), invalid("tlb.l2.ways", 0));
    }

    /// Builds a session whose monitor maps one page at `0x7000_0000` and
    /// reads `samples` slots from `base`.
    fn build_monitor(base: u64, samples: u64) -> Result<AttackSession, BuildError> {
        let mut b = SessionBuilder::new();
        let victim = b.new_aspace(1);
        b.victim(halt(), victim);
        let monitor = b.new_aspace(2);
        monitor.alloc_map(
            b.phys(),
            VAddr(0x7000_0000),
            PAGE_BYTES,
            PteFlags::user_data(),
        );
        let buffer = MonitorBuffer {
            base: VAddr(base),
            samples,
        };
        b.monitor(halt(), monitor, Some(buffer));
        b.build()
    }

    #[test]
    fn unmapped_monitor_buffer_is_a_build_error() {
        let unmapped = |vaddr| {
            Some(BuildError::MonitorBufferUnmapped {
                vaddr: VAddr(vaddr),
            })
        };
        assert_eq!(build_monitor(0x7100_0000, 2).err(), unmapped(0x7100_0000));
        assert_eq!(build_monitor(0x7000_0000, 513).err(), unmapped(0x7000_1000));
        assert_eq!(build_monitor(0x7000_0ffc, 2).err(), unmapped(0x7000_1004));
        assert_eq!(build_monitor(u64::MAX - 7, 2).err(), unmapped(u64::MAX - 7));
        let samples = build_monitor(0x7000_0000, 512).ok().map(|mut s| {
            s.execute(RunRequest::cold(10_000))
                .map(|r| r.monitor_samples)
        });
        assert_eq!(samples, Some(Ok(vec![0; 512])), "the buffer fills its page");
    }

    #[test]
    fn compare_reports_names_the_first_differing_field() {
        let mut b = SessionBuilder::new();
        let aspace = b.new_aspace(1);
        b.victim(halt(), aspace).probe(RecorderConfig::default());
        let mut session = b.build().expect("session has a victim");
        let report = session
            .execute(RunRequest::cold(1_000))
            .expect("a cold run cannot fail");
        assert!(!report.trace.is_empty(), "the probe records the run");
        let same = compare_reports(report.clone(), report.clone());
        assert_eq!(same, Ok(report.clone()));
        let diverges_in = |field, edit: fn(&mut AttackReport)| {
            let mut other = report.clone();
            edit(&mut other);
            let want = Err(RunError::CrossCheckDiverged {
                field,
                cycle_by_cycle: Box::new(report.clone()),
                fast_forward: Box::new(other.clone()),
            });
            assert_eq!(compare_reports(report.clone(), other), want);
        };
        diverges_in("div_stats", |r| r.div_stats.1 += 1);
        diverges_in("cycles", |r| {
            r.cycles += 1;
            r.trace.pop();
        });
    }
}
