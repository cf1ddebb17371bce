//! The simulated machine: SMT contexts + shared memory system + supervisor.

use crate::config::CoreConfig;
use crate::context::{abort_code, Context, ContextId, Txn};
use crate::isa::{FpOp, Inst, Reg};
use crate::ports::{PortKind, Ports};
use crate::predictor::BranchPredictor;
use crate::program::Program;
use crate::rob::{RobEntry, RobState, SquashCause, Src, SrcList};
use crate::stats::MachineStats;
use crate::supervisor::{
    FaultEvent, HwParts, InterruptEvent, NullSupervisor, Supervisor, SupervisorAction,
};
use microscope_cache::{HierarchyConfig, MemoryHierarchy, PAddr};
use microscope_mem::{
    AddressSpace, PageFault, PageWalker, PhysMem, TlbEntry, TlbHierarchy, TlbHierarchyConfig,
    VAddr, WalkerConfig, PAGE_BYTES,
};
use microscope_probe::{EventKind, Probe, Recorder, RecorderConfig};
use std::cmp::Reverse;

/// SplitMix64: a tiny, high-quality mixing function for the DRBG model.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Why [`Machine::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunExit {
    /// Every context halted.
    AllHalted,
    /// The cycle budget was exhausted first.
    MaxCycles,
}

/// A full architectural + microarchitectural snapshot of a [`Machine`].
///
/// Captures every context (architectural registers, ROB, RAT, in-flight
/// transaction, fetch/stall state), the privileged hardware view (physical
/// memory and page tables, cache arrays, TLBs, the page-walk cache, DRAM
/// bank state, branch predictor), port/divider occupancy, the supervisor's
/// private state (via [`Supervisor::checkpoint`]) and the probe recorder
/// (event ring, drop counter, ambient stamps).
///
/// A checkpoint is independent of the machine it came from: restoring is a
/// clone of the captured state, so one checkpoint serves any number of
/// [`Machine::restore`] calls. This is what makes a MicroScope replay
/// O(speculation window) instead of O(whole program): the attack session
/// snapshots the machine at the moment the replay handle is armed and
/// rewinds to it instead of re-simulating the victim from reset.
pub struct MachineCheckpoint {
    cycle: u64,
    next_seq: u64,
    hw: HwParts,
    ports: Ports,
    contexts: Vec<Context>,
    supervisor: Option<Box<dyn std::any::Any>>,
    recorder: Option<Recorder>,
}

impl std::fmt::Debug for MachineCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineCheckpoint")
            .field("cycle", &self.cycle)
            .field("contexts", &self.contexts.len())
            .field("has_supervisor_state", &self.supervisor.is_some())
            .finish_non_exhaustive()
    }
}

impl MachineCheckpoint {
    /// Cycle at which the snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

/// Cumulative cost counters for the checkpoint engine.
///
/// Every field is monotone over the machine's lifetime — deliberately *not*
/// part of a [`MachineCheckpoint`], so a restore never rewinds the
/// bookkeeping about restores. This is what lets a perf harness ask "how
/// many pages did N replays actually touch" after the fact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Snapshots taken ([`Machine::checkpoint`] calls).
    pub captures: u64,
    /// Rewinds performed ([`Machine::restore`] calls).
    pub restores: u64,
    /// Physical pages copied by the CoW layer across all capture/restore
    /// epochs (a page dirtied while shared with a live snapshot).
    pub pages_cow: u64,
    /// Pages discarded by restores — the sum over all rewinds of the pages
    /// dirtied between the epoch boundary and the rewind. Divided by
    /// `restores`, this is the per-replay delta the O(dirty) claim is about.
    pub restore_pages: u64,
}

/// Builder for [`Machine`].
///
/// ```
/// use microscope_cpu::{Assembler, MachineBuilder, Reg};
/// let mut asm = Assembler::new();
/// asm.imm(Reg(1), 5).halt();
/// let mut m = MachineBuilder::new().context(asm.finish()).build();
/// m.run(100);
/// assert_eq!(m.context(0.into()).reg(Reg(1)), 5);
/// ```
pub struct MachineBuilder {
    core: CoreConfig,
    hier: HierarchyConfig,
    tlb: TlbHierarchyConfig,
    walker: WalkerConfig,
    phys: Option<PhysMem>,
    contexts: Vec<(Program, Option<AddressSpace>)>,
    supervisor: Option<Box<dyn Supervisor>>,
    probe: Option<Probe>,
}

impl Default for MachineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MachineBuilder {
    /// Starts a builder with default configurations.
    pub fn new() -> Self {
        MachineBuilder {
            core: CoreConfig::default(),
            hier: HierarchyConfig::default(),
            tlb: TlbHierarchyConfig::default(),
            walker: WalkerConfig::default(),
            phys: None,
            contexts: Vec::new(),
            supervisor: None,
            probe: None,
        }
    }

    /// Sets the core configuration.
    pub fn core_config(mut self, cfg: CoreConfig) -> Self {
        self.core = cfg;
        self
    }

    /// Sets the cache-hierarchy configuration.
    pub fn hierarchy(mut self, cfg: HierarchyConfig) -> Self {
        self.hier = cfg;
        self
    }

    /// Sets the TLB configuration.
    pub fn tlb(mut self, cfg: TlbHierarchyConfig) -> Self {
        self.tlb = cfg;
        self
    }

    /// Sets the page-walker configuration.
    pub fn walker(mut self, cfg: WalkerConfig) -> Self {
        self.walker = cfg;
        self
    }

    /// Provides pre-populated physical memory (victim data, page tables).
    pub fn phys(mut self, phys: PhysMem) -> Self {
        self.phys = Some(phys);
        self
    }

    /// Adds a context with a fresh, empty address space.
    pub fn context(mut self, program: Program) -> Self {
        self.contexts.push((program, None));
        self
    }

    /// Adds a context running `program` in an existing address space.
    pub fn context_in(mut self, program: Program, aspace: AddressSpace) -> Self {
        self.contexts.push((program, Some(aspace)));
        self
    }

    /// Installs the supervisor (default: [`NullSupervisor`]).
    pub fn supervisor(mut self, s: Box<dyn Supervisor>) -> Self {
        self.supervisor = Some(s);
        self
    }

    /// Shares an existing cross-layer probe with the machine. Without this,
    /// the machine creates a private, disabled probe.
    pub fn probe(mut self, probe: Probe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Builds the machine.
    ///
    /// # Panics
    ///
    /// Panics if no context was added.
    pub fn build(self) -> Machine {
        assert!(
            !self.contexts.is_empty(),
            "machine needs at least one context"
        );
        let mut phys = self.phys.unwrap_or_default();
        let probe = self
            .probe
            .unwrap_or_else(|| Probe::new(RecorderConfig::disabled()));
        let contexts: Vec<Context> = self
            .contexts
            .into_iter()
            .enumerate()
            .map(|(i, (prog, asp))| {
                let asp = asp.unwrap_or_else(|| AddressSpace::new(&mut phys, 100 + i as u16));
                Context::new(
                    ContextId(i),
                    prog,
                    asp,
                    self.core.rdrand_seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                )
            })
            .collect();
        let mut hier = MemoryHierarchy::new(self.hier);
        hier.attach_probe(probe.clone());
        let mut tlb = TlbHierarchy::new(self.tlb);
        tlb.attach_probe(probe.clone());
        let mut walker = PageWalker::new(self.walker);
        walker.attach_probe(probe.clone());
        Machine {
            cfg: self.core,
            cycle: 0,
            hw: HwParts {
                phys,
                hier,
                tlb,
                walker,
                predictor: BranchPredictor::new(self.core.predictor),
            },
            ports: Ports::new(),
            contexts,
            supervisor: self.supervisor.unwrap_or_else(|| Box::new(NullSupervisor)),
            probe,
            next_seq: 1,
            ckpt_stats: std::cell::Cell::new(CheckpointStats::default()),
            fast_forward: true,
        }
    }
}

/// The whole simulated machine.
pub struct Machine {
    cfg: CoreConfig,
    cycle: u64,
    hw: HwParts,
    ports: Ports,
    contexts: Vec<Context>,
    supervisor: Box<dyn Supervisor>,
    probe: Probe,
    next_seq: u64,
    /// Lifetime checkpoint-engine counters; never restored by
    /// [`Machine::restore`]. A `Cell` so [`Machine::checkpoint`] can count
    /// captures through its `&self` receiver.
    ckpt_stats: std::cell::Cell<CheckpointStats>,
    /// Whether [`Machine::run_until`] skips idle cycles (see
    /// [`Machine::set_fast_forward`]). An engine setting, not hardware:
    /// never captured or restored.
    fast_forward: bool,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cycle", &self.cycle)
            .field("contexts", &self.contexts.len())
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// The current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Read access to a context.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn context(&self, id: ContextId) -> &Context {
        &self.contexts[id.0]
    }

    /// Number of hardware contexts.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// The privileged hardware view.
    pub fn hw(&self) -> &HwParts {
        &self.hw
    }

    /// Mutable privileged hardware view (host/OS-side setup).
    pub fn hw_mut(&mut self) -> &mut HwParts {
        &mut self.hw
    }

    /// Execution-port state (divider occupancy statistics).
    pub fn ports(&self) -> &Ports {
        &self.ports
    }

    /// The cross-layer probe shared by the core, caches, TLBs and walker.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Emits one cpu-layer event for context `ci` at cycle `now`.
    fn emit(&self, now: u64, ci: usize, kind: EventKind) {
        self.probe.emit_at(now, Some(ci as u32), kind);
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            cycles: self.cycle,
            contexts: self.contexts.iter().map(|c| c.stats).collect(),
        }
    }

    /// Swaps the supervisor, returning the previous one.
    ///
    /// Attack sessions use this to a) build the machine (creating the real
    /// cache/TLB/walker state), b) *arm* an attack module against that
    /// state, and only then c) install the kernel containing the module.
    pub fn replace_supervisor(&mut self, s: Box<dyn Supervisor>) -> Box<dyn Supervisor> {
        std::mem::replace(&mut self.supervisor, s)
    }

    /// Arms a stepping interrupt on `ctx`: the supervisor's `on_interrupt`
    /// fires after every `every` retired instructions (CacheZoom/SGX-Step).
    pub fn set_step_interrupt(&mut self, ctx: ContextId, every: Option<u64>) {
        self.contexts[ctx.0].step_every = every;
        self.contexts[ctx.0].retires_since_step = 0;
    }

    /// Host-side virtual-memory read through a context's page tables
    /// (no timing side effects).
    ///
    /// # Panics
    ///
    /// Panics if the address does not translate.
    pub fn read_virt(&self, ctx: ContextId, vaddr: VAddr, size: u8) -> u64 {
        let asp = self.contexts[ctx.0].aspace;
        let t = asp
            .translate(&self.hw.phys, vaddr, false)
            .unwrap_or_else(|e| panic!("read_virt: {e}"));
        self.hw.phys.read_sized(t.paddr, size)
    }

    /// Host-side virtual-memory write through a context's page tables.
    ///
    /// # Panics
    ///
    /// Panics if the address does not translate as writable.
    pub fn write_virt(&mut self, ctx: ContextId, vaddr: VAddr, value: u64, size: u8) {
        let asp = self.contexts[ctx.0].aspace;
        let t = asp
            .translate(&self.hw.phys, vaddr, true)
            .unwrap_or_else(|e| panic!("write_virt: {e}"));
        self.hw.phys.write_sized(t.paddr, value, size);
    }

    /// Whether every context halted.
    pub fn all_halted(&self) -> bool {
        self.contexts.iter().all(|c| c.halted)
    }

    /// Captures a complete, restorable snapshot of the machine. See
    /// [`MachineCheckpoint`] for what is included.
    ///
    /// Since the CoW rework this is O(pages touched since the last epoch),
    /// not O(memory size): the physical pages, cache/TLB/PWC arrays,
    /// predictor table and probe ring are all reference-bumped, and actual
    /// copies happen lazily on the first post-capture write to each piece.
    pub fn checkpoint(&self) -> MachineCheckpoint {
        // The capture is an epoch boundary: pages dirtied from here on are
        // exactly what a later restore to this snapshot discards.
        self.hw.phys.begin_epoch();
        let mut s = self.ckpt_stats.get();
        s.captures += 1;
        self.ckpt_stats.set(s);
        MachineCheckpoint {
            cycle: self.cycle,
            next_seq: self.next_seq,
            hw: self.hw.clone(),
            ports: self.ports.clone(),
            contexts: self.contexts.clone(),
            supervisor: self.supervisor.checkpoint(),
            recorder: self.probe.snapshot(),
        }
    }

    /// Lifetime checkpoint-engine cost counters (see [`CheckpointStats`]).
    /// Unlike every other counter on the machine, these survive
    /// [`Machine::restore`] — they measure the engine, not the workload.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.ckpt_stats.get()
    }

    /// Rewinds the machine to a [`MachineCheckpoint`]. The checkpoint is
    /// not consumed; restoring clones it, so the same snapshot can seed any
    /// number of re-executions.
    ///
    /// Returns `false` when the snapshot carries supervisor state that the
    /// *currently installed* supervisor does not recognize (e.g. the
    /// supervisor was swapped since the capture) — hardware and context
    /// state are restored regardless. A snapshot with no supervisor state
    /// (a stateless supervisor at capture time) restores trivially.
    pub fn restore(&mut self, cp: &MachineCheckpoint) -> bool {
        // Account the rewind before swapping: the pages dirtied this epoch
        // are what the restore discards, and the live store's CoW counter
        // minus the snapshot's is the copies this epoch caused.
        let mut s = self.ckpt_stats.get();
        s.restores += 1;
        s.restore_pages += self.hw.phys.epoch_dirty_pages();
        s.pages_cow += self
            .hw
            .phys
            .cow_copied_pages()
            .saturating_sub(cp.hw.phys.cow_copied_pages());
        self.ckpt_stats.set(s);
        self.cycle = cp.cycle;
        self.next_seq = cp.next_seq;
        self.hw = cp.hw.clone();
        self.hw.phys.begin_epoch();
        self.ports = cp.ports.clone();
        self.contexts = cp.contexts.clone();
        self.probe.restore(&cp.recorder);
        match &cp.supervisor {
            Some(state) => self.supervisor.restore_checkpoint(state.as_ref()),
            None => true,
        }
    }

    /// Switches idle-cycle fast-forward, on by default:
    /// [`Machine::run_until`] jumps the clock to the next cycle in which
    /// anything can happen — the earliest completion on a context's
    /// calendar, the end of a fetch stall, or the divider freeing up for a
    /// waiting division — instead of ticking through the dead cycles. The skip is exact: nothing
    /// could retire, complete, issue or fetch in a skipped cycle, and the
    /// divider stalls its failed issue attempts would have charged are
    /// credited, so all observable state (reports, traces, statistics,
    /// timer reads) equals cycle-by-cycle execution. Switch it off to run
    /// the reference cycle-by-cycle loop (the cross-check baseline).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Whether idle-cycle fast-forward is on (see
    /// [`Machine::set_fast_forward`]).
    pub fn fast_forward_enabled(&self) -> bool {
        self.fast_forward
    }

    /// Runs until every context halts or `max_cycles` elapse.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        if self.run_until(max_cycles, Machine::all_halted) {
            RunExit::AllHalted
        } else {
            RunExit::MaxCycles
        }
    }

    /// Runs until `pred` holds or `max_cycles` elapse. Returns whether the
    /// predicate fired.
    ///
    /// The predicate is evaluated once before every real step (and once
    /// more when the run ends), so the number of evaluations counts the
    /// steps taken. With fast-forward on (the default; see
    /// [`Machine::set_fast_forward`]), the cycles it jumps over change no
    /// machine state and are not evaluated: exact for any predicate over
    /// machine *state*, but a predicate over the bare cycle counter may be
    /// observed late. The `max_cycles` stop itself is exact either way:
    /// fast-forward never jumps past it, so a run that neither halts nor
    /// fires the predicate ends with [`Machine::cycle`] advanced by exactly
    /// `max_cycles`.
    pub fn run_until(&mut self, max_cycles: u64, mut pred: impl FnMut(&Machine) -> bool) -> bool {
        let end = self.cycle.saturating_add(max_cycles);
        loop {
            if pred(self) {
                return true;
            }
            if self.all_halted() || self.cycle >= end {
                return pred(self);
            }
            self.advance(end);
        }
    }

    /// One scheduling quantum: a jump to just before the next wake (with
    /// fast-forward on), then one real step.
    fn advance(&mut self, end: u64) {
        if self.fast_forward {
            self.fast_forward(end);
            if self.cycle >= end {
                return;
            }
        }
        self.step();
    }

    /// Idle-cycle fast-forward: jumps the clock to just before the next
    /// cycle in which some step could change state, so the next step lands
    /// exactly on it (to the budget end when nothing is pending).
    ///
    /// That wake is the earliest of each context's next calendar
    /// completion and, where fetch could dispatch, `fetch_stalled_until`.
    /// Ready entries that `can_issue` rejects stay rejected until a
    /// completion, a retirement or a store issue changes the window — each
    /// of which makes its own cycle live — so they add no wake. A
    /// ready divide that passes `can_issue` can only lose to the busy
    /// divider: it adds `divider_busy_until`, and every skipped cycle is
    /// credited with the stall it would have charged. Any other ready
    /// entry, a retirable head, an implicit halt or an open transaction
    /// (conflict-checked against shared caches every cycle) means the next
    /// cycle is live. The skipped cycles' only other state is per-cycle
    /// port and L1-bank claims, cleared at the start of every cycle.
    fn fast_forward(&mut self, end: u64) {
        let now = self.cycle;
        let mut wake = u64::MAX;
        let mut waiting_divs = 0;
        for (ci, ctx) in self.contexts.iter().enumerate() {
            if ctx.halted {
                continue;
            }
            if ctx.txn.is_some()
                || (ctx.fetch_stopped && ctx.rob.is_empty())
                || ctx.rob.front().is_some_and(RobEntry::is_complete)
            {
                return;
            }
            if let Some(&Reverse((done_at, _))) = ctx.calendar.peek() {
                wake = wake.min(done_at);
            }
            if !ctx.fetch_stopped && ctx.rob.len() < self.cfg.rob_size {
                wake = wake.min(ctx.fetch_stalled_until);
            }
            for &tag in &ctx.ready {
                let idx = ctx.index_of(tag);
                if !self.can_issue(ci, idx) {
                    continue;
                }
                if !matches!(ctx.rob[idx].inst, Inst::FOp { op: FpOp::Div, .. }) {
                    return;
                }
                waiting_divs += 1;
            }
        }
        if waiting_divs > 0 {
            wake = wake.min(self.ports.divider_busy_until());
        }
        let target = if wake == u64::MAX {
            end
        } else {
            wake.saturating_sub(1).min(end)
        };
        if target > now {
            self.ports.credit_div_stalls(waiting_divs * (target - now));
            self.cycle = target;
            // Cold execution stamps the probe's ambient cycle every tick;
            // keep it in sync across the jump.
            self.probe.set_cycle(target);
        }
    }

    /// Advances the machine by one cycle.
    pub fn step(&mut self) {
        self.cycle += 1;
        let now = self.cycle;
        // Ambient cycle stamp: events emitted by the memory system (which
        // has no notion of the core clock) inherit the current cycle.
        self.probe.set_cycle(now);
        self.ports.begin_cycle();
        self.hw.hier.bank_model().begin_cycle();
        self.retire_stage(now);
        self.complete_stage(now);
        self.issue_stage(now);
        self.fetch_stage(now);
        #[cfg(debug_assertions)]
        self.contexts.iter().for_each(Context::audit);
    }

    // ------------------------------------------------------------------
    // Retire
    // ------------------------------------------------------------------

    fn retire_stage(&mut self, now: u64) {
        for ci in 0..self.contexts.len() {
            if self.contexts[ci].halted {
                continue;
            }
            self.check_txn_conflict(ci, now);
            for _ in 0..self.cfg.retire_width {
                if !self.retire_one(ci, now) {
                    break;
                }
            }
            // A context whose program ran out (and whose window drained)
            // halts implicitly.
            let c = &mut self.contexts[ci];
            if !c.halted && c.fetch_stopped && c.rob.is_empty() {
                c.halted = true;
            }
        }
    }

    /// Aborts the context's transaction if any write-set line left the
    /// cache hierarchy (attacker flush or capacity eviction).
    fn check_txn_conflict(&mut self, ci: usize, now: u64) {
        let lost = match &self.contexts[ci].txn {
            Some(txn) => txn
                .write_lines
                .iter()
                .any(|l| self.hw.hier.level_of(l.base()).is_none()),
            None => return,
        };
        if lost {
            self.txn_abort(ci, abort_code::CONFLICT, now);
        }
    }

    /// Retires at most one instruction; returns whether retirement may
    /// continue this cycle.
    fn retire_one(&mut self, ci: usize, now: u64) -> bool {
        let head_state = match self.contexts[ci].rob.front() {
            Some(e) => e.state,
            None => return false,
        };
        match head_state {
            RobState::Done => self.commit_head(ci, now),
            RobState::Faulted => {
                if self.contexts[ci].txn.is_some() {
                    self.txn_abort(ci, abort_code::FAULT, now);
                } else {
                    self.deliver_page_fault(ci, now);
                }
                false
            }
            _ => false,
        }
    }

    fn commit_head(&mut self, ci: usize, now: u64) -> bool {
        // Every path below retires the head, so take it by value up front —
        // moving the entry out of the ROB is pointer-sized bookkeeping,
        // where cloning it would heap-copy the operand vector every single
        // retirement (the hottest loop in the simulator).
        let entry = self.contexts[ci].pop_head().expect("head exists");
        let ctx = &mut self.contexts[ci];
        ctx.stats.retired += 1;
        // Architectural register write.
        if let Some(dst) = entry.dst() {
            ctx.arch_regs[dst.index()] = entry.value;
        }
        self.emit(
            now,
            ci,
            EventKind::Retire {
                seq: entry.seq,
                pc: entry.pc as u64,
            },
        );
        match entry.inst {
            Inst::Store { size, .. } => {
                let (_, paddr, _) = entry.mem_addr.expect("committed store has an address");
                let value = entry.store_value.expect("committed store has data");
                let ctx = &mut self.contexts[ci];
                if let Some(txn) = &mut ctx.txn {
                    txn.write_buffer.push((paddr, value, size));
                    if !txn.write_lines.contains(&paddr.line()) {
                        txn.write_lines.push(paddr.line());
                    }
                } else {
                    self.hw.phys.write_sized(paddr, value, size);
                }
                // Either way the line is filled (TSX pins the write set in
                // cache; ordinary stores write-allocate).
                self.hw.hier.access(paddr);
                self.contexts[ci].stats.stores_retired += 1;
            }
            Inst::Load { .. } => {
                if let Some(paddr) = entry.fill_at_retire {
                    // Invisible-speculation defense: the fill that was
                    // suppressed at execute happens now, non-speculatively.
                    self.hw.hier.access(paddr);
                }
            }
            Inst::XBegin { abort_target } => {
                let ctx = &mut self.contexts[ci];
                ctx.txn = Some(Txn {
                    abort_target,
                    snapshot_regs: ctx.arch_regs,
                    write_buffer: Vec::new(),
                    write_lines: Vec::new(),
                });
            }
            Inst::XEnd => {
                let ctx = &mut self.contexts[ci];
                if let Some(txn) = ctx.txn.take() {
                    for (paddr, value, size) in txn.write_buffer {
                        self.hw.phys.write_sized(paddr, value, size);
                    }
                    self.contexts[ci].stats.txn_commits += 1;
                }
            }
            Inst::XAbort { code } if self.contexts[ci].txn.is_some() => {
                self.txn_abort(ci, abort_code::EXPLICIT | (u64::from(code) << 8), now);
                return false;
            }
            Inst::Halt => {
                let ctx = &mut self.contexts[ci];
                ctx.squash_all();
                ctx.halted = true;
                return false;
            }
            _ => {}
        }
        let ctx = &mut self.contexts[ci];
        // Stepping interrupt (CacheZoom/SGX-Step style).
        if let Some(every) = ctx.step_every {
            ctx.retires_since_step += 1;
            if ctx.retires_since_step >= every {
                ctx.retires_since_step = 0;
                self.deliver_interrupt(ci, now);
                return false;
            }
        }
        true
    }

    fn deliver_interrupt(&mut self, ci: usize, now: u64) {
        let next_pc = self.contexts[ci]
            .rob
            .front()
            .map(|e| e.pc)
            .unwrap_or(self.contexts[ci].pc);
        let ev = InterruptEvent {
            ctx: ContextId(ci),
            next_pc,
            cycle: now,
        };
        let action = self.supervisor.on_interrupt(&mut self.hw, &ev);
        self.apply_stall(&action, now);
        let ctx = &mut self.contexts[ci];
        if action.disarm_step_interrupt {
            ctx.step_every = None;
        }
        let dropped = ctx.squash_all();
        self.restart(
            ci,
            SquashCause::Interrupt,
            dropped,
            next_pc,
            action.handler_cycles,
            now,
        );
    }

    fn deliver_page_fault(&mut self, ci: usize, now: u64) {
        let head = self.contexts[ci].rob.front().expect("faulting head");
        let fault = head.fault.expect("faulted entry carries its fault");
        let pc = head.pc;
        let ev = FaultEvent {
            ctx: ContextId(ci),
            pc,
            fault,
            cycle: now,
        };
        self.contexts[ci].stats.page_faults += 1;
        self.emit(
            now,
            ci,
            EventKind::FaultRaised {
                vaddr: fault.vaddr.0,
                pc: pc as u64,
            },
        );
        let action: SupervisorAction = self.supervisor.on_page_fault(&mut self.hw, &ev);
        self.apply_stall(&action, now);
        let dropped = self.contexts[ci].squash_all();
        // Precise exceptions: resume at the faulting instruction. If the OS
        // did not repair the translation, this is a replay.
        self.restart(
            ci,
            SquashCause::PageFault,
            dropped,
            pc,
            action.handler_cycles,
            now,
        );
        self.emit(
            now,
            ci,
            EventKind::HandlerReturn {
                handler_cycles: action.handler_cycles,
            },
        );
    }

    /// Honors an OS descheduling request: the named context stops fetching
    /// for the given duration (its in-flight window drains normally).
    fn apply_stall(&mut self, action: &SupervisorAction, now: u64) {
        if let Some((ctx, cycles)) = action.stall_context {
            if let Some(c) = self.contexts.get_mut(ctx.0) {
                c.fetch_stalled_until = c.fetch_stalled_until.max(now + cycles);
            }
        }
    }

    fn txn_abort(&mut self, ci: usize, code: u64, now: u64) {
        let ctx = &mut self.contexts[ci];
        let txn = ctx.txn.take().expect("txn_abort without a transaction");
        ctx.arch_regs = txn.snapshot_regs;
        ctx.arch_regs[Reg::TXN_ABORT_CODE.index()] = code;
        let dropped = ctx.squash_all();
        self.restart(ci, SquashCause::TxnAbort, dropped, txn.abort_target, 0, now);
    }

    /// Refetches context `ci` from `pc` after a squash of `dropped`
    /// entries: the one restart path of all four squash causes. Fetch
    /// resumes after the squash penalty plus `handler_cycles` of OS
    /// handling, and with [`CoreConfig::fence_after_pipeline_flush`] the
    /// first refetched instruction blocks younger issue until it completes.
    fn restart(
        &mut self,
        ci: usize,
        cause: SquashCause,
        dropped: usize,
        pc: usize,
        handler_cycles: u64,
        now: u64,
    ) {
        let ctx = &mut self.contexts[ci];
        ctx.stats.record_squash(cause, dropped);
        ctx.pc = pc;
        ctx.fetch_stopped = false;
        ctx.fetch_stalled_until = now + self.cfg.squash_penalty + handler_cycles;
        ctx.post_flush_fence |= self.cfg.fence_after_pipeline_flush;
        let discarded = dropped as u64;
        self.emit(now, ci, EventKind::Squash { cause, discarded });
    }

    // ------------------------------------------------------------------
    // Complete
    // ------------------------------------------------------------------

    fn complete_stage(&mut self, now: u64) {
        for ci in 0..self.contexts.len() {
            // Everything due completes this cycle, oldest first: all of it
            // is due exactly now, so calendar order is tag order.
            while let Some(tag) = self.contexts[ci].pop_due(now) {
                if !self.complete_one(ci, tag, now) {
                    break;
                }
            }
        }
    }

    /// Completes entry `tag`; returns `false` when it was a mispredicted
    /// branch, which squashed everything younger.
    fn complete_one(&mut self, ci: usize, tag: u64, now: u64) -> bool {
        let ctx = &mut self.contexts[ci];
        let idx = ctx.index_of(tag);
        let e = &mut ctx.rob[idx];
        if e.fault.is_some() {
            e.state = RobState::Faulted;
            return true;
        }
        e.state = RobState::Done;
        let (value, mut next) = (e.value, e.consumers);
        let (seq, inst, pc) = (e.seq, e.inst, e.pc);
        let (taken, predicted) = (e.value != 0, e.predicted_taken);
        if e.blocks_younger {
            ctx.fences.retain(|&f| f != tag);
        }
        while next != 0 {
            let consumer = next;
            let j = ctx.index_of(consumer);
            let c = &mut ctx.rob[j];
            next = c.deliver(tag, value);
            if c.srcs_ready() {
                let at = ctx.ready.partition_point(|&t| t < consumer);
                ctx.ready.insert(at, consumer);
            }
        }
        self.emit(now, ci, EventKind::Complete { seq });
        let Inst::Branch { target, .. } = inst else {
            return true;
        };
        let mispredict = taken != predicted;
        self.hw.predictor.train(pc, taken, mispredict);
        if !mispredict {
            return true;
        }
        let dropped = self.contexts[ci].squash_younger_than(tag);
        let resume = if taken { target } else { pc + 1 };
        self.restart(ci, SquashCause::Mispredict, dropped, resume, 0, now);
        false
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    /// Issues ready entries oldest-first ACROSS contexts (merged by global
    /// sequence number, each context walking its tag-ordered ready list
    /// with a cursor). Age-ordered arbitration is what keeps one SMT
    /// context from starving the other on a contended unit like the
    /// divider. Each candidate is tried at most once: one that loses port
    /// arbitration (or a gating check) waits for the next cycle. A store
    /// issued this cycle still gates younger loads until the cycle ends.
    fn issue_stage(&mut self, now: u64) {
        let mut budget = self.cfg.issue_width;
        let mut store_issued = false;
        for c in &mut self.contexts {
            c.issue_cursor = 0;
        }
        while budget > 0 {
            let next = (self.contexts.iter().enumerate())
                .filter_map(|(ci, c)| {
                    let idx = c.index_of(*c.ready.get(c.issue_cursor)?);
                    Some((c.rob[idx].seq, ci, idx))
                })
                .min();
            let Some((_, ci, idx)) = next else { break };
            // An issued entry leaves `ready`, which moves the next one
            // under the cursor; a rejected one stays and is stepped over.
            if self.can_issue(ci, idx) && self.try_execute(ci, idx, now) {
                budget -= 1;
                store_issued |= matches!(self.contexts[ci].rob[idx].inst, Inst::Store { .. });
            } else {
                self.contexts[ci].issue_cursor += 1;
            }
        }
        if store_issued {
            self.contexts
                .iter_mut()
                .for_each(Context::prune_issued_stores);
        }
    }

    /// Whether the ready entry at `idx` passes the ordering checks.
    fn can_issue(&self, ci: usize, idx: usize) -> bool {
        let ctx = &self.contexts[ci];
        let (e, tag) = (&ctx.rob[idx], ctx.tag_of(idx));
        // Serialized instructions execute only once non-speculative (every
        // older entry Done).
        if e.exec_at_head && ctx.rob.range(..idx).any(|o| o.state != RobState::Done) {
            return false;
        }
        // Fences (and the post-flush defensive fence) block younger issue
        // until they complete; a Faulted fence keeps blocking.
        if ctx.fences.first().is_some_and(|&f| f < tag) {
            return false;
        }
        // Memory disambiguation: a load may not issue past an older
        // pending store whose address is unknown or may overlap. Store
        // addresses resolve as soon as the base register is ready (even
        // while the data operand waits on a producer), so a store to a
        // known disjoint address never holds younger loads back.
        if matches!(e.inst, Inst::Load { .. }) {
            let (lo, hi) = e
                .resolved_vaddr_range()
                .expect("load with ready operands has a resolved address");
            for &s in ctx.stores.iter().take_while(|&&s| s < tag) {
                match ctx.entry(s).resolved_vaddr_range() {
                    None => return false,
                    Some((slo, shi)) if lo < shi && slo < hi => return false,
                    Some(_) => {}
                }
            }
        }
        true
    }

    /// Classification of an instruction for port arbitration.
    fn classify(&self, inst: &Inst, src_vals: &[u64]) -> (PortKind, u64) {
        match *inst {
            Inst::Mul { .. } => (PortKind::Mul, self.cfg.mul_latency),
            Inst::FOp { op: FpOp::Div, .. } => {
                let lat = if FpOp::Div.involves_subnormal(src_vals[0], src_vals[1]) {
                    self.cfg.div.subnormal
                } else {
                    self.cfg.div.normal
                };
                (PortKind::Div, lat)
            }
            Inst::FOp { .. } => (PortKind::Fp, self.cfg.fp_latency),
            Inst::Load { .. } => (PortKind::Load, 0),
            Inst::Store { .. } => (PortKind::Store, 0),
            Inst::Branch { .. } => (PortKind::Branch, self.cfg.alu_latency),
            Inst::ReadTimer { .. } => (PortKind::Alu, 1),
            Inst::RdRand { .. } => (PortKind::Alu, 20),
            _ => (PortKind::Alu, self.cfg.alu_latency),
        }
    }

    fn try_execute(&mut self, ci: usize, idx: usize, now: u64) -> bool {
        let inst = self.contexts[ci].rob[idx].inst;
        let src_vals = self.contexts[ci].rob[idx].src_values();
        let (kind, base_lat) = self.classify(&inst, &src_vals);
        if !self.ports.try_issue(kind, now, base_lat) {
            return false;
        }
        let seq = self.contexts[ci].rob[idx].seq;
        let pc = self.contexts[ci].rob[idx].pc;
        self.emit(now, ci, EventKind::Issue { seq, pc: pc as u64 });
        self.contexts[ci].issues[pc] += 1;
        let (value, latency) = match inst {
            Inst::Imm { value, .. } => (value, base_lat),
            Inst::Mov { .. } => (src_vals[0], base_lat),
            Inst::Alu { op, .. } => (op.apply(src_vals[0], src_vals[1]), base_lat),
            Inst::AluImm { op, imm, .. } => (op.apply(src_vals[0], imm), base_lat),
            Inst::Mul { .. } => (src_vals[0].wrapping_mul(src_vals[1]), base_lat),
            Inst::FOp { op, .. } => (op.apply(src_vals[0], src_vals[1]), base_lat),
            Inst::Branch { cond, .. } => (u64::from(cond.eval(src_vals[0], src_vals[1])), base_lat),
            Inst::ReadTimer { .. } => (now, base_lat),
            Inst::RdRand { .. } => {
                // DRBG model: the output buffer refills every
                // 2^rdrand_refill_log2 cycles; draws within one refill
                // epoch return the same buffered value.
                let epoch = now >> self.cfg.rdrand_refill_log2;
                let v = splitmix64(
                    self.contexts[ci].rdrand_seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                (v, base_lat)
            }
            Inst::Load { offset, size, .. } => {
                self.contexts[ci].stats.loads_executed += 1;
                self.execute_memory(ci, idx, src_vals[0], offset, size, None)
            }
            Inst::Store { offset, size, .. } => {
                self.execute_memory(ci, idx, src_vals[1], offset, size, Some(src_vals[0]))
            }
            Inst::XAbort { code, .. } => (u64::from(code), base_lat),
            // Fence, Nop, Halt, XBegin, XEnd
            _ => (0, base_lat),
        };
        let e = &mut self.contexts[ci].rob[idx];
        e.value = value;
        let done_at = now + latency.max(1);
        e.state = RobState::Executing { done_at };
        let ctx = &mut self.contexts[ci];
        let tag = ctx.tag_of(idx);
        let at = ctx
            .ready
            .binary_search(&tag)
            .expect("issued entry was ready");
        ctx.ready.remove(at);
        ctx.calendar.push(Reverse((done_at, tag)));
        true
    }

    /// Executes the memory pipeline for a load or store: L1 bank claim,
    /// TLB lookup, hardware page walk on a miss (the speculation window!),
    /// then the data-cache access for loads.
    ///
    /// Writes the fault, the translated address, the store data and the
    /// deferred fill into ROB entry `idx`; returns `(value, latency)`.
    fn execute_memory(
        &mut self,
        ci: usize,
        idx: usize,
        base_val: u64,
        offset: i64,
        size: u8,
        store_value: Option<u64>,
    ) -> (u64, u64) {
        self.contexts[ci].rob[idx].store_value = store_value;
        let is_store = store_value.is_some();
        let vaddr = VAddr(base_val.wrapping_add_signed(offset));
        let aspace = self.contexts[ci].aspace;
        let mut latency = self.hw.hier.bank_model().claim(PAddr(vaddr.0));
        // TLB.
        let lookup = self.hw.tlb.lookup(vaddr.vpn(), aspace.pcid());
        latency += lookup.latency;
        let translation = match lookup.entry {
            Some(entry) if is_store && !entry.flags.writable => Err(PageFault {
                vaddr,
                kind: microscope_mem::PageFaultKind::Protection,
                is_write: true,
            }),
            Some(entry) => Ok(PAddr(entry.ppn * PAGE_BYTES + vaddr.page_offset())),
            None => {
                // Hardware page walk — speculative execution continues in
                // its shadow; its duration is OS-tunable via cache state.
                let walk = self.hw.walker.walk(
                    &mut self.hw.phys,
                    &mut self.hw.hier,
                    &aspace,
                    vaddr,
                    is_store,
                );
                latency += walk.latency;
                walk.result.map(|t| {
                    self.hw.tlb.insert(TlbEntry {
                        vpn: vaddr.vpn(),
                        ppn: t.paddr.ppn(),
                        flags: t.flags,
                        pcid: aspace.pcid(),
                    });
                    t.paddr
                })
            }
        };
        let paddr = match translation {
            Ok(p) => p,
            Err(fault) => {
                self.contexts[ci].rob[idx].fault = Some(fault);
                return (0, latency);
            }
        };
        self.contexts[ci].rob[idx].mem_addr = Some((vaddr, paddr, size));
        if is_store {
            // Stores complete once translated; data is written at commit.
            return (0, latency + 1);
        }
        // Load data path.
        let speculative = self.contexts[ci]
            .rob
            .iter()
            .take(idx)
            .any(|o| o.state != RobState::Done);
        if self.cfg.invisible_speculation && speculative {
            latency += self.hw.hier.peek_latency(paddr);
            self.contexts[ci].rob[idx].fill_at_retire = Some(paddr);
        } else {
            latency += self.hw.hier.access(paddr).latency;
        }
        // Value: transactional buffer, then in-flight store forwarding,
        // then memory.
        let ctx = &self.contexts[ci];
        let forwarded = ctx
            .txn
            .as_ref()
            .and_then(|t| t.forwarded_value(paddr, size))
            .or_else(|| {
                ctx.rob.iter().take(idx).rev().find_map(|o| {
                    match (o.inst, o.mem_addr, o.store_value) {
                        (Inst::Store { .. }, Some((_, p, s)), Some(v))
                            if p == paddr && s == size =>
                        {
                            Some(v)
                        }
                        _ => None,
                    }
                })
            });
        let value = forwarded.unwrap_or_else(|| self.hw.phys.read_sized(paddr, size));
        (value, latency)
    }

    // ------------------------------------------------------------------
    // Fetch / dispatch
    // ------------------------------------------------------------------

    fn fetch_stage(&mut self, now: u64) {
        for ci in 0..self.contexts.len() {
            if self.contexts[ci].halted
                || self.contexts[ci].fetch_stopped
                || now < self.contexts[ci].fetch_stalled_until
            {
                continue;
            }
            for _ in 0..self.cfg.fetch_width {
                if self.contexts[ci].rob.len() >= self.cfg.rob_size {
                    break;
                }
                let pc = self.contexts[ci].pc;
                let Some(inst) = self.contexts[ci].program.fetch(pc) else {
                    self.contexts[ci].fetch_stopped = true;
                    break;
                };
                // Unconditional jumps redirect in the frontend (zero width).
                if let Inst::Jmp { target } = inst {
                    self.contexts[ci].pc = target;
                    continue;
                }
                let seq = self.next_seq;
                self.next_seq += 1;
                // Operand capture through the RAT.
                let ctx = &self.contexts[ci];
                let srcs: SrcList = (inst.sources().iter())
                    .map(|r| match ctx.rat[r.index()] {
                        Some(ptag) => match ctx.entry(ptag) {
                            producer if producer.state == RobState::Done => {
                                Src::Ready(producer.value)
                            }
                            _ => Src::Pending(ptag),
                        },
                        None => Src::Ready(ctx.arch_regs[r.index()]),
                    })
                    .collect();
                // Next-pc logic and branch prediction.
                let mut predicted_taken = false;
                match inst {
                    Inst::Branch { target, .. } => {
                        predicted_taken = self.hw.predictor.predict(pc);
                        self.contexts[ci].pc = if predicted_taken { target } else { pc + 1 };
                    }
                    Inst::Halt => {
                        self.contexts[ci].fetch_stopped = true;
                        self.contexts[ci].pc = pc + 1;
                    }
                    _ => self.contexts[ci].pc = pc + 1,
                }
                // One serializing rule, shared with the static planner: a
                // serializing instruction waits for every older entry and
                // holds every younger one until it completes.
                let exec_at_head = inst.is_serializing(self.cfg.rdrand_is_fenced);
                let post_flush = std::mem::take(&mut self.contexts[ci].post_flush_fence);
                let blocks_younger = exec_at_head || post_flush;
                let entry = RobEntry {
                    seq,
                    pc,
                    inst,
                    state: RobState::Waiting,
                    value: 0,
                    srcs,
                    fault: None,
                    predicted_taken,
                    mem_addr: None,
                    store_value: None,
                    fill_at_retire: None,
                    blocks_younger,
                    exec_at_head,
                    consumers: 0,
                    next_consumer: [0; 2],
                };
                self.contexts[ci].dispatch(entry);
                self.contexts[ci].stats.dispatched += 1;
                self.emit(now, ci, EventKind::Fetch { seq, pc: pc as u64 });
                if matches!(inst, Inst::Halt) {
                    break;
                }
            }
        }
    }
}
