//! Replay-handle enumeration, speculation-window reachability, and the
//! `(handle, transmitter, channel)` attack-plan report.

use crate::cfg::Cfg;
use crate::taint::{self, TaintResult};
use microscope_core::SimConfig;
use microscope_cpu::{FpOp, Inst, Program};
use microscope_mem::{AddressSpace, PhysMem, VAddr};
use microscope_victims::SecretMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// How a secret leaves the speculative window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Channel {
    /// Secret-dependent load/store address: cache-line footprint.
    Cache,
    /// Secret-dependent `divsd` occupancy: port/divider contention.
    Port,
    /// Secret-dependent branch: instruction footprint of either side.
    Branch,
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Channel::Cache => "cache",
            Channel::Port => "port",
            Channel::Branch => "branch",
        })
    }
}

/// A classified transmitter: an instruction whose execution leaks secret
/// state through a microarchitectural channel.
#[derive(Clone, Debug)]
pub struct Transmitter {
    /// Program index.
    pub pc: usize,
    /// The leak channel.
    pub channel: Channel,
    /// Why it was classified (for the report); shared by every plan
    /// naming this transmitter.
    pub reason: Arc<str>,
}

/// What makes an instruction replayable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandleKind {
    /// A load/store whose page the attacker OS can mark non-present
    /// (paper §4.1: the page-fault replay handle).
    PageFault {
        /// The statically resolved access address.
        vaddr: VAddr,
        /// Whether the access is a store.
        is_store: bool,
    },
    /// A TSX region: any abort rolls back to `xbegin` and replays the
    /// body (§7.1).
    TsxAbort,
    /// A conditional branch the attacker can train to mispredict (§7.1).
    Mispredict,
}

/// A replay-handle candidate.
#[derive(Clone, Copy, Debug)]
pub struct Handle {
    /// Program index of the handle instruction.
    pub pc: usize,
    /// Replay mechanism.
    pub kind: HandleKind,
}

impl fmt::Display for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            HandleKind::PageFault { vaddr, is_store } => write!(
                f,
                "pc {:>3} page-fault {} @ {vaddr}",
                self.pc,
                if is_store { "store" } else { "load" }
            ),
            HandleKind::TsxAbort => write!(f, "pc {:>3} tsx-abort region", self.pc),
            HandleKind::Mispredict => write!(f, "pc {:>3} mispredict branch", self.pc),
        }
    }
}

/// One statically predicted attack: replay `handle`, observe
/// `transmitter` through `channel`, `distance` instructions into the
/// speculative window.
#[derive(Clone, Debug)]
pub struct AttackPlan {
    /// The replay handle.
    pub handle: Handle,
    /// The transmitter it shadows.
    pub transmitter: Transmitter,
    /// Fetch distance from handle to transmitter (must fit in the ROB).
    pub distance: usize,
    /// Whether the transmitter's operands are free of any register
    /// dataflow from the handle's result — or from any same-page access
    /// at/after the handle, since arming clears the Present bit on the
    /// whole page. A faulted access never forwards its value, so a
    /// dependent transmitter cannot issue inside the very window the
    /// handle opens — independent plans are the ones worth replaying
    /// (the paper's `rk` loads vs. `Td` lookups split). Register
    /// dataflow only; dependence carried through memory is not tracked,
    /// so this is a prioritization hint, not a guarantee.
    pub handle_independent: bool,
}

impl fmt::Display for AttackPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> pc {:>3} [{}] (+{} insts{}): {}",
            self.handle,
            self.transmitter.pc,
            self.transmitter.channel,
            self.distance,
            if self.handle_independent {
                ""
            } else {
                ", data-dependent on handle"
            },
            self.transmitter.reason
        )
    }
}

/// The full static-analysis result for one victim program.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Victim name (caller-provided).
    pub victim: String,
    /// Secret-source summary.
    pub secret_sources: String,
    /// ROB size the window rule used.
    pub rob_size: usize,
    /// Every replay-handle candidate.
    pub handles: Vec<Handle>,
    /// Every classified transmitter.
    pub transmitters: Vec<Transmitter>,
    /// `(handle, transmitter)` pairs whose speculation window is open.
    pub plans: Vec<AttackPlan>,
    /// Pairs whose window is closed (fence-blocked or beyond the ROB).
    pub closed_pairs: u64,
}

impl AnalysisReport {
    /// Whether any attack plan has an open speculation window.
    pub fn has_open_plans(&self) -> bool {
        !self.plans.is_empty()
    }

    /// The open plans whose handle is a page-faulting access — the ones
    /// [`crate::validate`] can drive through an `AttackSession`.
    pub fn page_fault_plans(&self) -> impl Iterator<Item = &AttackPlan> {
        self.plans
            .iter()
            .filter(|p| matches!(p.handle.kind, HandleKind::PageFault { .. }))
    }

    /// The distinct channels with at least one open plan, sorted.
    pub fn open_channels(&self) -> Vec<Channel> {
        let mut c: Vec<Channel> = self.plans.iter().map(|p| p.transmitter.channel).collect();
        c.sort_unstable();
        c.dedup();
        c
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "victim: {}", self.victim)?;
        writeln!(f, "  secrets: {}", self.secret_sources)?;
        writeln!(
            f,
            "  handles: {} | transmitters: {} | open plans: {} | closed pairs: {} (rob={})",
            self.handles.len(),
            self.transmitters.len(),
            self.plans.len(),
            self.closed_pairs,
            self.rob_size
        )?;
        for t in &self.transmitters {
            writeln!(f, "  transmit pc {:>3} [{}]: {}", t.pc, t.channel, t.reason)?;
        }
        for p in &self.plans {
            writeln!(f, "  plan: {p}")?;
        }
        Ok(())
    }
}

/// Runs the full static analysis: CFG + taint dataflow + transmitter
/// classification + handle enumeration + window reachability.
///
/// `phys`/`aspace` are the victim's *armed-from* memory image, used only
/// to check candidate handle pages against their
/// [`PteFlags`](microscope_mem::PteFlags)
/// (user-accessible mapped pages are the ones the attacker's OS can
/// clear the Present bit on).
pub fn analyze(
    name: &str,
    program: &Program,
    secrets: &SecretMap,
    sim: &SimConfig,
    phys: &PhysMem,
    aspace: AddressSpace,
) -> AnalysisReport {
    let cfg = Cfg::build(program);
    let taint = taint::analyze(program, &cfg, secrets);
    let transmitters = classify_transmitters(program, &cfg, &taint);
    let handles = enumerate_handles(program, &taint, phys, aspace);
    let rob = sim.core.rob_size;
    let serializing: Vec<bool> = program
        .iter()
        .map(|i| i.is_serializing(sim.core.rdrand_is_fenced))
        .collect();
    // Every memory access whose address resolves statically, in pc order.
    let const_mem: Vec<(usize, VAddr)> = program
        .iter()
        .enumerate()
        .filter_map(|(pc, inst)| {
            let (base, offset, _) = inst.memory_ref()?;
            Some((pc, taint.before(pc)?.resolve_addr(base, offset)?))
        })
        .collect();
    let mut bufs = HandleBuffers::new(program.len(), cfg.blocks().len());
    let mut plans = Vec::new();
    let mut closed = 0u64;
    for h in &handles {
        window_distances(program, h, &serializing, &mut bufs);
        seed_pcs(h, &const_mem, &mut bufs);
        handle_dependent_pcs(program, &cfg, &mut bufs);
        for t in &transmitters {
            match bufs.dist[t.pc] {
                Some(d) if d <= rob.saturating_sub(1) => plans.push(AttackPlan {
                    handle: *h,
                    transmitter: t.clone(),
                    distance: d,
                    handle_independent: !bufs.dependent[t.pc],
                }),
                _ => closed += 1,
            }
        }
    }
    // Handles and transmitters are both unique per pc and in pc order.
    debug_assert!(plans.is_sorted_by_key(|p| (p.handle.pc, p.transmitter.pc)));
    AnalysisReport {
        victim: name.to_string(),
        secret_sources: secrets.describe(),
        rob_size: rob,
        handles,
        transmitters,
        plans,
        closed_pairs: closed,
    }
}

/// Classifies transmitters from the taint result: tainted load/store
/// addresses (cache), tainted `divsd` operands (port), tainted branch
/// operands (branch), plus instructions control-dependent on a tainted
/// branch (divs leak through the port, memory ops through the cache —
/// the Figure 6 mul-vs-div victim transmits *only* this way).
fn classify_transmitters(program: &Program, cfg: &Cfg, taint: &TaintResult) -> Vec<Transmitter> {
    let mut out: Vec<Transmitter> = Vec::new();
    let mut is_transmitter = vec![false; program.len()];
    let mut secret_branches = Vec::new();
    for (pc, inst) in program.iter().enumerate() {
        let Some(state) = taint.before(pc) else {
            continue; // unreachable
        };
        match *inst {
            Inst::Load { base, .. } | Inst::Store { base, .. } if state.get(base).tainted => {
                out.push(Transmitter {
                    pc,
                    channel: Channel::Cache,
                    reason: format!("address in {base} is secret-dependent").into(),
                });
            }
            Inst::FOp {
                op: FpOp::Div,
                a,
                b,
                ..
            } if state.get(a).tainted || state.get(b).tainted => {
                out.push(Transmitter {
                    pc,
                    channel: Channel::Port,
                    reason: format!(
                        "divsd operand {} is secret-dependent",
                        if state.get(a).tainted { a } else { b }
                    )
                    .into(),
                });
            }
            Inst::Branch { a, b, .. } if state.get(a).tainted || state.get(b).tainted => {
                out.push(Transmitter {
                    pc,
                    channel: Channel::Branch,
                    reason: "branch condition is secret-dependent".into(),
                });
                secret_branches.push(pc);
            }
            _ => continue,
        }
        is_transmitter[pc] = true;
    }
    // Control-dependence pass: execution of either side of a secret branch
    // is itself the leak.
    for bpc in secret_branches {
        for pc in cfg.control_dependents(bpc) {
            if is_transmitter[pc] {
                continue;
            }
            let (channel, what) = match program.fetch(pc) {
                Some(Inst::FOp { op: FpOp::Div, .. }) => (Channel::Port, "divsd"),
                Some(Inst::Load { .. }) | Some(Inst::Store { .. }) => {
                    (Channel::Cache, "memory access")
                }
                _ => continue,
            };
            out.push(Transmitter {
                pc,
                channel,
                reason: format!("{what} control-dependent on secret branch at pc {bpc}").into(),
            });
            is_transmitter[pc] = true;
        }
    }
    out.sort_by_key(|t| t.pc);
    out
}

/// Per-handle work buffers, allocated once per [`analyze`] call and
/// reused for every handle.
struct HandleBuffers {
    /// [`window_distances`]' result.
    dist: Vec<Option<usize>>,
    /// [`window_distances`]' BFS queue of `(pc, distance)`.
    queue: VecDeque<(usize, usize)>,
    /// [`seed_pcs`]' result, as a per-pc mask.
    seed: Vec<bool>,
    /// [`handle_dependent_pcs`]' result.
    dependent: Vec<bool>,
    /// [`handle_dependent_pcs`]' bitmask of handle-dependent registers at
    /// each block entry (`Reg::COUNT` is 32, comfortably within u64).
    block_in: Vec<Option<u64>>,
    /// [`handle_dependent_pcs`]' worklist of blocks.
    work: Vec<usize>,
}

impl HandleBuffers {
    fn new(n: usize, nb: usize) -> HandleBuffers {
        HandleBuffers {
            dist: vec![None; n],
            queue: VecDeque::new(),
            seed: vec![false; n],
            dependent: vec![false; n],
            block_in: vec![None; nb],
            work: Vec::new(),
        }
    }
}

/// Marks in `bufs.seed` the pcs that fault alongside the handle while its
/// page is armed: the handle itself and, for a page-fault handle, every
/// const-resolved access to the same page that `bufs.dist` reaches —
/// at *any* fetch distance short of a serializing instruction, not only
/// within the ROB. `const_mem` lists the statically resolved memory
/// accesses as `(pc, vaddr)`. Arming clears the Present bit on the whole
/// *page*, so those accesses never forward a value inside the handle's
/// windows either. Same-page accesses *older* than the handle are
/// excluded: the module's stepwise replay (handle/pivot alternation) has
/// already serviced them by the time the planned handle faults — the
/// paper's per-round `rk`-access walk through AES. The seeds decide
/// [`AttackPlan::handle_independent`].
fn seed_pcs(handle: &Handle, const_mem: &[(usize, VAddr)], bufs: &mut HandleBuffers) {
    bufs.seed.fill(false);
    bufs.seed[handle.pc] = true;
    let HandleKind::PageFault { vaddr, .. } = handle.kind else {
        return;
    };
    for &(pc, a) in const_mem {
        if bufs.dist[pc].is_some() && a.same_page(vaddr) {
            bufs.seed[pc] = true;
        }
    }
}

/// Forward register-dependence closure from the seed instructions'
/// destinations (`bufs.seed`): `bufs.dependent[pc]` becomes true when the
/// instruction at `pc` reads a register whose value may derive from a
/// seed's result along some path. Worklist fixpoint over the CFG with
/// may-union at joins and strong kills on overwrite within a block;
/// memory-carried dependence is not tracked (see
/// [`AttackPlan::handle_independent`]).
fn handle_dependent_pcs(program: &Program, cfg: &Cfg, bufs: &mut HandleBuffers) {
    let HandleBuffers {
        seed,
        dependent,
        block_in,
        work,
        ..
    } = bufs;
    block_in.fill(None);
    block_in[0] = Some(0);
    dependent.fill(false);
    work.push(0);
    while let Some(b) = work.pop() {
        let Some(mut mask) = block_in[b] else {
            continue;
        };
        for pc in cfg.blocks()[b].pcs() {
            let inst = program.fetch(pc).expect("pc in range");
            let from_srcs = inst
                .sources()
                .iter()
                .any(|r| mask & (1u64 << r.index()) != 0);
            if from_srcs {
                dependent[pc] = true;
            }
            if let Some(d) = inst.dst() {
                if seed[pc] || from_srcs {
                    mask |= 1u64 << d.index();
                } else {
                    mask &= !(1u64 << d.index());
                }
            }
        }
        for &s in &cfg.blocks()[b].succs {
            if s == cfg.exit() {
                continue;
            }
            let next = block_in[s].unwrap_or(0) | mask;
            if block_in[s] != Some(next) {
                block_in[s] = Some(next);
                work.push(s);
            }
        }
    }
}

/// Enumerates replay-handle candidates: memory accesses to statically
/// resolvable, user-mapped addresses (the OS clears their Present bit),
/// TSX regions, and conditional branches.
fn enumerate_handles(
    program: &Program,
    taint: &TaintResult,
    phys: &PhysMem,
    aspace: AddressSpace,
) -> Vec<Handle> {
    let mut out = Vec::new();
    for (pc, inst) in program.iter().enumerate() {
        let Some(state) = taint.before(pc) else {
            continue;
        };
        match *inst {
            Inst::Load { .. } | Inst::Store { .. } => {
                let (base, offset, is_store) = inst.memory_ref().expect("memory inst");
                let Some(vaddr) = state.resolve_addr(base, offset) else {
                    continue; // address unknown statically: not targetable
                };
                // Faultable per PteFlags: a user-accessible mapped page is
                // exactly what the attacker OS can make non-present.
                match aspace.translate(phys, vaddr, is_store) {
                    Ok(t) if t.flags.user && t.flags.present => out.push(Handle {
                        pc,
                        kind: HandleKind::PageFault { vaddr, is_store },
                    }),
                    _ => {}
                }
            }
            Inst::XBegin { .. } => out.push(Handle {
                pc,
                kind: HandleKind::TsxAbort,
            }),
            Inst::Branch { .. } => out.push(Handle {
                pc,
                kind: HandleKind::Mispredict,
            }),
            _ => {}
        }
    }
    out
}

/// BFS over fetch successors from the handle: `bufs.dist[pc]` becomes
/// the minimum number of instructions fetched after the handle before
/// `pc` issues in its shadow, or `None` when unreachable without crossing
/// a serializing instruction (`serializing[pc]`: `Fence`; `RdRand` when
/// the core fences it; `XEnd` for TSX handles, whose replay scope is the
/// transaction body). A serializing transmitter cannot issue
/// speculatively at all, so serializing pcs stay `None` themselves.
fn window_distances(
    program: &Program,
    handle: &Handle,
    serializing: &[bool],
    bufs: &mut HandleBuffers,
) {
    let n = program.len();
    let HandleBuffers { dist, queue, .. } = bufs;
    dist.fill(None);
    let stop_at_xend = matches!(handle.kind, HandleKind::TsxAbort);
    let mut visit = |s: usize, d: usize, queue: &mut VecDeque<(usize, usize)>| {
        if s < n && dist[s].is_none() && !serializing[s] {
            dist[s] = Some(d);
            queue.push_back((s, d));
        }
    };
    // The wrong path of a mispredicted branch covers both successors; a
    // faulting access or xbegin continues at its fall-through.
    visit(handle.pc + 1, 1, queue);
    if let HandleKind::Mispredict = handle.kind {
        let start_inst = program.fetch(handle.pc).expect("handle pc in range");
        if let Some(t) = start_inst.control_target() {
            visit(t, 1, queue);
        }
    }
    while let Some((pc, d)) = queue.pop_front() {
        let inst = program.fetch(pc).expect("pc in range");
        // XEnd commits a TSX region: nothing younger replays with it.
        if stop_at_xend && matches!(inst, Inst::XEnd) {
            continue;
        }
        if inst.falls_through() {
            visit(pc + 1, d + 1, queue);
        }
        if let Some(t) = inst.control_target() {
            visit(t, d + 1, queue);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_cpu::{Assembler, CoreConfig, Reg};
    use microscope_mem::{PteFlags, PAGE_BYTES};

    fn setup() -> (PhysMem, AddressSpace) {
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        (phys, aspace)
    }

    fn map_user(phys: &mut PhysMem, aspace: AddressSpace, va: VAddr) {
        aspace.alloc_map(phys, va, PAGE_BYTES, PteFlags::user_data());
    }

    fn sim_with_rob(rob: usize) -> SimConfig {
        let mut sim = SimConfig::new();
        sim.core = CoreConfig {
            rob_size: rob,
            ..sim.core
        };
        sim
    }

    #[test]
    fn handle_shadows_transmitter_within_rob() {
        let (mut phys, aspace) = setup();
        map_user(&mut phys, aspace, VAddr(0x1000)); // handle page
        map_user(&mut phys, aspace, VAddr(0x2000)); // secret page
        let secrets = SecretMap::new().region(VAddr(0x2000), 8, "s");
        let mut asm = Assembler::new();
        asm.imm(Reg(1), 0x2000)
            .load(Reg(2), Reg(1), 0) // secret into r2
            .imm(Reg(3), 0x1000)
            .load(Reg(4), Reg(3), 0) // handle
            .alu(microscope_cpu::AluOp::Add, Reg(5), Reg(2), Reg(3))
            .load(Reg(6), Reg(5), 0) // transmitter (tainted address)
            .halt();
        let p = asm.finish();
        let r = analyze("t", &p, &secrets, &sim_with_rob(192), &phys, aspace);
        assert!(r.has_open_plans());
        let plan = r
            .plans
            .iter()
            .find(|pl| pl.handle.pc == 3 && pl.transmitter.pc == 5)
            .expect("handle@3 shadows transmitter@5");
        assert_eq!(plan.distance, 2);
        assert_eq!(plan.transmitter.channel, Channel::Cache);
    }

    #[test]
    fn fence_between_handle_and_transmitter_closes_the_window() {
        let (mut phys, aspace) = setup();
        map_user(&mut phys, aspace, VAddr(0x1000));
        map_user(&mut phys, aspace, VAddr(0x2000));
        let secrets = SecretMap::new().region(VAddr(0x2000), 8, "s");
        let mut asm = Assembler::new();
        asm.imm(Reg(1), 0x2000)
            .load(Reg(2), Reg(1), 0)
            .imm(Reg(3), 0x1000)
            .load(Reg(4), Reg(3), 0) // handle at pc 3
            .fence()
            .fdiv(Reg(5), Reg(2), Reg(2)) // transmitter behind the fence
            .halt();
        let p = asm.finish();
        let r = analyze("t", &p, &secrets, &sim_with_rob(192), &phys, aspace);
        assert!(
            !r.plans
                .iter()
                .any(|pl| pl.handle.pc == 3 && pl.transmitter.pc == 5),
            "fence must close the handle@3 window"
        );
        // The transmitter itself is still classified.
        assert!(r.transmitters.iter().any(|t| t.pc == 5));
        assert!(r.closed_pairs > 0);
    }

    #[test]
    fn tiny_rob_closes_distant_windows() {
        let (mut phys, aspace) = setup();
        map_user(&mut phys, aspace, VAddr(0x1000));
        map_user(&mut phys, aspace, VAddr(0x2000));
        let secrets = SecretMap::new().region(VAddr(0x2000), 8, "s");
        let mut asm = Assembler::new();
        asm.imm(Reg(1), 0x2000).load(Reg(2), Reg(1), 0);
        asm.imm(Reg(3), 0x1000).load(Reg(4), Reg(3), 0); // handle pc 3
        for _ in 0..10 {
            asm.nop();
        }
        asm.fdiv(Reg(5), Reg(2), Reg(2)); // pc 14, distance 11
        asm.halt();
        let p = asm.finish();
        let wide = analyze("t", &p, &secrets, &sim_with_rob(192), &phys, aspace);
        assert!(wide
            .plans
            .iter()
            .any(|pl| pl.handle.pc == 3 && pl.transmitter.pc == 14));
        let narrow = analyze("t", &p, &secrets, &sim_with_rob(8), &phys, aspace);
        assert!(
            !narrow
                .plans
                .iter()
                .any(|pl| pl.handle.pc == 3 && pl.transmitter.pc == 14),
            "rob=8 cannot reach 11 instructions deep"
        );
    }

    #[test]
    fn mispredict_handle_covers_both_sides() {
        let (mut phys, aspace) = setup();
        map_user(&mut phys, aspace, VAddr(0x2000));
        let secrets = SecretMap::new().region(VAddr(0x2000), 8, "s");
        let mut asm = Assembler::new();
        let side = asm.label();
        asm.imm(Reg(1), 0x2000)
            .load(Reg(2), Reg(1), 0)
            .branch(microscope_cpu::Cond::Eq, Reg(3), Reg(3), side) // public branch, pc 2
            .fdiv(Reg(5), Reg(2), Reg(2)); // fall side transmitter, pc 3
        asm.bind(side);
        asm.halt();
        let p = asm.finish();
        let r = analyze("t", &p, &secrets, &sim_with_rob(64), &phys, aspace);
        assert!(r
            .plans
            .iter()
            .any(|pl| matches!(pl.handle.kind, HandleKind::Mispredict)
                && pl.handle.pc == 2
                && pl.transmitter.pc == 3));
    }

    #[test]
    fn handle_dependence_is_annotated_per_plan() {
        let (mut phys, aspace) = setup();
        map_user(&mut phys, aspace, VAddr(0x1000)); // handle page
        map_user(&mut phys, aspace, VAddr(0x2000)); // secret page
        let secrets = SecretMap::new().region(VAddr(0x2000), 8, "s");
        let mut asm = Assembler::new();
        asm.imm(Reg(1), 0x2000)
            .load(Reg(2), Reg(1), 0) // pc 1: secret load — dependent handle
            .imm(Reg(3), 0x1000)
            .load(Reg(4), Reg(3), 0) // pc 3: unrelated load — independent handle
            .imm_f64(Reg(6), 1.5)
            .fdiv(Reg(5), Reg(2), Reg(6)) // pc 5: transmitter reads pc 1's value
            .halt();
        let p = asm.finish();
        let r = analyze("t", &p, &secrets, &sim_with_rob(192), &phys, aspace);
        let via_secret = r
            .plans
            .iter()
            .find(|pl| pl.handle.pc == 1 && pl.transmitter.pc == 5)
            .expect("secret-load handle plan");
        assert!(
            !via_secret.handle_independent,
            "transmitter reads the faulted handle's own value"
        );
        let via_other = r
            .plans
            .iter()
            .find(|pl| pl.handle.pc == 3 && pl.transmitter.pc == 5)
            .expect("unrelated handle plan");
        assert!(
            via_other.handle_independent,
            "transmitter operands owe nothing to the pc-3 handle"
        );
    }

    #[test]
    fn same_page_accesses_inside_the_window_taint_dependence() {
        // Arming a handle clears the Present bit on the whole page, so a
        // *different* load from the same page inside the window faults
        // too — anything reading its value is handle-dependent. A load
        // from the same page *older* than the handle stays out of the
        // seed set (stepwise replay services it in an earlier step).
        let (mut phys, aspace) = setup();
        map_user(&mut phys, aspace, VAddr(0x1000)); // handle page
        map_user(&mut phys, aspace, VAddr(0x2000)); // secret page
        let secrets = SecretMap::new().region(VAddr(0x2000), 8, "s");
        let mut asm = Assembler::new();
        asm.imm(Reg(1), 0x2000)
            .load(Reg(2), Reg(1), 0) // pc 1: secret load (pre-window)
            .imm(Reg(3), 0x1000)
            .load(Reg(4), Reg(3), 0) // pc 3: handle
            .load(Reg(7), Reg(3), 8) // pc 4: same page, inside the window
            .imm_f64(Reg(6), 1.5)
            .fdiv(Reg(5), Reg(2), Reg(6)) // pc 6: independent of the page
            .fdiv(Reg(8), Reg(2), Reg(7)) // pc 7: reads pc 4's value
            .halt();
        let p = asm.finish();
        let r = analyze("t", &p, &secrets, &sim_with_rob(192), &phys, aspace);
        let clean = r
            .plans
            .iter()
            .find(|pl| pl.handle.pc == 3 && pl.transmitter.pc == 6)
            .expect("independent transmitter plan");
        assert!(clean.handle_independent);
        let poisoned = r
            .plans
            .iter()
            .find(|pl| pl.handle.pc == 3 && pl.transmitter.pc == 7)
            .expect("same-page-dependent transmitter plan");
        assert!(
            !poisoned.handle_independent,
            "pc 7 reads a value loaded from the armed page inside the window"
        );
        // Flip the perspective: with pc 4 as the handle, the older pc 3
        // access does not seed dependence — pc 6 stays independent.
        let older_excluded = r
            .plans
            .iter()
            .find(|pl| pl.handle.pc == 4 && pl.transmitter.pc == 6)
            .expect("handle@4 plan");
        assert!(older_excluded.handle_independent);
    }

    #[test]
    fn unmapped_pages_are_not_page_fault_handles() {
        let (mut phys, aspace) = setup();
        map_user(&mut phys, aspace, VAddr(0x2000));
        let secrets = SecretMap::new().region(VAddr(0x2000), 8, "s");
        let mut asm = Assembler::new();
        asm.imm(Reg(1), 0x9_0000) // never mapped
            .load(Reg(2), Reg(1), 0)
            .halt();
        let p = asm.finish();
        let r = analyze("t", &p, &secrets, &sim_with_rob(64), &phys, aspace);
        assert!(
            !r.handles
                .iter()
                .any(|h| matches!(h.kind, HandleKind::PageFault { .. })),
            "unmapped access is an honest fault, not a replay handle"
        );
    }
}
