//! Replay-handle enumeration, speculation-window reachability, and the
//! `(handle, transmitter, channel)` attack-plan report.

use crate::cfg::Cfg;
use crate::taint::{self, TaintResult};
use microscope_core::SimConfig;
use microscope_cpu::{FpOp, Inst, Program, Reg};
use microscope_mem::{AddressSpace, PhysMem, VAddr};
use microscope_victims::SecretMap;
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
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Copy, Debug, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
pub struct AttackPlan {
    /// The replay handle.
    pub handle: Handle,
    /// The transmitter it shadows.
    pub transmitter: Transmitter,
    /// Fetch distance from handle to transmitter (must fit in the ROB).
    pub distance: usize,
    /// Whether the transmitter's operands are free of any register
    /// dataflow from the handle's result — or from any const-address load
    /// of the same page that the handle reaches short of a serializing
    /// instruction, at any distance, since arming clears the Present bit
    /// on the whole page. A faulted access never forwards its value, so a
    /// dependent transmitter cannot issue inside the very window the
    /// handle opens — independent plans are the ones worth replaying
    /// (the paper's `rk` loads vs. `Td` lookups split). [`analyze`]
    /// decides it with one AND of the transmitter's source labels and
    /// the handle's seed mask, both from passes it runs once per call.
    /// Register dataflow only; dependence carried through memory is not
    /// tracked, so this is a prioritization hint, not a guarantee.
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
#[derive(Clone, Debug, PartialEq)]
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
    let labels = SeedLabels::new(program, &taint, &handles);
    let reach = reachable_seeds(program, &serializing, &labels);
    let src_labels = labelled_dependence(program, &cfg, &labels);
    let w = labels.words;
    let mut window = Window::new(program.len());
    let mut seeds = vec![0u64; w];
    let mut plans = Vec::new();
    let mut closed = 0u64;
    for h in &handles {
        window.distances(program, h, &serializing, rob.saturating_sub(1));
        labels.seed_mask(h, &reach, &mut seeds);
        for t in &transmitters {
            let Some(d) = window.dist[t.pc] else {
                closed += 1;
                continue;
            };
            let srcs = &src_labels[t.pc * w..(t.pc + 1) * w];
            plans.push(AttackPlan {
                handle: *h,
                transmitter: t.clone(),
                distance: d,
                handle_independent: srcs.iter().zip(&seeds).all(|(a, b)| a & b == 0),
            });
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

/// The seed labels of one [`analyze`] call: one bit for every pc whose
/// own result can seed a handle's dependence. Those are the
/// register-writing const-address accesses (the loads an armed page makes
/// fault alongside the handle) and the other register-writing handles (a
/// TSX handle's `xbegin`). A pc that writes no register seeds nothing and
/// gets no label. The const-address loads come first, ordered by page, so
/// each page's loads form one contiguous run of labels.
struct SeedLabels {
    /// `u64` words per label bitset.
    words: usize,
    /// The label of each pc, if it has one.
    of_pc: Vec<Option<usize>>,
    /// The page number of each const-address load label, in label order.
    load_pages: Vec<u64>,
}

impl SeedLabels {
    fn new(program: &Program, taint: &TaintResult, handles: &[Handle]) -> SeedLabels {
        let mut loads: Vec<(u64, usize)> = program
            .iter()
            .enumerate()
            .filter_map(|(pc, inst)| {
                let (base, offset, _) = inst.memory_ref()?;
                inst.dst()?;
                Some((taint.before(pc)?.resolve_addr(base, offset)?.vpn(), pc))
            })
            .collect();
        loads.sort_unstable();
        let mut of_pc = vec![None; program.len()];
        for (label, &(_, pc)) in loads.iter().enumerate() {
            of_pc[pc] = Some(label);
        }
        let mut count = loads.len();
        for h in handles {
            if of_pc[h.pc].is_none() && program.fetch(h.pc).and_then(|i| i.dst()).is_some() {
                of_pc[h.pc] = Some(count);
                count += 1;
            }
        }
        SeedLabels {
            words: count.div_ceil(64),
            of_pc,
            load_pages: loads.into_iter().map(|(vpn, _)| vpn).collect(),
        }
    }

    /// The label of `pc` if it is a const-address load.
    fn load_label(&self, pc: usize) -> Option<usize> {
        self.of_pc[pc].filter(|&l| l < self.load_pages.len())
    }

    /// Writes into `mask` the labels of the pcs that fault alongside
    /// `handle` while its page is armed: the handle itself and, for a
    /// page-fault handle, every const-address load of the same page that
    /// its fall-through reaches (`reach`, from [`reachable_seeds`]) — at
    /// *any* fetch distance short of a serializing instruction, not only
    /// within the ROB. Arming clears the Present bit on the whole *page*,
    /// so those accesses never forward a value inside the handle's windows
    /// either. Same-page accesses *older* than the handle are excluded:
    /// the module's stepwise replay (handle/pivot alternation) has already
    /// serviced them by the time the planned handle faults — the paper's
    /// per-round `rk`-access walk through AES. The seeds decide
    /// [`AttackPlan::handle_independent`].
    fn seed_mask(&self, handle: &Handle, reach: &[u64], mask: &mut [u64]) {
        mask.fill(0);
        let w = self.words;
        if let HandleKind::PageFault { vaddr, .. } = handle.kind {
            let lo = self.load_pages.partition_point(|&v| v < vaddr.vpn());
            let hi = self.load_pages.partition_point(|&v| v <= vaddr.vpn());
            if let Some(row) = reach.get((handle.pc + 1) * w..(handle.pc + 2) * w) {
                // Word `i` holds labels `64 * i ..`; keep those in `lo..hi`.
                for i in lo / 64..hi.div_ceil(64) {
                    let below = |end: usize| match end.saturating_sub(64 * i) {
                        k if k >= 64 => u64::MAX,
                        k => (1u64 << k) - 1,
                    };
                    mask[i] = row[i] & below(hi) & !below(lo);
                }
            }
        }
        if let Some(l) = self.of_pc[handle.pc] {
            mask[l / 64] |= 1 << (l % 64);
        }
    }
}

/// For every pc, the const-address loads reachable from it along fetch
/// successors without entering a serializing instruction
/// (`serializing[pc]`), `pc` itself included: one row of `labels.words`
/// words per pc, indexed by seed label. A serializing pc's row stays
/// empty. Rows only grow, so sweeping pcs last to first until nothing
/// changes settles forward edges in one sweep and needs one more per loop
/// level.
fn reachable_seeds(program: &Program, serializing: &[bool], labels: &SeedLabels) -> Vec<u64> {
    let (n, w) = (program.len(), labels.words);
    let mut reach = vec![0u64; n * w];
    let mut row = vec![0u64; w];
    let mut changed = true;
    while changed {
        changed = false;
        for pc in (0..n).rev() {
            let Some(inst) = program.fetch(pc).filter(|_| !serializing[pc]) else {
                continue;
            };
            row.copy_from_slice(&reach[pc * w..(pc + 1) * w]);
            if let Some(l) = labels.load_label(pc) {
                row[l / 64] |= 1 << (l % 64);
            }
            let succs = [
                inst.falls_through().then_some(pc + 1),
                inst.control_target(),
            ];
            for s in succs.into_iter().flatten().filter(|&s| s < n) {
                for (a, &x) in row.iter_mut().zip(&reach[s * w..(s + 1) * w]) {
                    *a |= x;
                }
            }
            let cur = &mut reach[pc * w..(pc + 1) * w];
            if *cur != row[..] {
                cur.copy_from_slice(&row);
                changed = true;
            }
        }
    }
    reach
}

/// One forward register-dependence pass over the CFG from block 0 for
/// every seed label at once. Each register carries the labels its value
/// may derive from; a labelled pc's destination gains its own label. The
/// result holds, per pc, the union of the labels its sources carry
/// (`labels.words` words per pc). Worklist fixpoint with may-union at
/// joins and strong kills on overwrite within a block; blocks are swept
/// in index order, so forward edges settle in one sweep. The transfer
/// function distributes over union, so a pc reads a value derived from a
/// seed set exactly when its row meets the set's labels: this is every
/// handle's closure in one pass. Memory-carried dependence is not tracked
/// (see [`AttackPlan::handle_independent`]).
fn labelled_dependence(program: &Program, cfg: &Cfg, labels: &SeedLabels) -> Vec<u64> {
    let w = labels.words;
    let rw = Reg::COUNT * w;
    let blocks = cfg.blocks();
    let mut block_in = vec![0u64; blocks.len() * rw];
    let mut reached = vec![false; blocks.len()];
    let mut pending = vec![false; blocks.len()];
    let mut regs = vec![0u64; rw];
    let mut srcs = vec![0u64; w];
    let mut out = vec![0u64; program.len() * w];
    reached[0] = true;
    pending[0] = true;
    let mut sweep = true;
    while sweep {
        sweep = false;
        for (b, blk) in blocks.iter().enumerate() {
            if !std::mem::take(&mut pending[b]) {
                continue;
            }
            regs.copy_from_slice(&block_in[b * rw..(b + 1) * rw]);
            for pc in blk.pcs() {
                let Some(inst) = program.fetch(pc) else {
                    break;
                };
                srcs.fill(0);
                for r in inst.sources().iter() {
                    let carried = &regs[r.index() * w..(r.index() + 1) * w];
                    for (a, &x) in srcs.iter_mut().zip(carried) {
                        *a |= x;
                    }
                }
                for (a, &x) in out[pc * w..(pc + 1) * w].iter_mut().zip(&srcs) {
                    *a |= x;
                }
                if let Some(d) = inst.dst() {
                    let dst = &mut regs[d.index() * w..(d.index() + 1) * w];
                    dst.copy_from_slice(&srcs);
                    if let Some(l) = labels.of_pc[pc] {
                        dst[l / 64] |= 1 << (l % 64);
                    }
                }
            }
            for &s in &blk.succs {
                if s == cfg.exit() {
                    continue;
                }
                let mut changed = !std::mem::replace(&mut reached[s], true);
                for (a, &x) in block_in[s * rw..(s + 1) * rw].iter_mut().zip(&regs) {
                    changed |= x & !*a != 0;
                    *a |= x;
                }
                if changed {
                    pending[s] = true;
                    sweep |= s <= b;
                }
            }
        }
    }
    out
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
                let Some((base, offset, is_store)) = inst.memory_ref() else {
                    continue;
                };
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

/// The per-handle window BFS, allocated once per [`analyze`] call and
/// reused for every handle.
struct Window {
    /// Fetch distance of each pc from the current handle, `None` outside
    /// its window.
    dist: Vec<Option<usize>>,
    /// The pcs the current BFS reached, in visiting order: its queue, and
    /// the only entries of `dist` the next BFS has to reset.
    reached: Vec<usize>,
}

impl Window {
    fn new(n: usize) -> Window {
        Window {
            dist: vec![None; n],
            reached: Vec::new(),
        }
    }

    /// BFS over fetch successors from the handle, at most `max_dist`
    /// deep: `dist[pc]` becomes the minimum number of instructions fetched
    /// after the handle before `pc` issues in its shadow, or `None` when
    /// that is beyond `max_dist` (the ROB holds the handle plus
    /// `rob_size - 1` younger instructions) or unreachable without
    /// crossing a serializing instruction (`serializing[pc]`: `Fence`;
    /// `RdRand` when the core fences it; `XEnd` for TSX handles, whose
    /// replay scope is the transaction body). A serializing transmitter
    /// cannot issue speculatively at all, so serializing pcs stay `None`
    /// themselves.
    fn distances(
        &mut self,
        program: &Program,
        handle: &Handle,
        serializing: &[bool],
        max_dist: usize,
    ) {
        for &pc in &self.reached {
            self.dist[pc] = None;
        }
        self.reached.clear();
        let stop_at_xend = matches!(handle.kind, HandleKind::TsxAbort);
        // The wrong path of a mispredicted branch covers both successors; a
        // faulting access or xbegin continues at its fall-through.
        self.visit(handle.pc + 1, 1, serializing, max_dist);
        if let HandleKind::Mispredict = handle.kind {
            if let Some(t) = program.fetch(handle.pc).and_then(|i| i.control_target()) {
                self.visit(t, 1, serializing, max_dist);
            }
        }
        let mut head = 0;
        while let Some(&pc) = self.reached.get(head) {
            head += 1;
            let (Some(d), Some(inst)) = (self.dist[pc], program.fetch(pc)) else {
                continue;
            };
            // XEnd commits a TSX region: nothing younger replays with it.
            if stop_at_xend && matches!(inst, Inst::XEnd) {
                continue;
            }
            if inst.falls_through() {
                self.visit(pc + 1, d + 1, serializing, max_dist);
            }
            if let Some(t) = inst.control_target() {
                self.visit(t, d + 1, serializing, max_dist);
            }
        }
    }

    fn visit(&mut self, pc: usize, d: usize, serializing: &[bool], max_dist: usize) {
        if d <= max_dist && serializing.get(pc) == Some(&false) && self.dist[pc].is_none() {
            self.dist[pc] = Some(d);
            self.reached.push(pc);
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
