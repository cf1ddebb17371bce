//! One SMT hardware context: architectural state plus its ROB window.

use crate::isa::{Inst, Reg};
use crate::program::Program;
use crate::rob::RobEntry;
use crate::stats::ContextStats;
use microscope_cache::{LineAddr, PAddr};
use microscope_mem::AddressSpace;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Identifies a hardware context (0 or 1 on a 2-way SMT core).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextId(pub usize);

impl From<usize> for ContextId {
    fn from(v: usize) -> Self {
        ContextId(v)
    }
}

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// An active hardware transaction (Intel-TSX-style).
#[derive(Clone, Debug)]
pub struct Txn {
    /// Where control transfers on abort.
    pub abort_target: usize,
    /// Architectural register snapshot restored on abort.
    pub snapshot_regs: [u64; Reg::COUNT],
    /// Buffered (not yet globally visible) stores: (paddr, value, size).
    pub write_buffer: Vec<(PAddr, u64, u8)>,
    /// Cache lines in the write set; losing any of them from the cache
    /// hierarchy aborts the transaction — the §7.1 attacker-controlled
    /// replay handle ("TSX will abort a transaction if dirty data is evicted
    /// from the private cache").
    pub write_lines: Vec<LineAddr>,
}

impl Txn {
    /// The most recent buffered value covering `paddr` with `size`, if any
    /// (transactional store-to-load forwarding).
    pub fn forwarded_value(&self, paddr: PAddr, size: u8) -> Option<u64> {
        self.write_buffer
            .iter()
            .rev()
            .find(|(p, _, s)| *p == paddr && *s == size)
            .map(|(_, v, _)| *v)
    }
}

/// Abort cause codes written to [`Reg::TXN_ABORT_CODE`].
pub(crate) mod abort_code {
    /// Page fault inside the transaction.
    pub const FAULT: u64 = 1;
    /// Write-set line lost from the cache hierarchy (conflict/eviction).
    pub const CONFLICT: u64 = 2;
    /// Explicit `XAbort` (the code operand occupies the upper byte).
    pub const EXPLICIT: u64 = 3;
}

/// One hardware context.
#[derive(Clone, Debug)]
pub struct Context {
    /// This context's id.
    pub(crate) id: ContextId,
    /// The program it runs.
    pub(crate) program: Program,
    /// Its address space (CR3 + PCID).
    pub(crate) aspace: AddressSpace,
    /// Next fetch pc.
    pub(crate) pc: usize,
    /// Architectural register file.
    pub(crate) arch_regs: [u64; Reg::COUNT],
    /// The reorder buffer window.
    pub(crate) rob: VecDeque<RobEntry>,
    /// Register alias table: youngest in-flight producer per register.
    pub(crate) rat: [Option<u64>; Reg::COUNT],
    /// Set when `Halt` retires (or the program runs out with an empty ROB).
    pub(crate) halted: bool,
    /// Set when fetch passed a `Halt` or the end of the program.
    pub(crate) fetch_stopped: bool,
    /// Fetch resumes at this cycle (squash penalties, fault handlers).
    pub(crate) fetch_stalled_until: u64,
    /// RDRAND entropy seed (deterministic per context).
    pub(crate) rdrand_seed: u64,
    /// Active transaction, if any.
    pub(crate) txn: Option<Txn>,
    /// The next dispatched instruction must act as a fence
    /// (fence-after-pipeline-flush defense).
    pub(crate) post_flush_fence: bool,
    /// Stepping interrupt period (retired instructions), if armed.
    pub(crate) step_every: Option<u64>,
    /// Retired instructions since the last stepping interrupt.
    pub(crate) retires_since_step: u64,
    /// Completion calendar: `(done_at, seq)` of every `Executing` entry,
    /// earliest first. The complete stage pops what is due; its head is
    /// fast-forward's next completion wake.
    pub(crate) calendar: BinaryHeap<Reverse<(u64, u64)>>,
    /// Seqs of `Waiting` entries with every operand ready, ascending: the
    /// issue stage's candidates.
    pub(crate) ready: Vec<u64>,
    /// Seqs of `Waiting` stores, ascending: what memory disambiguation
    /// checks a younger load against.
    pub(crate) stores: Vec<u64>,
    /// Seqs of entries that block younger issue (fences) and are not yet
    /// `Done`, ascending.
    pub(crate) fences: Vec<u64>,
    /// Statistics.
    pub(crate) stats: ContextStats,
}

impl Context {
    pub(crate) fn new(id: ContextId, program: Program, aspace: AddressSpace, seed: u64) -> Self {
        Context {
            id,
            program,
            aspace,
            pc: 0,
            arch_regs: [0; Reg::COUNT],
            rob: VecDeque::new(),
            rat: [None; Reg::COUNT],
            halted: false,
            fetch_stopped: false,
            fetch_stalled_until: 0,
            rdrand_seed: seed,
            txn: None,
            post_flush_fence: false,
            step_every: None,
            retires_since_step: 0,
            calendar: BinaryHeap::new(),
            ready: Vec::new(),
            stores: Vec::new(),
            fences: Vec::new(),
            stats: ContextStats::default(),
        }
    }

    /// This context's id.
    pub fn id(&self) -> ContextId {
        self.id
    }

    /// The architectural (retired) value of a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.arch_regs[r.index()]
    }

    /// The architectural value of a register, as an `f64`.
    pub fn reg_f64(&self, r: Reg) -> f64 {
        f64::from_bits(self.reg(r))
    }

    /// Sets a register architecturally (host-side setup between runs).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.arch_regs[r.index()] = value;
    }

    /// The context's address space handle.
    pub fn aspace(&self) -> AddressSpace {
        self.aspace
    }

    /// Current fetch pc.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Whether the context has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether a transaction is active.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// The program this context runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Execution statistics.
    pub fn stats(&self) -> &ContextStats {
        &self.stats
    }

    /// Number of in-flight (un-retired) instructions.
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// ROB position of the live entry `seq` (the ROB is seq-sorted).
    pub(crate) fn index_of(&self, seq: u64) -> usize {
        self.rob.partition_point(|e| e.seq < seq)
    }

    /// Appends a freshly dispatched entry (operands already captured) and
    /// threads it into the RAT, the consumer lists and the issue lists.
    pub(crate) fn dispatch(&mut self, e: RobEntry) {
        let seq = e.seq;
        if e.srcs_ready() {
            self.ready.push(seq);
        }
        if matches!(e.inst, Inst::Store { .. }) {
            self.stores.push(seq);
        }
        if e.blocks_younger {
            self.fences.push(seq);
        }
        if let Some(dst) = e.dst() {
            self.rat[dst.index()] = Some(seq);
        }
        self.rob.push_back(e);
        self.link(self.rob.len() - 1);
    }

    /// Threads ROB entry `j` onto the consumer list of each producer it
    /// waits on.
    fn link(&mut self, j: usize) {
        let (seq, srcs) = (self.rob[j].seq, self.rob[j].srcs);
        for (slot, p) in srcs.producers() {
            let producer = self.index_of(p);
            let head = std::mem::replace(&mut self.rob[producer].consumers, seq);
            self.rob[j].next_consumer[slot] = head;
        }
    }

    /// Pops the oldest entry of the calendar whose completion is due.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<u64> {
        match self.calendar.peek() {
            Some(&Reverse((done_at, seq))) if done_at <= now => {
                self.calendar.pop();
                Some(seq)
            }
            _ => None,
        }
    }

    /// Discards every in-flight instruction; returns how many were dropped.
    pub(crate) fn squash_all(&mut self) -> usize {
        let n = self.rob.len();
        self.rob.clear();
        self.rat = [None; Reg::COUNT];
        self.calendar.clear();
        self.ready.clear();
        self.stores.clear();
        self.fences.clear();
        n
    }

    /// Discards entries strictly younger than `seq`; returns the count.
    /// The RAT and the consumer lists are rebuilt from the survivors.
    pub(crate) fn squash_younger_than(&mut self, seq: u64) -> usize {
        let keep = self.index_of(seq + 1);
        let n = self.rob.len() - keep;
        self.rob.truncate(keep);
        for list in [&mut self.ready, &mut self.stores, &mut self.fences] {
            list.truncate(list.partition_point(|&s| s <= seq));
        }
        self.calendar.retain(|&Reverse((_, s))| s <= seq);
        self.rat = [None; Reg::COUNT];
        for j in 0..keep {
            self.rob[j].consumers = 0;
            if let Some(dst) = self.rob[j].dst() {
                self.rat[dst.index()] = Some(self.rob[j].seq);
            }
            self.link(j);
        }
        n
    }

    /// Checks the incremental state against a plain walk of the ROB.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn audit(&self) {
        use crate::rob::RobState;
        let seqs = |f: &dyn Fn(&RobEntry) -> bool| -> Vec<u64> {
            self.rob.iter().filter(|e| f(e)).map(|e| e.seq).collect()
        };
        let waiting = |e: &RobEntry| e.state == RobState::Waiting;
        assert_eq!(self.ready, seqs(&|e| waiting(e) && e.srcs_ready()));
        assert_eq!(
            self.stores,
            seqs(&|e| waiting(e) && matches!(e.inst, Inst::Store { .. }))
        );
        assert_eq!(
            self.fences,
            seqs(&|e| e.blocks_younger && e.state != RobState::Done)
        );
        let mut due: Vec<(u64, u64)> = self.calendar.iter().map(|r| r.0).collect();
        due.sort_unstable();
        let mut executing: Vec<(u64, u64)> = (self.rob.iter())
            .filter_map(|e| match e.state {
                RobState::Executing { done_at } => Some((done_at, e.seq)),
                _ => None,
            })
            .collect();
        executing.sort_unstable();
        assert_eq!(due, executing);
        for e in &self.rob {
            for (_, p) in e.srcs.producers() {
                let producer = self.rob.get(self.index_of(p));
                assert!(
                    producer.is_some_and(|q| q.seq == p && q.state != RobState::Done),
                    "seq {} waits on {p}, which has already delivered",
                    e.seq
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, Inst};
    use crate::rob::{RobState, Src};
    use microscope_mem::PhysMem;

    fn dummy_entry(seq: u64, dst: Reg) -> RobEntry {
        RobEntry {
            seq,
            pc: 0,
            inst: Inst::AluImm {
                op: AluOp::Add,
                dst,
                a: Reg(0),
                imm: 0,
            },
            state: RobState::Waiting,
            value: 0,
            srcs: [Src::Ready(0)].into_iter().collect(),
            fault: None,
            predicted_taken: false,
            mem_addr: None,
            store_value: None,
            fill_at_retire: None,
            blocks_younger: false,
            exec_at_head: false,
            consumers: 0,
            next_consumer: [0; 2],
        }
    }

    fn ctx() -> Context {
        let mut phys = PhysMem::new();
        let asp = AddressSpace::new(&mut phys, 1);
        Context::new(ContextId(0), Program::new(vec![Inst::Halt]), asp, 1)
    }

    #[test]
    fn squash_younger_keeps_prefix_and_rebuilds_rat() {
        let mut c = ctx();
        c.dispatch(dummy_entry(1, Reg(1)));
        c.dispatch(dummy_entry(2, Reg(2)));
        c.dispatch(dummy_entry(3, Reg(1)));
        assert_eq!(c.rat[1], Some(3));
        let dropped = c.squash_younger_than(2);
        assert_eq!(dropped, 1);
        assert_eq!(c.rob.len(), 2);
        assert_eq!(c.ready, [1, 2], "the dropped ready entry left the list");
        assert_eq!(c.rat[1], Some(1), "RAT points at surviving producer");
        assert_eq!(c.rat[2], Some(2));
        c.audit();
    }

    #[test]
    fn squash_younger_relinks_surviving_consumers() {
        let mut c = ctx();
        c.dispatch(dummy_entry(1, Reg(1)));
        for seq in 2..5 {
            let mut e = dummy_entry(seq, Reg(2));
            e.srcs = [Src::Pending(1)].into_iter().collect();
            c.dispatch(e);
        }
        assert_eq!(c.rob[0].consumers, 4, "youngest consumer heads the list");
        c.squash_younger_than(3);
        assert_eq!(c.rob[0].consumers, 3, "squashed consumers left the list");
        assert_eq!(c.rob[2].next_consumer[0], 2);
        assert_eq!(c.rob[1].next_consumer[0], 0);
        c.audit();
    }

    #[test]
    fn squash_all_clears_everything() {
        let mut c = ctx();
        c.dispatch(dummy_entry(1, Reg(1)));
        assert_eq!(c.squash_all(), 1);
        assert_eq!(c.rob_occupancy(), 0);
        assert!(c.rat.iter().all(Option::is_none));
        assert!(c.ready.is_empty());
    }

    #[test]
    fn txn_forwarding_returns_youngest_match() {
        let t = Txn {
            abort_target: 0,
            snapshot_regs: [0; Reg::COUNT],
            write_buffer: vec![
                (PAddr(0x100), 1, 8),
                (PAddr(0x100), 2, 8),
                (PAddr(0x108), 3, 8),
            ],
            write_lines: vec![],
        };
        assert_eq!(t.forwarded_value(PAddr(0x100), 8), Some(2));
        assert_eq!(t.forwarded_value(PAddr(0x100), 4), None, "size must match");
        assert_eq!(t.forwarded_value(PAddr(0x110), 8), None);
    }

    #[test]
    fn reg_f64_round_trip() {
        let mut c = ctx();
        c.set_reg(Reg(5), 2.5f64.to_bits());
        assert_eq!(c.reg_f64(Reg(5)), 2.5);
    }
}
