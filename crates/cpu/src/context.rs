//! One SMT hardware context: architectural state plus its ROB window.

use crate::isa::{Inst, Reg};
use crate::program::Program;
use crate::rob::{RobEntry, RobState};
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
    /// Tag of the ROB head: entry `i` has tag `head_tag + i`. Retirement
    /// advances it; a squash leaves it, so the next dispatches reissue the
    /// squashed tags. Starts at 1, so tag 0 never names an entry.
    head_tag: u64,
    /// Register alias table: tag of the youngest in-flight producer per
    /// register.
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
    /// Completion calendar: `(done_at, tag)` of every `Executing` entry,
    /// earliest first. The complete stage pops what is due; its head is
    /// fast-forward's next completion wake.
    pub(crate) calendar: BinaryHeap<Reverse<(u64, u64)>>,
    /// Tags of `Waiting` entries with every operand ready, ascending: the
    /// issue stage's candidates.
    pub(crate) ready: Vec<u64>,
    /// The issue stage's position in `ready`: entries before it were
    /// already tried this cycle.
    pub(crate) issue_cursor: usize,
    /// Tags of `Waiting` stores, ascending: what memory disambiguation
    /// checks a younger load against.
    pub(crate) stores: Vec<u64>,
    /// Tags of entries that block younger issue (fences) and are not yet
    /// `Done`, ascending.
    pub(crate) fences: Vec<u64>,
    /// Statistics.
    pub(crate) stats: ContextStats,
    /// Issues per program pc, squashed and replayed ones included (see
    /// [`Context::issues_at`]).
    pub(crate) issues: Vec<u64>,
}

impl Context {
    pub(crate) fn new(id: ContextId, program: Program, aspace: AddressSpace, seed: u64) -> Self {
        Context {
            id,
            issues: vec![0; program.len()],
            program,
            aspace,
            pc: 0,
            arch_regs: [0; Reg::COUNT],
            rob: VecDeque::new(),
            head_tag: 1,
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
            issue_cursor: 0,
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
    ///
    /// # Panics
    ///
    /// Panics if `r` is `Reg(32)` or above. [`Program::new`] keeps such
    /// registers out of programs, but `Reg` wraps a plain `u8`, so host
    /// code can name any register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.arch_regs[r.index()]
    }

    /// The architectural value of a register, as an `f64`.
    pub fn reg_f64(&self, r: Reg) -> f64 {
        f64::from_bits(self.reg(r))
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

    /// The program this context runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Execution statistics.
    pub fn stats(&self) -> &ContextStats {
        &self.stats
    }

    /// How many times the instruction at `pc` issued (began execution),
    /// counting squashed and replayed issues: the exact count of the
    /// probe's `Issue` events for this context and pc, kept whether or not
    /// tracing is on. A replayed transmitter issues more than once. The
    /// count is part of the context's state, so
    /// [`Machine::restore`](crate::Machine::restore) rewinds it. Returns 0
    /// for a pc outside the program.
    pub fn issues_at(&self, pc: usize) -> u64 {
        self.issues.get(pc).copied().unwrap_or(0)
    }

    /// Tag of the entry at ROB position `idx`.
    pub(crate) fn tag_of(&self, idx: usize) -> u64 {
        self.head_tag + idx as u64
    }

    /// ROB position of the live entry `tag`.
    pub(crate) fn index_of(&self, tag: u64) -> usize {
        let idx = tag.wrapping_sub(self.head_tag) as usize;
        debug_assert!(
            idx < self.rob.len(),
            "tag {tag} is not live: head tag {}, {} entries",
            self.head_tag,
            self.rob.len()
        );
        idx
    }

    /// The live entry `tag`.
    pub(crate) fn entry(&self, tag: u64) -> &RobEntry {
        &self.rob[self.index_of(tag)]
    }

    /// Appends a freshly dispatched entry (operands already captured) and
    /// threads it into the RAT, the consumer lists and the issue lists.
    pub(crate) fn dispatch(&mut self, e: RobEntry) {
        let tag = self.tag_of(self.rob.len());
        if e.srcs_ready() {
            self.ready.push(tag);
        }
        if matches!(e.inst, Inst::Store { .. }) {
            self.stores.push(tag);
        }
        if e.blocks_younger {
            self.fences.push(tag);
        }
        if let Some(dst) = e.dst() {
            self.rat[dst.index()] = Some(tag);
        }
        self.rob.push_back(e);
        self.link(self.rob.len() - 1);
    }

    /// Removes the ROB head for retirement, clearing its RAT mapping if it
    /// is still the youngest producer of its register.
    pub(crate) fn pop_head(&mut self) -> Option<RobEntry> {
        let e = self.rob.pop_front()?;
        if let Some(dst) = e.dst() {
            if self.rat[dst.index()] == Some(self.head_tag) {
                self.rat[dst.index()] = None;
            }
        }
        self.head_tag += 1;
        Some(e)
    }

    /// Threads ROB entry `j` onto the consumer list of each producer it
    /// waits on.
    fn link(&mut self, j: usize) {
        let tag = self.tag_of(j);
        for (slot, p) in self.rob[j].srcs.producers() {
            let producer = self.index_of(p);
            let head = std::mem::replace(&mut self.rob[producer].consumers, tag);
            self.rob[j].next_consumer[slot] = head;
        }
    }

    /// Pops the oldest entry of the calendar whose completion is due.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<u64> {
        match self.calendar.peek() {
            Some(&Reverse((done_at, tag))) if done_at <= now => {
                self.calendar.pop();
                Some(tag)
            }
            _ => None,
        }
    }

    /// Drops from the store list every store that has left `Waiting`.
    pub(crate) fn prune_issued_stores(&mut self) {
        let (rob, head) = (&self.rob, self.head_tag);
        self.stores
            .retain(|&t| rob[(t - head) as usize].state == RobState::Waiting);
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

    /// Discards entries strictly younger than `tag`; returns the count.
    /// The RAT and the consumer lists are rebuilt from the survivors.
    pub(crate) fn squash_younger_than(&mut self, tag: u64) -> usize {
        let keep = self.index_of(tag) + 1;
        let n = self.rob.len() - keep;
        self.rob.truncate(keep);
        for list in [&mut self.ready, &mut self.stores, &mut self.fences] {
            list.truncate(list.partition_point(|&t| t <= tag));
        }
        self.calendar.retain(|&Reverse((_, t))| t <= tag);
        self.rat = [None; Reg::COUNT];
        for j in 0..keep {
            self.rob[j].consumers = 0;
            if let Some(dst) = self.rob[j].dst() {
                self.rat[dst.index()] = Some(self.tag_of(j));
            }
            self.link(j);
        }
        n
    }

    /// Checks the incremental state against a plain walk of the ROB.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn audit(&self) {
        let tags = |f: &dyn Fn(&RobEntry) -> bool| -> Vec<u64> {
            (0..self.rob.len())
                .filter(|&j| f(&self.rob[j]))
                .map(|j| self.tag_of(j))
                .collect()
        };
        let waiting = |e: &RobEntry| e.state == RobState::Waiting;
        assert_eq!(self.ready, tags(&|e| waiting(e) && e.srcs_ready()));
        assert_eq!(
            self.stores,
            tags(&|e| waiting(e) && matches!(e.inst, Inst::Store { .. }))
        );
        assert_eq!(
            self.fences,
            tags(&|e| e.blocks_younger && e.state != RobState::Done)
        );
        let mut due: Vec<(u64, u64)> = self.calendar.iter().map(|r| r.0).collect();
        due.sort_unstable();
        let mut expected: Vec<(u64, u64)> = (self.rob.iter().enumerate())
            .filter_map(|(j, e)| match e.state {
                RobState::Executing { done_at } => Some((done_at, self.tag_of(j))),
                _ => None,
            })
            .collect();
        expected.sort_unstable();
        assert_eq!(due, expected);
        let live = |t: u64| self.rob.get(t.wrapping_sub(self.head_tag) as usize);
        for (j, e) in self.rob.iter().enumerate() {
            for (_, p) in e.srcs.producers() {
                assert!(
                    p < self.tag_of(j) && live(p).is_some_and(|q| q.state != RobState::Done),
                    "tag {} waits on {p}, which is not an older undelivered entry",
                    self.tag_of(j)
                );
            }
        }
        for (r, t) in self.rat.iter().enumerate() {
            if let Some(t) = *t {
                assert!(
                    live(t).is_some_and(|e| e.dst().map(Reg::index) == Some(r)),
                    "RAT maps r{r} to tag {t}, which is not a live producer of it"
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
        let halt = Program::new(vec![Inst::Halt]).expect("a halt is a program");
        Context::new(ContextId(0), halt, asp, 1)
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
        assert!(c.rob.is_empty());
        assert!(c.rat.iter().all(Option::is_none));
        assert!(c.ready.is_empty());
    }

    fn waiting_on(seq: u64, dst: Reg, producer: u64) -> RobEntry {
        let mut e = dummy_entry(seq, dst);
        e.srcs = [Src::Pending(producer)].into_iter().collect();
        e
    }

    /// Completes and retires the head, as the machine would.
    fn retire_head(c: &mut Context) {
        let head = c.tag_of(0);
        c.rob[0].state = RobState::Done;
        c.ready.retain(|&t| t != head);
        assert!(c.pop_head().is_some());
    }

    #[test]
    fn squash_younger_reissues_the_squashed_tags() {
        let mut c = ctx();
        c.dispatch(dummy_entry(1, Reg(1)));
        retire_head(&mut c);
        // Global seqs skip what the other context took; tags do not.
        c.dispatch(dummy_entry(12, Reg(1)));
        c.dispatch(waiting_on(15, Reg(2), 2));
        c.dispatch(waiting_on(17, Reg(3), 3));
        assert_eq!((c.tag_of(0), c.tag_of(2)), (2, 4));
        assert_eq!(c.squash_younger_than(2), 2);
        assert_eq!(c.rat[1], Some(2), "the RAT is rebuilt with tags");
        c.dispatch(waiting_on(30, Reg(2), 2));
        assert_eq!(c.entry(3).seq, 30, "the re-dispatch takes the reissued tag");
        assert_eq!(c.index_of(3), 1);
        assert_eq!(c.tag_of(c.index_of(3)), 3);
        assert_eq!(c.rat[2], Some(3));
        assert_eq!(c.rat[3], None, "the squashed producer left the RAT");
        assert_eq!(c.entry(2).consumers, 3, "the producer links the new entry");
        assert_eq!(c.entry(3).next_consumer[0], 0);
        assert_eq!(c.ready, [2]);
        c.audit();
    }

    #[test]
    fn squash_all_reissues_from_the_head_tag() {
        let mut c = ctx();
        c.dispatch(dummy_entry(1, Reg(1)));
        c.dispatch(dummy_entry(2, Reg(2)));
        retire_head(&mut c);
        assert_eq!(c.squash_all(), 1);
        c.dispatch(dummy_entry(7, Reg(4)));
        c.dispatch(waiting_on(9, Reg(5), 2));
        assert_eq!(c.entry(2).seq, 7, "tag 2 is reissued after the squash");
        assert_eq!((c.index_of(2), c.index_of(3)), (0, 1));
        assert_eq!((c.tag_of(0), c.tag_of(1)), (2, 3));
        assert_eq!((c.rat[4], c.rat[5]), (Some(2), Some(3)));
        assert_eq!(c.entry(2).consumers, 3);
        c.audit();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is not live")]
    fn index_of_rejects_a_dead_tag() {
        let mut c = ctx();
        c.dispatch(dummy_entry(1, Reg(1)));
        retire_head(&mut c);
        c.index_of(1);
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
        c.arch_regs[Reg(5).index()] = 2.5f64.to_bits();
        assert_eq!(c.reg_f64(Reg(5)), 2.5);
    }
}
