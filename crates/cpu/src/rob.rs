//! Reorder-buffer entries.

use crate::isa::{Inst, Reg};
use microscope_cache::PAddr;
use microscope_mem::{PageFault, VAddr};

// `SquashCause` now lives in `microscope-probe` (so every layer can talk
// about squashes on the shared event bus); re-exported here compatibly.
pub use microscope_probe::SquashCause;

/// Lifecycle of a ROB entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RobState {
    /// Dispatched, waiting for operands and/or a port.
    Waiting,
    /// Issued; result (or fault) materializes at `done_at`.
    Executing {
        /// Completion cycle.
        done_at: u64,
    },
    /// Completed; value is valid; eligible to retire.
    Done,
    /// Completed with a fault; raises a precise exception at the ROB head.
    Faulted,
}

/// A source operand: either already a value or waiting on a producer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// Resolved value.
    Ready(u64),
    /// Waiting on the ROB entry with this tag (its context-local ROB
    /// number; see [`RobEntry::seq`] for the global one).
    Pending(u64),
}

impl Src {
    /// The value, if resolved.
    pub fn value(self) -> Option<u64> {
        match self {
            Src::Ready(v) => Some(v),
            Src::Pending(_) => None,
        }
    }
}

/// An inline source-operand list. Every ISA instruction reads at most
/// two registers, so the operands live directly in the ROB entry —
/// dispatch, squash and checkpoint capture never touch the heap for
/// them (operand traffic is the hottest allocation site in the core).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SrcList {
    items: [Src; 2],
    len: u8,
}

impl Default for Src {
    fn default() -> Self {
        Src::Ready(0)
    }
}

impl SrcList {
    /// An empty operand list.
    pub const fn new() -> Self {
        SrcList {
            items: [Src::Ready(0), Src::Ready(0)],
            len: 0,
        }
    }

    /// Appends one operand.
    ///
    /// # Panics
    ///
    /// Panics past two operands (no ISA instruction has more).
    pub fn push(&mut self, s: Src) {
        self.items[self.len as usize] = s;
        self.len += 1;
    }

    /// The operands as a slice.
    pub fn as_slice(&self) -> &[Src] {
        &self.items[..self.len as usize]
    }

    /// Iterates over the operands.
    pub fn iter(&self) -> std::slice::Iter<'_, Src> {
        self.as_slice().iter()
    }

    /// First operand, if present.
    pub fn first(&self) -> Option<&Src> {
        self.as_slice().first()
    }

    /// Operand at `idx`, if present.
    pub fn get(&self, idx: usize) -> Option<&Src> {
        self.as_slice().get(idx)
    }

    /// Number of operands.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One in-flight instruction.
#[derive(Clone, Debug)]
pub struct RobEntry {
    /// Global dispatch sequence number (unique, monotonic).
    pub seq: u64,
    /// Program index of the instruction.
    pub pc: usize,
    /// The instruction itself.
    pub inst: Inst,
    /// Execution state.
    pub state: RobState,
    /// Result value (valid once `Done`).
    pub value: u64,
    /// Source operands, parallel to `inst.sources()`.
    pub srcs: SrcList,
    /// Fault discovered at execute, delivered when the entry retires.
    pub fault: Option<PageFault>,
    /// For branches: the direction predicted at fetch.
    pub predicted_taken: bool,
    /// For memory ops: (virtual, physical, size) once the address is known.
    pub mem_addr: Option<(VAddr, PAddr, u8)>,
    /// For stores: the data value captured at issue.
    pub store_value: Option<u64>,
    /// Cache fill deferred to retirement (invisible-speculation defense).
    pub fill_at_retire: Option<PAddr>,
    /// When set, younger instructions may not begin execution until this
    /// entry completes: serializing instructions
    /// ([`Inst::is_serializing`]) and the first instruction after a flush
    /// under the post-flush fence defense.
    pub blocks_younger: bool,
    /// Whether this entry must only execute non-speculatively (all older
    /// entries complete): serializing instructions
    /// ([`Inst::is_serializing`]).
    pub exec_at_head: bool,
    /// Head of this entry's consumer list: the tag of the youngest entry
    /// waiting on its value (0 = none). Completion delivers along the list instead of
    /// broadcasting over the younger window.
    pub(crate) consumers: u64,
    /// Per operand slot, the tag of the next consumer on the list of the
    /// producer that slot waits on (0 = end). Only the first slot naming a producer is
    /// linked.
    pub(crate) next_consumer: [u64; 2],
}

impl RobEntry {
    /// Whether every source operand is resolved.
    pub fn srcs_ready(&self) -> bool {
        self.srcs.iter().all(|s| matches!(s, Src::Ready(_)))
    }

    /// The resolved source values (unused slots read 0).
    ///
    /// # Panics
    ///
    /// Panics if any source is still pending.
    pub fn src_values(&self) -> [u64; 2] {
        let mut vals = [0u64; 2];
        for (i, s) in self.srcs.iter().enumerate() {
            vals[i] = s.value().expect("operand not ready");
        }
        vals
    }

    /// Substitutes `value` for any pending reference to producer `tag`.
    /// Returns the next consumer on that producer's list (0 = end), which
    /// is the link held by the first slot that named it, and whether every
    /// operand is now resolved.
    pub fn deliver(&mut self, tag: u64, value: u64) -> (u64, bool) {
        let (mut next, mut ready) = (None, true);
        for i in 0..self.srcs.len() {
            match self.srcs.items[i] {
                Src::Pending(t) if t == tag => {
                    self.srcs.items[i] = Src::Ready(value);
                    next = next.or(Some(self.next_consumer[i]));
                }
                Src::Pending(_) => ready = false,
                Src::Ready(_) => {}
            }
        }
        (next.unwrap_or(0), ready)
    }

    /// The virtual byte range `[lo, hi)` a memory op will touch, resolved
    /// from its address operand alone. For a store this is available even
    /// while the data operand is still pending — the analogue of the
    /// separate store-address µop real pipelines issue, and what lets
    /// memory disambiguation wave younger loads past a store to a known,
    /// disjoint address.
    pub fn resolved_vaddr_range(&self) -> Option<(u64, u64)> {
        let (addr_src, offset, size) = match self.inst {
            Inst::Load { offset, size, .. } => (self.srcs.first(), offset, size),
            Inst::Store { offset, size, .. } => (self.srcs.get(1), offset, size),
            _ => return None,
        };
        let base = addr_src?.value()?;
        let lo = base.wrapping_add(offset as u64);
        Some((lo, lo.wrapping_add(u64::from(size.max(1)))))
    }

    /// The destination register, if any.
    pub fn dst(&self) -> Option<Reg> {
        self.inst.dst()
    }

    /// Whether the entry has completed (successfully or with a fault).
    pub fn is_complete(&self) -> bool {
        matches!(self.state, RobState::Done | RobState::Faulted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::AluOp;

    fn entry(srcs: SrcList) -> RobEntry {
        RobEntry {
            seq: 1,
            pc: 0,
            inst: Inst::Alu {
                op: AluOp::Add,
                dst: Reg(1),
                a: Reg(2),
                b: Reg(3),
            },
            state: RobState::Waiting,
            value: 0,
            srcs,
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

    fn srcs(items: &[Src]) -> SrcList {
        let mut list = SrcList::new();
        items.iter().for_each(|&s| list.push(s));
        list
    }

    #[test]
    fn delivery_resolves_pending_operands() {
        let mut e = entry(srcs(&[Src::Pending(7), Src::Ready(3)]));
        assert!(!e.srcs_ready());
        assert_eq!(e.deliver(7, 40), (0, true), "the last pending operand");
        assert!(e.srcs_ready());
        assert_eq!(e.src_values(), [40, 3]);
    }

    #[test]
    fn delivery_follows_the_first_slot_naming_the_producer() {
        let mut e = entry(srcs(&[Src::Pending(7), Src::Pending(7)]));
        e.next_consumer = [11, 99];
        assert_eq!(e.deliver(7, 5), (11, true), "slot 0 holds the list link");
        assert_eq!(e.src_values(), [5, 5]);
        let mut e = entry(srcs(&[Src::Ready(1), Src::Pending(8)]));
        e.next_consumer = [0, 12];
        assert_eq!(
            e.deliver(9, 0),
            (0, false),
            "another producer's value is ignored"
        );
        assert_eq!(e.deliver(8, 2), (12, true));
    }

    #[test]
    fn delivery_reports_operands_still_pending() {
        let mut e = entry(srcs(&[Src::Pending(7), Src::Pending(8)]));
        e.next_consumer = [3, 4];
        assert_eq!(e.deliver(8, 1), (4, false), "slot 0 still waits on 7");
        assert_eq!(e.deliver(7, 2), (3, true));
        assert_eq!(e.src_values(), [2, 1]);
    }

    #[test]
    fn delivery_ignores_other_seqs() {
        let mut e = entry(srcs(&[Src::Pending(7)]));
        e.deliver(8, 99);
        assert!(!e.srcs_ready());
    }

    #[test]
    fn completion_states() {
        let mut e = entry(SrcList::new());
        assert!(!e.is_complete());
        e.state = RobState::Done;
        assert!(e.is_complete());
        e.state = RobState::Faulted;
        assert!(e.is_complete());
    }
}
