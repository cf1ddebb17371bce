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

    /// The pending producers, each once, with the first slot naming it:
    /// the slot whose link threads the consumer onto that producer's list.
    pub(crate) fn producers(self) -> impl Iterator<Item = (usize, u64)> {
        (0..self.len()).filter_map(move |slot| match self.items[slot] {
            Src::Pending(p) if !self.items[..slot].contains(&Src::Pending(p)) => Some((slot, p)),
            _ => None,
        })
    }
}

impl FromIterator<Src> for SrcList {
    fn from_iter<I: IntoIterator<Item = Src>>(iter: I) -> Self {
        let mut list = SrcList::new();
        for s in iter {
            list.push(s);
        }
        list
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

    /// Substitutes `value` for any pending reference to producer `tag` and
    /// returns the next consumer on that producer's list (0 = end): the
    /// link held by the first slot that named it.
    pub fn deliver(&mut self, tag: u64, value: u64) -> u64 {
        let mut next = None;
        for i in 0..self.srcs.len() {
            if self.srcs.items[i] == Src::Pending(tag) {
                self.srcs.items[i] = Src::Ready(value);
                next = next.or(Some(self.next_consumer[i]));
            }
        }
        next.unwrap_or(0)
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

    #[test]
    fn delivery_resolves_pending_operands() {
        let mut e = entry([Src::Pending(7), Src::Ready(3)].into_iter().collect());
        assert!(!e.srcs_ready());
        e.deliver(7, 40);
        assert!(e.srcs_ready());
        assert_eq!(e.src_values(), [40, 3]);
    }

    #[test]
    fn delivery_follows_the_first_slot_naming_the_producer() {
        let mut e = entry([Src::Pending(7), Src::Pending(7)].into_iter().collect());
        e.next_consumer = [11, 99];
        assert_eq!(e.srcs.producers().collect::<Vec<_>>(), [(0, 7)]);
        assert_eq!(e.deliver(7, 5), 11, "slot 0 holds the list link");
        assert_eq!(e.src_values(), [5, 5]);
        let mut e = entry([Src::Ready(1), Src::Pending(8)].into_iter().collect());
        e.next_consumer = [0, 12];
        assert_eq!(e.srcs.producers().collect::<Vec<_>>(), [(1, 8)]);
        assert_eq!(e.deliver(9, 0), 0, "another producer's value is ignored");
        assert_eq!(e.deliver(8, 2), 12);
    }

    #[test]
    fn delivery_ignores_other_seqs() {
        let mut e = entry([Src::Pending(7)].into_iter().collect());
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
