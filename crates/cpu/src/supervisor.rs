//! The supervisor boundary: how the core delivers faults to the (possibly
//! malicious) OS.
//!
//! The paper's entire threat model hinges on this interface: "in SGX, the
//! adversary manages demand paging". A [`Supervisor`] implementation is
//! invoked synchronously when a page-faulting instruction reaches the head
//! of the ROB, receives mutable access to all privileged hardware state
//! ([`HwParts`]) — page tables (via physical memory), caches, TLBs, the
//! page-walk cache — and decides how long fault handling takes. The
//! MicroScope kernel module in `microscope-os` implements this trait.

use crate::context::ContextId;
use crate::predictor::BranchPredictor;
use microscope_cache::MemoryHierarchy;
use microscope_mem::{AddressSpace, PageFault, PageWalker, PhysMem, PteFlags, TlbHierarchy, VAddr};

/// All hardware state a supervisor may touch while handling an event.
///
/// Fields are public by design: this is the "ring 0 view" of the machine.
///
/// `Clone` is deliberate: a [`crate::MachineCheckpoint`] snapshots the whole
/// privileged view by cloning it. Probe handles inside the cloned parts
/// still point at the live shared recorder (event emission is a *bus*, not
/// state), which is exactly what a restore wants.
#[derive(Clone, Debug)]
pub struct HwParts {
    /// Physical memory (page tables live here).
    pub phys: PhysMem,
    /// The cache hierarchy (flush/prime/probe).
    pub hier: MemoryHierarchy,
    /// Data TLBs (`invlpg`).
    pub tlb: TlbHierarchy,
    /// The hardware walker, exposing its page-walk cache.
    pub walker: PageWalker,
    /// The (shared) branch predictor, exposing prime/flush.
    pub predictor: BranchPredictor,
}

impl HwParts {
    /// Honest demand paging: sets the Present bit of `vaddr`'s page,
    /// mapping a fresh frame first if the page was never mapped, and drops
    /// its stale TLB entry.
    pub fn page_in(&mut self, aspace: AddressSpace, vaddr: VAddr) {
        if aspace.set_present(&mut self.phys, vaddr, true).is_none() {
            let frame = self.phys.alloc_frame();
            aspace.map(&mut self.phys, vaddr, frame, PteFlags::user_data());
        }
        self.tlb.invlpg(vaddr, aspace.pcid());
    }
}

/// A page fault delivered to the supervisor.
#[derive(Clone, Copy, Debug)]
pub struct FaultEvent {
    /// The context that faulted.
    pub ctx: ContextId,
    /// Program index of the faulting instruction (its re-execution point).
    pub pc: usize,
    /// The fault details. For enclave contexts the OS layer masks the page
    /// offset, reflecting SGX's AEX reporting granularity.
    pub fault: PageFault,
    /// Cycle at which the fault retired.
    pub cycle: u64,
}

/// A stepping interrupt delivered to the supervisor.
#[derive(Clone, Copy, Debug)]
pub struct InterruptEvent {
    /// The interrupted context.
    pub ctx: ContextId,
    /// Program index execution will resume at.
    pub next_pc: usize,
    /// Cycle of delivery.
    pub cycle: u64,
}

/// What the supervisor tells the core after handling an event.
#[derive(Clone, Copy, Debug, Default)]
pub struct SupervisorAction {
    /// Cycles the faulting context stays descheduled while the handler runs.
    /// During this window the *other* SMT context keeps executing — which is
    /// why most of the paper's Figure-10 monitor samples land below the
    /// contention threshold ("most Monitor samples are taken while the page
    /// fault handling code is running").
    pub handler_cycles: u64,
    /// When returned from `on_interrupt`, cancels the stepping interrupt on
    /// the interrupted context (the attacker pauses the victim once, sets
    /// up, and stops stepping — §4.1's attack setup).
    pub disarm_step_interrupt: bool,
    /// Deschedule another hardware context for this many cycles. The OS
    /// owns scheduling in the SGX threat model; MicroScope's answer to the
    /// Déjà Vu defense is precisely to stall the reference-clock thread
    /// while replaying ("the attacker can potentially replay indefinitely
    /// … while concurrently preventing the clock instructions from
    /// retiring", §8).
    pub stall_context: Option<(ContextId, u64)>,
}

impl SupervisorAction {
    /// An action that only charges handler time.
    pub fn cycles(handler_cycles: u64) -> Self {
        SupervisorAction {
            handler_cycles,
            disarm_step_interrupt: false,
            stall_context: None,
        }
    }
}

/// OS behaviour at fault/interrupt time.
pub trait Supervisor {
    /// Handles a page fault. Returning without repairing the translation
    /// (e.g. leaving the Present bit clear) causes the victim to fault again
    /// at the same instruction: a replay.
    fn on_page_fault(&mut self, hw: &mut HwParts, ev: &FaultEvent) -> SupervisorAction;

    /// Handles a stepping interrupt (disabled unless armed via
    /// [`crate::Machine::set_step_interrupt`]).
    fn on_interrupt(&mut self, _hw: &mut HwParts, _ev: &InterruptEvent) -> SupervisorAction {
        SupervisorAction::default()
    }

    /// Packages the supervisor's mutable state for a
    /// [`crate::MachineCheckpoint`]. Stateless supervisors keep the default
    /// `None`; stateful ones (the MicroScope kernel) return an opaque box
    /// that [`Supervisor::restore_checkpoint`] knows how to unpack.
    fn checkpoint(&self) -> Option<Box<dyn std::any::Any>> {
        None
    }

    /// Restores state captured by [`Supervisor::checkpoint`]. Returns
    /// whether the snapshot was recognized and applied; the default
    /// (stateless) implementation accepts nothing.
    fn restore_checkpoint(&mut self, _state: &dyn std::any::Any) -> bool {
        false
    }
}

/// A supervisor for fault-free workloads; it panics on any page fault so
/// that configuration errors surface loudly in tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSupervisor;

impl Supervisor for NullSupervisor {
    fn on_page_fault(&mut self, _hw: &mut HwParts, ev: &FaultEvent) -> SupervisorAction {
        panic!("NullSupervisor: unhandled {} at pc {}", ev.fault, ev.pc);
    }
}

/// A supervisor that services every minor fault by setting the Present bit —
/// the behaviour of an honest demand-paging OS. Useful as a baseline and in
/// tests. It needs the address space to repair, so it stores the handle.
#[derive(Clone, Copy, Debug)]
pub struct HonestSupervisor {
    aspace: AddressSpace,
    /// Cycles charged per fault handled.
    pub handler_cycles: u64,
    /// Faults serviced.
    pub faults_serviced: u64,
}

impl HonestSupervisor {
    /// Creates an honest pager for `aspace`.
    pub fn new(aspace: AddressSpace) -> Self {
        HonestSupervisor {
            aspace,
            handler_cycles: 600,
            faults_serviced: 0,
        }
    }
}

impl Supervisor for HonestSupervisor {
    fn on_page_fault(&mut self, hw: &mut HwParts, ev: &FaultEvent) -> SupervisorAction {
        self.faults_serviced += 1;
        hw.page_in(self.aspace, ev.fault.vaddr);
        SupervisorAction::cycles(self.handler_cycles)
    }

    fn checkpoint(&self) -> Option<Box<dyn std::any::Any>> {
        Some(Box::new(*self))
    }

    fn restore_checkpoint(&mut self, state: &dyn std::any::Any) -> bool {
        match state.downcast_ref::<HonestSupervisor>() {
            Some(saved) => {
                *self = *saved;
                true
            }
            None => false,
        }
    }
}
