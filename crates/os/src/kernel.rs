//! The kernel: process table, fault routing and the honest demand pager.

use crate::module::{MicroScopeModule, ModuleCheckpoint};
use microscope_cpu::{
    ContextId, FaultEvent, HwParts, InterruptEvent, Supervisor, SupervisorAction,
};
use microscope_enclave::Enclave;
use microscope_mem::AddressSpace;

/// Kernel-side view of one simulated process (one hardware context).
#[derive(Clone, Debug)]
pub struct Process {
    /// The process address space.
    pub aspace: AddressSpace,
    /// Its enclave, when the process runs shielded code.
    pub enclave: Option<Enclave>,
}

/// The supervisor installed on the simulated machine.
///
/// Fault path (paper Figure 9): MMU raises the exception → the kernel's
/// handler identifies the fault → the trampoline offers it to the
/// MicroScope module → unclaimed faults fall through to ordinary demand
/// paging.
#[derive(Debug)]
pub struct Kernel {
    procs: Vec<Process>,
    module: MicroScopeModule,
    /// Handler cost charged for honestly serviced faults.
    pub honest_handler_cycles: u64,
    /// Handler cost charged for stepping interrupts.
    pub interrupt_handler_cycles: u64,
    honest_faults: u64,
    interrupts: u64,
    /// When set, the module is armed lazily, on the first stepping
    /// interrupt of this context — the paper's §4.1 setup flow: the
    /// Replayer single-steps the victim to the neighbourhood of the replay
    /// handle, pauses it, and only then sets up the attack.
    arm_on_interrupt: Option<ContextId>,
    probe: microscope_probe::Probe,
}

impl Kernel {
    /// Creates a kernel over the given processes with an attack module.
    pub fn new(procs: Vec<Process>, module: MicroScopeModule) -> Self {
        Kernel {
            procs,
            module,
            honest_handler_cycles: 600,
            interrupt_handler_cycles: 400,
            honest_faults: 0,
            interrupts: 0,
            arm_on_interrupt: None,
            probe: microscope_probe::Probe::disabled(),
        }
    }

    /// Connects the kernel (and its attack module) to a shared event bus.
    pub fn attach_probe(&mut self, probe: microscope_probe::Probe) {
        self.module.attach_probe(probe.clone());
        self.probe = probe;
    }

    /// A kernel with no attack module installed (a completely honest OS).
    pub fn honest(procs: Vec<Process>) -> Self {
        Kernel::new(procs, MicroScopeModule::new())
    }

    /// The attack module.
    pub fn module(&self) -> &MicroScopeModule {
        &self.module
    }

    /// The process backing a context.
    pub fn process(&self, ctx: ContextId) -> &Process {
        &self.procs[ctx.0]
    }

    /// Faults serviced by the honest pager (not claimed by the module).
    pub fn honest_faults(&self) -> u64 {
        self.honest_faults
    }

    /// Stepping interrupts delivered.
    pub fn interrupts(&self) -> u64 {
        self.interrupts
    }

    /// Defers module arming to the first stepping interrupt on `ctx`. Pair
    /// with [`microscope_cpu::Machine::set_step_interrupt`] so the attack
    /// begins mid-run, after the victim has warmed the caches naturally.
    pub fn arm_on_interrupt(&mut self, ctx: ContextId) {
        self.arm_on_interrupt = Some(ctx);
    }
}

/// Snapshot of the kernel's mutable state, produced by the kernel's
/// [`Supervisor::checkpoint`] implementation and carried inside a
/// [`microscope_cpu::MachineCheckpoint`]: the process table (address-space
/// roots and enclave AEX accounting), the module's full state, fault and
/// interrupt counters, and any pending deferred-arm trigger.
#[derive(Clone, Debug)]
pub struct KernelCheckpoint {
    procs: Vec<Process>,
    module: ModuleCheckpoint,
    honest_handler_cycles: u64,
    interrupt_handler_cycles: u64,
    honest_faults: u64,
    interrupts: u64,
    arm_on_interrupt: Option<ContextId>,
}

impl Supervisor for Kernel {
    fn on_page_fault(&mut self, hw: &mut HwParts, ev: &FaultEvent) -> SupervisorAction {
        let proc = &mut self.procs[ev.ctx.0];
        // SGX AEX: enclave faults reach the OS at page granularity only.
        let fault = match &mut proc.enclave {
            Some(enclave) => enclave.sanitize_fault(ev.fault),
            None => ev.fault,
        };
        let aspace = proc.aspace;
        let sanitized = FaultEvent { fault, ..*ev };
        // Trampoline into the MicroScope module.
        if let Some(action) = self.module.handle_fault(hw, aspace, &sanitized) {
            return action;
        }
        // Honest demand paging: map or re-present the page.
        self.honest_faults += 1;
        self.probe.emit(
            Some(ev.ctx.0 as u32),
            microscope_probe::EventKind::HonestFault {
                vaddr: fault.vaddr.0,
            },
        );
        hw.page_in(aspace, fault.vaddr);
        SupervisorAction::cycles(self.honest_handler_cycles)
    }

    fn on_interrupt(&mut self, hw: &mut HwParts, ev: &InterruptEvent) -> SupervisorAction {
        self.interrupts += 1;
        if self.arm_on_interrupt == Some(ev.ctx) {
            self.arm_on_interrupt = None;
            let aspace = self.procs[ev.ctx.0].aspace;
            self.module.arm(hw, aspace);
            // The attack is set up; stop stepping the victim.
            return SupervisorAction {
                disarm_step_interrupt: true,
                ..SupervisorAction::cycles(self.interrupt_handler_cycles)
            };
        }
        SupervisorAction::cycles(self.interrupt_handler_cycles)
    }

    fn checkpoint(&self) -> Option<Box<dyn std::any::Any>> {
        Some(Box::new(KernelCheckpoint {
            procs: self.procs.clone(),
            module: self.module.checkpoint(),
            honest_handler_cycles: self.honest_handler_cycles,
            interrupt_handler_cycles: self.interrupt_handler_cycles,
            honest_faults: self.honest_faults,
            interrupts: self.interrupts,
            arm_on_interrupt: self.arm_on_interrupt,
        }))
    }

    fn restore_checkpoint(&mut self, state: &dyn std::any::Any) -> bool {
        let Some(cp) = state.downcast_ref::<KernelCheckpoint>() else {
            return false;
        };
        self.procs = cp.procs.clone();
        self.module.restore(&cp.module);
        self.honest_handler_cycles = cp.honest_handler_cycles;
        self.interrupt_handler_cycles = cp.interrupt_handler_cycles;
        self.honest_faults = cp.honest_faults;
        self.interrupts = cp.interrupts;
        self.arm_on_interrupt = cp.arm_on_interrupt;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_cache::{HierarchyConfig, MemoryHierarchy};
    use microscope_cpu::{BranchPredictor, PredictorConfig};
    use microscope_mem::{
        PageFault, PageFaultKind, PageWalker, PhysMem, PtLevel, PteFlags, TlbHierarchy,
        TlbHierarchyConfig, VAddr, WalkerConfig,
    };

    fn hw() -> (HwParts, AddressSpace) {
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        (
            HwParts {
                phys,
                hier: MemoryHierarchy::new(HierarchyConfig::tiny()),
                tlb: TlbHierarchy::new(TlbHierarchyConfig::default()),
                walker: PageWalker::new(WalkerConfig::default()),
                predictor: BranchPredictor::new(PredictorConfig::default()),
            },
            aspace,
        )
    }

    fn fault_at(va: VAddr) -> FaultEvent {
        FaultEvent {
            ctx: ContextId(0),
            pc: 0,
            fault: PageFault {
                vaddr: va,
                kind: PageFaultKind::NotPresent {
                    level: PtLevel::Pte,
                },
                is_write: false,
            },
            cycle: 1,
        }
    }

    #[test]
    fn honest_pager_maps_unmapped_pages() {
        let (mut hw, aspace) = hw();
        let mut k = Kernel::honest(vec![Process {
            aspace,
            enclave: None,
        }]);
        let va = VAddr(0x77_0000);
        assert!(aspace.translate(&hw.phys, va, false).is_err());
        let action = k.on_page_fault(&mut hw, &fault_at(va));
        assert_eq!(action.handler_cycles, k.honest_handler_cycles);
        assert!(aspace.translate(&hw.phys, va, false).is_ok());
        assert_eq!(k.honest_faults(), 1);
    }

    #[test]
    fn module_claims_recipe_faults_before_the_pager() {
        let (mut hw, aspace) = hw();
        let frame = hw.phys.alloc_frame();
        let handle = VAddr(0x88_0000);
        aspace.map(&mut hw.phys, handle, frame, PteFlags::user_data());

        let mut module = MicroScopeModule::new();
        let id = module.provide_replay_handle(ContextId(0), handle);
        module.recipe_mut(id).replays_per_step = 3;
        let shared = module.shared();
        module.arm(&mut hw, aspace);
        let mut k = Kernel::new(
            vec![Process {
                aspace,
                enclave: None,
            }],
            module,
        );
        assert!(aspace.translate(&hw.phys, handle, false).is_err());

        // Two faults: module keeps the page away.
        k.on_page_fault(&mut hw, &fault_at(handle));
        k.on_page_fault(&mut hw, &fault_at(handle));
        assert!(aspace.translate(&hw.phys, handle, false).is_err());
        // Third fault: recipe completes and releases the page.
        k.on_page_fault(&mut hw, &fault_at(handle));
        assert!(aspace.translate(&hw.phys, handle, false).is_ok());
        assert_eq!(k.honest_faults(), 0, "the pager never saw these faults");
        let sh = shared.borrow();
        assert_eq!(sh.replays[0], 3);
        assert!(sh.finished[0]);
    }

    #[test]
    fn non_recipe_faults_fall_through_even_with_module_installed() {
        let (mut hw, aspace) = hw();
        let mut module = MicroScopeModule::new();
        module.provide_replay_handle(ContextId(0), VAddr(0x1000));
        let mut k = Kernel::new(
            vec![Process {
                aspace,
                enclave: None,
            }],
            module,
        );
        k.on_page_fault(&mut hw, &fault_at(VAddr(0x99_0000)));
        assert_eq!(k.honest_faults(), 1);
    }
}
