//! The kernel: process table, fault routing and the honest demand pager.

use crate::module::MicroScopeModule;
use crate::shared::ModuleShared;
use microscope_cpu::{
    ContextId, FaultEvent, HwParts, InterruptEvent, Supervisor, SupervisorAction,
    HONEST_PAGER_CYCLES,
};
use microscope_enclave::Enclave;
use microscope_mem::AddressSpace;

/// Handler cost charged for a stepping interrupt.
const STEP_INTERRUPT_CYCLES: u64 = 400;

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
///
/// A checkpoint of the kernel is a clone of it plus the module's
/// [`ModuleShared`] value; restoring clones the kernel back and writes that
/// value through the [`crate::SharedHandle`] the clone still shares, so the
/// attacker's handle observes the rewind.
#[derive(Clone, Debug)]
pub struct Kernel {
    procs: Vec<Process>,
    module: MicroScopeModule,
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
            arm_on_interrupt: None,
            probe: microscope_probe::Probe::disabled(),
        }
    }

    /// Connects the kernel (and its attack module) to a shared event bus.
    pub fn attach_probe(&mut self, probe: microscope_probe::Probe) {
        self.module.attach_probe(probe.clone());
        self.probe = probe;
    }

    /// Defers module arming to the first stepping interrupt on `ctx`. Pair
    /// with [`microscope_cpu::Machine::set_step_interrupt`] so the attack
    /// begins mid-run, after the victim has warmed the caches naturally.
    pub fn arm_on_interrupt(&mut self, ctx: ContextId) {
        self.arm_on_interrupt = Some(ctx);
    }
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
        self.probe.emit(
            Some(ev.ctx.0 as u32),
            microscope_probe::EventKind::HonestFault {
                vaddr: fault.vaddr.0,
            },
        );
        hw.page_in(aspace, fault.vaddr);
        SupervisorAction::cycles(HONEST_PAGER_CYCLES)
    }

    fn on_interrupt(&mut self, hw: &mut HwParts, ev: &InterruptEvent) -> SupervisorAction {
        if self.arm_on_interrupt == Some(ev.ctx) {
            self.arm_on_interrupt = None;
            let aspace = self.procs[ev.ctx.0].aspace;
            self.module.arm(hw, aspace);
            // The attack is set up; stop stepping the victim.
            return SupervisorAction {
                disarm_step_interrupt: true,
                ..SupervisorAction::cycles(STEP_INTERRUPT_CYCLES)
            };
        }
        SupervisorAction::cycles(STEP_INTERRUPT_CYCLES)
    }

    fn checkpoint(&self) -> Option<Box<dyn std::any::Any>> {
        Some(Box::new((self.clone(), self.module.snapshot())))
    }

    fn restore_checkpoint(&mut self, state: &dyn std::any::Any) -> bool {
        let Some((kernel, shared)) = state.downcast_ref::<(Kernel, ModuleShared)>() else {
            return false;
        };
        *self = kernel.clone();
        *self.module.shared().borrow_mut() = shared.clone();
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
        let mut k = Kernel::new(
            vec![Process {
                aspace,
                enclave: None,
            }],
            MicroScopeModule::new(),
        );
        let va = VAddr(0x77_0000);
        assert!(aspace.translate(&hw.phys, va, false).is_err());
        let action = k.on_page_fault(&mut hw, &fault_at(va));
        assert_eq!(action.handler_cycles, HONEST_PAGER_CYCLES);
        assert!(aspace.translate(&hw.phys, va, false).is_ok());
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

        let replay = |k: &mut Kernel, hw: &mut HwParts| {
            let action = k.on_page_fault(hw, &fault_at(handle));
            assert_eq!(action.handler_cycles, 800, "the recipe's handler ran");
        };
        let cp = k.checkpoint().expect("the kernel has state");
        for _ in 0..2 {
            // Two faults: module keeps the page away.
            replay(&mut k, &mut hw);
            replay(&mut k, &mut hw);
            assert!(aspace.translate(&hw.phys, handle, false).is_err());
            // Third fault: recipe completes and releases the page.
            replay(&mut k, &mut hw);
            assert!(aspace.translate(&hw.phys, handle, false).is_ok());
            assert_eq!(shared.borrow().replays[0], 3);
            assert!(shared.borrow().finished[0]);
            // A restore rewinds the recipe and, through the attacker's
            // handle, the shared state; re-fault the page to replay again.
            assert!(k.restore_checkpoint(cp.as_ref()));
            assert_eq!(
                *shared.borrow(),
                ModuleShared {
                    replays: vec![0],
                    steps: vec![0],
                    finished: vec![false],
                    armed: true,
                    ..ModuleShared::default()
                }
            );
            aspace.set_present(&mut hw.phys, handle, false);
        }
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
        let va = VAddr(0x99_0000);
        let action = k.on_page_fault(&mut hw, &fault_at(va));
        assert_eq!(action.handler_cycles, HONEST_PAGER_CYCLES);
        assert!(aspace.translate(&hw.phys, va, false).is_ok());
    }
}
