//! Fences on pipeline flushes, the RDRAND fence (paper §8 / §7.2), and
//! static fence *insertion* — the program transform the analysis crate's
//! defense-audit mode verifies.

use crate::DefenseOutcome;
use microscope_core::{RunRequest, SessionBuilder, SimConfig};
use microscope_cpu::{Assembler, ContextId, CoreConfig, Inst, Program, Reg};
use microscope_mem::VAddr;
use microscope_victims::layout::DataLayout;
use microscope_victims::rdrand;

/// Where `pc` lands after inserting fences at `positions` (sorted, deduped
/// internally): each fence at position `p <= pc` pushes the instruction
/// one slot down.
pub fn remapped_pc(positions: &[usize], pc: usize) -> usize {
    let mut sorted: Vec<usize> = positions.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    pc + sorted.iter().take_while(|&&p| p <= pc).count()
}

/// Inserts a `fence` *before* each program index in `positions`
/// (duplicates and out-of-range positions are ignored; `len` inserts at
/// the very end), remapping every control-flow target so the program's
/// behavior is unchanged apart from the serialization points.
///
/// A branch targeting a fenced position lands **on** the fence — the
/// serialization guards the original instruction on every path to it,
/// which is exactly what closing a speculation window requires.
pub fn insert_fences(program: &Program, positions: &[usize]) -> Program {
    let mut sorted: Vec<usize> = positions
        .iter()
        .copied()
        .filter(|&p| p <= program.len())
        .collect();
    sorted.sort_unstable();
    sorted.dedup();
    // Targets use the strict count: a branch to `t` must land on the fence
    // inserted at `t`, i.e. move only past fences strictly before it.
    let target_map = |t: usize| t + sorted.iter().take_while(|&&p| p < t).count();
    let mut out = Vec::with_capacity(program.len() + sorted.len());
    let mut next_fence = 0usize;
    for (pc, inst) in program.iter().enumerate() {
        while next_fence < sorted.len() && sorted[next_fence] == pc {
            out.push(Inst::Fence);
            next_fence += 1;
        }
        out.push(inst.retargeted(target_map));
    }
    while next_fence < sorted.len() {
        out.push(Inst::Fence);
        next_fence += 1;
    }
    Program::new(out)
        .expect("a fence names no register and remapped targets stay within the output")
}

/// Builds the canonical leak victim: a replay-handle load followed by an
/// independent transmit load. Returns (program, handle, transmit).
fn leak_victim(b: &mut SessionBuilder) -> (microscope_cpu::Program, VAddr, VAddr) {
    let aspace = b.new_aspace(1);
    let mut layout = DataLayout::new(b.phys(), aspace, VAddr(0x1000_0000));
    let handle = layout.page(64);
    let transmit = layout.page(64);
    let (hp, hv, tp, tv) = (Reg(1), Reg(2), Reg(3), Reg(4));
    let mut asm = Assembler::new();
    asm.imm(hp, handle.0)
        .imm(tp, transmit.0)
        .load(hv, hp, 0)
        .load(tv, tp, 0)
        .halt();
    let prog = asm.finish();
    b.victim(prog.clone(), aspace);
    (prog, handle, transmit)
}

/// Runs the replay attack against the leak victim and returns the number
/// of times the *transmit* load executed (each execution is one leaked
/// sample).
fn transmit_executions(fence_after_flush: bool, replays: u64) -> u64 {
    let mut b = SessionBuilder::new();
    b.sim(SimConfig::new().with_core(CoreConfig {
        fence_after_pipeline_flush: fence_after_flush,
        ..CoreConfig::default()
    }));
    let (_, handle, _) = leak_victim(&mut b);
    let id = b.module().provide_replay_handle(ContextId(0), handle);
    b.module().recipe_mut(id).replays_per_step = replays;
    let mut session = b.build().expect("fence-eval session has a victim");
    let report = session
        .execute(RunRequest::cold(50_000_000))
        .expect("a cold run cannot fail");
    let stats = report.stats.contexts[0];
    // handle executions = faults + the final successful one.
    stats.loads_executed - (stats.page_faults + 1)
}

/// §8 "Fences on Pipeline Flushes": insert a fence after every squash so
/// replayed instructions execute alone. Bounds the leak to the first
/// (pre-fault) execution.
pub fn evaluate_pipeline_fence() -> DefenseOutcome {
    let replays = 20;
    DefenseOutcome {
        name: "fence after pipeline flush",
        leak_undefended: transmit_executions(false, replays),
        leak_defended: transmit_executions(true, replays),
        effective: true,
        caveat: "first execution still leaks once; multiple concurrent \
                 flush causes and TSX-window replays are not covered",
    }
}

/// The §7.2 RDRAND biasing attack, with and without the RDRAND fence.
/// Returns how many of `trials` runs the attacker forced the committed
/// random bit to its target value.
pub fn rdrand_bias_successes(fenced: bool, trials: u32, target_bit: u64) -> u32 {
    use microscope_cpu::{FaultEvent, HwParts, Supervisor, SupervisorAction};
    use microscope_mem::AddressSpace;

    /// Replayer that releases the handle only once it observes the desired
    /// bit speculatively transmitted.
    struct BiasingReplayer {
        aspace: AddressSpace,
        layout: rdrand::RdRandLayout,
        target_bit: u64,
        give_up_after: u64,
        faults: u64,
    }
    impl Supervisor for BiasingReplayer {
        fn on_page_fault(&mut self, hw: &mut HwParts, ev: &FaultEvent) -> SupervisorAction {
            self.faults += 1;
            let want = self.layout.transmit_addr(self.target_bit);
            let hot = microscope_os::translate_ignoring_present(hw, self.aspace, want)
                .map(|pa| hw.hier.level_of(pa).is_some())
                .unwrap_or(false);
            if hot || self.faults >= self.give_up_after {
                // Either the draw we want is in flight, or we give up.
                // Release *fast*: the DRBG buffer must not refill before
                // the re-executed RDRAND commits the observed value.
                self.aspace.set_present(&mut hw.phys, ev.fault.vaddr, true);
                hw.tlb.invlpg(ev.fault.vaddr, self.aspace.pcid());
                return SupervisorAction::cycles(20);
            } else {
                // Flush the probe lines and replay for a fresh draw.
                for bit in 0..2 {
                    if let Some(pa) = microscope_os::translate_ignoring_present(
                        hw,
                        self.aspace,
                        self.layout.transmit_addr(bit),
                    ) {
                        hw.hier.flush_line(pa);
                    }
                }
                microscope_os::flush_translation(hw, self.aspace, ev.fault.vaddr);
            }
            SupervisorAction::cycles(700)
        }
    }

    let mut successes = 0;
    for trial in 0..trials {
        let mut phys = microscope_mem::PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        let (prog, layout) = rdrand::build(&mut phys, aspace, VAddr(0x900_0000));
        aspace.set_present(&mut phys, layout.handle, false);
        let sup = BiasingReplayer {
            aspace,
            layout,
            target_bit,
            give_up_after: 64,
            faults: 0,
        };
        let mut m = microscope_cpu::MachineBuilder::new()
            .core_config(CoreConfig {
                rdrand_is_fenced: fenced,
                rdrand_seed: 0xfeed + u64::from(trial),
                ..CoreConfig::default()
            })
            .phys(phys)
            .context_in(prog, aspace)
            .supervisor(Box::new(sup))
            .build();
        m.run(5_000_000);
        let committed = m.read_virt(ContextId(0), layout.result, 8);
        if committed & 1 == target_bit {
            successes += 1;
        }
    }
    successes
}

/// §7.2: the fence on RDRAND is what stops the integrity attack.
pub fn evaluate_rdrand_fence() -> DefenseOutcome {
    let trials = 12;
    let unfenced = rdrand_bias_successes(false, trials, 1);
    let fenced = rdrand_bias_successes(true, trials, 1);
    DefenseOutcome {
        name: "RDRAND speculation fence",
        leak_undefended: u64::from(unfenced),
        leak_defended: u64::from(fenced),
        // Effective when the fenced success rate is consistent with chance.
        effective: fenced <= trials * 3 / 4,
        caveat: "Intel's fence exists for non-security reasons; TSX-window \
                 replays would bypass it (§7.1)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_cpu::Cond;

    #[test]
    fn insert_fences_remaps_targets_and_preserves_shape() {
        // 0: imm, 1: branch->3, 2: load, 3: halt; fence before the load.
        let mut asm = Assembler::new();
        let end = asm.label();
        asm.imm(Reg(1), 0x1000)
            .branch(Cond::Eq, Reg(1), Reg(1), end)
            .load(Reg(2), Reg(1), 0);
        asm.bind(end);
        asm.halt();
        let p = asm.finish();
        let fenced = insert_fences(&p, &[2]);
        assert_eq!(fenced.len(), p.len() + 1);
        assert!(matches!(fenced.fetch(2), Some(Inst::Fence)));
        assert!(matches!(fenced.fetch(3), Some(Inst::Load { .. })));
        // The branch's target (old 3) moves past the fence to 4.
        assert!(matches!(
            fenced.fetch(1),
            Some(Inst::Branch { target: 4, .. })
        ));
        assert_eq!(remapped_pc(&[2], 2), 3);
        assert_eq!(remapped_pc(&[2], 1), 1);
    }

    #[test]
    fn branch_onto_a_fenced_position_lands_on_the_fence() {
        // A branch *to* the fenced instruction must serialize before
        // reaching it, so its target maps to the fence itself.
        let mut asm = Assembler::new();
        let back = asm.label();
        asm.imm(Reg(1), 0);
        asm.bind(back);
        asm.load(Reg(2), Reg(1), 0)
            .branch(Cond::Eq, Reg(1), Reg(1), back)
            .halt();
        let p = asm.finish();
        let fenced = insert_fences(&p, &[1]);
        assert!(matches!(fenced.fetch(1), Some(Inst::Fence)));
        // Old target 1 stays 1: it now points at the guarding fence.
        assert!(matches!(
            fenced.fetch(3),
            Some(Inst::Branch { target: 1, .. })
        ));
    }

    #[test]
    fn pipeline_fence_bounds_the_leak() {
        let o = evaluate_pipeline_fence();
        assert!(
            o.leak_undefended >= 15,
            "undefended replay leaks every time: {o:?}"
        );
        assert!(o.leak_defended <= 2, "fence caps the leak: {o:?}");
    }

    #[test]
    fn rdrand_bias_works_only_without_the_fence() {
        let unfenced = rdrand_bias_successes(false, 8, 1);
        assert!(
            unfenced >= 7,
            "biasing should almost always win: {unfenced}"
        );
        let fenced = rdrand_bias_successes(true, 8, 1);
        assert!(fenced <= 6, "fenced RDRAND must be near chance: {fenced}/8");
    }
}
