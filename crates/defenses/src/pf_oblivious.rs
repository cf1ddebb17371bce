//! Page-fault obliviousness (Shinde et al., AsiaCCS'16): make the page
//! access *pattern* input-independent by adding redundant accesses.
//!
//! The paper's observation (§8): "this mechanism makes it easier for
//! MicroScope to perform an attack, as the added memory accesses provide
//! more replay handles."

use crate::DefenseOutcome;
use microscope_cpu::{Inst, Program, Reg};
use microscope_mem::VAddr;

/// The scratch register the inserted decoy loads clobber. The transformed
/// program must not rely on it.
pub const DECOY_REG: Reg = Reg(28);

/// Applies the (simplified) PF-oblivious transform: after every memory
/// access, insert a decoy load of one of `decoy_pages`, cycling through
/// them, so every execution touches every decoy page regardless of the
/// input. Control-flow targets are relocated across the insertions.
pub fn make_oblivious(body: &Program, decoy_pages: &[VAddr]) -> Program {
    assert!(!decoy_pages.is_empty(), "need at least one decoy page");
    // First pass: how many insertions precede each original index?
    let mut inserted_before = Vec::with_capacity(body.len() + 1);
    let mut count = 0usize;
    for inst in body.iter() {
        inserted_before.push(count);
        if inst.is_memory() {
            count += 2; // imm + load
        }
    }
    inserted_before.push(count);
    // Second pass: emit with remapped targets.
    let remap = |t: usize| t + inserted_before[t];
    let mut out = Vec::with_capacity(body.len() + count);
    let mut decoy_idx = 0usize;
    for inst in body.iter() {
        let emitted = inst.retargeted(remap);
        let was_memory = emitted.is_memory();
        out.push(emitted);
        if was_memory {
            let page = decoy_pages[decoy_idx % decoy_pages.len()];
            decoy_idx += 1;
            out.push(Inst::Imm {
                dst: DECOY_REG,
                value: page.0,
            });
            out.push(Inst::Load {
                dst: DECOY_REG,
                base: DECOY_REG,
                offset: 0,
                size: 8,
            });
        }
    }
    Program::new(out).expect("decoy loads are 8-byte loads of DECOY_REG and targets are remapped")
}

/// The §8 evaluation row: "leak" counted as the number of candidate replay
/// handles available to the attacker. PF-obliviousness *increases* it.
pub fn evaluate() -> DefenseOutcome {
    let mut phys = microscope_mem::PhysMem::new();
    let aspace = microscope_mem::AddressSpace::new(&mut phys, 1);
    let (prog, layout) =
        microscope_victims::control_flow::build(&mut phys, aspace, VAddr(0x1000_0000), true);
    let decoys = [VAddr(0x7000_0000), VAddr(0x7000_2000)];
    let oblivious = make_oblivious(&prog, &decoys);
    let handles_before = prog.memory_access_indices().len() as u64;
    let handles_after = oblivious.memory_access_indices().len() as u64;
    let _ = layout;
    DefenseOutcome {
        name: "PF-obliviousness (redundant page accesses)",
        leak_undefended: handles_before,
        leak_defended: handles_after,
        effective: false,
        caveat: "hides the page-fault sequence but hands MicroScope more \
                 replay handles (leak metric: candidate handles)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_cpu::{Assembler, Cond, ContextId, MachineBuilder};
    use microscope_mem::{AddressSpace, PhysMem, PteFlags};

    #[test]
    fn transform_preserves_semantics() {
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        let data = VAddr(0x100_0000);
        aspace.alloc_map(&mut phys, data, 4096, PteFlags::user_data());
        let t = aspace.translate(&phys, data, true).unwrap();
        phys.write_u64(t.paddr, 7);
        let decoy = VAddr(0x7000_0000);
        aspace.alloc_map(&mut phys, decoy, 4096, PteFlags::user_data());

        // A loop with a load, exercising target relocation.
        let (p, v, acc, i, n) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5));
        let mut asm = Assembler::new();
        asm.imm(p, data.0).imm(acc, 0).imm(i, 0).imm(n, 3);
        let top = asm.label();
        asm.bind(top);
        asm.load(v, p, 0)
            .alu(microscope_cpu::AluOp::Add, acc, acc, v)
            .alu_imm(microscope_cpu::AluOp::Add, i, i, 1)
            .branch(Cond::Lt, i, n, top)
            .halt();
        let body = asm.finish();
        let oblivious = make_oblivious(&body, &[decoy]);

        let mut m = MachineBuilder::new()
            .phys(phys)
            .context_in(oblivious, aspace)
            .build();
        m.run(1_000_000);
        assert!(m.context(ContextId(0)).halted());
        assert_eq!(m.context(ContextId(0)).reg(acc), 21, "3 × 7 accumulated");
    }

    #[test]
    fn decoy_pages_are_touched_on_every_path() {
        // The defensive property: both decoys accessed regardless of input.
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        let (prog, _) =
            microscope_victims::control_flow::build(&mut phys, aspace, VAddr(0x1000_0000), false);
        let decoys = [VAddr(0x7000_0000), VAddr(0x7000_2000)];
        for d in decoys {
            aspace.alloc_map(&mut phys, d, 4096, PteFlags::user_data());
        }
        let oblivious = make_oblivious(&prog, &decoys);
        let mut m = MachineBuilder::new()
            .phys(phys)
            .context_in(oblivious, aspace)
            .build();
        m.run(1_000_000);
        for d in decoys {
            assert_eq!(
                aspace.accessed(&m.hw().phys, d),
                Some(true),
                "decoy {d} must be touched"
            );
        }
    }

    #[test]
    fn transform_adds_replay_handles() {
        let o = evaluate();
        assert!(
            o.leak_defended > o.leak_undefended,
            "more handles after the transform: {o:?}"
        );
        assert!(!o.effective);
    }
}
