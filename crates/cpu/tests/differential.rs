//! Differential testing: the out-of-order machine against a sequential
//! reference interpreter.
//!
//! Out-of-order execution, renaming, speculation and squash must be
//! *architecturally invisible*: any program must produce exactly the
//! register file and memory a simple in-order interpreter produces. This
//! is the contract MicroScope exploits (replay steals microarchitectural
//! state, never architectural results), so it gets the heaviest test.
//! Every program also runs a second time on the cycle-by-cycle loop
//! (fast-forward off), which must end on the same cycle with the same
//! statistics and divider accounting.

use microscope_cpu::{AluOp, Cond, Inst, MachineBuilder, Program, Reg};
use microscope_mem::{AddressSpace, PhysMem, PteFlags, VAddr, PAGE_BYTES};
use proptest::prelude::*;
use std::collections::HashMap;

const DATA_BASE: u64 = 0x3000_0000;

/// The sequential reference semantics.
fn interpret(prog: &Program, init_mem: &HashMap<u64, u64>) -> ([u64; 32], HashMap<u64, u64>) {
    let mut regs = [0u64; 32];
    let mut mem = init_mem.clone();
    let mut pc = 0usize;
    let mut steps = 0u64;
    while let Some(inst) = prog.fetch(pc) {
        steps += 1;
        assert!(steps < 1_000_000, "interpreter runaway");
        pc += 1;
        match inst {
            Inst::Imm { dst, value } => regs[dst.index()] = value,
            Inst::Mov { dst, src } => regs[dst.index()] = regs[src.index()],
            Inst::Alu { op, dst, a, b } => {
                regs[dst.index()] = op.apply(regs[a.index()], regs[b.index()])
            }
            Inst::AluImm { op, dst, a, imm } => regs[dst.index()] = op.apply(regs[a.index()], imm),
            Inst::Mul { dst, a, b } => {
                regs[dst.index()] = regs[a.index()].wrapping_mul(regs[b.index()])
            }
            Inst::FOp { op, dst, a, b } => {
                regs[dst.index()] = op.apply(regs[a.index()], regs[b.index()])
            }
            Inst::Load {
                dst,
                base,
                offset,
                size,
            } => {
                let addr = regs[base.index()].wrapping_add_signed(offset);
                let word = mem.get(&(addr & !7)).copied().unwrap_or(0);
                let shift = (addr & 7) * 8;
                let mask = if size == 8 {
                    u64::MAX
                } else {
                    (1u64 << (u32::from(size) * 8)) - 1
                };
                // Test programs use aligned, in-word accesses only.
                regs[dst.index()] = (word >> shift) & mask;
            }
            Inst::Store {
                src,
                base,
                offset,
                size,
            } => {
                let addr = regs[base.index()].wrapping_add_signed(offset);
                assert_eq!(addr & 7, 0, "test stores are 8-aligned");
                assert_eq!(size, 8, "test stores are 8 bytes");
                mem.insert(addr, regs[src.index()]);
            }
            Inst::Branch { cond, a, b, target } => {
                if cond.eval(regs[a.index()], regs[b.index()]) {
                    pc = target;
                }
            }
            Inst::Jmp { target } => pc = target,
            Inst::ReadTimer { dst, .. } => regs[dst.index()] = 0, // not compared
            Inst::RdRand { dst } => regs[dst.index()] = 0,        // not compared
            Inst::Fence | Inst::Nop => {}
            Inst::XBegin { .. } | Inst::XEnd | Inst::XAbort { .. } => {}
            Inst::Halt => break,
        }
    }
    (regs, mem)
}

/// Structured random program: three blocks of ops, each optionally wrapped
/// in a fixed-count loop, over 16 memory slots.
#[derive(Clone, Debug)]
struct Block {
    ops: Vec<RandOp>,
    loop_count: u8, // 0 = straight line, else 1..4 iterations
}

#[derive(Clone, Debug)]
enum RandOp {
    Alu(u8, u8, u8, u8),
    AluImm(u8, u8, u8, u8),
    Mov(u8, u8),
    Mul(u8, u8, u8),
    FDiv(u8, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
}

fn arb_op() -> impl Strategy<Value = RandOp> {
    // Registers 1..10 are playground; 11+ reserved for loop counters/base.
    prop_oneof![
        (0u8..7, 1u8..10, 1u8..10, 1u8..10).prop_map(|(o, d, a, b)| RandOp::Alu(o, d, a, b)),
        (0u8..7, 1u8..10, 1u8..10, 0u8..64).prop_map(|(o, d, a, i)| RandOp::AluImm(o, d, a, i)),
        (1u8..10, 1u8..10).prop_map(|(d, s)| RandOp::Mov(d, s)),
        (1u8..10, 1u8..10, 1u8..10).prop_map(|(d, a, b)| RandOp::Mul(d, a, b)),
        (1u8..10, 1u8..10, 1u8..10).prop_map(|(d, a, b)| RandOp::FDiv(d, a, b)),
        (1u8..10, 0u8..16).prop_map(|(d, s)| RandOp::Load(d, s)),
        (1u8..10, 0u8..16).prop_map(|(s, sl)| RandOp::Store(s, sl)),
    ]
}

fn arb_block() -> impl Strategy<Value = Block> {
    (prop::collection::vec(arb_op(), 1..10), 0u8..4)
        .prop_map(|(ops, loop_count)| Block { ops, loop_count })
}

fn alu(sel: u8) -> AluOp {
    match sel % 7 {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::And,
        3 => AluOp::Or,
        4 => AluOp::Xor,
        5 => AluOp::Shl,
        _ => AluOp::Shr,
    }
}

fn compile(blocks: &[Block]) -> Program {
    use microscope_cpu::Assembler;
    let base = Reg(13);
    let mut asm = Assembler::new();
    asm.imm(base, DATA_BASE);
    for r in 1..10u8 {
        asm.imm(Reg(r), u64::from(r) * 1_234_567 + 89);
    }
    for (bi, block) in blocks.iter().enumerate() {
        let counter = Reg(14);
        let bound = Reg(15);
        let top = asm.label();
        if block.loop_count > 0 {
            asm.imm(counter, 0).imm(bound, u64::from(block.loop_count));
            asm.bind(top);
        }
        for op in &block.ops {
            match *op {
                RandOp::Alu(o, d, a, b) => {
                    asm.alu(alu(o), Reg(d), Reg(a), Reg(b));
                }
                RandOp::AluImm(o, d, a, i) => {
                    asm.alu_imm(alu(o), Reg(d), Reg(a), u64::from(i));
                }
                RandOp::Mov(d, s) => {
                    asm.mov(Reg(d), Reg(s));
                }
                RandOp::Mul(d, a, b) => {
                    asm.mul(Reg(d), Reg(a), Reg(b));
                }
                RandOp::FDiv(d, a, b) => {
                    asm.fdiv(Reg(d), Reg(a), Reg(b));
                }
                RandOp::Load(d, slot) => {
                    asm.load(Reg(d), Reg(13), i64::from(slot) * 8);
                }
                RandOp::Store(s, slot) => {
                    asm.store(Reg(s), Reg(13), i64::from(slot) * 8);
                }
            }
        }
        if block.loop_count > 0 {
            asm.alu_imm(AluOp::Add, counter, counter, 1);
            asm.branch(Cond::Lt, counter, bound, top);
        }
        let _ = bi;
    }
    asm.halt();
    asm.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn out_of_order_machine_matches_sequential_semantics(
        blocks in prop::collection::vec(arb_block(), 1..4),
    ) {
        let prog = compile(&blocks);
        // Initial memory: 16 slots of recognizable values.
        let mut init = HashMap::new();
        for slot in 0..16u64 {
            init.insert(DATA_BASE + slot * 8, 0xAB00_0000 + slot * 17);
        }
        let (ref_regs, ref_mem) = interpret(&prog, &init);

        let mut phys = PhysMem::new();
        let asp = AddressSpace::new(&mut phys, 1);
        asp.alloc_map(&mut phys, VAddr(DATA_BASE), PAGE_BYTES, PteFlags::user_data());
        for (addr, value) in &init {
            let t = asp.translate(&phys, VAddr(*addr), true).unwrap();
            phys.write_u64(t.paddr, *value);
        }
        let build = || {
            MachineBuilder::new()
                .phys(phys.clone())
                .context_in(prog.clone(), asp)
                .build()
        };
        let mut m = build();
        let exit = m.run(5_000_000);
        prop_assert_eq!(exit, microscope_cpu::RunExit::AllHalted);
        // Fast-forward is invisible: the cycle-by-cycle loop ends on the
        // same cycle with the same counters and divider accounting.
        let mut reference = build();
        reference.set_fast_forward(false);
        prop_assert_eq!(reference.run(5_000_000), exit);
        prop_assert_eq!(reference.cycle(), m.cycle());
        prop_assert_eq!(reference.stats(), m.stats());
        prop_assert_eq!(reference.ports().div_stats(), m.ports().div_stats());
        let ctx = m.context(0.into());
        for r in 1..13u8 {
            prop_assert_eq!(
                ctx.reg(Reg(r)),
                ref_regs[r as usize],
                "register r{} diverged", r
            );
        }
        for (addr, want) in &ref_mem {
            prop_assert_eq!(
                m.read_virt(0.into(), VAddr(*addr), 8),
                *want,
                "memory {:#x} diverged", addr
            );
        }
    }
}
