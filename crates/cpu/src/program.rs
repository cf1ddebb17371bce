//! Programs and the label-resolving assembler.

use crate::isa::{AluOp, Cond, FpOp, Inst, Reg};
use std::sync::Arc;

/// A finished, immutable instruction sequence.
///
/// Programs are shared (`Arc`) between the builder that creates them and
/// the context that executes them; they are *not* stored in simulated
/// memory (instruction fetch does not page-fault in this model — the
/// paper's replay handles are data accesses).
#[derive(Clone, Debug)]
pub struct Program {
    insts: Arc<[Inst]>,
}

impl Program {
    /// Validates `insts` and wraps them as a program. Prefer [`Assembler`]
    /// for anything with control flow.
    ///
    /// This is the one place that decides what a program is. Every
    /// instruction must name registers below [`Reg::COUNT`], every load and
    /// store must access 1, 2, 4 or 8 bytes, and every control target must
    /// be at most the program length (a target equal to it falls off the
    /// end, which halts). The first instruction that breaks a rule is
    /// returned as a [`ProgramError`]; the core and the analyzer rely on
    /// these rules and never check them again.
    pub fn new(insts: Vec<Inst>) -> Result<Self, ProgramError> {
        let len = insts.len();
        for (at, inst) in insts.iter().enumerate() {
            let (dst, srcs) = (inst.dst(), inst.sources());
            let mut regs = dst.iter().chain(srcs.iter());
            if let Some(reg) = regs.find(|r| r.index() >= Reg::COUNT) {
                return Err(ProgramError::BadRegister { at, reg: reg.0 });
            }
            if let Inst::Load { size, .. } | Inst::Store { size, .. } = *inst {
                if !matches!(size, 1 | 2 | 4 | 8) {
                    return Err(ProgramError::BadAccessSize { at, size });
                }
            }
            if let Some(target) = inst.control_target().filter(|&t| t > len) {
                return Err(ProgramError::TargetOutOfRange { at, target, len });
            }
        }
        Ok(Program {
            insts: insts.into(),
        })
    }

    /// The instruction at `pc`, or `None` past the end.
    pub fn fetch(&self, pc: usize) -> Option<Inst> {
        self.insts.get(pc).copied()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Iterator over the instructions.
    pub fn iter(&self) -> impl Iterator<Item = &Inst> {
        self.insts.iter()
    }

    /// Program indices of every memory-access instruction — the candidate
    /// replay handles an attacker scans for (paper §4.1.1: "programs have
    /// many potential replay handles").
    pub fn memory_access_indices(&self) -> Vec<usize> {
        self.insts
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_memory())
            .map(|(i, _)| i)
            .collect()
    }
}

/// A forward-referencable branch target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Why [`Program::new`] (or [`Assembler::assemble`], which resolves
/// labels and then calls it) rejected an instruction vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A control-flow instruction references a label that was never bound.
    UnboundLabel {
        /// Program index of the referencing instruction.
        at: usize,
    },
    /// An instruction names a register outside `Reg(0)`–`Reg(31)`.
    BadRegister {
        /// Program index of the offending instruction.
        at: usize,
        /// The out-of-range register number.
        reg: u8,
    },
    /// A control-flow target points past the end of the program. A target
    /// *equal to* the length is allowed (falling off the end halts); one
    /// beyond it would silently halt at runtime instead of going where it
    /// claims.
    TargetOutOfRange {
        /// Program index of the offending instruction.
        at: usize,
        /// The out-of-range target.
        target: usize,
        /// Program length.
        len: usize,
    },
    /// A load or store whose access size is not 1, 2, 4 or 8 bytes.
    BadAccessSize {
        /// Program index of the offending instruction.
        at: usize,
        /// The rejected size in bytes.
        size: u8,
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("program validation failed: ")?;
        match *self {
            ProgramError::UnboundLabel { at } => {
                write!(f, "unbound label referenced by instruction at pc {at}")
            }
            ProgramError::BadRegister { at, reg } => write!(
                f,
                "instruction at pc {at} names r{reg}; registers are r0 to r31"
            ),
            ProgramError::TargetOutOfRange { at, target, len } => write!(
                f,
                "instruction at pc {at} targets {target}, past the end of the \
                 {len}-instruction program"
            ),
            ProgramError::BadAccessSize { at, size } => write!(
                f,
                "instruction at pc {at} accesses {size} bytes; loads and \
                 stores take 1, 2, 4 or 8"
            ),
        }
    }
}

impl std::error::Error for ProgramError {}

/// Incremental program builder with labels.
///
/// All emit methods return `&mut Self` for chaining (non-consuming builder).
///
/// ```
/// use microscope_cpu::{Assembler, Reg, Cond};
/// let mut asm = Assembler::new();
/// let (i, n, acc) = (Reg(1), Reg(2), Reg(3));
/// let loop_top = asm.label();
/// asm.imm(i, 0).imm(n, 10).imm(acc, 0);
/// asm.bind(loop_top);
/// asm.alu_imm(microscope_cpu::AluOp::Add, acc, acc, 2)
///     .alu_imm(microscope_cpu::AluOp::Add, i, i, 1)
///     .branch(Cond::Lt, i, n, loop_top)
///     .halt();
/// let prog = asm.finish();
/// assert!(prog.len() > 0);
/// ```
#[derive(Debug, Default)]
pub struct Assembler {
    insts: Vec<Inst>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label)>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Assembler::default()
    }

    /// Allocates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.insts.len());
        self
    }

    /// Current instruction index (the pc of the *next* emitted instruction).
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    /// Emits a raw instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// `dst = value`
    pub fn imm(&mut self, dst: Reg, value: u64) -> &mut Self {
        self.push(Inst::Imm { dst, value })
    }

    /// `dst = bits of the f64 value`
    pub fn imm_f64(&mut self, dst: Reg, value: f64) -> &mut Self {
        self.imm(dst, value.to_bits())
    }

    /// `dst = src`
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Inst::Mov { dst, src })
    }

    /// `dst = a <op> b`
    pub fn alu(&mut self, op: AluOp, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.push(Inst::Alu { op, dst, a, b })
    }

    /// `dst = a <op> imm`
    pub fn alu_imm(&mut self, op: AluOp, dst: Reg, a: Reg, imm: u64) -> &mut Self {
        self.push(Inst::AluImm { op, dst, a, imm })
    }

    /// Integer multiply.
    pub fn mul(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.push(Inst::Mul { dst, a, b })
    }

    /// Floating-point divide (`divsd`).
    pub fn fdiv(&mut self, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.push(Inst::FOp {
            op: FpOp::Div,
            dst,
            a,
            b,
        })
    }

    /// 8-byte load.
    pub fn load(&mut self, dst: Reg, base: Reg, offset: i64) -> &mut Self {
        self.load_sized(dst, base, offset, 8)
    }

    /// Load of 1, 2, 4 or 8 bytes (zero-extended).
    pub fn load_sized(&mut self, dst: Reg, base: Reg, offset: i64, size: u8) -> &mut Self {
        self.push(Inst::Load {
            dst,
            base,
            offset,
            size,
        })
    }

    /// 8-byte store.
    pub fn store(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.store_sized(src, base, offset, 8)
    }

    /// Store of 1, 2, 4 or 8 bytes.
    pub fn store_sized(&mut self, src: Reg, base: Reg, offset: i64, size: u8) -> &mut Self {
        self.push(Inst::Store {
            src,
            base,
            offset,
            size,
        })
    }

    /// Conditional branch to `label`.
    pub fn branch(&mut self, cond: Cond, a: Reg, b: Reg, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label));
        self.push(Inst::Branch {
            cond,
            a,
            b,
            target: usize::MAX,
        })
    }

    /// Unconditional jump to `label`.
    pub fn jmp(&mut self, label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), label));
        self.push(Inst::Jmp { target: usize::MAX })
    }

    /// `dst = cycle counter`.
    pub fn read_timer(&mut self, dst: Reg) -> &mut Self {
        self.push(Inst::ReadTimer { dst, after: None })
    }

    /// `dst = cycle counter`, ordered after the producer of `after`.
    pub fn read_timer_after(&mut self, dst: Reg, after: Reg) -> &mut Self {
        self.push(Inst::ReadTimer {
            dst,
            after: Some(after),
        })
    }

    /// Hardware random number into `dst`.
    pub fn rdrand(&mut self, dst: Reg) -> &mut Self {
        self.push(Inst::RdRand { dst })
    }

    /// Serializing fence.
    pub fn fence(&mut self) -> &mut Self {
        self.push(Inst::Fence)
    }

    /// Transaction begin, aborting to `label`.
    pub fn xbegin(&mut self, abort_label: Label) -> &mut Self {
        self.fixups.push((self.insts.len(), abort_label));
        self.push(Inst::XBegin {
            abort_target: usize::MAX,
        })
    }

    /// Transaction commit.
    pub fn xend(&mut self) -> &mut Self {
        self.push(Inst::XEnd)
    }

    /// Explicit transaction abort.
    pub fn xabort(&mut self, code: u8) -> &mut Self {
        self.push(Inst::XAbort { code })
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.push(Inst::Nop)
    }

    /// Halt.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Inst::Halt)
    }

    /// Resolves labels and hands the result to [`Program::new`], which
    /// validates it. A reference to a label that was never bound is
    /// [`ProgramError::UnboundLabel`]; everything else is checked there,
    /// including instructions added through [`Assembler::push`].
    pub fn assemble(&mut self) -> Result<Program, ProgramError> {
        let mut insts = std::mem::take(&mut self.insts);
        for (at, label) in self.fixups.drain(..) {
            let Some(target) = self.labels[label.0] else {
                return Err(ProgramError::UnboundLabel { at });
            };
            match &mut insts[at] {
                Inst::Branch { target: t, .. }
                | Inst::Jmp { target: t }
                | Inst::XBegin { abort_target: t } => *t = target,
                other => unreachable!("fixup on non-control instruction {other:?}"),
            }
        }
        self.labels.clear();
        Program::new(insts)
    }

    /// Resolves labels and produces the program.
    ///
    /// # Panics
    ///
    /// Panics if the program is rejected by [`Assembler::assemble`] (an
    /// unbound label or any [`ProgramError`] of [`Program::new`]).
    pub fn finish(&mut self) -> Program {
        self.assemble().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut asm = Assembler::new();
        let top = asm.label();
        let out = asm.label();
        asm.bind(top);
        asm.imm(Reg(1), 0);
        asm.branch(Cond::Eq, Reg(1), Reg(1), out);
        asm.jmp(top);
        asm.bind(out);
        asm.halt();
        let p = asm.finish();
        match p.fetch(1).unwrap() {
            Inst::Branch { target, .. } => assert_eq!(target, 3),
            other => panic!("expected branch, got {other:?}"),
        }
        match p.fetch(2).unwrap() {
            Inst::Jmp { target } => assert_eq!(target, 0),
            other => panic!("expected jmp, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics_at_finish() {
        let mut asm = Assembler::new();
        let l = asm.label();
        asm.jmp(l);
        let _ = asm.finish();
    }

    #[test]
    fn assemble_rejects_unbound_labels_with_a_typed_error() {
        let mut asm = Assembler::new();
        let l = asm.label();
        asm.nop().jmp(l);
        assert_eq!(
            asm.assemble().unwrap_err(),
            ProgramError::UnboundLabel { at: 1 }
        );
    }

    #[test]
    fn assemble_rejects_out_of_range_targets() {
        let mut asm = Assembler::new();
        asm.push(Inst::Jmp { target: 5 }).halt();
        assert_eq!(
            asm.assemble().unwrap_err(),
            ProgramError::TargetOutOfRange {
                at: 0,
                target: 5,
                len: 2
            }
        );
    }

    #[test]
    fn assemble_allows_targets_one_past_the_end() {
        // A label bound after the last instruction resolves to `len`;
        // branching there falls off the end and halts, which is valid.
        let mut asm = Assembler::new();
        let end = asm.label();
        asm.imm(Reg(1), 0).branch(Cond::Eq, Reg(1), Reg(1), end);
        asm.bind(end);
        let p = asm.assemble().expect("target == len is legal");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn assemble_rejects_bad_access_sizes() {
        let mut asm = Assembler::new();
        asm.imm(Reg(1), 0x1000).load_sized(Reg(2), Reg(1), 0, 3);
        assert_eq!(
            asm.assemble().unwrap_err(),
            ProgramError::BadAccessSize { at: 1, size: 3 }
        );
        let mut asm = Assembler::new();
        asm.store_sized(Reg(2), Reg(1), 0, 16).halt();
        assert_eq!(
            asm.assemble().unwrap_err(),
            ProgramError::BadAccessSize { at: 0, size: 16 }
        );
        let mut asm = Assembler::new();
        for size in [1, 2, 4, 8] {
            asm.load_sized(Reg(2), Reg(1), 0, size)
                .store_sized(Reg(2), Reg(1), 8, size);
        }
        assert_eq!(asm.assemble().expect("every legal size").len(), 8);
    }

    #[test]
    fn out_of_range_registers_are_rejected_through_both_constructors() {
        // Reg is `pub u8`, so any number can be written; r40 used to reach
        // the register files of the core and the analyzer and panic there.
        let bad = ProgramError::BadRegister { at: 0, reg: 40 };
        let imm = Inst::Imm {
            dst: Reg(40),
            value: 1,
        };
        assert_eq!(Program::new(vec![imm, Inst::Halt]).unwrap_err(), bad);
        assert_eq!(
            Assembler::new()
                .imm(Reg(40), 1)
                .halt()
                .assemble()
                .unwrap_err(),
            bad
        );
        // A source register is checked as well as a destination, including
        // the optional ordering register of a timer read.
        assert_eq!(
            Assembler::new()
                .nop()
                .read_timer_after(Reg(1), Reg(32))
                .assemble()
                .unwrap_err(),
            ProgramError::BadRegister { at: 1, reg: 32 }
        );
        let top = Reg(Reg::COUNT as u8 - 1);
        assert!(Assembler::new()
            .read_timer_after(top, top)
            .assemble()
            .is_ok());
    }

    #[test]
    fn assemble_errors_render_readably() {
        let e = ProgramError::TargetOutOfRange {
            at: 3,
            target: 9,
            len: 4,
        };
        let s = e.to_string();
        assert!(s.contains("pc 3") && s.contains('9'));
        assert!(ProgramError::UnboundLabel { at: 0 }
            .to_string()
            .contains("unbound label"));
        let s = ProgramError::BadAccessSize { at: 2, size: 3 }.to_string();
        assert!(s.contains("pc 2") && s.contains("3 bytes"), "{s}");
        let s = ProgramError::BadRegister { at: 4, reg: 40 }.to_string();
        assert!(s.contains("pc 4") && s.contains("r40"), "{s}");
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut asm = Assembler::new();
        let l = asm.label();
        asm.bind(l);
        asm.bind(l);
    }

    #[test]
    fn memory_access_indices_lists_loads_and_stores() {
        let mut asm = Assembler::new();
        asm.imm(Reg(1), 0x1000)
            .load(Reg(2), Reg(1), 0)
            .nop()
            .store(Reg(2), Reg(1), 8)
            .halt();
        assert_eq!(asm.finish().memory_access_indices(), vec![1, 3]);
    }

    #[test]
    fn fetch_past_end_is_none() {
        let p = Program::new(vec![Inst::Nop]).expect("a nop is a program");
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(1).is_none());
        assert!(!p.is_empty());
        assert_eq!(p.iter().count(), 1);
    }
}
