//! The model instruction set.
//!
//! A small load/store ISA with 32 integer registers. Floating-point values
//! travel through the same registers as IEEE-754 `f64` bit patterns (the
//! [`Inst::FOp`] instructions interpret them), which keeps the register
//! renaming machinery simple without losing anything the attacks need.

use std::fmt;

/// One of the 32 general-purpose registers, `Reg(0)`–`Reg(31)`.
///
/// `Reg(31)` doubles as the transaction-abort-code register (like EAX for
/// Intel RTM): a transactional abort writes its cause code there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Number of architectural registers.
    pub const COUNT: usize = 32;

    /// The register receiving transaction abort codes.
    pub const TXN_ABORT_CODE: Reg = Reg(31);

    /// Index as `usize`, for register-file access.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Integer ALU operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Shl,
    /// Logical shift right (shift amount taken modulo 64).
    Shr,
}

impl AluOp {
    /// Applies the operation.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b as u32 % 64),
            AluOp::Shr => a.wrapping_shr(b as u32 % 64),
        }
    }
}

/// Floating-point operations over `f64` bit patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// Addition.
    Add,
    /// Multiplication (pipelined, like `mulsd`).
    Mul,
    /// Division (issues to the non-pipelined divider, like `divsd`). The
    /// star of the port-contention attack.
    Div,
}

impl FpOp {
    /// Applies the operation to two `f64` bit patterns, producing one.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let r = match self {
            FpOp::Add => x + y,
            FpOp::Mul => x * y,
            FpOp::Div => x / y,
        };
        r.to_bits()
    }

    /// Whether the operands or result are subnormal, which lengthens the
    /// operation on real hardware (the FPU "denormal assist" exploited by
    /// Andrysco et al. and detectable through MicroScope).
    pub fn involves_subnormal(self, a: u64, b: u64) -> bool {
        use std::num::FpCategory::Subnormal;
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let r = f64::from_bits(self.apply(a, b));
        x.classify() == Subnormal || y.classify() == Subnormal || r.classify() == Subnormal
    }
}

/// Branch conditions (comparisons are unsigned).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b` (unsigned)
    Lt,
    /// `a >= b` (unsigned)
    Ge,
}

impl Cond {
    /// Evaluates the condition.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
        }
    }
}

/// A decoded instruction. Branch/jump targets are indices into the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `dst = value`
    Imm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: u64,
    },
    /// `dst = src`
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = a <op> b`
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = a <op> imm`
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Immediate right operand.
        imm: u64,
    },
    /// `dst = a * b` (integer, wrapping; pipelined multiplier).
    Mul {
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Floating-point operation over `f64` bit patterns.
    FOp {
        /// Operation.
        op: FpOp,
        /// Destination register.
        dst: Reg,
        /// Left operand (bits of an `f64`).
        a: Reg,
        /// Right operand (bits of an `f64`).
        b: Reg,
    },
    /// `dst = zero_extend(mem[base + offset], size)`
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register (virtual address).
        base: Reg,
        /// Signed byte offset.
        offset: i64,
        /// Access size in bytes: 1, 2, 4 or 8.
        size: u8,
    },
    /// `mem[base + offset] = low_bytes(src, size)`
    Store {
        /// Source register.
        src: Reg,
        /// Base address register (virtual address).
        base: Reg,
        /// Signed byte offset.
        offset: i64,
        /// Access size in bytes: 1, 2, 4 or 8.
        size: u8,
    },
    /// Conditional branch to `target` when `cond(a, b)` holds.
    Branch {
        /// Condition.
        cond: Cond,
        /// Left comparison operand.
        a: Reg,
        /// Right comparison operand.
        b: Reg,
        /// Program index to jump to when taken.
        target: usize,
    },
    /// Unconditional jump.
    Jmp {
        /// Program index to jump to.
        target: usize,
    },
    /// `dst = current cycle` (like `rdtsc`). When `after` is set, the read
    /// is ordered after the producing instruction of that register — the
    /// idiom monitors use to time an operation (`rdtscp`-style ordering).
    ReadTimer {
        /// Destination register.
        dst: Reg,
        /// Optional register this read must wait for.
        after: Option<Reg>,
    },
    /// `dst = hardware random number`. Depending on
    /// [`CoreConfig::rdrand_is_fenced`](crate::CoreConfig) this either
    /// executes speculatively (re-drawing a fresh value on every replay —
    /// the §7.2 biasing attack) or waits until it is non-speculative.
    RdRand {
        /// Destination register.
        dst: Reg,
    },
    /// Serializing fence: younger instructions do not begin execution until
    /// every older instruction has completed (`lfence`).
    Fence,
    /// Begin a transaction (Intel TSX `xbegin`). On abort, architectural
    /// state rolls back to this point, `Reg::TXN_ABORT_CODE` receives the
    /// abort cause, and control transfers to `abort_target`.
    XBegin {
        /// Program index of the abort handler.
        abort_target: usize,
    },
    /// Commit the current transaction (`xend`).
    XEnd,
    /// Explicitly abort the current transaction (`xabort`).
    XAbort {
        /// Abort code delivered to the handler.
        code: u8,
    },
    /// No operation.
    Nop,
    /// Stop fetching; the context halts when this retires.
    Halt,
}

/// An inline register list: [`Inst::sources`] returns at most two
/// registers, held by value so the per-fetch operand walk never
/// heap-allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegList {
    items: [Reg; 2],
    len: u8,
}

impl RegList {
    /// No source registers.
    pub const fn none() -> Self {
        RegList {
            items: [Reg(0), Reg(0)],
            len: 0,
        }
    }

    /// One source register.
    pub const fn one(r: Reg) -> Self {
        RegList {
            items: [r, Reg(0)],
            len: 1,
        }
    }

    /// Two source registers.
    pub const fn two(a: Reg, b: Reg) -> Self {
        RegList {
            items: [a, b],
            len: 2,
        }
    }

    /// The registers as a slice.
    pub fn as_slice(&self) -> &[Reg] {
        &self.items[..self.len as usize]
    }

    /// Iterates over the registers.
    pub fn iter(&self) -> std::slice::Iter<'_, Reg> {
        self.as_slice().iter()
    }

    /// Number of source registers.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether there are no source registers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Inst {
    /// The destination register this instruction writes, if any.
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Inst::Imm { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Alu { dst, .. }
            | Inst::AluImm { dst, .. }
            | Inst::Mul { dst, .. }
            | Inst::FOp { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::ReadTimer { dst, .. }
            | Inst::RdRand { dst } => Some(dst),
            Inst::XBegin { .. } | Inst::XAbort { .. } => Some(Reg::TXN_ABORT_CODE),
            _ => None,
        }
    }

    /// The source registers this instruction reads.
    pub fn sources(&self) -> RegList {
        match *self {
            Inst::Mov { src, .. } => RegList::one(src),
            Inst::Alu { a, b, .. } | Inst::Mul { a, b, .. } | Inst::FOp { a, b, .. } => {
                RegList::two(a, b)
            }
            Inst::AluImm { a, .. } => RegList::one(a),
            Inst::Load { base, .. } => RegList::one(base),
            Inst::Store { src, base, .. } => RegList::two(src, base),
            Inst::Branch { a, b, .. } => RegList::two(a, b),
            Inst::ReadTimer { after: Some(r), .. } => RegList::one(r),
            _ => RegList::none(),
        }
    }

    /// Whether this is a memory access (candidate replay handle).
    pub fn is_memory(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }

    /// Whether this instruction serializes the pipeline: it issues only
    /// once every older instruction completed, and no younger one issues
    /// until it completes, so no speculation window crosses it. `Fence`
    /// always does; `RdRand` only when the core runs with the
    /// fenced-`RDRAND` defense
    /// ([`CoreConfig::rdrand_is_fenced`](crate::CoreConfig)). This is the
    /// one rule: the core's dispatch and the static planner both call it.
    pub fn is_serializing(&self, rdrand_is_fenced: bool) -> bool {
        match self {
            Inst::Fence => true,
            Inst::RdRand { .. } => rdrand_is_fenced,
            _ => false,
        }
    }

    /// The explicit control-flow target of this instruction, if any: the
    /// taken side of a branch, a jump destination, or a transaction's
    /// abort handler.
    pub fn control_target(&self) -> Option<usize> {
        match *self {
            Inst::Branch { target, .. } | Inst::Jmp { target } => Some(target),
            Inst::XBegin { abort_target } => Some(abort_target),
            _ => None,
        }
    }

    /// Whether execution can continue at the next program index after this
    /// instruction (everything except an unconditional jump or a halt).
    pub fn falls_through(&self) -> bool {
        !matches!(self, Inst::Jmp { .. } | Inst::Halt)
    }

    /// The memory reference `(base, offset, is_store)` this instruction
    /// makes, if any — the address-forming operands a static analysis
    /// resolves against the page tables.
    pub fn memory_ref(&self) -> Option<(Reg, i64, bool)> {
        match *self {
            Inst::Load { base, offset, .. } => Some((base, offset, false)),
            Inst::Store { base, offset, .. } => Some((base, offset, true)),
            _ => None,
        }
    }

    /// A copy with every control-flow target shifted by `by` instructions —
    /// the relocation primitive program transforms (T-SGX wrapping,
    /// PF-obliviousness, jitter sleds) use when splicing code.
    pub fn shifted_targets(self, by: usize) -> Inst {
        self.retargeted(|t| t + by)
    }

    /// A copy with every control-flow target rewritten through `f` — the
    /// general relocation primitive for transforms that insert
    /// instructions at arbitrary positions (e.g. fence hardening), where
    /// each target moves by a different amount.
    pub fn retargeted(self, f: impl Fn(usize) -> usize) -> Inst {
        match self {
            Inst::Branch { cond, a, b, target } => Inst::Branch {
                cond,
                a,
                b,
                target: f(target),
            },
            Inst::Jmp { target } => Inst::Jmp { target: f(target) },
            Inst::XBegin { abort_target } => Inst::XBegin {
                abort_target: f(abort_target),
            },
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_match_reference_semantics() {
        assert_eq!(AluOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u64::MAX);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.apply(1, 8), 256);
        assert_eq!(AluOp::Shr.apply(256, 8), 1);
        assert_eq!(AluOp::Shr.apply(1, 64), 1, "shift counts wrap at 64");
    }

    #[test]
    fn fp_ops_round_trip_through_bits() {
        let a = 6.0f64.to_bits();
        let b = 3.0f64.to_bits();
        assert_eq!(f64::from_bits(FpOp::Div.apply(a, b)), 2.0);
        assert_eq!(f64::from_bits(FpOp::Mul.apply(a, b)), 18.0);
        assert_eq!(f64::from_bits(FpOp::Add.apply(a, b)), 9.0);
    }

    #[test]
    fn subnormal_detection() {
        let sub = f64::MIN_POSITIVE / 4.0;
        assert_eq!(sub.classify(), std::num::FpCategory::Subnormal);
        assert!(FpOp::Mul.involves_subnormal(sub.to_bits(), 1.0f64.to_bits()));
        assert!(!FpOp::Mul.involves_subnormal(1.0f64.to_bits(), 2.0f64.to_bits()));
        // Normal / huge -> subnormal result.
        assert!(FpOp::Div.involves_subnormal(f64::MIN_POSITIVE.to_bits(), 16.0f64.to_bits()));
    }

    #[test]
    fn conditions() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Lt.eval(3, 4));
        assert!(Cond::Ge.eval(4, 4));
        assert!(!Cond::Lt.eval(u64::MAX, 0), "comparisons are unsigned");
    }

    #[test]
    fn dst_and_sources_cover_memory_ops() {
        let ld = Inst::Load {
            dst: Reg(1),
            base: Reg(2),
            offset: 8,
            size: 8,
        };
        assert_eq!(ld.dst(), Some(Reg(1)));
        assert_eq!(ld.sources().as_slice(), &[Reg(2)]);
        assert!(ld.is_memory());
        let st = Inst::Store {
            src: Reg(3),
            base: Reg(4),
            offset: 0,
            size: 4,
        };
        assert_eq!(st.dst(), None);
        assert_eq!(st.sources().as_slice(), &[Reg(3), Reg(4)]);
    }

    #[test]
    fn timer_ordering_dependency_is_a_source() {
        let t = Inst::ReadTimer {
            dst: Reg(1),
            after: Some(Reg(9)),
        };
        assert_eq!(t.sources().as_slice(), &[Reg(9)]);
    }

    #[test]
    fn serializing_classification_tracks_the_rdrand_fence() {
        assert!(Inst::Fence.is_serializing(false));
        assert!(Inst::Fence.is_serializing(true));
        let rr = Inst::RdRand { dst: Reg(1) };
        assert!(rr.is_serializing(true));
        assert!(!rr.is_serializing(false));
        assert!(!Inst::Nop.is_serializing(true));
    }

    #[test]
    fn control_targets_and_fall_through() {
        let br = Inst::Branch {
            cond: Cond::Eq,
            a: Reg(1),
            b: Reg(2),
            target: 7,
        };
        assert_eq!(br.control_target(), Some(7));
        assert!(br.falls_through());
        let jmp = Inst::Jmp { target: 3 };
        assert_eq!(jmp.control_target(), Some(3));
        assert!(!jmp.falls_through());
        assert_eq!(Inst::XBegin { abort_target: 9 }.control_target(), Some(9));
        assert!(!Inst::Halt.falls_through());
        assert_eq!(Inst::Nop.control_target(), None);
    }
}
