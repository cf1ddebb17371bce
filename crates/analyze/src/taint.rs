//! Register + memory taint dataflow seeded from a victim's
//! [`SecretMap`].
//!
//! The per-register lattice is the product of a constant-propagation
//! value lattice (`Const(v)` ⊑ `Unknown`) and a boolean taint bit. The
//! value half exists for one purpose: resolving memory addresses
//! statically, so a load from a constant address can be checked against
//! the declared secret regions (and the page tables, for replay-handle
//! enumeration). Memory taint is tracked flow-insensitively as a
//! monotonically growing set of byte ranges — sound, and precise enough
//! for the victims at hand.
//!
//! Soundness bias: everything errs toward *more* taint (unknown-address
//! loads are tainted whenever any secret memory exists; unknown-address
//! stores of tainted data taint all of memory; memory is never
//! untainted). The property test in `tests/analyze_soundness.rs` checks
//! the direction the attack cares about: no transmitter the simulator
//! replays is missing from the static report.

use crate::cfg::Cfg;
use microscope_cpu::{Inst, Program, Reg};
use microscope_mem::VAddr;
use microscope_victims::SecretMap;

/// The constant-propagation half of the lattice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value {
    /// Known constant.
    Const(u64),
    /// Anything.
    Unknown,
}

impl Value {
    #[cfg(test)]
    fn join(self, other: Value) -> Value {
        match (self, other) {
            (Value::Const(a), Value::Const(b)) if a == b => Value::Const(a),
            _ => Value::Unknown,
        }
    }

    /// The constant, if known.
    pub fn as_const(self) -> Option<u64> {
        match self {
            Value::Const(v) => Some(v),
            Value::Unknown => None,
        }
    }
}

/// One register's abstract state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbsVal {
    /// Constant-propagation value.
    pub value: Value,
    /// Whether the value may carry secret data.
    pub tainted: bool,
}

impl AbsVal {
    /// The per-register join; the oracle for [`RegState`]'s packed join.
    #[cfg(test)]
    fn join(self, other: AbsVal) -> AbsVal {
        AbsVal {
            value: self.value.join(other.value),
            tainted: self.tainted || other.tainted,
        }
    }
}

/// The abstract register file at one program point, packed: register
/// `i`'s constant is `vals[i]` when bit `i` of `known` is set (and `0`
/// otherwise, so equal states compare equal), and bit `i` of `tainted`
/// is its taint bit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegState {
    vals: [u64; Reg::COUNT],
    known: u32,
    tainted: u32,
}

impl RegState {
    /// Architectural registers start zeroed; `sticky` is the taint mask
    /// of the always-secret registers.
    fn entry(sticky: u32) -> RegState {
        RegState {
            vals: [0; Reg::COUNT],
            known: u32::MAX,
            tainted: sticky,
        }
    }

    /// Joins `other` into `self` in place; returns whether `self` changed.
    fn join(&mut self, other: &RegState) -> bool {
        let before = (self.known, self.tainted);
        let mut m = self.known;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if other.known & (1 << i) == 0 || self.vals[i] != other.vals[i] {
                self.known &= !(1 << i);
                self.vals[i] = 0;
            }
        }
        self.tainted |= other.tainted;
        (self.known, self.tainted) != before
    }

    /// The abstract state of `reg`.
    pub fn get(&self, reg: Reg) -> AbsVal {
        let bit = 1 << reg.index();
        AbsVal {
            value: if self.known & bit != 0 {
                Value::Const(self.vals[reg.index()])
            } else {
                Value::Unknown
            },
            tainted: self.tainted & bit != 0,
        }
    }

    fn set(&mut self, reg: Reg, v: AbsVal) {
        let (i, c) = (reg.index(), v.value.as_const());
        self.vals[i] = c.unwrap_or(0);
        self.known = self.known & !(1 << i) | u32::from(c.is_some()) << i;
        self.tainted = self.tainted & !(1 << i) | u32::from(v.tainted) << i;
    }

    /// The statically resolved address of a `base + offset` memory
    /// reference, when the base is a known constant.
    pub fn resolve_addr(&self, base: Reg, offset: i64) -> Option<VAddr> {
        self.get(base)
            .value
            .as_const()
            .map(|b| VAddr(b.wrapping_add(offset as u64)))
    }
}

/// Flow-insensitive memory taint: secret byte ranges, growing as tainted
/// stores land.
#[derive(Clone, Debug, Default)]
pub struct MemTaint {
    ranges: Vec<(u64, u64)>,
    all: bool,
}

impl MemTaint {
    fn seeded(secrets: &SecretMap) -> MemTaint {
        MemTaint {
            ranges: secrets
                .regions()
                .iter()
                .map(|r| (r.base.0, r.len))
                .collect(),
            all: false,
        }
    }

    /// Whether a `size`-byte access at `addr` may read tainted memory.
    pub fn touches(&self, addr: VAddr, size: u64) -> bool {
        self.all
            || self
                .ranges
                .iter()
                .any(|&(b, l)| addr.0 < b + l && b < addr.0 + size.max(1))
    }

    /// Whether any memory at all is tainted.
    pub fn any(&self) -> bool {
        self.all || !self.ranges.is_empty()
    }

    /// Adds a range; returns true if coverage grew.
    fn insert(&mut self, addr: u64, size: u64) -> bool {
        if self.all {
            return false;
        }
        // Only skip when an existing single range fully covers the new one.
        if self
            .ranges
            .iter()
            .any(|&(b, l)| b <= addr && addr + size <= b + l)
        {
            return false;
        }
        self.ranges.push((addr, size));
        true
    }

    fn taint_all(&mut self) -> bool {
        let grew = !self.all;
        self.all = true;
        grew
    }
}

/// The result of the taint fixpoint.
#[derive(Clone, Debug)]
pub struct TaintResult {
    /// Register state *before* each pc (`None` for unreachable pcs).
    pub state_at: Vec<Option<RegState>>,
    /// Final memory-taint coverage.
    pub memory: MemTaint,
}

impl TaintResult {
    /// The register state before `pc`, if reachable.
    pub fn before(&self, pc: usize) -> Option<&RegState> {
        self.state_at.get(pc).and_then(|s| s.as_ref())
    }
}

/// Runs the register+memory taint dataflow to fixpoint over the CFG.
pub fn analyze(program: &Program, cfg: &Cfg, secrets: &SecretMap) -> TaintResult {
    let sticky = secrets.sticky_regs().fold(0u32, |m, r| m | 1 << r.index());
    let mut state_at: Vec<Option<RegState>> = vec![None; program.len()];
    let mut memory = MemTaint::seeded(secrets);
    // Block-entry states; the worklist fixpoint joins over predecessors.
    let mut block_in: Vec<Option<RegState>> = vec![None; cfg.blocks().len()];
    let mut work: Vec<usize> = Vec::new();
    loop {
        block_in[0] = Some(RegState::entry(sticky));
        work.push(0);
        let mut mem_grew = false;
        while let Some(b) = work.pop() {
            let Some(mut cur) = block_in[b].clone() else {
                continue;
            };
            for pc in cfg.blocks()[b].pcs() {
                let Some(inst) = program.fetch(pc) else {
                    continue;
                };
                match &mut state_at[pc] {
                    Some(prev) => {
                        prev.join(&cur);
                        cur.clone_from(prev);
                    }
                    slot @ None => *slot = Some(cur.clone()),
                }
                mem_grew |= transfer(inst, &mut cur, &mut memory, secrets);
                cur.tainted |= sticky;
            }
            for &s in &cfg.blocks()[b].succs {
                if s == cfg.exit() {
                    continue;
                }
                match &mut block_in[s] {
                    Some(prev) => {
                        if !prev.join(&cur) {
                            continue;
                        }
                    }
                    slot @ None => *slot = Some(cur.clone()),
                }
                work.push(s);
            }
        }
        // Memory taint grew mid-pass: earlier loads may now read tainted
        // ranges. Re-run with states reset (memory only grows, so this
        // terminates).
        if !mem_grew {
            break;
        }
        state_at.fill(None);
        block_in.fill(None);
    }
    TaintResult { state_at, memory }
}

/// One instruction's transfer function. Returns whether memory-taint
/// coverage grew.
fn transfer(inst: Inst, s: &mut RegState, memory: &mut MemTaint, secrets: &SecretMap) -> bool {
    let mut grew = false;
    match inst {
        Inst::Imm { dst, value } => s.set(
            dst,
            AbsVal {
                value: Value::Const(value),
                tainted: false,
            },
        ),
        Inst::Mov { dst, src } => {
            let v = s.get(src);
            s.set(dst, v);
        }
        Inst::Alu { op, dst, a, b } => {
            let (va, vb) = (s.get(a), s.get(b));
            let value = match (va.value.as_const(), vb.value.as_const()) {
                (Some(x), Some(y)) => Value::Const(op.apply(x, y)),
                _ => Value::Unknown,
            };
            s.set(
                dst,
                AbsVal {
                    value,
                    tainted: va.tainted || vb.tainted,
                },
            );
        }
        Inst::AluImm { op, dst, a, imm } => {
            let va = s.get(a);
            let value = match va.value.as_const() {
                Some(x) => Value::Const(op.apply(x, imm)),
                None => Value::Unknown,
            };
            s.set(
                dst,
                AbsVal {
                    value,
                    tainted: va.tainted,
                },
            );
        }
        Inst::Mul { dst, a, b } => {
            let (va, vb) = (s.get(a), s.get(b));
            let value = match (va.value.as_const(), vb.value.as_const()) {
                (Some(x), Some(y)) => Value::Const(x.wrapping_mul(y)),
                _ => Value::Unknown,
            };
            s.set(
                dst,
                AbsVal {
                    value,
                    tainted: va.tainted || vb.tainted,
                },
            );
        }
        Inst::FOp { op, dst, a, b } => {
            let (va, vb) = (s.get(a), s.get(b));
            let value = match (va.value.as_const(), vb.value.as_const()) {
                (Some(x), Some(y)) => Value::Const(op.apply(x, y)),
                _ => Value::Unknown,
            };
            s.set(
                dst,
                AbsVal {
                    value,
                    tainted: va.tainted || vb.tainted,
                },
            );
        }
        Inst::Load {
            dst,
            base,
            offset,
            size,
        } => {
            let vb = s.get(base);
            let tainted = vb.tainted
                || match s.resolve_addr(base, offset) {
                    Some(addr) => memory.touches(addr, u64::from(size)),
                    // Unknown address: may alias any tainted byte.
                    None => memory.any(),
                };
            s.set(
                dst,
                AbsVal {
                    value: Value::Unknown,
                    tainted,
                },
            );
        }
        Inst::Store {
            src,
            base,
            offset,
            size,
        } => {
            if s.get(src).tainted {
                grew = match s.resolve_addr(base, offset) {
                    Some(addr) => memory.insert(addr.0, u64::from(size)),
                    None => memory.taint_all(),
                };
            }
        }
        Inst::ReadTimer { dst, .. } => s.set(
            dst,
            AbsVal {
                value: Value::Unknown,
                tainted: false,
            },
        ),
        Inst::RdRand { dst } => s.set(
            dst,
            AbsVal {
                value: Value::Unknown,
                tainted: secrets.rdrand_is_secret(),
            },
        ),
        Inst::XBegin { .. } | Inst::XAbort { .. } => s.set(
            Reg::TXN_ABORT_CODE,
            AbsVal {
                value: Value::Unknown,
                tainted: false,
            },
        ),
        Inst::Branch { .. }
        | Inst::Jmp { .. }
        | Inst::Fence
        | Inst::XEnd
        | Inst::Nop
        | Inst::Halt => {}
    }
    grew
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_cpu::{AluOp, Assembler, Reg};
    use proptest::prelude::*;

    /// Few distinct constants (one of them large), so joins meet equal
    /// and mismatched constants as well as `Unknown`.
    fn arb_absval() -> impl Strategy<Value = AbsVal> {
        (0u64..4, 0u8..2).prop_map(|(v, t)| AbsVal {
            value: match v {
                0 => Value::Unknown,
                1 => Value::Const(u64::MAX - 7),
                _ => Value::Const(v),
            },
            tainted: t == 1,
        })
    }

    fn regs() -> impl Iterator<Item = Reg> {
        (0..Reg::COUNT).map(|i| Reg(i as u8))
    }

    fn state_of(vals: &[AbsVal]) -> RegState {
        let mut s = RegState::entry(0);
        for (r, &v) in regs().zip(vals) {
            s.set(r, v);
        }
        s
    }

    proptest! {
        /// The packed register file's `set`/`get` round-trip, and its
        /// in-place join agrees register by register with
        /// [`AbsVal::join`], including whether anything changed.
        #[test]
        fn packed_join_matches_the_per_register_join(
            a in prop::collection::vec(arb_absval(), Reg::COUNT..Reg::COUNT + 1),
            b in prop::collection::vec(arb_absval(), Reg::COUNT..Reg::COUNT + 1),
        ) {
            let (sa, sb) = (state_of(&a), state_of(&b));
            for (r, &v) in regs().zip(&a) {
                prop_assert_eq!(sa.get(r), v);
            }
            let want: Vec<AbsVal> = a.iter().zip(&b).map(|(x, y)| x.join(*y)).collect();
            let mut joined = sa.clone();
            let changed = joined.join(&sb);
            for (r, &v) in regs().zip(&want) {
                prop_assert_eq!(joined.get(r), v, "{}", r);
            }
            prop_assert_eq!(changed, want != a);
            prop_assert_eq!(&joined, &state_of(&want));
        }
    }

    fn run(asm: &mut Assembler, secrets: &SecretMap) -> (Program, TaintResult) {
        let p = asm.finish();
        let cfg = Cfg::build(&p);
        let t = analyze(&p, &cfg, secrets);
        (p, t)
    }

    #[test]
    fn const_address_load_from_secret_region_taints_dst() {
        let secrets = SecretMap::new().region(VAddr(0x1000), 8, "s");
        let mut asm = Assembler::new();
        asm.imm(Reg(1), 0x1000)
            .load(Reg(2), Reg(1), 0)
            .imm(Reg(3), 0x9000)
            .load(Reg(4), Reg(3), 0)
            .halt();
        let (p, t) = run(&mut asm, &secrets);
        let last = t.before(p.len() - 1).unwrap();
        assert!(last.get(Reg(2)).tainted, "secret load");
        assert!(!last.get(Reg(4)).tainted, "public load");
    }

    #[test]
    fn taint_propagates_through_alu_and_fp() {
        let secrets = SecretMap::new().region(VAddr(0x1000), 8, "s");
        let mut asm = Assembler::new();
        asm.imm(Reg(1), 0x1000)
            .load(Reg(2), Reg(1), 0)
            .alu_imm(AluOp::Shl, Reg(3), Reg(2), 6)
            .fdiv(Reg(4), Reg(3), Reg(2))
            .halt();
        let (p, t) = run(&mut asm, &secrets);
        let last = t.before(p.len() - 1).unwrap();
        assert!(last.get(Reg(3)).tainted);
        assert!(last.get(Reg(4)).tainted);
    }

    #[test]
    fn sticky_register_survives_overwrites() {
        let secrets = SecretMap::new().sticky_reg(Reg(4), "exp");
        let mut asm = Assembler::new();
        asm.imm(Reg(4), 0b1011)
            .alu_imm(AluOp::Shr, Reg(5), Reg(4), 1)
            .halt();
        let (p, t) = run(&mut asm, &secrets);
        let last = t.before(p.len() - 1).unwrap();
        assert!(last.get(Reg(4)).tainted, "imm write does not clear sticky");
        assert!(last.get(Reg(5)).tainted, "derived value tainted");
    }

    #[test]
    fn tainted_store_to_const_address_taints_later_loads() {
        let secrets = SecretMap::new().region(VAddr(0x1000), 8, "s");
        let mut asm = Assembler::new();
        asm.imm(Reg(1), 0x1000)
            .load(Reg(2), Reg(1), 0) // tainted
            .imm(Reg(3), 0x5000)
            .store(Reg(2), Reg(3), 0) // spills secret to 0x5000
            .load(Reg(4), Reg(3), 0) // reads it back
            .halt();
        let (p, t) = run(&mut asm, &secrets);
        let last = t.before(p.len() - 1).unwrap();
        assert!(last.get(Reg(4)).tainted, "spilled secret tracked");
        assert!(t.memory.touches(VAddr(0x5000), 8));
    }

    #[test]
    fn constants_fold_for_address_resolution() {
        let secrets = SecretMap::new();
        let mut asm = Assembler::new();
        asm.imm(Reg(1), 0x1000)
            .alu_imm(AluOp::Add, Reg(2), Reg(1), 0x40)
            .halt();
        let (p, t) = run(&mut asm, &secrets);
        let last = t.before(p.len() - 1).unwrap();
        assert_eq!(last.get(Reg(2)).value, Value::Const(0x1040));
        assert_eq!(last.resolve_addr(Reg(2), 8), Some(VAddr(0x1048)));
    }

    #[test]
    fn join_loses_conflicting_constants_but_keeps_taint() {
        let secrets = SecretMap::new().region(VAddr(0x1000), 8, "s");
        let mut asm = Assembler::new();
        let other = asm.label();
        let join = asm.label();
        asm.imm(Reg(1), 0x1000)
            .load(Reg(2), Reg(1), 0) // tainted branch condition
            .branch(microscope_cpu::Cond::Eq, Reg(2), Reg(2), other)
            .imm(Reg(3), 1)
            .jmp(join);
        asm.bind(other);
        asm.imm(Reg(3), 2);
        asm.bind(join);
        asm.halt();
        let (p, t) = run(&mut asm, &secrets);
        let last = t.before(p.len() - 1).unwrap();
        assert_eq!(last.get(Reg(3)).value, Value::Unknown);
        assert!(last.get(Reg(2)).tainted);
    }
}
