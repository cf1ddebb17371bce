//! `Program::new` is the one gate on what a program is, as a property:
//! random instruction vectors (registers up to r40, access sizes up to 16
//! bytes, control targets up to two past the end) become a `Program`
//! exactly when an independent predicate written here calls them well
//! formed, and every `Program` so built goes through
//! `SessionBuilder::build`, `AttackSession::execute` and `analyze` at
//! several budgets and ROB sizes without a panic.

use microscope::analyze::analyze;
use microscope::core::{RunRequest, SessionBuilder, SimConfig};
use microscope::cpu::{AluOp, Cond, CoreConfig, FpOp, Inst, Program, ProgramError, Reg};
use microscope::mem::{AddressSpace, PhysMem, PteFlags, VAddr, PAGE_BYTES};
use microscope::victims::SecretMap;
use proptest::prelude::*;

/// Two mapped data pages; the second holds the declared secret.
const DATA: VAddr = VAddr(0x1000_0000);
const SECRET: VAddr = VAddr(0x1000_1000);
/// Values an `Imm` may load: mapped addresses, an unmapped one, small
/// numbers and the bits of an `f64` divisor.
const VALUES: [u64; 6] = [
    DATA.0,
    DATA.0 + 8,
    SECRET.0,
    0x7fff_0000,
    3,
    0x3ff8_0000_0000_0000,
];
const BUDGETS: [u64; 4] = [0, 1, 50, 2_000];
const ROB_SIZES: [usize; 4] = [0, 1, 4, 192];

/// Raw draws for one instruction: `kind` picks the variant, `wild` (1 in
/// 8) lets its fields leave the valid ranges, and the rest pick registers,
/// value, size and target.
type Draw = ((u8, u8), (u8, u8, u8), (u8, u16));

/// A register: r0–r31, or when `wild` anything up to r40.
fn reg(wild: bool, raw: u8) -> Reg {
    Reg(if wild { raw % 41 } else { raw % 32 })
}

/// An access size: 1, 2, 4 or 8, or when `wild` anything up to 16.
fn size(wild: bool, raw: u8) -> u8 {
    if wild {
        raw % 17
    } else {
        [1, 2, 4, 8][usize::from(raw % 4)]
    }
}

/// Builds the instruction vector. Targets land in `0..=len`, or when
/// `wild` on the edge: `len` (falling off the end), `len + 1` or `len + 2`.
fn insts(draws: Vec<Draw>) -> Vec<Inst> {
    let len = draws.len();
    draws
        .into_iter()
        .map(|((kind, wild), (a, b, c), (v, t))| {
            let wild = wild % 8 == 0;
            let (a, b, c) = (reg(wild, a), reg(wild, b), reg(wild, c));
            let target = if wild {
                len + usize::from(t % 3)
            } else {
                usize::from(t) % (len + 1)
            };
            let offset = 8 * i64::from(v % 4);
            match kind % 20 {
                0 | 1 => Inst::Imm {
                    dst: a,
                    value: VALUES[usize::from(v) % VALUES.len()],
                },
                2 => Inst::Mov { dst: a, src: b },
                3 => Inst::Alu {
                    op: AluOp::Add,
                    dst: a,
                    a: b,
                    b: c,
                },
                4 => Inst::AluImm {
                    op: AluOp::Shl,
                    dst: a,
                    a: b,
                    imm: u64::from(v % 8),
                },
                5 => Inst::Mul { dst: a, a: b, b: c },
                6 => Inst::FOp {
                    op: FpOp::Div,
                    dst: a,
                    a: b,
                    b: c,
                },
                7 | 8 => Inst::Load {
                    dst: a,
                    base: b,
                    offset,
                    size: size(wild, v),
                },
                9 => Inst::Store {
                    src: a,
                    base: b,
                    offset,
                    size: size(wild, v),
                },
                10 | 11 => Inst::Branch {
                    cond: Cond::Lt,
                    a,
                    b,
                    target,
                },
                12 => Inst::Jmp { target },
                13 => Inst::ReadTimer {
                    dst: a,
                    after: (v % 2 == 0).then_some(b),
                },
                14 => Inst::RdRand { dst: a },
                15 => Inst::Fence,
                16 => Inst::XBegin {
                    abort_target: target,
                },
                17 => Inst::XEnd,
                18 => Inst::XAbort { code: v },
                _ => Inst::Nop,
            }
        })
        .collect()
}

/// The independent predicate: the pc of the first instruction that names
/// a register above r31, accesses other than 1, 2, 4 or 8 bytes, or
/// targets past `len`; `None` for a well-formed vector.
fn first_invalid(insts: &[Inst]) -> Option<usize> {
    let len = insts.len();
    let reg_ok = |r: &Reg| r.0 < 32;
    let size_ok = |s: u8| matches!(s, 1 | 2 | 4 | 8);
    insts.iter().position(|inst| {
        let ok = match *inst {
            Inst::Imm { dst, .. } | Inst::RdRand { dst } => reg_ok(&dst),
            Inst::Mov { dst, src } => [dst, src].iter().all(reg_ok),
            Inst::AluImm { dst, a, .. } => [dst, a].iter().all(reg_ok),
            Inst::Alu { dst, a, b, .. } | Inst::Mul { dst, a, b } | Inst::FOp { dst, a, b, .. } => {
                [dst, a, b].iter().all(reg_ok)
            }
            Inst::Load {
                dst, base, size, ..
            } => [dst, base].iter().all(reg_ok) && size_ok(size),
            Inst::Store {
                src, base, size, ..
            } => [src, base].iter().all(reg_ok) && size_ok(size),
            Inst::Branch { a, b, target, .. } => [a, b].iter().all(reg_ok) && target <= len,
            Inst::Jmp { target } => target <= len,
            Inst::XBegin { abort_target } => abort_target <= len,
            Inst::ReadTimer { dst, after } => reg_ok(&dst) && after.iter().all(reg_ok),
            Inst::Fence | Inst::XEnd | Inst::XAbort { .. } | Inst::Nop | Inst::Halt => true,
        };
        !ok
    })
}

/// Where the error says the vector went wrong.
fn error_pc(e: &ProgramError) -> usize {
    match *e {
        ProgramError::UnboundLabel { at }
        | ProgramError::BadRegister { at, .. }
        | ProgramError::TargetOutOfRange { at, .. }
        | ProgramError::BadAccessSize { at, .. } => at,
    }
}

fn sim(rob_size: usize) -> SimConfig {
    SimConfig::new().with_core(CoreConfig {
        rob_size,
        ..CoreConfig::default()
    })
}

fn map_pages(phys: &mut PhysMem, aspace: AddressSpace) {
    for page in [DATA, SECRET] {
        aspace.alloc_map(phys, page, PAGE_BYTES, PteFlags::user_data());
    }
}

/// Builds, runs and analyzes `program` at every budget and ROB size. A
/// failure is a typed error; a panic fails the test.
fn drive(program: &Program) {
    for rob in ROB_SIZES {
        for budget in BUDGETS {
            let mut b = SessionBuilder::new();
            b.sim(sim(rob));
            let aspace = b.new_aspace(1);
            map_pages(b.phys(), aspace);
            b.victim(program.clone(), aspace);
            if let Ok(mut session) = b.build() {
                let _ = session.execute(RunRequest::cold(budget));
            }
        }
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        map_pages(&mut phys, aspace);
        let secrets = SecretMap::new().region(SECRET, 8, "s");
        let _ = analyze("fuzz", program, &secrets, &sim(rob), &phys, aspace);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]
    #[test]
    fn any_instruction_vector_is_a_program_or_a_typed_error(
        draws in prop::collection::vec(
            ((0u8..20, 0u8..8), (0u8..255, 0u8..255, 0u8..255), (0u8..255, 0u16..1024)),
            0..24,
        )
    ) {
        let insts = insts(draws);
        let want = first_invalid(&insts);
        match Program::new(insts.clone()) {
            Ok(program) => {
                prop_assert_eq!(want, None, "accepted {:?}", insts);
                drive(&program);
            }
            Err(e) => prop_assert_eq!(want, Some(error_pc(&e)), "{}: {:?}", e, insts),
        }
    }
}
