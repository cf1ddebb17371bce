//! Equivalence of the static planner's shared per-call passes with the
//! per-handle analysis they replace. For every handle the reference below
//! runs an unbounded window BFS, collects the handle's seeds from it
//! ([`seed_pcs`]) and closes their register dependence over the whole
//! program from block 0 ([`handle_dependent_pcs`]). `analyze` instead
//! bounds the BFS by the ROB, reads seeds off one reachability pass and
//! answers dependence from one seed-labelled pass. On random programs with
//! loops, fences, TSX regions and past-the-end targets, both must give
//! equal (`==`) reports.

use microscope_analyze::{analyze, taint, AnalysisReport, AttackPlan, Cfg, Handle, HandleKind};
use microscope_core::SimConfig;
use microscope_cpu::{AluOp, Cond, CoreConfig, FpOp, Inst, Program, Reg};
use microscope_mem::{AddressSpace, PhysMem, PteFlags, VAddr, PAGE_BYTES};
use microscope_victims::SecretMap;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Two public pages (so const-address accesses land on the same page or
/// on another one) and the secret page.
const PAGES: [u64; 3] = [0x1000_0000, 0x1000_1000, 0x1000_2000];
const SECRET_PAGE: u64 = PAGES[2];
/// Registers the generator draws from; `r31` also receives `xbegin`'s
/// abort code, so TSX handles seed dependence through it.
const REGS: [u8; 6] = [1, 2, 3, 4, 5, 31];

/// One program piece from raw draws: `kind` picks the shape (listed once
/// per unit of weight), `a`, `b`, `c` pick registers, page or slot, and
/// `t` is a raw control target that [`assemble`] folds into range.
fn piece((kind, a, b, c, t): (u8, usize, usize, usize, usize)) -> Vec<Inst> {
    let r = |i: usize| Reg(REGS[i % REGS.len()]);
    let offset = 8 * (c % 4) as i64;
    let load = |dst, base, offset| Inst::Load {
        dst,
        base,
        offset,
        size: 8,
    };
    let div = |dst, a, b| Inst::FOp {
        op: FpOp::Div,
        dst,
        a,
        b,
    };
    vec![match kind {
        // A const address: same page as other accesses, or another one.
        0..=3 => Inst::Imm {
            dst: r(a),
            value: PAGES[b % PAGES.len()] + offset as u64,
        },
        4..=8 => load(r(a), r(b), offset),
        9 | 10 => Inst::Store {
            src: r(a),
            base: r(b),
            offset,
            size: 8,
        },
        11 | 12 => Inst::Alu {
            op: AluOp::Add,
            dst: r(a),
            a: r(b),
            b: r(c),
        },
        13 => div(r(a), r(b), r(c)),
        // A secret whose value indexes a load and feeds a `divsd`: cache
        // and port transmitters.
        14 => {
            let (v, x) = (r(a), r(b));
            return vec![
                Inst::Imm {
                    dst: v,
                    value: SECRET_PAGE,
                },
                load(v, v, 0),
                load(x, v, 0),
                div(x, v, x),
            ];
        }
        15 | 16 => Inst::Branch {
            cond: Cond::Eq,
            a: r(a),
            b: r(b),
            target: t,
        },
        17 => Inst::Jmp { target: t },
        18 => Inst::XBegin { abort_target: t },
        19 => Inst::XEnd,
        20 => Inst::Fence,
        21 => Inst::RdRand { dst: r(a) },
        22 => Inst::Nop,
        _ => Inst::Halt,
    }]
}

/// Concatenates the pieces and folds every control target into
/// `0..=len`, so `target == len` (falling off the end) stays covered.
fn assemble(pieces: Vec<Vec<Inst>>) -> Program {
    let insts: Vec<Inst> = pieces.into_iter().flatten().collect();
    let span = insts.len() + 1;
    let insts = insts.into_iter().map(|i| i.retargeted(|t| t % span));
    Program::new(insts.collect()).expect("registers, sizes and targets are in range")
}

fn pieces() -> impl Strategy<Value = Vec<Vec<Inst>>> {
    prop::collection::vec(
        (0u8..24, 0usize..6, 0usize..6, 0usize..6, 0usize..1024).prop_map(piece),
        1..48,
    )
}

fn sim(rob_size: usize, rdrand_is_fenced: bool) -> SimConfig {
    let mut sim = SimConfig::new();
    sim.core = CoreConfig {
        rob_size,
        rdrand_is_fenced,
        ..sim.core
    };
    sim
}

/// The reference planner: `analyze`'s handles and transmitters, paired by
/// the per-handle unbounded BFS, [`seed_pcs`] and
/// [`handle_dependent_pcs`].
fn reference(
    program: &Program,
    secrets: &SecretMap,
    sim: &SimConfig,
    report: &AnalysisReport,
) -> AnalysisReport {
    let cfg = Cfg::build(program);
    let taint = taint::analyze(program, &cfg, secrets);
    let serializing: Vec<bool> = program
        .iter()
        .map(|i| i.is_serializing(sim.core.rdrand_is_fenced))
        .collect();
    let const_mem: Vec<(usize, VAddr)> = program
        .iter()
        .enumerate()
        .filter_map(|(pc, inst)| {
            let (base, offset, _) = inst.memory_ref()?;
            Some((pc, taint.before(pc)?.resolve_addr(base, offset)?))
        })
        .collect();
    let mut plans = Vec::new();
    let mut closed_pairs = 0;
    for h in &report.handles {
        let dist = window_distances(program, h, &serializing);
        let seed = seed_pcs(h, &const_mem, &dist);
        let dependent = handle_dependent_pcs(program, &cfg, &seed);
        for t in &report.transmitters {
            match dist[t.pc] {
                Some(d) if d <= sim.core.rob_size.saturating_sub(1) => plans.push(AttackPlan {
                    handle: *h,
                    transmitter: t.clone(),
                    distance: d,
                    handle_independent: !dependent[t.pc],
                }),
                _ => closed_pairs += 1,
            }
        }
    }
    AnalysisReport {
        plans,
        closed_pairs,
        ..report.clone()
    }
}

/// Unbounded BFS over fetch successors from the handle: the minimum
/// fetch distance of each pc, `None` when unreachable without crossing a
/// serializing instruction (or, for a TSX handle, past an `XEnd`).
fn window_distances(
    program: &Program,
    handle: &Handle,
    serializing: &[bool],
) -> Vec<Option<usize>> {
    let n = program.len();
    let mut dist = vec![None; n];
    let mut queue = VecDeque::new();
    let stop_at_xend = matches!(handle.kind, HandleKind::TsxAbort);
    let mut visit = |s: usize, d: usize, queue: &mut VecDeque<(usize, usize)>| {
        if s < n && dist[s].is_none() && !serializing[s] {
            dist[s] = Some(d);
            queue.push_back((s, d));
        }
    };
    visit(handle.pc + 1, 1, &mut queue);
    if let HandleKind::Mispredict = handle.kind {
        let start = program.fetch(handle.pc).expect("handle pc in range");
        if let Some(t) = start.control_target() {
            visit(t, 1, &mut queue);
        }
    }
    while let Some((pc, d)) = queue.pop_front() {
        let inst = program.fetch(pc).expect("pc in range");
        if stop_at_xend && matches!(inst, Inst::XEnd) {
            continue;
        }
        if inst.falls_through() {
            visit(pc + 1, d + 1, &mut queue);
        }
        if let Some(t) = inst.control_target() {
            visit(t, d + 1, &mut queue);
        }
    }
    dist
}

/// The pcs that fault alongside the handle while its page is armed: the
/// handle itself and, for a page-fault handle, every const-resolved
/// access to the same page that `dist` reaches, at any distance.
fn seed_pcs(handle: &Handle, const_mem: &[(usize, VAddr)], dist: &[Option<usize>]) -> Vec<bool> {
    let mut seed = vec![false; dist.len()];
    seed[handle.pc] = true;
    if let HandleKind::PageFault { vaddr, .. } = handle.kind {
        for &(pc, a) in const_mem {
            if dist[pc].is_some() && a.same_page(vaddr) {
                seed[pc] = true;
            }
        }
    }
    seed
}

/// Forward register-dependence closure from the seeds' destinations over
/// the whole CFG from block 0: whether each pc reads a register whose
/// value may derive from a seed's result along some path.
fn handle_dependent_pcs(program: &Program, cfg: &Cfg, seed: &[bool]) -> Vec<bool> {
    let mut dependent = vec![false; program.len()];
    let mut block_in: Vec<Option<u64>> = vec![None; cfg.blocks().len()];
    block_in[0] = Some(0);
    let mut work = vec![0];
    while let Some(b) = work.pop() {
        let Some(mut mask) = block_in[b] else {
            continue;
        };
        for pc in cfg.blocks()[b].pcs() {
            let inst = program.fetch(pc).expect("pc in range");
            let from_srcs = inst
                .sources()
                .iter()
                .any(|r| mask & (1u64 << r.index()) != 0);
            dependent[pc] |= from_srcs;
            if let Some(d) = inst.dst() {
                if seed[pc] || from_srcs {
                    mask |= 1u64 << d.index();
                } else {
                    mask &= !(1u64 << d.index());
                }
            }
        }
        for &s in &cfg.blocks()[b].succs {
            if s == cfg.exit() {
                continue;
            }
            let next = block_in[s].unwrap_or(0) | mask;
            if block_in[s] != Some(next) {
                block_in[s] = Some(next);
                work.push(s);
            }
        }
    }
    dependent
}

fn memory() -> (PhysMem, AddressSpace) {
    let mut phys = PhysMem::new();
    let aspace = AddressSpace::new(&mut phys, 1);
    for page in PAGES {
        aspace.alloc_map(&mut phys, VAddr(page), PAGE_BYTES, PteFlags::user_data());
    }
    (phys, aspace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]
    #[test]
    fn shared_passes_match_the_per_handle_closure(
        pieces in pieces(),
        rob in 0usize..5,
        fenced in 0u8..2,
    ) {
        let program = assemble(pieces);
        let (rob_size, rdrand_is_fenced) = ([0, 1, 4, 16, 192][rob], fenced == 1);
        let secrets = SecretMap::new().region(VAddr(SECRET_PAGE), 8, "s");
        let sim = sim(rob_size, rdrand_is_fenced);
        let (phys, aspace) = memory();
        let got = analyze("prop", &program, &secrets, &sim, &phys, aspace);
        let want = reference(&program, &secrets, &sim, &got);
        prop_assert_eq!(got, want);
    }
}
