//! Soundness of the static attack planner, as a property: for arbitrary
//! straight-line victims, whenever the *simulator* demonstrates a replay
//! attack (the module replays the handle and the transmitter issues more
//! often than in an undisturbed baseline run), the *static* analysis must
//! have predicted that (handle, transmitter) pair as an open plan — no
//! false negatives. The dynamic half runs through the sweep engine at 1
//! worker and again at 4, and must measure identically either way.

use microscope::analyze::analyze;
use microscope::core::sweep::{SweepPoint, SweepSpec};
use microscope::core::{AttackReport, AttackSession, RunRequest, SessionBuilder, SimConfig};
use microscope::cpu::{AluOp, Assembler, ContextId, Program, Reg};
use microscope::mem::{AddressSpace, PteFlags, VAddr, PAGE_BYTES};
use microscope::probe::RecorderConfig;
use microscope::victims::SecretMap;
use proptest::prelude::*;

const SECRET_PAGE: VAddr = VAddr(0x1000_0000);
const HANDLE_PAGE: VAddr = VAddr(0x1000_2000);
const TABLE_PAGE: VAddr = VAddr(0x1000_4000);
const MAX_CYCLES: u64 = 5_000_000;

/// What sits between the handle and the transmitter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Barrier {
    /// Nothing: the window is open.
    None,
    /// A `Fence`.
    Fence,
    /// An `RdRand`, which the default core fences.
    RdRand,
}

/// One generated victim: a secret load, a faultable handle load, an
/// optional barrier, filler, and a secret-dependent transmitter.
#[derive(Clone, Copy, Debug)]
struct Shape {
    /// Independent ALU instructions between handle and transmitter.
    filler: usize,
    /// The barrier right after the handle.
    barrier: Barrier,
    /// Cache transmitter (secret-indexed load) vs. port (`divsd`).
    use_div: bool,
    /// The secret byte the victim's memory holds.
    secret: u64,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    let barriers = [Barrier::None, Barrier::Fence, Barrier::RdRand];
    (0usize..10, 0usize..3, 0u8..2, 0u64..8).prop_map(move |(filler, b, use_div, secret)| Shape {
        filler,
        barrier: barriers[b],
        use_div: use_div == 1,
        secret,
    })
}

/// Builds the straight-line victim for `shape` and returns the program
/// plus the pcs of its handle and transmitter.
fn build_victim(shape: &Shape) -> (Program, usize, usize) {
    let (sp, sv, hp, hv, tp, tv, y) = (Reg(1), Reg(2), Reg(3), Reg(4), Reg(5), Reg(6), Reg(7));
    let mut asm = Assembler::new();
    asm.imm(sp, SECRET_PAGE.0)
        .load(sv, sp, 0) // secret in sv
        .imm(hp, HANDLE_PAGE.0);
    let handle_pc = 3;
    asm.load(hv, hp, 0); // the replay handle
    match shape.barrier {
        Barrier::None => {}
        Barrier::Fence => {
            asm.fence();
        }
        Barrier::RdRand => {
            asm.rdrand(Reg(10));
        }
    }
    for _ in 0..shape.filler {
        asm.alu(AluOp::Add, Reg(8), Reg(8), Reg(8));
    }
    // Straight-line code: the transmitter's pc is just what comes after
    // the prologue, the optional barrier, the filler, and its own setup.
    let prologue = handle_pc + 1 + usize::from(shape.barrier != Barrier::None) + shape.filler;
    let transmitter_pc;
    if shape.use_div {
        asm.imm_f64(y, 1.5);
        transmitter_pc = prologue + 1;
        asm.fdiv(Reg(9), sv, y);
    } else {
        asm.alu_imm(AluOp::Shl, tp, sv, 6)
            .alu_imm(AluOp::Add, tp, tp, TABLE_PAGE.0);
        transmitter_pc = prologue + 2;
        asm.load(tv, tp, 0);
    }
    asm.halt();
    let prog = asm.finish();
    assert_eq!(transmitter_pc + 2, prog.len(), "pc bookkeeping drifted");
    (prog, handle_pc, transmitter_pc)
}

/// Installs `shape`'s memory image and victim into a fresh builder.
fn session_for(shape: &Shape) -> (SessionBuilder, Program, usize, usize) {
    let mut b = SessionBuilder::new();
    b.probe(RecorderConfig {
        enabled: true,
        capacity: 200_000,
    });
    let aspace = b.new_aspace(1);
    for page in [SECRET_PAGE, HANDLE_PAGE, TABLE_PAGE] {
        aspace.alloc_map(b.phys(), page, PAGE_BYTES, PteFlags::user_data());
    }
    let pa = aspace
        .translate(b.phys(), SECRET_PAGE, false)
        .expect("secret page just mapped")
        .paddr;
    b.phys().write_u64(pa, shape.secret);
    let (prog, handle_pc, transmitter_pc) = build_victim(shape);
    b.victim(prog.clone(), aspace);
    (b, prog, handle_pc, transmitter_pc)
}

/// What the simulator measured for one shape.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Measured {
    baseline: u64,
    attacked: u64,
    replays: u64,
}

/// Baseline issue count of the transmitter, then the attacked count with
/// the handle page armed for 4 replays. Both runs are traced, and the
/// trace is the oracle for the core's per-pc issue counter: for every pc
/// of the victim, `issues_at` must equal the probe's `Issue` events.
fn measure(shape: &Shape) -> Measured {
    let (b, _, _, transmitter_pc) = session_for(shape);
    let baseline = traced_issues(b.build().expect("victim installed"), transmitter_pc).0;

    let (mut b, _, _, _) = session_for(shape);
    let id = b.module().provide_replay_handle(ContextId(0), HANDLE_PAGE);
    b.module().recipe_mut(id).replays_per_step = 4;
    let (attacked, report) = traced_issues(b.build().expect("victim installed"), transmitter_pc);
    Measured {
        baseline,
        attacked,
        replays: report.module.replays.iter().sum(),
    }
}

/// Runs `session` cold and returns the issue count of `pc` with the
/// report, after checking the counter against the complete trace.
fn traced_issues(mut session: AttackSession, pc: usize) -> (u64, AttackReport) {
    let report = session
        .execute(RunRequest::cold(MAX_CYCLES))
        .expect("a cold run cannot fail");
    assert_eq!(
        report.dropped_events, 0,
        "the oracle trace must be complete"
    );
    let victim = session.machine().context(ContextId(0));
    for p in 0..victim.program().len() {
        assert_eq!(
            victim.issues_at(p),
            report.executions_of(0, p),
            "issue counter disagrees with the trace at pc {p}"
        );
    }
    (victim.issues_at(pc), report)
}

fn measure_grid(shapes: &[Shape], jobs: usize) -> Vec<Measured> {
    let spec = SweepSpec::new("analyze-soundness", |pt: &SweepPoint<Shape>| {
        Ok(measure(&pt.payload))
    })
    .points(
        shapes
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("s{i}"), SimConfig::new(), *s)),
    )
    .jobs(jobs);
    spec.run().ok().map(|(_, m)| m.clone()).collect()
}

/// Static analysis of one shape: does the planner list the
/// (handle, transmitter) pair as an open plan?
fn statically_open(shape: &Shape) -> bool {
    let mut phys = microscope::mem::PhysMem::new();
    let aspace = AddressSpace::new(&mut phys, 1);
    for page in [SECRET_PAGE, HANDLE_PAGE, TABLE_PAGE] {
        aspace.alloc_map(&mut phys, page, PAGE_BYTES, PteFlags::user_data());
    }
    let (prog, handle_pc, transmitter_pc) = build_victim(shape);
    let secrets = SecretMap::new().region(SECRET_PAGE, 8, "s");
    let report = analyze(
        "soundness",
        &prog,
        &secrets,
        &SimConfig::new(),
        &phys,
        aspace,
    );
    report
        .plans
        .iter()
        .any(|p| p.handle.pc == handle_pc && p.transmitter.pc == transmitter_pc)
}

/// Anchors the property against vacuity: an unfenced victim must both
/// replay in the simulator and be statically open, and its twins behind a
/// fence or a fenced `RdRand` must be statically closed (no plan to miss)
/// and must not amplify the transmitter.
#[test]
fn anchor_cases_confirm_and_close() {
    let open = Shape {
        filler: 2,
        barrier: Barrier::None,
        use_div: true,
        secret: 3,
    };
    let m = measure(&open);
    assert!(
        m.replays >= 1 && m.attacked > m.baseline,
        "unfenced shape must replay its transmitter (got {m:?})"
    );
    assert!(statically_open(&open));
    for barrier in [Barrier::Fence, Barrier::RdRand] {
        let fenced = Shape { barrier, ..open };
        assert!(
            !statically_open(&fenced),
            "{barrier:?} closes the static window"
        );
        let mf = measure(&fenced);
        assert!(
            mf.attacked <= mf.baseline,
            "{barrier:?} shape must not amplify the transmitter (got {mf:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn no_static_false_negatives(grid in prop::collection::vec(arb_shape(), 2..5)) {
        let serial = measure_grid(&grid, 1);
        let fanned = measure_grid(&grid, 4);
        prop_assert_eq!(&serial, &fanned, "sweep results must not depend on worker count");
        for (shape, m) in grid.iter().zip(&serial) {
            let dynamically_confirmed = m.replays >= 1 && m.attacked > m.baseline;
            if dynamically_confirmed {
                prop_assert!(
                    statically_open(shape),
                    "simulator replayed the transmitter of {:?} ({:?}) but the \
                     static planner predicted no open (handle, transmitter) plan",
                    shape,
                    m
                );
            }
        }
    }
}
