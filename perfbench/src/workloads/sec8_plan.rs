//! `sec8_plan`: the static attack planner. One operation is `analyze`
//! plus `validate_plan` on each §8 subject in turn: `single_secret`,
//! `loop_secret`, `modexp`, `subnormal` and `aes`. A pass over all five
//! keeps every operation the same shape, so operation-time percentiles
//! cover every subject instead of the cheapest ones.
//! Every subject gets fresh secrets drawn from the seed (secret table and
//! index, loop secrets, exponent, operand class, key and block); its
//! victim is analyzed, and its first page-fault plan (handle-independent
//! plans first) is driven through a tiny session: build, capture, one run
//! and one rerun from the checkpoint. Each plan must confirm and the
//! rerun must reconfirm it.

use super::{combine, no_panic, Outcome, Rng, Workload};
use crate::compose::{self, Scope};
use crate::layers::Counts;
use microscope_analyze::{
    analyze, taint, validate_plan, AttackPlan, Cfg, HandleKind, PlanValidation,
};
use microscope_core::{AttackReport, AttackSession, RunRequest, SessionBuilder, SimConfig};
use microscope_cpu::{ContextId, Program};
use microscope_mem::{AddressSpace, VAddr};
use microscope_probe::RecorderConfig;
use microscope_victims::{aes, loop_secret, modexp, single_secret, subnormal, SecretMap};

const MAX_CYCLES: u64 = 20_000_000;

/// A victim installed in a builder: program, declared secrets, address
/// space and the pivot page for stepwise replay, if the plan needs one.
type Victim = (Program, SecretMap, AddressSpace, Option<VAddr>);

/// The subjects, in operation order.
const SUBJECTS: [&str; 5] = ["single_secret", "loop_secret", "modexp", "subnormal", "aes"];

/// Installs subject `which` with secrets drawn from `seed`.
fn install(which: usize, seed: u64, b: &mut SessionBuilder) -> Victim {
    let mut rng = Rng::new(seed, 0);
    let aspace = b.new_aspace(1);
    let base = VAddr(0x100_0000);
    match SUBJECTS[which] {
        "single_secret" => {
            const ENTRIES: u64 = 8;
            let subnormal_at = rng.below(ENTRIES);
            let table: Vec<f64> = (0..ENTRIES)
                .map(|i| {
                    let v = 2.0 + rng.below(1000) as f64;
                    if i == subnormal_at {
                        f64::MIN_POSITIVE / 8.0
                    } else {
                        v
                    }
                })
                .collect();
            let id = rng.below(ENTRIES);
            let (prog, layout) = single_secret::build(b.phys(), aspace, base, &table, id, 1.5);
            (prog, single_secret::secrets(&layout, ENTRIES), aspace, None)
        }
        "loop_secret" => {
            const LINES: u64 = 4;
            let secrets: Vec<u64> = (0..4).map(|_| rng.below(LINES)).collect();
            let (prog, layout) = loop_secret::build(b.phys(), aspace, base, &secrets, LINES);
            (prog, loop_secret::secrets(&layout), aspace, None)
        }
        "modexp" => {
            // A 4-bit exponent keeps every per-bit window inside the ROB.
            let exponent = rng.below(16);
            let (prog, layout) = modexp::build(b.phys(), aspace, base, 3, exponent, 1009, 4);
            (prog, modexp::secrets(&layout), aspace, None)
        }
        "subnormal" => {
            let (prog, layout) = subnormal::build(b.phys(), aspace, base, rng.below(2) == 1);
            (prog, subnormal::secrets(&layout), aspace, None)
        }
        _ => {
            let key: Vec<u8> = (0..16).map(|_| rng.next_u64() as u8).collect();
            let block: [u8; 16] = std::array::from_fn(|_| rng.next_u64() as u8);
            let (prog, layout) = aes::build(
                b.phys(),
                aspace,
                VAddr(0x4000_0000),
                &key,
                aes::KeySize::Aes128,
                &block,
            );
            // Stepping the fault to the round-1 loads needs a pivot on the
            // recurring Td0 page.
            let pivot = layout.td[0];
            (prog, aes::secrets(&layout), aspace, Some(pivot))
        }
    }
}

/// The plan a validation drives: the first page-fault plan,
/// handle-independent plans first (as the `sec8_analyze` harness orders
/// them).
fn first_plan(plans: impl Iterator<Item = AttackPlan>) -> Option<AttackPlan> {
    plans.min_by_key(|p| (!p.handle_independent, p.handle.pc, p.transmitter.pc))
}

/// The session `validate_plan` assembles, from the same public calls.
fn plan_session(
    mut b: SessionBuilder,
    plan: &AttackPlan,
    pivot: Option<VAddr>,
) -> Option<AttackSession> {
    let HandleKind::PageFault { vaddr, .. } = plan.handle.kind else {
        return None;
    };
    b.probe(RecorderConfig {
        enabled: true,
        capacity: 500_000,
    });
    let id = b.module().provide_replay_handle(ContextId(0), vaddr);
    let recipe = b.module().recipe_mut(id);
    recipe.replays_per_step = 4;
    recipe.pivot = pivot;
    recipe.max_steps = if pivot.is_some() { 64 } else { 1 };
    b.build().ok()
}

/// `validate_plan` composed from its layer calls: build, capture, cold
/// run, report, restore, rerun, report. Also returns both reports.
fn composed_validate(
    b: SessionBuilder,
    plan: &AttackPlan,
    pivot: Option<VAddr>,
    at: Scope<'_>,
    counts: &mut Counts,
) -> Option<(PlanValidation, Vec<AttackReport>)> {
    let mut s = at.span("session.build", || plan_session(b, plan, pivot))?;
    let (cold, armed) = compose::cold(&mut s, MAX_CYCLES, at, counts);
    let executions = cold.executions_of(0, plan.transmitter.pc);
    let replays: u64 = cold.module.replays.iter().sum();
    let before = s.machine().checkpoint_stats();
    let again = compose::replay(&mut s, &armed, MAX_CYCLES, at, counts);
    let after = s.machine().checkpoint_stats();
    counts.pages_cow += after.pages_cow - before.pages_cow;
    counts.restore_pages += after.restore_pages - before.restore_pages;
    let replay_reconfirmed = again.as_ref().map(|r| {
        r.executions_of(0, plan.transmitter.pc) == executions
            && r.module.replays.iter().sum::<u64>() == replays
    });
    let v = PlanValidation {
        handle_pc: plan.handle.pc,
        transmitter_pc: plan.transmitter.pc,
        transmitter_executions: executions,
        replays,
        confirmed: replays >= 1 && executions >= 2,
        replay_reconfirmed,
    };
    Some((v, std::iter::once(cold).chain(again).collect()))
}

/// The reports `execute()` gives for a plan session's cold run and rerun.
fn executed_reports(
    b: SessionBuilder,
    plan: &AttackPlan,
    pivot: Option<VAddr>,
) -> Option<Vec<AttackReport>> {
    let mut s = plan_session(b, plan, pivot)?;
    let cold = s.execute(RunRequest::cold(MAX_CYCLES)).ok()?;
    let again = s
        .execute(RunRequest::cold(MAX_CYCLES).from_checkpoint())
        .ok()?;
    Some(vec![cold, again])
}

fn confirmed(v: &PlanValidation) -> bool {
    v.confirmed && v.replay_reconfirmed == Some(true)
}

pub struct Sec8Plan {
    rng: Rng,
    next_subject: usize,
    verified: [bool; SUBJECTS.len()],
    cross_seed: u64,
}

impl Sec8Plan {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 4);
        let cross_seed = rng.next_u64();
        let mut w = Sec8Plan {
            rng,
            next_subject: 0,
            verified: [false; SUBJECTS.len()],
            cross_seed,
        };
        // Warm-up: one untimed operation, which must already check out.
        if !w.op().ok {
            return Err("warm-up validations failed their checks".into());
        }
        Ok(w)
    }

    /// The next subject and its secrets' seed.
    fn next(&mut self) -> (usize, u64) {
        let which = self.next_subject;
        self.next_subject = (which + 1) % SUBJECTS.len();
        (which, self.rng.next_u64())
    }

    fn subject(&mut self) -> Outcome {
        let (which, seed) = self.next();
        let mut b = SessionBuilder::new();
        let (prog, secrets, aspace, pivot) = install(which, seed, &mut b);
        let report = analyze(
            SUBJECTS[which],
            &prog,
            &secrets,
            &SimConfig::default(),
            b.phys(),
            aspace,
        );
        let mut counts = Counts::default();
        let Some(plan) = first_plan(report.page_fault_plans().cloned()) else {
            return Outcome::default();
        };
        b.victim(prog, aspace);
        let ok = match validate_plan(b, &plan, pivot, MAX_CYCLES) {
            Ok(v) => {
                counts.replays += v.replays;
                confirmed(&v)
            }
            Err(_) => false,
        };
        counts.plans += 1;
        counts.confirmed += u64::from(ok);
        Outcome { ok, counts }
    }

    fn traced_subject(&mut self, at: Scope<'_>) -> Outcome {
        let (which, seed) = self.next();
        let mut b = SessionBuilder::new();
        let (prog, secrets, aspace, pivot) = install(which, seed, &mut b);
        let sim = SimConfig::default();
        let cfg = at.span("analyze.cfg", || Cfg::build(&prog));
        at.span("analyze.taint", || {
            std::hint::black_box(taint::analyze(&prog, &cfg, &secrets))
        });
        let report = at.span("analyze.plan", || {
            analyze(SUBJECTS[which], &prog, &secrets, &sim, b.phys(), aspace)
        });
        let mut counts = Counts::default();
        let Some(plan) = first_plan(report.page_fault_plans().cloned()) else {
            return Outcome::default();
        };
        b.victim(prog, aspace);
        let Some((v, reports)) = at.nest("analyze.validate", |inner| {
            composed_validate(b, &plan, pivot, inner, &mut counts)
        }) else {
            return Outcome::default();
        };
        for r in &reports {
            counts.add_report(r);
        }
        let mut ok = confirmed(&v);
        if !self.verified[which] {
            // Byte-identity of the composition: rebuild the same victim and
            // compare against validate_plan and execute() directly.
            self.verified[which] = true;
            let fresh = || {
                let mut b = SessionBuilder::new();
                let (prog, _, aspace, _) = install(which, seed, &mut b);
                b.victim(prog, aspace);
                b
            };
            let same_validation = validate_plan(fresh(), &plan, pivot, MAX_CYCLES)
                .is_ok_and(|direct| format!("{direct:?}") == format!("{v:?}"));
            let same_reports = executed_reports(fresh(), &plan, pivot)
                .is_some_and(|direct| format!("{direct:?}") == format!("{reports:?}"));
            if !(same_validation && same_reports) {
                eprintln!(
                    "sec8_plan: composed validation of {} differs",
                    SUBJECTS[which]
                );
                ok = false;
            }
        }
        counts.plans += 1;
        counts.confirmed += u64::from(ok);
        Outcome { ok, counts }
    }
}

impl Workload for Sec8Plan {
    fn op(&mut self) -> Outcome {
        combine(SUBJECTS.map(|_| self.subject()))
    }

    fn traced_op(&mut self, at: Scope<'_>) -> Outcome {
        combine(SUBJECTS.map(|_| self.traced_subject(at)))
    }

    fn cross_check(&mut self) -> Result<String, String> {
        let which = (self.cross_seed % SUBJECTS.len() as u64) as usize;
        let mut b = SessionBuilder::new();
        let (prog, secrets, aspace, pivot) = install(which, self.cross_seed, &mut b);
        let report = analyze(
            SUBJECTS[which],
            &prog,
            &secrets,
            &SimConfig::default(),
            b.phys(),
            aspace,
        );
        let plan = first_plan(report.page_fault_plans().cloned()).ok_or("no page-fault plan")?;
        b.victim(prog, aspace);
        let mut s = plan_session(b, &plan, pivot).ok_or("plan session did not build")?;
        s.execute(RunRequest::cold(MAX_CYCLES))
            .map_err(|e| e.to_string())?;
        let report = no_panic("sec8_plan cross-check", || {
            s.execute(RunRequest::cold(MAX_CYCLES).cross_checked())
        })?
        .map_err(|e| format!("cross-checked run failed: {e}"))?;
        Ok(format!("{report:?}"))
    }
}
