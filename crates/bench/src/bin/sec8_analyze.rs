//! **§8-style static analysis, cross-checked against the simulator**: for
//! every victim in the suite, `microscope-analyze` predicts the
//! `(replay handle, transmitter, channel)` attack plans a MicroScope
//! attacker could run, then the predictions are validated by driving them
//! through a real [`AttackSession`](microscope_core::AttackSession) and
//! counting transmitter issues in the probe stream.
//!
//! * default mode — static plans for all eight analysis subjects plus
//!   simulator validation for `aes`, `modexp`, `single_secret` and
//!   `subnormal`: a plan is *confirmed* when the module replays its
//!   handle and the transmitter issues strictly more often than in an
//!   undisturbed baseline run.
//! * `--audit-defenses` — additionally hardens each validated victim with
//!   `defenses::fences::insert_fences` (a fence immediately before every
//!   transmitter), re-analyzes (zero open windows expected), and re-runs
//!   the attack against the hardened program (no extra transmitter
//!   issues expected).
//!
//! Pass `--jobs N` to fan the subjects out; stdout is byte-identical for
//! any worker count.

use microscope_analyze::{
    analyze, baseline_executions, validate_plan, AnalysisReport, AttackPlan, Handle, Transmitter,
};
use microscope_bench::{
    extract_count, extract_flag, out, outln, parse_or_exit, print_table, shape_check,
};
use microscope_core::sweep::{SweepError, SweepPoint, SweepSpec};
use microscope_core::{SessionBuilder, SimConfig};
use microscope_cpu::{CoreConfig, Program};
use microscope_defenses::fences::{insert_fences, remapped_pc};
use microscope_mem::{AddressSpace, VAddr};
use microscope_victims::{
    aes, control_flow, loop_secret, modexp, rdrand, single_secret, subnormal, SecretMap,
};

/// Installs one victim's data into the builder's physical memory and
/// returns the program, its declared secrets, the address space, and an
/// optional pivot page for stepwise replay (§4.2.2): victims that touch
/// the handle page several times before the planned access (AES and its
/// round-key page) name a recurring *other* page the module can
/// alternate faults with to step the handle forward. (The caller decides
/// which program variant — original or hardened — to actually install as
/// the victim.)
type BuildFn = fn(&mut SessionBuilder) -> (Program, SecretMap, AddressSpace, Option<VAddr>);

/// One analysis subject: a victim build recipe under a hardware config.
#[derive(Clone, Copy)]
struct Subject {
    name: &'static str,
    sim: SimConfig,
    build: BuildFn,
    /// Whether to cross-check predictions in the simulator.
    validate: bool,
}

fn build_single_secret(
    b: &mut SessionBuilder,
) -> (Program, SecretMap, AddressSpace, Option<VAddr>) {
    let aspace = b.new_aspace(1);
    let table = single_secret::secrets_with_subnormal(8, 3);
    let (prog, layout) = single_secret::build(b.phys(), aspace, VAddr(0x100_0000), &table, 3, 1.5);
    (prog, single_secret::secrets(&layout, 8), aspace, None)
}

fn build_control_flow(b: &mut SessionBuilder) -> (Program, SecretMap, AddressSpace, Option<VAddr>) {
    let aspace = b.new_aspace(1);
    let (prog, layout) = control_flow::build(b.phys(), aspace, VAddr(0x100_0000), true);
    (prog, control_flow::secrets(&layout), aspace, None)
}

fn build_loop_secret(b: &mut SessionBuilder) -> (Program, SecretMap, AddressSpace, Option<VAddr>) {
    let aspace = b.new_aspace(1);
    let (prog, layout) = loop_secret::build(b.phys(), aspace, VAddr(0x100_0000), &[1, 3, 0, 2], 4);
    (prog, loop_secret::secrets(&layout), aspace, None)
}

fn build_modexp(b: &mut SessionBuilder) -> (Program, SecretMap, AddressSpace, Option<VAddr>) {
    let aspace = b.new_aspace(1);
    // Small exponent/modulus keep every per-bit window inside the ROB.
    let (prog, layout) = modexp::build(b.phys(), aspace, VAddr(0x100_0000), 3, 0b1011, 1009, 4);
    (prog, modexp::secrets(&layout), aspace, None)
}

fn build_aes(b: &mut SessionBuilder) -> (Program, SecretMap, AddressSpace, Option<VAddr>) {
    let aspace = b.new_aspace(1);
    let key: Vec<u8> = (0u8..16).collect();
    let block = *b"microscope-block";
    let ct = aes::encrypt_block(&key, aes::KeySize::Aes128, &block);
    let (prog, layout) = aes::build(
        b.phys(),
        aspace,
        VAddr(0x4000_0000),
        &key,
        aes::KeySize::Aes128,
        &ct,
    );
    // The round-key page is read 44 times; stepping the fault to the
    // round-1 loads needs a pivot on the (recurring) Td0 table page.
    let pivot = layout.td[0];
    (prog, aes::secrets(&layout), aspace, Some(pivot))
}

fn build_subnormal(b: &mut SessionBuilder) -> (Program, SecretMap, AddressSpace, Option<VAddr>) {
    let aspace = b.new_aspace(1);
    let (prog, layout) = subnormal::build(b.phys(), aspace, VAddr(0x100_0000), true);
    (prog, subnormal::secrets(&layout), aspace, None)
}

fn build_rdrand(b: &mut SessionBuilder) -> (Program, SecretMap, AddressSpace, Option<VAddr>) {
    let aspace = b.new_aspace(1);
    let (prog, layout) = rdrand::build(b.phys(), aspace, VAddr(0x900_0000));
    (prog, rdrand::secrets(&layout), aspace, None)
}

/// The eight analysis subjects: the seven victim programs, with the
/// `rdrand` victim analyzed under both cores — the §7.2 fence question is
/// *exactly* a window-reachability question, so the fenced and unfenced
/// configurations are distinct subjects with different answers.
fn subjects() -> Vec<Subject> {
    let unfenced_rdrand = SimConfig::new().with_core(CoreConfig {
        rdrand_is_fenced: false,
        ..CoreConfig::default()
    });
    vec![
        Subject {
            name: "single_secret",
            sim: SimConfig::new(),
            build: build_single_secret,
            validate: true,
        },
        Subject {
            name: "control_flow",
            sim: SimConfig::new(),
            build: build_control_flow,
            validate: false,
        },
        Subject {
            name: "loop_secret",
            sim: SimConfig::new(),
            build: build_loop_secret,
            validate: false,
        },
        Subject {
            name: "modexp",
            sim: SimConfig::new(),
            build: build_modexp,
            validate: true,
        },
        Subject {
            name: "aes",
            sim: SimConfig::new(),
            build: build_aes,
            validate: true,
        },
        Subject {
            name: "subnormal",
            sim: SimConfig::new(),
            build: build_subnormal,
            validate: true,
        },
        Subject {
            name: "rdrand-unfenced",
            sim: unfenced_rdrand,
            build: build_rdrand,
            validate: false,
        },
        Subject {
            name: "rdrand-fenced",
            sim: SimConfig::new(),
            build: build_rdrand,
            validate: false,
        },
    ]
}

const MAX_CYCLES: u64 = 20_000_000;
const MAX_PLANS_TRIED: usize = 6;

/// What one validated plan measured.
#[derive(Clone, Debug)]
struct Validation {
    line: String,
    confirmed: bool,
}

/// The fence-audit result for one subject.
#[derive(Clone, Debug)]
struct Audit {
    open_before: usize,
    open_after: usize,
    baseline_execs: u64,
    attacked_execs: u64,
    sealed: bool,
}

/// Everything one subject produced (plain data; printed in grid order).
struct Outcome {
    report: AnalysisReport,
    validations: Vec<Validation>,
    audit: Option<Audit>,
}

/// A fresh session builder with this subject's victim installed, running
/// `program` (original or hardened — both share the same data image).
fn session_for(subject: &Subject, program: &Program) -> SessionBuilder {
    let mut b = SessionBuilder::new();
    b.sim(subject.sim);
    let (_, _, aspace, _) = (subject.build)(&mut b);
    b.victim(program.clone(), aspace);
    b
}

/// Static analysis of one subject (fresh memory image each call).
fn analyze_subject(subject: &Subject, program_override: Option<&Program>) -> AnalysisReport {
    let mut b = SessionBuilder::new();
    b.sim(subject.sim);
    let (prog, secrets, aspace, _) = (subject.build)(&mut b);
    let prog = program_override.unwrap_or(&prog);
    analyze(subject.name, prog, &secrets, &subject.sim, b.phys(), aspace)
}

/// Rewrites a plan's pcs into hardened-program coordinates.
fn remap_plan(plan: &AttackPlan, fence_positions: &[usize]) -> AttackPlan {
    AttackPlan {
        handle: Handle {
            pc: remapped_pc(fence_positions, plan.handle.pc),
            kind: plan.handle.kind,
        },
        transmitter: Transmitter {
            pc: remapped_pc(fence_positions, plan.transmitter.pc),
            ..plan.transmitter.clone()
        },
        distance: plan.distance,
        handle_independent: plan.handle_independent,
    }
}

fn run_subject(subject: &Subject, audit_defenses: bool) -> Result<Outcome, SweepError> {
    let report = analyze_subject(subject, None);
    let fail = |e: microscope_analyze::ValidateError| SweepError::Point(e.to_string());

    // Validation: drive predicted page-fault plans through real sessions
    // until one is confirmed — the transmitter must issue strictly more
    // often than in an undisturbed baseline run of the same victim.
    let mut validations = Vec::new();
    let prog_for = |s: &Subject| {
        let mut b = SessionBuilder::new();
        b.sim(s.sim);
        let (prog, _, _, pivot) = (s.build)(&mut b);
        (prog, pivot)
    };
    if subject.validate {
        let (prog, pivot) = prog_for(subject);
        // Handle-independent plans first: a faulted handle never forwards
        // its result, so a dependent transmitter cannot issue inside that
        // handle's own window (it would only waste validation attempts).
        let mut plans: Vec<AttackPlan> = report.page_fault_plans().cloned().collect();
        plans.sort_by_key(|p| (!p.handle_independent, p.handle.pc, p.transmitter.pc));
        for plan in plans.iter().take(MAX_PLANS_TRIED) {
            let baseline =
                baseline_executions(session_for(subject, &prog), plan.transmitter.pc, MAX_CYCLES)
                    .map_err(fail)?;
            let v = validate_plan(session_for(subject, &prog), plan, pivot, MAX_CYCLES)
                .map_err(fail)?;
            let confirmed = v.replays >= 1 && v.transmitter_executions > baseline;
            validations.push(Validation {
                line: format!(
                    "measured: handle pc {} -> transmitter pc {}: {} issues over {} replays \
                     (baseline {baseline}) => {}",
                    v.handle_pc,
                    v.transmitter_pc,
                    v.transmitter_executions,
                    v.replays,
                    if confirmed {
                        "CONFIRMED"
                    } else {
                        "not confirmed"
                    }
                ),
                confirmed,
            });
            if confirmed {
                break;
            }
        }
    }

    // Defense audit: fence every transmitter, expect zero open windows
    // statically and no replay amplification dynamically.
    let audit = if audit_defenses && subject.validate {
        let (prog, _) = prog_for(subject);
        let positions: Vec<usize> = report.transmitters.iter().map(|t| t.pc).collect();
        let hardened = insert_fences(&prog, &positions);
        let hardened_report = analyze_subject(subject, Some(&hardened));
        let plan = report
            .page_fault_plans()
            .find(|p| p.handle_independent)
            .or_else(|| report.page_fault_plans().next())
            .ok_or_else(|| SweepError::Point(format!("{}: no plan to audit", subject.name)))?;
        let mapped = remap_plan(plan, &positions);
        let baseline = baseline_executions(
            session_for(subject, &hardened),
            mapped.transmitter.pc,
            MAX_CYCLES,
        )
        .map_err(fail)?;
        // No pivot here: stepping exists to walk the fault toward one
        // particular access when *demonstrating* the attack. The audit
        // asks whether any single replay window still leaks — and a pivot
        // sharing the transmitter's page would re-execute it once through
        // the ordinary fault retry, a false "amplification".
        let v = validate_plan(session_for(subject, &hardened), &mapped, None, MAX_CYCLES)
            .map_err(fail)?;
        Some(Audit {
            open_before: report.plans.len(),
            open_after: hardened_report.plans.len(),
            baseline_execs: baseline,
            attacked_execs: v.transmitter_executions,
            sealed: hardened_report.plans.is_empty() && v.transmitter_executions <= baseline,
        })
    } else {
        None
    };

    Ok(Outcome {
        report,
        validations,
        audit,
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = parse_or_exit(extract_count(&mut args, "--jobs"));
    let audit_defenses = extract_flag(&mut args, "--audit-defenses");

    outln!("== §8 static replay-handle & secret-taint analysis ==\n");
    let subjects = subjects();
    let sweep = SweepSpec::new("sec8-analyze", |pt: &SweepPoint<Subject>| {
        run_subject(&pt.payload, audit_defenses)
    })
    .points(subjects.iter().map(|s| (s.name.to_string(), s.sim, *s)))
    .jobs_opt(jobs)
    .run();
    eprintln!("{}", sweep.schedule_summary());
    for (pt, err) in sweep.errors() {
        eprintln!("error: point {:?}: {err}", pt.label);
    }
    if sweep.errors().next().is_some() {
        std::process::exit(1);
    }

    let outcomes: Vec<(&str, &Outcome)> = sweep.ok().map(|(pt, o)| (pt.payload.name, o)).collect();

    // Summary table, then the per-subject plan details.
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|(name, o)| {
            let channels: Vec<String> = o
                .report
                .open_channels()
                .iter()
                .map(|c| c.to_string())
                .collect();
            vec![
                name.to_string(),
                o.report.handles.len().to_string(),
                o.report.transmitters.len().to_string(),
                o.report.plans.len().to_string(),
                if channels.is_empty() {
                    "-".into()
                } else {
                    channels.join("+")
                },
            ]
        })
        .collect();
    print_table(
        &[
            "victim",
            "handles",
            "transmitters",
            "open plans",
            "channels",
        ],
        &rows,
    );
    outln!();
    for (_, o) in &outcomes {
        out!("{}", o.report);
        for v in &o.validations {
            outln!("  {}", v.line);
        }
        if let Some(a) = &o.audit {
            outln!(
                "  audit: {} open plan(s) -> {} after fencing; attacked {} vs baseline {} issues => {}",
                a.open_before,
                a.open_after,
                a.attacked_execs,
                a.baseline_execs,
                if a.sealed { "SEALED" } else { "STILL OPEN" }
            );
        }
        outln!();
    }

    let get = |name: &str| {
        outcomes
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, o)| *o)
            .expect("subject present")
    };
    let ok1 = shape_check(
        "every subject yields replay-handle candidates and a plan verdict",
        outcomes.len() == 8 && outcomes.iter().all(|(_, o)| !o.report.handles.is_empty()),
        &format!("{} subjects analyzed", outcomes.len()),
    );
    let ok2 = shape_check(
        "validated subjects confirm a predicted plan in the simulator",
        ["aes", "modexp", "single_secret", "subnormal"]
            .iter()
            .all(|n| get(n).validations.iter().any(|v| v.confirmed)),
        "predicted transmitter re-issues under replay",
    );
    let ok3 = shape_check(
        "the RDRAND fence closes every window the unfenced core leaves open",
        get("rdrand-unfenced").report.has_open_plans()
            && !get("rdrand-fenced").report.has_open_plans(),
        "§7.2 statically: biasing needs the unfenced core",
    );
    let ok4 = if audit_defenses {
        shape_check(
            "fence hardening seals every audited victim",
            ["aes", "modexp", "single_secret", "subnormal"]
                .iter()
                .all(|n| get(n).audit.as_ref().is_some_and(|a| a.sealed)),
            "zero open windows statically, no replay amplification measured",
        )
    } else {
        true
    };
    std::process::exit(if ok1 && ok2 && ok3 && ok4 { 0 } else { 1 });
}
