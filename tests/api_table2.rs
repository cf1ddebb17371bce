//! Exercises the paper's **Table 2** user API end to end:
//! `provide_replay_handle`, `provide_pivot`, `provide_monitor_addr`,
//! `initiate_page_walk`, `initiate_page_fault`.

use microscope::core::{RunRequest, SessionBuilder};
use microscope::cpu::ContextId;
use microscope::mem::VAddr;
use microscope::victims::loop_secret;

#[test]
fn all_five_table2_operations_drive_a_working_attack() {
    let mut b = SessionBuilder::new();
    let aspace = b.new_aspace(1);
    let secrets = [2u64, 6, 1, 7];
    let (prog, layout) = loop_secret::build(b.phys(), aspace, VAddr(0x1000_0000), &secrets, 8);
    b.victim(prog, aspace);

    // Table 2, rows 1-3: recipe construction.
    let id = b
        .module()
        .provide_replay_handle(ContextId(0), layout.handle);
    b.module().provide_pivot(id, layout.pivot);
    for addr in layout.table_line_addrs() {
        b.module().provide_monitor_addr(id, addr);
    }
    {
        let recipe = b.module().recipe_mut(id);
        recipe.replays_per_step = 2;
        recipe.max_steps = secrets.len() as u64;
        recipe.prime_between_replays = true;
    }
    let mut session = b.build().expect("table2 session has a victim");
    let report = session
        .execute(RunRequest::cold(50_000_000))
        .expect("a cold run cannot fail");

    // The attack stepped through the loop via the pivot...
    assert!(report.module.steps[0] >= secrets.len() as u64 - 1);
    assert!(report.replays() >= 2);
    // ...and the per-step observations recover each iteration's secret.
    let obs = report.module.observations.clone();
    let steps = microscope::core::denoise::by_step(&obs);
    let mut recovered = Vec::new();
    for (_, step_obs) in steps.iter().take(secrets.len()) {
        let owned: Vec<_> = step_obs.iter().map(|o| (*o).clone()).collect();
        let hits = microscope::core::denoise::majority_hits(&owned, 100, 0.4);
        for h in hits {
            let line = (h.0 - layout.table.0) / 64;
            recovered.push(line);
        }
    }
    for s in &secrets {
        assert!(
            recovered.contains(s),
            "secret {s} must appear in the recovered per-step lines: {recovered:?}"
        );
    }
    // The victim made full forward progress despite ~2 replays per step.
    assert!(session.machine().context(ContextId(0)).halted());
}

#[test]
fn initiate_page_walk_and_page_fault_operate_directly() {
    use microscope::cpu::{BranchPredictor, HwParts, PredictorConfig};
    use microscope::mem::{
        AddressSpace, PageWalker, PhysMem, PteFlags, TlbHierarchy, TlbHierarchyConfig, WalkerConfig,
    };
    use microscope::os::{MicroScopeModule, WalkLengthError};

    let mut phys = PhysMem::new();
    let aspace = AddressSpace::new(&mut phys, 1);
    let va = VAddr(0x123_4000);
    let frame = phys.alloc_frame();
    aspace.map(&mut phys, va, frame, PteFlags::user_data());
    let mut hw = HwParts {
        phys,
        hier: microscope::cache::MemoryHierarchy::new(Default::default()),
        tlb: TlbHierarchy::new(TlbHierarchyConfig::default()),
        walker: PageWalker::new(WalkerConfig::default()),
        predictor: BranchPredictor::new(PredictorConfig::default()),
    };
    let mut module = MicroScopeModule::new();

    // Table 2, row 4: initiate_page_walk(addr, length) — walk latency grows
    // with the requested length, and a length outside 1..=4 is an error.
    for length in [0, 5] {
        assert_eq!(
            module.initiate_page_walk(&mut hw, aspace, va, length),
            Err(WalkLengthError { length })
        );
    }
    let mut latencies = Vec::new();
    for length in 1..=4u8 {
        assert_eq!(
            module.initiate_page_walk(&mut hw, aspace, va, length),
            Ok(())
        );
        let out = hw
            .walker
            .walk(&mut hw.phys, &mut hw.hier, &aspace, va, false);
        assert!(out.result.is_ok());
        latencies.push(out.latency);
    }
    assert!(
        latencies.windows(2).all(|w| w[0] < w[1]),
        "walk length must scale latency: {latencies:?}"
    );

    // Table 2, row 5: initiate_page_fault(addr) — the next access faults.
    module.initiate_page_fault(&mut hw, aspace, va);
    let out = hw
        .walker
        .walk(&mut hw.phys, &mut hw.hier, &aspace, va, false);
    assert!(
        out.result.is_err(),
        "access after initiate_page_fault faults"
    );
}
