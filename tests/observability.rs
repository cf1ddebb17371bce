//! Cross-layer observability: the probe's event stream, the Fig.-3 phase
//! reconstruction, the exporters, and the per-replay analytics.

use microscope::core::{AttackReport, RunRequest, SessionBuilder};
use microscope::cpu::ContextId;
use microscope::mem::VAddr;
use microscope::probe::timeline::{reconstruct, Phase};
use microscope::probe::{export, json, EventKind, Layer, RecorderConfig};
use microscope::victims::single_secret;
use proptest::prelude::*;

/// A single-secret victim under replay, with a monitor address probed after
/// every replay so observations (denoising samples) accumulate.
fn traced_attack(replays: u64) -> AttackReport {
    let mut b = SessionBuilder::new();
    b.probe(RecorderConfig::default());
    let aspace = b.new_aspace(1);
    let secrets: Vec<f64> = (0..8).map(|i| i as f64 + 1.0).collect();
    let (prog, layout) =
        single_secret::build(b.phys(), aspace, VAddr(0x1000_0000), &secrets, 3, 2.0);
    b.victim(prog, aspace);
    let id = b.module().provide_replay_handle(ContextId(0), layout.count);
    b.module().provide_monitor_addr(id, layout.secrets);
    b.module().recipe_mut(id).replays_per_step = replays;
    let mut session = b.build().expect("observability session has a victim");
    session
        .execute(RunRequest::cold(10_000_000))
        .expect("a cold run cannot fail")
}

#[test]
fn trace_spans_every_layer_with_replay_stamps() {
    let report = traced_attack(4);
    let mut layers = std::collections::BTreeSet::new();
    for e in &report.trace {
        layers.insert(e.kind.layer().name());
    }
    for required in [
        Layer::Cpu,
        Layer::Mem,
        Layer::Cache,
        Layer::Os,
        Layer::Session,
    ] {
        assert!(
            layers.contains(required.name()),
            "layer {required} missing from trace: {layers:?}"
        );
    }
    // Events emitted during later replays carry their replay index.
    let max_replay = report.trace.iter().map(|e| e.replay).max().unwrap_or(0);
    assert_eq!(
        max_replay, 4,
        "ambient replay stamp reaches the last replay"
    );
    assert_eq!(report.dropped_events, 0);
}

#[test]
fn figure3_phases_come_in_paper_order() {
    let report = traced_attack(3);
    let spans = reconstruct(&report.trace);
    assert_eq!(spans[0].phase, Phase::Setup, "timeline opens with setup");
    // Per replay cycle: walk -> speculative window -> fault -> squash ->
    // replay (the paper's Figure 3, left to right).
    let cycle: Vec<Phase> = spans.iter().map(|s| s.phase).skip(1).take(5).collect();
    assert_eq!(
        cycle,
        vec![
            Phase::Walk,
            Phase::SpeculativeWindow,
            Phase::Fault,
            Phase::Squash,
            Phase::Replay
        ]
    );
    let replays = spans.iter().filter(|s| s.phase == Phase::Replay).count();
    assert_eq!(replays, 3, "one replay span per replay cycle");
    // Replay spans are numbered consecutively from 1.
    let indices: Vec<u64> = spans
        .iter()
        .filter(|s| s.phase == Phase::Replay)
        .map(|s| s.replay)
        .collect();
    assert_eq!(indices, vec![1, 2, 3]);
}

#[test]
fn chrome_trace_export_is_parseable_json() {
    let report = traced_attack(2);
    let trace = export::chrome_trace(&report.trace);
    json::validate(&trace).expect("chrome trace must parse");
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("page-fault"));
    let lines = report.metrics.to_jsonl();
    for line in lines.lines() {
        json::validate(line).expect("each metric line must parse");
    }
}

#[test]
fn analytics_report_samples_per_replay() {
    let report = traced_attack(5);
    assert_eq!(report.replays(), 5);
    let analytics = report.analytics();
    // One observation per replay, each probing the single monitor address.
    assert_eq!(analytics.samples_per_replay, vec![1, 1, 1, 1, 1]);
    // Every replay squashed the same speculative window.
    let histogram = analytics.window_histogram();
    assert_eq!(histogram.iter().map(|(_, n)| n).sum::<u64>(), 5);
    assert!(analytics.mean_window() > 0.0);
    assert_eq!(
        report.metrics.get("cpu.ctx0.fault_squashes"),
        Some(microscope::probe::MetricValue::Count(5))
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Retirement is program order: within each context, the retire-event
    /// sequence numbers form a strictly increasing sequence, replay or not.
    #[test]
    fn retires_are_prefix_ordered_per_context(replays in 1u64..6) {
        let report = traced_attack(replays);
        let mut last: std::collections::BTreeMap<u32, u64> = Default::default();
        for e in &report.trace {
            if let EventKind::Retire { seq, .. } = e.kind {
                let ctx = e.ctx.unwrap_or(0);
                if let Some(prev) = last.get(&ctx) {
                    prop_assert!(seq > *prev, "ctx{ctx} retired {seq} after {prev}");
                }
                last.insert(ctx, seq);
            }
        }
        prop_assert!(!last.is_empty(), "victim retired something");
    }
}
