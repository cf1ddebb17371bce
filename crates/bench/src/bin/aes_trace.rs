//! Regenerates the **§6.2 end-to-end result**: "MicroScope reliably
//! extracts all the cache accesses performed during the decryption …
//! with only a single execution of AES decryption."
//!
//! The harness single-steps a full AES-128 decryption with the rk-page
//! handle and Td0-page pivot, majority-votes the per-step probes, and
//! scores the union against the reference implementation's ground-truth
//! line trace.

use microscope_bench::{exit_with, flags, outln, print_table, shape_check};
use microscope_channels::aes_attack::{self, AesAttackConfig};
use microscope_os::WalkTuning;

fn main() {
    flags(&[]);
    let cfg = AesAttackConfig {
        key: vec![
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ],
        block: *b"single run leak!",
        replays_per_step: 3,
        max_steps: 48,
        walk: WalkTuning::Length { levels: 2 },
        defer_arm: None,
        ..AesAttackConfig::default()
    };
    outln!("== §6.2: single-run AES access-trace extraction ==");
    outln!("AES-128, one block; handle: rk page; pivot: Td0 page; 3 replays/step\n");
    let out = aes_attack::run(&cfg);

    let truth = out.truth_lines();
    let got = out.extracted_lines(100);
    let (recall, precision) = out.score(100);
    let steps = out.report.module.steps.first().copied().unwrap_or(0);
    let mut rows = Vec::new();
    for t in 0..4u8 {
        let truth_t: Vec<u8> = truth
            .iter()
            .filter(|(tb, _)| *tb == t)
            .map(|(_, l)| *l)
            .collect();
        let got_t: Vec<u8> = got
            .iter()
            .filter(|(tb, _)| *tb == t)
            .map(|(_, l)| *l)
            .collect();
        rows.push(vec![
            format!("Td{t}"),
            format!("{} lines", truth_t.len()),
            format!("{} lines", got_t.len()),
            format!("{}", got_t.iter().filter(|l| truth_t.contains(l)).count()),
        ]);
    }
    print_table(&["table", "ground truth", "extracted", "correct"], &rows);
    outln!(
        "\nreplays: {}  pivot steps: {}  observations: {}",
        out.report.replays(),
        steps,
        out.report.module.observations.len()
    );
    outln!("recall: {recall:.2}  precision: {precision:.2}");

    let ok1 = shape_check(
        "single logical run",
        out.decrypted_correctly,
        "exactly one architectural decryption, output correct",
    );
    let ok2 = shape_check(
        "extracts (nearly) all accessed lines",
        recall >= 0.85,
        &format!("recall {recall:.2} (paper: all accesses, zero noise)"),
    );
    let ok3 = shape_check(
        "few false positives",
        precision >= 0.85,
        &format!("precision {precision:.2}"),
    );
    exit_with(&[ok1, ok2, ok3]);
}
