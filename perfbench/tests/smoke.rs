//! Smoke-sized runs of every workload, untraced and traced: each must
//! finish with every operation checked correct, and print exactly the
//! metrics `BENCHMARK.json` names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build works too, only slower).

use microscope_bench::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits inside the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Workload names declared in `BENCHMARK.json`.
fn workloads() -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(items)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads list");
    };
    items
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect()
}

/// Runs the smallest benchmark run (`--seconds 0`) and returns its result
/// line.
fn smoke(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_microscope-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

#[test]
fn every_workload_runs_clean_and_prints_the_declared_metrics() {
    let lists = [(0u8, declared("end_to_end")), (1u8, declared("per_layer"))];
    for workload in workloads() {
        for (trace, expected) in &lists {
            let result = smoke(&workload, *trace);
            assert!(
                matches!(result.get("correct"), Some(Json::Bool(true))),
                "{workload} trace {trace}: not correct"
            );
            let attempted = result
                .get("attempted")
                .and_then(Json::as_num)
                .expect("attempted");
            let failed = result.get("failed").and_then(Json::as_num).expect("failed");
            assert!(attempted >= 1.0, "{workload}: nothing attempted");
            assert_eq!(
                failed / attempted,
                0.0,
                "{workload} trace {trace}: failed_ratio"
            );
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let mut printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(v
                        .get("value")
                        .and_then(Json::as_num)
                        .is_some_and(f64::is_finite));
                    (
                        k.clone(),
                        v.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    )
                })
                .collect();
            let mut want = expected.clone();
            printed.sort();
            want.sort();
            assert_eq!(
                printed, want,
                "{workload} trace {trace}: metric names and units"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "nope", "--seed", "1", "--seconds", "0"],
        vec!["--workload", "sec8_plan", "--seconds", "0"],
        vec![
            "--workload",
            "sec8_plan",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_microscope-perfbench"))
            .current_dir(repo_root())
            .args(&args)
            .output()
            .expect("the benchmark binary runs");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
