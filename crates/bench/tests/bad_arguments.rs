//! Every harness binary refuses an argument it does not accept: exit
//! status 2, nothing on stdout, and the argument named on stderr — so a
//! mistyped flag never runs a figure with its defaults.

use std::process::Command;

const BINARIES: [(&str, &str); 9] = [
    ("fig10", env!("CARGO_BIN_EXE_fig10")),
    ("fig11", env!("CARGO_BIN_EXE_fig11")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table_defenses", env!("CARGO_BIN_EXE_table_defenses")),
    ("sec7_handles", env!("CARGO_BIN_EXE_sec7_handles")),
    ("sec7_rdrand", env!("CARGO_BIN_EXE_sec7_rdrand")),
    ("aes_trace", env!("CARGO_BIN_EXE_aes_trace")),
    ("ablate_walk", env!("CARGO_BIN_EXE_ablate_walk")),
    ("sec8_analyze", env!("CARGO_BIN_EXE_sec8_analyze")),
];

/// Runs `exe` with `args` and checks it was refused for `named`.
fn assert_refused(name: &str, exe: &str, args: &[&str], named: &str) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{name} starts: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} {args:?} wrote to stdout");
    assert!(stderr.contains(named), "{name} {args:?} stderr:\n{stderr}");
}

#[test]
fn every_binary_exits_2_on_an_unknown_flag() {
    for (name, exe) in BINARIES {
        assert_refused(name, exe, &["--bogus"], "--bogus");
    }
}

#[test]
fn flags_a_binary_does_not_take_are_refused() {
    let aes_trace = env!("CARGO_BIN_EXE_aes_trace");
    assert_refused("aes_trace", aes_trace, &["--jobs", "2"], "--jobs");
    let fig10 = env!("CARGO_BIN_EXE_fig10");
    assert_refused("fig10", fig10, &["--smaples", "50"], "--smaples");
    assert_refused("fig11", env!("CARGO_BIN_EXE_fig11"), &["extra"], "extra");
    let sec8 = env!("CARGO_BIN_EXE_sec8_analyze");
    let switch_with_value = "--audit-defenses=1";
    assert_refused(
        "sec8_analyze",
        sec8,
        &[switch_with_value],
        switch_with_value,
    );
}
