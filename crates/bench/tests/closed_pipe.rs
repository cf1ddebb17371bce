//! A harness binary whose reader closes stdout early (`| head -1`) ends
//! quietly: status 0 and no panic on stderr.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_zero_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sec8_analyze"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sec8_analyze starts");
    // Close the only read end before the binary's first write.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("sec8_analyze exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}, stderr:\n{stderr}", out.status);
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
}
