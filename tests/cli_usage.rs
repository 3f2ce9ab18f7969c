//! `dollymp-sim` rejects bad command-line values with a usage error
//! (exit code 2) before any of them reaches a library assertion.

use std::process::Command;

fn exit_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dollymp-sim"))
        .args(args)
        .output()
        .expect("dollymp-sim starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn bad_load_and_server_counts_are_usage_errors() {
    for args in [
        ["--load", "0"],
        ["--load", "-1"],
        ["--load", "NaN"],
        ["--load", "inf"],
        ["--servers", "0"],
    ] {
        let (code, stderr) = exit_code(&args);
        assert_eq!(code, Some(2), "{args:?}: stderr was\n{stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
