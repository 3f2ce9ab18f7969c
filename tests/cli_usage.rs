//! `dollymp-sim` rejects bad command-line values with a usage error
//! (exit code 2) before any of them reaches a library assertion, and
//! its `--timeline` flag writes one Chrome trace per scheduler.

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

#[test]
fn timeline_flag_writes_a_chrome_trace_per_scheduler() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_timeline");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let prefix = dir.join("t");
    let out = Command::new(env!("CARGO_BIN_EXE_dollymp-sim"))
        .args(["--jobs", "20", "--servers", "30"])
        .args(["--scheduler", "fifo,dollymp2", "--timeline"])
        .arg(&prefix)
        .output()
        .expect("dollymp-sim starts");
    assert!(
        out.status.success(),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut traces: Vec<_> = std::fs::read_dir(&dir)
        .expect("temp dir readable")
        .map(|e| e.expect("dir entry").path())
        .collect();
    traces.sort();
    assert_eq!(traces.len(), 2, "one trace per scheduler: {traces:?}");
    for path in traces {
        let text = std::fs::read_to_string(&path).expect("trace readable");
        let spans: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let n = spans.as_array().map_or(0, Vec::len);
        assert!(n > 0, "{}: empty trace", path.display());
    }
}
