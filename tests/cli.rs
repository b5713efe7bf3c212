//! End-to-end tests of the `ripq` and `ripq-server` command-line
//! binaries.

use std::process::Command;

fn ripq(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ripq"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn ripq_server(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ripq-server"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Asserts a usage error: exit code 2, nothing on stdout, and a message
/// naming every string in `names`.
fn assert_usage_error(out: &std::process::Output, names: &[&str]) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(out.stdout.is_empty(), "ran anyway: {err}");
    for name in names {
        assert!(err.contains(name), "{name} not named in: {err}");
    }
}

#[test]
fn defaults_prints_table_2() {
    let out = ripq(&["defaults"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("particles:        64"));
    assert!(text.contains("moving objects:   200"));
    assert!(text.contains("activation range: 2 m"));
}

#[test]
fn plan_reports_all_topologies() {
    for (kind, rooms) in [("office", 30), ("mall", 16), ("subway", 10), ("tower", 90)] {
        let out = ripq(&["plan", kind]);
        assert!(out.status.success(), "{kind} failed");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(
            text.contains(&format!("rooms:     {rooms}")),
            "{kind}: {text}"
        );
        assert!(text.contains("connected: true"), "{kind} graph connected");
    }
}

#[test]
fn plan_writes_svg() {
    let path = std::env::temp_dir().join("ripq_cli_test_plan.svg");
    let _ = std::fs::remove_file(&path);
    let out = ripq(&["plan", "office", "--svg", path.to_str().unwrap()]);
    assert!(out.status.success());
    let svg = std::fs::read_to_string(&path).expect("SVG written");
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("<circle"), "readers drawn");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_reconstructs_and_reports_error() {
    let out = ripq(&["trace", "--object", "1", "--duration", "120", "--seed", "5"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("mean error") || text.contains("never detected"),
        "unexpected output: {text}"
    );
}

#[test]
fn simulate_reports_fault_plan_and_stays_deterministic() {
    let args = [
        "simulate",
        "--objects",
        "6",
        "--duration",
        "80",
        "--fault-drop",
        "0.2",
        "--fault-dup",
        "0.1",
        "--fault-delay",
        "2",
    ];
    let out = ripq(&args);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("fault plan: drop 0.200, dup 0.100, delay <= 2 s"),
        "fault plan not echoed: {text}"
    );
    assert!(text.contains("range-query KL divergence"));
    // Same flags, same numbers: the faulted CLI path is reproducible.
    let again = String::from_utf8(ripq(&args).stdout).unwrap();
    assert_eq!(text, again);
    // Without fault flags, no fault plan line appears.
    let clean = String::from_utf8(ripq(&["simulate", "--objects", "6", "--duration", "80"]).stdout)
        .unwrap();
    assert!(!clean.contains("fault plan"));
}

#[test]
fn unwritable_metrics_json_is_a_clean_error() {
    let dir = std::env::temp_dir().join("ripq_cli_test_missing_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("metrics.json"); // parent doesn't exist
    let out = ripq(&[
        "simulate",
        "--objects",
        "4",
        "--duration",
        "60",
        "--metrics-json",
        path.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "must exit nonzero");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("error: io error"),
        "expected a RipqError::Io message, got: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "must fail cleanly, not panic: {err}"
    );
}

#[test]
fn unwritable_checkpoint_dir_is_a_clean_error() {
    // Plant a *file* where the directory should go: create_dir_all must
    // fail, and the CLI must surface it as a RipqError::Io up front.
    let blocker = std::env::temp_dir().join("ripq_cli_test_ckpt_blocker");
    let _ = std::fs::remove_dir_all(&blocker);
    let _ = std::fs::remove_file(&blocker);
    std::fs::write(&blocker, b"not a directory").unwrap();
    let out = ripq(&[
        "simulate",
        "--objects",
        "4",
        "--duration",
        "60",
        "--checkpoint-dir",
        blocker.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "must exit nonzero");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("error: io error"),
        "expected a RipqError::Io message, got: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "must fail cleanly, not panic: {err}"
    );
    // The failure is eager: no partial simulation output before it.
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(!text.contains("range-query KL divergence"), "{text}");
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn checkpointed_simulate_echoes_the_recovery_plan_and_resumes() {
    let dir = std::env::temp_dir().join("ripq_cli_test_ckpt_dir");
    let _ = std::fs::remove_dir_all(&dir);
    let args = [
        "simulate",
        "--objects",
        "4",
        "--duration",
        "80",
        "--checkpoint-dir",
        dir.to_str().unwrap(),
        "--checkpoint-every",
        "20",
    ];
    // First run: plan echoed, cold start, snapshot left behind.
    let out = ripq(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("recovery plan: checkpoint to") && text.contains("every 20 s"),
        "plan not echoed: {text}"
    );
    assert!(text.contains("recovery: cold start"), "{text}");
    assert!(dir.join("experiment.ckpt").exists(), "snapshot written");

    // Second run over the same directory resumes from the snapshot.
    let again = String::from_utf8(ripq(&args).stdout).unwrap();
    assert!(
        again.contains("recovery: resumed from second 80"),
        "resume not echoed: {again}"
    );
    // The resumed tail reproduces the uninterrupted numbers exactly: every
    // accuracy line printed after the recovery banner matches run one.
    let tail = |s: &str| {
        s.lines()
            .skip_while(|l| !l.starts_with("recovery:"))
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(tail(&text), tail(&again));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_budget_flag_is_echoed_and_deterministic() {
    let args = [
        "simulate",
        "--objects",
        "6",
        "--duration",
        "80",
        "--query-budget",
        "500",
    ];
    let out = ripq(&args);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("query budget: 500 cost units"),
        "budget not echoed: {text}"
    );
    assert!(text.contains("range-query KL divergence"));
    let again = String::from_utf8(ripq(&args).stdout).unwrap();
    assert_eq!(text, again, "budgeted runs must be reproducible");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = ripq(&["bogus"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"));
}

#[test]
fn help_exits_zero() {
    let out = ripq(&[]);
    assert!(out.status.success());
}

#[test]
fn unparsable_flag_value_is_a_usage_error() {
    let out = ripq(&["simulate", "--objects", "abc"]);
    assert_usage_error(&out, &["--objects", "`abc`"]);
}

#[test]
fn server_flag_errors_are_usage_errors() {
    let transcript = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/server_transcript.txt"
    );
    let replay = |extra: &[&str]| {
        let mut args = vec!["replay", "--transcript", transcript];
        args.extend_from_slice(extra);
        ripq_server(&args)
    };
    let out = replay(&["--max-frames-per-tick", "4x", "--retry"]);
    assert_usage_error(&out, &["--max-frames-per-tick", "`4x`"]);
    // A retried replay cannot simulate a crash, so asking for both fails
    // instead of ignoring the crash.
    let out = replay(&["--retry", "--fail-after-frames", "5"]);
    assert_usage_error(&out, &["--retry", "--fail-after-frames"]);
}
