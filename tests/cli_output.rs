//! The `vi-noc` binary's output contract. An artifact written to stdout
//! fails the command when the write fails, a closed pipe included (exit 2,
//! not a panic's 101); diagnostic lines on stderr are best effort and never
//! change the exit code. Only a malformed command line is followed by the
//! usage text. `vi-noc run` prints the summary of the report it writes, and
//! `vi-noc report` prints the same summary of that file.

#![cfg(unix)]

use std::path::PathBuf;
use std::process::{Command, Stdio};

const VI_NOC: &str = env!("CARGO_BIN_EXE_vi-noc");

fn scenario(stem: &str) -> String {
    format!("{}/scenarios/{stem}.json", env!("CARGO_MANIFEST_DIR"))
}

fn golden(stem: &str) -> String {
    let path = format!(
        "{}/scenarios/golden/{stem}.report.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(path).unwrap()
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vi-noc-cli-output-{}-{name}", std::process::id()))
}

/// Runs `vi-noc args` with the read end of its stdout (`stdout: true`) or
/// stderr pipe closed before it writes, the other stream discarded, and
/// returns its exit code.
fn exit_code_with_closed_pipe(args: &[&str], stdout: bool) -> i32 {
    let (out, err) = if stdout {
        (Stdio::piped(), Stdio::null())
    } else {
        (Stdio::null(), Stdio::piped())
    };
    let mut child = Command::new(VI_NOC)
        .args(args)
        .stdout(out)
        .stderr(err)
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    drop(child.stderr.take());
    child.wait().unwrap().code().expect("exited, not killed")
}

#[test]
fn a_closed_stdout_fails_the_artifact_and_a_closed_stderr_changes_nothing() {
    let saturated = scenario("d26_saturated");
    // The report goes to stdout: it cannot be written.
    assert_eq!(exit_code_with_closed_pipe(&["run", &saturated], true), 2);

    // Only the progress lines and the summary go to stderr.
    let out = scratch("r.json");
    let out_arg = out.to_str().unwrap();
    let code = exit_code_with_closed_pipe(&["run", &saturated, "--out", out_arg], false);
    let written = std::fs::read_to_string(&out);
    let _ = std::fs::remove_file(&out);
    assert_eq!(code, 0);
    assert!(written.unwrap() == golden("d26_saturated"), "report bytes");

    // A failed command still exits 2 when its message cannot be printed.
    assert_eq!(exit_code_with_closed_pipe(&["bogus"], false), 2);
}

#[test]
fn run_prints_the_summary_that_report_prints_of_its_file() {
    let out = scratch("baseline.json");
    let run = Command::new(VI_NOC)
        .args(["run", &scenario("d26_baseline"), "--out"])
        .arg(&out)
        .output()
        .unwrap();
    let report = Command::new(VI_NOC)
        .arg("report")
        .arg(&out)
        .output()
        .unwrap();
    let written = std::fs::read_to_string(&out);
    let _ = std::fs::remove_file(&out);
    assert!(run.status.success() && report.status.success());
    assert!(written.unwrap() == golden("d26_baseline"), "report bytes");

    let summary = String::from_utf8(report.stdout).unwrap();
    assert!(summary.starts_with("scenario 'd26 baseline': d26_mobile @ 6 islands\n"));
    let stderr = String::from_utf8(run.stderr).unwrap();
    assert!(stderr.ends_with(&summary), "{stderr}\n---\n{summary}");
}

/// Runs `vi-noc args`, its stdout closed (`closed_stdout`) or discarded,
/// and returns its exit code and stderr.
fn exit_code_and_stderr(args: &[&str], closed_stdout: bool) -> (i32, String) {
    let out = if closed_stdout {
        Stdio::piped()
    } else {
        Stdio::null()
    };
    let mut child = Command::new(VI_NOC)
        .args(args)
        .stdout(out)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let output = child.wait_with_output().unwrap();
    let code = output.status.code().expect("exited, not killed");
    (code, String::from_utf8(output.stderr).unwrap())
}

#[test]
fn only_a_malformed_command_line_prints_the_usage() {
    let infeasible = scratch("infeasible.json");
    std::fs::write(
        &infeasible,
        r#"{"name":"infeasible","spec":{"benchmark":"d26"},
        "partition":{"kind":"logical","islands":6},"synthesis":{"min_frequency_hz":1e15}}"#,
    )
    .unwrap();
    let infeasible = infeasible.to_str().unwrap().to_string();
    let out = scratch("merged.json");
    let missing = scratch("missing.json");
    let runtime: [(&[&str], bool, &str); 4] = [
        (&["run", &scenario("d26_saturated")], true, "writing stdout"),
        (
            &[
                "sweep",
                "merge",
                &scenario("d26_baseline"),
                "--out",
                out.to_str().unwrap(),
            ],
            false,
            "is not 'vi-noc-sweep-shard-v1'",
        ),
        (&["run", missing.to_str().unwrap()], false, "reading "),
        (&["run", &infeasible], false, "synthesis failed"),
    ];
    for (args, closed_stdout, message) in runtime {
        let (code, stderr) = exit_code_and_stderr(args, closed_stdout);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&infeasible);
    assert!(!out.exists());

    let malformed: [&[&str]; 3] = [
        &["bogus"],
        &["run", "--bogus"],
        &["sweep", "run", "--shard", "x"],
    ];
    for args in malformed {
        let (code, stderr) = exit_code_and_stderr(args, false);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("\nusage:\n"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_negative_cost_weight_exits_2_at_ingestion() {
    // The path search prices its edges from the cost-model members, so a
    // negative one is rejected before any stage runs, with its JSON path.
    let negative = scratch("negative_weight.json");
    std::fs::write(
        &negative,
        r#"{"name":"negative","spec":{"benchmark":"d26"},
        "partition":{"kind":"logical","islands":6},"synthesis":{"cost_power_weight":-1}}"#,
    )
    .unwrap();
    let (code, stderr) = exit_code_and_stderr(&["run", negative.to_str().unwrap()], false);
    let _ = std::fs::remove_file(&negative);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("scenario.synthesis.cost_power_weight: must be >= 0, got -1"),
        "{stderr}"
    );
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn a_delay_member_above_its_bound_exits_2_at_ingestion() {
    // Route latencies add the per-hop delays in u32 cycles: a release run
    // once wrapped `switch_delay_cycles: 4294967295` into a 4.72-cycle
    // average latency and exited 0, and a debug run panicked.
    let huge = scratch("huge_delay.json");
    std::fs::write(
        &huge,
        r#"{"name":"huge delay","spec":{"benchmark":"d26"},
        "partition":{"kind":"logical","islands":6},"synthesis":{"switch_delay_cycles":4294967295}}"#,
    )
    .unwrap();
    let (code, stderr) = exit_code_and_stderr(&["run", huge.to_str().unwrap()], false);
    let _ = std::fs::remove_file(&huge);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains(
            "scenario.synthesis.switch_delay_cycles: must be at most 65536, got 4294967295"
        ),
        "{stderr}"
    );
    assert!(!stderr.contains("usage:"), "{stderr}");
}
