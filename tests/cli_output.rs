//! The `vi-noc` binary's output contract. An artifact written to stdout
//! fails the command when the write fails, a closed pipe included (exit 2,
//! not a panic's 101); diagnostic lines on stderr are best effort and never
//! change the exit code. `vi-noc run` prints the summary of the report it
//! writes, and `vi-noc report` prints the same summary of that file.

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
