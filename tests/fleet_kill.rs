//! Worker-death differential test at the process level: a real `vi-noc
//! fleet serve` coordinator, three real `vi-noc fleet work` processes, one
//! of them SIGKILL'd mid-lease — and the folded frontier file must still
//! be byte-identical to the single-process `sweep run --frontier` output
//! of the same scenario.
//!
//! This is the binary-boundary version of the in-process crash tests in
//! `crates/fleet/tests/fleet_exact.rs`: here the death is a genuine
//! SIGKILL of a child process, the sockets are real, and the comparison is
//! between files two different commands wrote.

#![cfg(unix)]

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

const VI_NOC: &str = env!("CARGO_BIN_EXE_vi-noc");

/// A small-but-not-trivial sweep: 160 range positions / ~40 leases at
/// `--lease-chunk 4`, so the kill lands mid-run with room to spare.
const SCENARIO: &str = r#"{"format":"vi-noc-scenario-v1",
"name":"fleet kill",
"spec":{"benchmark":"d12"},
"partition":{"kind":"logical","islands":4},
"sweep":{"max_boost":1,"freq_scales":[1,1.1],"max_intermediate":2}
}
"#;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("vi-noc-fleet-kill-{}-{name}", std::process::id()));
    p
}

/// Kills every child on drop so a failing assertion never leaks processes.
struct Reaper(Vec<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn a_sigkilled_worker_does_not_change_the_frontier_bytes() {
    let scenario = scratch("scenario.json");
    let addr_file = scratch("addr");
    let fleet_out = scratch("fleet.json");
    let ref_out = scratch("ref.json");
    let _ = std::fs::remove_file(&addr_file);
    std::fs::write(&scenario, SCENARIO).unwrap();

    // The unsharded reference frontier, via the plain sweep CLI.
    let status = Command::new(VI_NOC)
        .args(["sweep", "run", "--scenario"])
        .arg(&scenario)
        .args(["--frontier", "--out"])
        .arg(&ref_out)
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "reference sweep failed");

    // Coordinator on an ephemeral port; generous lease timeout so recovery
    // comes from the socket close (the SIGKILL signature), not the clock.
    let serve = Command::new(VI_NOC)
        .args(["fleet", "serve", "--scenario"])
        .arg(&scenario)
        .args(["--listen", "127.0.0.1:0", "--addr-file"])
        .arg(&addr_file)
        .arg("--out")
        .arg(&fleet_out)
        .args(["--lease-chunk", "4"])
        .args(["--checkpoint-every", "1"])
        .args(["--lease-timeout-ms", "60000"])
        .arg("--verbose")
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut serve = Reaper(vec![serve]);

    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        match std::fs::read_to_string(&addr_file) {
            Ok(s) if s.ends_with('\n') => break s.trim().to_string(),
            _ if Instant::now() > deadline => panic!("coordinator never wrote {addr_file:?}"),
            _ => thread::sleep(Duration::from_millis(20)),
        }
    };

    // Three throttled workers: each intra-lease ack costs ≥40 ms (the
    // throttle never sleeps lease-less), so the whole sweep takes seconds
    // and the kill below lands mid-lease.
    let mut workers = Reaper(
        (0..3)
            .map(|_| {
                Command::new(VI_NOC)
                    .args(["fleet", "work", "--connect", &addr])
                    .args(["--throttle-ms", "40"])
                    .stderr(Stdio::null())
                    .spawn()
                    .unwrap()
            })
            .collect(),
    );

    thread::sleep(Duration::from_millis(400));
    let doomed = &mut workers.0[0];
    doomed.kill().unwrap(); // SIGKILL — no goodbye on the socket
    doomed.wait().unwrap();

    let output = serve.0.pop().unwrap().wait_with_output().unwrap();
    let serve_log = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "fleet serve failed:\n{serve_log}");
    // The coordinator noticed the death and re-leased from the watermark.
    assert!(
        serve_log.contains("re-issued"),
        "no lease was re-issued — the kill missed every lease:\n{serve_log}"
    );
    // `--verbose` streams fleet metrics on every grant and fold.
    assert!(
        serve_log.contains("fleet: metrics leases_outstanding="),
        "--verbose emitted no metrics lines:\n{serve_log}"
    );
    assert!(
        serve_log.contains("deltas_folded=") && serve_log.contains("fold_lag_ms="),
        "metrics lines are missing fields:\n{serve_log}"
    );
    for worker in &mut workers.0[1..] {
        assert!(worker.wait().unwrap().success(), "survivor worker failed");
    }

    let fleet_bytes = std::fs::read(&fleet_out).unwrap();
    let ref_bytes = std::fs::read(&ref_out).unwrap();
    assert_eq!(
        fleet_bytes, ref_bytes,
        "fleet frontier differs from the unsharded reference"
    );

    for p in [&scenario, &addr_file, &fleet_out, &ref_out] {
        let _ = std::fs::remove_file(p);
    }
}
