//! Checkpoint writes are atomic, at the process level: a `vi-noc sweep run
//! --checkpoint-every 1` process rewrites its shard checkpoint after every
//! chain position while another thread keeps reading the file. Every read
//! must find either no file yet or a complete checkpoint that
//! `parse_shard_checkpoint` accepts, never a truncated one. The process is
//! then SIGKILL'd mid-run, `--resume` finishes the shard, and the result
//! must be byte-identical to an uninterrupted run of the same shard.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};
use vi_noc_sweep::parse_shard_checkpoint;

const VI_NOC: &str = env!("CARGO_BIN_EXE_vi-noc");

/// The CI sweep grid: 1024 chain ids, 341 positions in shard 1/3.
const GRID: [&str; 2] = [
    "--scenario",
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/d26_overclocked_fine.json"
    ),
];

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "vi-noc-checkpoint-kill-{}-{name}",
        std::process::id()
    ));
    p
}

fn sweep(out: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(VI_NOC);
    cmd.args(["sweep", "run"])
        .args(GRID)
        .args(["--shard", "1/3"])
        .args(extra)
        .arg("--out")
        .arg(out)
        .stderr(Stdio::null());
    cmd
}

/// Stripe positions a checkpoint has folded.
fn chains_done(text: &str) -> Result<u64, String> {
    Ok(parse_shard_checkpoint(text)?.to_progress().chains_done)
}

/// Kills the child on drop so a failing assertion never leaks a process.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn a_polled_checkpoint_is_never_torn_and_a_killed_shard_resumes_to_the_clean_bytes() {
    let clean = scratch("clean.json");
    let ckpt = scratch("ckpt.json");
    let _ = std::fs::remove_file(&ckpt);

    let status = sweep(&clean, &[])
        .env("RAYON_NUM_THREADS", "1")
        .status()
        .unwrap();
    assert!(status.success(), "clean shard run failed");
    let clean_bytes = std::fs::read_to_string(&clean).unwrap();
    let stripe = chains_done(&clean_bytes).unwrap();
    assert_eq!(stripe, 341);

    // The poller reads the checkpoint as fast as it can and SIGKILLs the
    // writer once a read shows half the stripe done.
    let child = sweep(&ckpt, &["--checkpoint-every", "1"])
        .env("RAYON_NUM_THREADS", "1")
        .spawn()
        .unwrap();
    let poll_path = ckpt.clone();
    let poller = thread::spawn(move || {
        let mut child = Reaper(child);
        let deadline = Instant::now() + Duration::from_secs(60);
        let (mut missing, mut parsed, mut torn) = (0u32, 0u32, Vec::new());
        loop {
            match std::fs::read_to_string(&poll_path) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => missing += 1,
                Err(e) => torn.push(format!("read error: {e}")),
                Ok(text) => match chains_done(&text) {
                    Ok(done) => {
                        parsed += 1;
                        if done >= stripe / 2 {
                            child.0.kill().unwrap();
                            break;
                        }
                    }
                    Err(e) => torn.push(format!("{} bytes: {e}", text.len())),
                },
            }
            if child.0.try_wait().unwrap().is_some() || Instant::now() > deadline {
                break;
            }
        }
        let status = child.0.wait().unwrap();
        (status, missing, parsed, torn)
    });
    let (status, missing, parsed, torn) = poller.join().unwrap();
    assert!(torn.is_empty(), "torn checkpoint reads: {torn:?}");
    assert!(parsed > 0, "no checkpoint was read ({missing} misses)");
    assert!(!status.success(), "the writer finished before the kill");

    let killed = std::fs::read_to_string(&ckpt).unwrap();
    let done = chains_done(&killed).unwrap();
    assert!(
        done >= stripe / 2 && done < stripe,
        "kill left {done}/{stripe} positions"
    );

    let status = sweep(&ckpt, &["--resume"]).status().unwrap();
    assert!(status.success(), "resume failed");
    assert_eq!(
        std::fs::read_to_string(&ckpt).unwrap(),
        clean_bytes,
        "killed+resumed shard differs from the clean run"
    );

    // A SIGKILL can strand the writer's temp file next to the checkpoint.
    let prefix = format!(".{}.", ckpt.file_name().unwrap().to_str().unwrap());
    for entry in std::fs::read_dir(ckpt.parent().unwrap()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if name.starts_with(&prefix) && name.ends_with(".tmp") {
            let _ = std::fs::remove_file(&path);
        }
    }
    for p in [&clean, &ckpt] {
        let _ = std::fs::remove_file(p);
    }
}
