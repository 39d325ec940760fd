//! End-to-end proof of the fleet's headline invariant: the frontier a
//! coordinator folds from streamed worker deltas — any worker count, any
//! connection-drop or lease-timeout schedule — is byte-identical to the
//! unsharded `run_shard` emission of the same grid.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use vi_noc_core::SynthesisConfig;
use vi_noc_fleet::{
    grid_fingerprint, parse_message, spawn_local_workers, start_coordinator, submit_remote,
    write_message, Delta, FleetConfig, JobResolver, Message, ResolvedJob, Role, WorkerOpts,
};
use vi_noc_soc::{benchmarks, partition};
use vi_noc_sweep::{
    frontier_json, run_deltas, run_shard, run_shard_pruned, ChainRange, GridConfig, GridDescriptor,
    Shard, SweepGrid,
};

/// The test fleet's job language: `d12`, `d12:prune`, or `d12:boost0`.
/// Resolution is deterministic, so every worker and the coordinator
/// fingerprint the same grid.
struct BenchResolver;

impl JobResolver for BenchResolver {
    fn resolve(&self, payload: &str) -> Result<ResolvedJob, String> {
        let (grid_cfg, prune) = match payload {
            "d12" | "d12:prune" => (
                GridConfig {
                    max_boost: 1,
                    freq_scales: vec![1.0, 1.1],
                    max_intermediate: 2,
                },
                payload == "d12:prune",
            ),
            "d12:boost0" => (
                GridConfig {
                    max_boost: 0,
                    freq_scales: vec![1.0],
                    max_intermediate: 2,
                },
                false,
            ),
            other => return Err(format!("unknown test job '{other}'")),
        };
        let spec = benchmarks::d12_auto();
        let vi = partition::logical_partition(&spec, 4).unwrap();
        let cfg = SynthesisConfig {
            parallel: false,
            ..SynthesisConfig::default()
        };
        let grid = SweepGrid::build(&spec, &vi, &cfg, &grid_cfg);
        let desc = GridDescriptor::for_grid(&grid, spec.name(), "logical:4", cfg.seed);
        Ok(ResolvedJob {
            spec,
            vi,
            cfg,
            grid,
            desc,
            prune,
        })
    }
}

/// The unsharded reference bytes for a payload.
fn reference(payload: &str) -> String {
    let job = BenchResolver.resolve(payload).unwrap();
    let run = if job.prune {
        run_shard_pruned(&job.spec, &job.vi, &job.grid, Shard::full(), &job.cfg)
    } else {
        run_shard(&job.spec, &job.vi, &job.grid, Shard::full(), &job.cfg)
    };
    frontier_json(&job.desc, &run)
}

fn config() -> FleetConfig {
    FleetConfig {
        lease_chunk: 16,
        checkpoint_every: 4,
        poll_ms: 10,
        ..FleetConfig::default()
    }
}

#[test]
fn any_worker_count_reproduces_the_unsharded_frontier_bytes() {
    let want = reference("d12");
    for workers in [1usize, 2, 4] {
        let handle = start_coordinator("127.0.0.1:0", Arc::new(BenchResolver), config()).unwrap();
        let pool = spawn_local_workers(
            handle.addr(),
            Arc::new(BenchResolver),
            workers,
            WorkerOpts::default(),
        );
        let got = handle.submit("d12").unwrap();
        assert_eq!(got, want, "fleet with {workers} worker(s) must be exact");
        handle.shutdown();
        for w in pool {
            let stats = w.join().unwrap().unwrap();
            assert_eq!(stats.abandoned, 0, "no lease churn in a healthy fleet");
        }
    }
}

#[test]
fn concurrent_submissions_share_one_worker_pool() {
    let handle = start_coordinator("127.0.0.1:0", Arc::new(BenchResolver), config()).unwrap();
    let pool = spawn_local_workers(
        handle.addr(),
        Arc::new(BenchResolver),
        2,
        WorkerOpts::default(),
    );
    // Two different jobs, submitted over TCP from two threads at once.
    let addr = handle.addr();
    let submits: Vec<_> = ["d12:prune", "d12:boost0"]
        .into_iter()
        .map(|payload| thread::spawn(move || (payload, submit_remote(addr, payload).unwrap())))
        .collect();
    for s in submits {
        let (payload, got) = s.join().unwrap();
        assert_eq!(got, reference(payload), "job '{payload}' must be exact");
    }
    // A bad payload is rejected without disturbing the fleet.
    let err = submit_remote(addr, "d99").unwrap_err();
    assert_eq!(err, "unknown test job 'd99'");
    handle.shutdown();
    for w in pool {
        w.join().unwrap().unwrap();
    }
}

#[test]
fn a_deeply_nested_line_is_rejected_and_the_fleet_still_folds_exactly() {
    let handle = start_coordinator("127.0.0.1:0", Arc::new(BenchResolver), config()).unwrap();
    let addr = handle.addr();
    // 20,000 `[` on one line used to overflow the connection thread's
    // stack and abort the whole coordinator; now it is one more
    // malformed hello.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer
        .write_all(("[".repeat(20_000) + "\n").as_bytes())
        .unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert_eq!(
        parse_message(line.trim_end()).unwrap(),
        Message::Reject {
            message: "JSON error at byte 128: nesting deeper than 128 levels".to_string()
        }
    );

    let pool = spawn_local_workers(addr, Arc::new(BenchResolver), 2, WorkerOpts::default());
    assert_eq!(handle.submit("d12").unwrap(), reference("d12"));
    handle.shutdown();
    for w in pool {
        w.join().unwrap().unwrap();
    }
}

/// A hand-driven protocol peer for crash-schedule tests.
struct RawPeer {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawPeer {
    fn connect(addr: std::net::SocketAddr) -> RawPeer {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        let mut peer = RawPeer {
            reader: BufReader::new(stream),
            writer,
        };
        peer.send(&Message::Hello(Role::Work));
        peer
    }

    fn send(&mut self, m: &Message) {
        let mut line = write_message(m);
        line.push('\n');
        self.writer.write_all(line.as_bytes()).unwrap();
    }

    fn recv(&mut self) -> Message {
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).unwrap() > 0, "hung up");
        parse_message(line.trim_end()).unwrap()
    }

    /// Requests until a lease arrives (the submission may still be
    /// resolving on the coordinator when we first ask).
    fn take_lease(&mut self) -> vi_noc_fleet::Lease {
        loop {
            self.send(&Message::Request);
            match self.recv() {
                Message::Lease(l) => return l,
                Message::Wait { poll_ms } => {
                    thread::sleep(Duration::from_millis(poll_ms));
                }
                other => panic!("expected a lease, got {other:?}"),
            }
        }
    }
}

/// Evaluates the first `deltas` deltas of `lease` for real, sending each
/// and reading its ack — a worker that does honest work and then dies.
fn stream_some_deltas(peer: &mut RawPeer, lease: &vi_noc_fleet::Lease, deltas: usize) {
    let job = BenchResolver.resolve(&lease.job).unwrap();
    let range = ChainRange::new(lease.start, lease.end).unwrap();
    let mut sent = 0usize;
    let mut emit = |d: vi_noc_sweep::RangeDelta| -> Result<(), String> {
        if sent == deltas {
            return Err("died".to_string());
        }
        let entries = d
            .entries
            .iter()
            .map(|(_, e)| vi_noc_core::json::parse(e).unwrap())
            .collect();
        peer.send(&Message::Delta(Delta {
            lease_id: lease.lease_id,
            grid_fp: lease.grid_fp.clone(),
            from: d.from,
            taken: d.taken,
            stats: d.stats,
            entries,
        }));
        match peer.recv() {
            Message::Ack { lease_id, done } => {
                assert_eq!(lease_id, lease.lease_id);
                assert_eq!(done, d.from + d.taken);
            }
            other => panic!("expected an ack, got {other:?}"),
        }
        sent += 1;
        Ok(())
    };
    let _ = run_deltas(
        &job.spec,
        &job.vi,
        &job.grid,
        &job.cfg,
        range.chain_ids(),
        lease.from,
        lease.checkpoint_every,
        job.prune,
        &mut emit,
    );
}

#[test]
fn a_dropped_connection_mid_lease_is_reissued_from_the_watermark() {
    let want = reference("d12");
    let handle = start_coordinator("127.0.0.1:0", Arc::new(BenchResolver), config()).unwrap();
    let addr = handle.addr();

    // Submit from a side thread so leases exist before any worker runs.
    let submit = thread::spawn(move || submit_remote(addr, "d12").unwrap());

    // A doomed peer takes the first lease, streams two honest deltas, and
    // drops dead (socket close = SIGKILL's signature).
    let mut doomed = RawPeer::connect(addr);
    let lease = doomed.take_lease();
    assert_eq!(
        grid_fingerprint(&BenchResolver.resolve("d12").unwrap().desc.to_json()),
        lease.grid_fp
    );
    stream_some_deltas(&mut doomed, &lease, 2);
    drop(doomed);

    // A healthy pool finishes the job; the folded bytes must be exact.
    let pool = spawn_local_workers(addr, Arc::new(BenchResolver), 2, WorkerOpts::default());
    let got = submit.join().unwrap();
    assert_eq!(got, want, "kill + re-lease must be byte-exact");
    handle.shutdown();
    for w in pool {
        w.join().unwrap().unwrap();
    }
}

#[test]
fn a_hung_lease_expires_and_its_zombie_deltas_are_rejected() {
    let want = reference("d12");
    let cfg = FleetConfig {
        lease_timeout: Duration::from_millis(150),
        ..config()
    };
    let handle = start_coordinator("127.0.0.1:0", Arc::new(BenchResolver), cfg).unwrap();
    let addr = handle.addr();
    let submit = thread::spawn(move || submit_remote(addr, "d12").unwrap());

    // A zombie takes a lease, streams one delta, then hangs — connection
    // open, no progress — until the deadline passes.
    let mut zombie = RawPeer::connect(addr);
    let lease = zombie.take_lease();
    stream_some_deltas(&mut zombie, &lease, 1);
    thread::sleep(Duration::from_millis(300));

    // The pool picks the expired lease up from the acked watermark.
    let pool = spawn_local_workers(addr, Arc::new(BenchResolver), 2, WorkerOpts::default());
    let got = submit.join().unwrap();
    assert_eq!(got, want, "timeout + re-lease must be byte-exact");

    // The zombie wakes up and streams its next delta: rejected, folded
    // nowhere.
    zombie.send(&Message::Delta(Delta {
        lease_id: lease.lease_id,
        grid_fp: lease.grid_fp.clone(),
        from: lease.from,
        taken: 1,
        stats: Default::default(),
        entries: Vec::new(),
    }));
    match zombie.recv() {
        Message::Reject { message } => {
            assert_eq!(
                message,
                format!("delta: lease {} is superseded", lease.lease_id)
            );
        }
        other => panic!("expected a reject, got {other:?}"),
    }
    handle.shutdown();
    for w in pool {
        w.join().unwrap().unwrap();
    }
}
