//! End-to-end proof of the fleet's headline invariant: the frontier a
//! coordinator folds from streamed worker deltas — any worker count, any
//! connection-drop or lease-timeout schedule — is byte-identical to the
//! unsharded `run_shard` emission of the same grid.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use vi_noc_core::SynthesisConfig;
use vi_noc_fleet::{
    grid_fingerprint, parse_message, spawn_local_workers, start_coordinator, write_message, Delta,
    FleetConfig, JobResolver, Message, ResolvedJob, WorkerOpts,
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
        let cfg = SynthesisConfig::default();
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

/// Every lease message carries `checkpoint_every`, so the coordinator
/// refuses one above 2^53 that no worker could read back; 2^53 itself
/// folds exactly.
#[test]
fn a_checkpoint_interval_no_lease_can_carry_is_refused() {
    let every = |n: u64| FleetConfig {
        checkpoint_every: n,
        ..config()
    };
    let refused = start_coordinator("127.0.0.1:0", Arc::new(BenchResolver), every((1 << 53) + 1));
    assert!(refused.err().is_some_and(|e| e.contains("above 2^53")));
    let handle = start_coordinator("127.0.0.1:0", Arc::new(BenchResolver), every(1 << 53)).unwrap();
    let pool = spawn_local_workers(
        handle.addr(),
        Arc::new(BenchResolver),
        1,
        WorkerOpts::default(),
    );
    assert_eq!(handle.submit("d12").unwrap(), reference("d12"));
    handle.shutdown();
    for w in pool {
        w.join().unwrap().unwrap();
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
    // Two different jobs, submitted from two threads at once.
    thread::scope(|scope| {
        let submits: Vec<_> = ["d12:prune", "d12:boost0"]
            .into_iter()
            .map(|payload| {
                let handle = &handle;
                scope.spawn(move || (payload, handle.submit(payload).unwrap()))
            })
            .collect();
        for s in submits {
            let (payload, got) = s.join().unwrap();
            assert_eq!(got, reference(payload), "job '{payload}' must be exact");
        }
    });
    // A bad payload is rejected without disturbing the fleet.
    let err = handle.submit("d99").unwrap_err();
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

/// How long a peer waits for a reply: a lost wake-up fails the test
/// instead of hanging the suite.
const PATIENCE: Duration = Duration::from_secs(10);

impl RawPeer {
    /// Connects without saying anything.
    fn open(addr: std::net::SocketAddr) -> RawPeer {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let writer = stream.try_clone().unwrap();
        let mut peer = RawPeer {
            reader: BufReader::new(stream),
            writer,
        };
        peer.read_timeout(PATIENCE);
        peer
    }

    /// Connects and says hello as a worker.
    fn connect(addr: std::net::SocketAddr) -> RawPeer {
        let mut peer = RawPeer::open(addr);
        peer.send(&Message::Hello);
        peer
    }

    fn read_timeout(&mut self, timeout: Duration) {
        self.writer.set_read_timeout(Some(timeout)).unwrap();
    }

    fn send(&mut self, m: &Message) {
        self.send_lines(&[&write_message(m)]);
    }

    /// Sends `lines` in one write, each terminated by a newline.
    fn send_lines(&mut self, lines: &[&str]) {
        let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
        self.writer.write_all(text.as_bytes()).unwrap();
    }

    fn recv(&mut self) -> Message {
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).unwrap() > 0, "hung up");
        parse_message(line.trim_end()).unwrap()
    }

    /// Asserts that nothing arrives for `quiet`.
    fn expect_silence(&mut self, quiet: Duration) {
        self.read_timeout(quiet);
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            other => panic!("expected silence for {quiet:?}, got {other:?}: {line}"),
        }
        self.read_timeout(PATIENCE);
    }

    /// Asserts that the coordinator has closed the connection: end of
    /// stream, or a reset if it hung up with a line of ours unread.
    fn expect_closed(&mut self) {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            other => panic!("expected a closed connection, got {other:?}: {line}"),
        }
    }

    /// Sends one `request`; the coordinator holds it until a lease is
    /// free (the submission may still be resolving when we ask).
    fn take_lease(&mut self) -> vi_noc_fleet::Lease {
        self.send(&Message::Request);
        match self.recv() {
            Message::Lease(l) => l,
            other => panic!("expected a lease, got {other:?}"),
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

    let pool = thread::scope(|scope| {
        // Submit from a side thread so leases exist before any worker runs.
        let submit = scope.spawn(|| handle.submit("d12").unwrap());

        // A doomed peer takes the first lease, streams two honest deltas,
        // and drops dead (socket close = SIGKILL's signature).
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
        pool
    });
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
    let (pool, mut zombie, lease) = thread::scope(|scope| {
        let submit = scope.spawn(|| handle.submit("d12").unwrap());

        // A zombie takes a lease, streams one delta, then hangs —
        // connection open, no progress — until the deadline passes.
        let mut zombie = RawPeer::connect(addr);
        let lease = zombie.take_lease();
        stream_some_deltas(&mut zombie, &lease, 1);
        thread::sleep(Duration::from_millis(300));

        // The pool picks the expired lease up from the acked watermark.
        let pool = spawn_local_workers(addr, Arc::new(BenchResolver), 2, WorkerOpts::default());
        let got = submit.join().unwrap();
        assert_eq!(got, want, "timeout + re-lease must be byte-exact");
        (pool, zombie, lease)
    });

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

#[test]
fn an_idle_request_parks_until_a_job_arrives() {
    let handle = start_coordinator("127.0.0.1:0", Arc::new(BenchResolver), config()).unwrap();
    let addr = handle.addr();
    let mut early = RawPeer::connect(addr);
    early.send(&Message::Request);
    early.expect_silence(Duration::from_millis(200));

    // The one reply to the held request is the new job's first lease.
    let pool = thread::scope(|scope| {
        let submit = scope.spawn(|| handle.submit("d12"));
        match early.recv() {
            Message::Lease(l) => assert_eq!((l.start, l.from), (0, 0)),
            other => panic!("expected a lease, got {other:?}"),
        }
        drop(early);
        let pool = spawn_local_workers(addr, Arc::new(BenchResolver), 2, WorkerOpts::default());
        assert_eq!(submit.join().unwrap().unwrap(), reference("d12"));
        pool
    });
    handle.shutdown();
    for w in pool {
        w.join().unwrap().unwrap();
    }
}

#[test]
fn a_parked_request_gets_the_expired_lease_at_its_deadline() {
    let want = reference("d12");
    let cfg = FleetConfig {
        // One lease covers the whole grid, so the second request can only
        // be answered by re-issuing it.
        lease_chunk: BenchResolver.resolve("d12").unwrap().desc.num_chains,
        lease_timeout: Duration::from_millis(150),
        ..config()
    };
    let handle = start_coordinator("127.0.0.1:0", Arc::new(BenchResolver), cfg).unwrap();
    let addr = handle.addr();
    thread::scope(|scope| {
        let submit = scope.spawn(|| handle.submit("d12"));

        // The zombie stays connected and silent: only the deadline, 150 ms
        // after its one folded delta, frees its lease.
        let mut zombie = RawPeer::connect(addr);
        let lease = zombie.take_lease();
        let before_fold = Instant::now();
        stream_some_deltas(&mut zombie, &lease, 1);
        let mut second = RawPeer::connect(addr);
        let reissued = second.take_lease();
        assert!(before_fold.elapsed() >= Duration::from_millis(150));
        assert_eq!((reissued.start, reissued.end), (lease.start, lease.end));
        assert_eq!(reissued.from, lease.from + lease.checkpoint_every);
        assert_ne!(reissued.lease_id, lease.lease_id);

        stream_some_deltas(&mut second, &reissued, usize::MAX);
        assert_eq!(submit.join().unwrap().unwrap(), want);
    });
    handle.shutdown();
}

#[test]
fn shutdown_answers_parked_requests_and_closes_silent_peers() {
    let handle = start_coordinator("127.0.0.1:0", Arc::new(BenchResolver), config()).unwrap();
    let addr = handle.addr();
    let mut parked = RawPeer::connect(addr);
    parked.send(&Message::Request);
    let mut silent = RawPeer::open(addr);
    // Connections are accepted in order: one full round trip proves that
    // both peers above are registered. Here it is a foreign `refuse`,
    // which the coordinator rejects.
    let mut probe = RawPeer::connect(addr);
    probe.send(&Message::Refuse {
        lease_id: 1,
        message: "not mine".to_string(),
    });
    assert_eq!(
        probe.recv(),
        Message::Reject {
            message: "lease 1 is not held by this connection".to_string()
        }
    );
    parked.expect_silence(Duration::from_millis(200));

    handle.shutdown();
    assert_eq!(parked.recv(), Message::Shutdown);
    let mut rest = String::new();
    assert_eq!(silent.reader.read_line(&mut rest).unwrap(), 0, "EOF");
}

#[test]
fn a_foreign_refuse_or_delta_is_rejected_and_changes_nothing() {
    let want = reference("d12");
    let handle = start_coordinator("127.0.0.1:0", Arc::new(BenchResolver), config()).unwrap();
    let addr = handle.addr();
    let pool = thread::scope(|scope| {
        let submit = scope.spawn(|| handle.submit("d12"));
        let mut owner = RawPeer::connect(addr);
        let lease = owner.take_lease();

        // A peer that holds nothing names the owner's lease: once to fail
        // its job, once with a delta at the watermark that would fold into
        // it.
        let mut foreign = RawPeer::connect(addr);
        let not_held = Message::Reject {
            message: format!("lease {} is not held by this connection", lease.lease_id),
        };
        foreign.send(&Message::Refuse {
            lease_id: lease.lease_id,
            message: "not mine".to_string(),
        });
        assert_eq!(foreign.recv(), not_held);
        foreign.send(&Message::Delta(Delta {
            lease_id: lease.lease_id,
            grid_fp: lease.grid_fp.clone(),
            from: lease.from,
            taken: 1,
            stats: Default::default(),
            entries: Vec::new(),
        }));
        assert_eq!(foreign.recv(), not_held);
        // Its connection stays usable...
        assert_ne!(foreign.take_lease().lease_id, lease.lease_id);
        drop(foreign);

        // ...and the owner's lease is untouched: its deltas fold from 0.
        stream_some_deltas(&mut owner, &lease, usize::MAX);
        let pool = spawn_local_workers(addr, Arc::new(BenchResolver), 2, WorkerOpts::default());
        assert_eq!(submit.join().unwrap().unwrap(), want);
        pool
    });
    handle.shutdown();
    for w in pool {
        w.join().unwrap().unwrap();
    }
}

#[test]
fn a_v3_coordinator_refuses_the_deleted_submit_role() {
    let handle = start_coordinator("127.0.0.1:0", Arc::new(BenchResolver), config()).unwrap();
    let addr = handle.addr();
    // A v2 submitter: its hello names the old protocol, and the job it
    // sends with it must never be queued.
    let mut v2 = RawPeer::open(addr);
    v2.send_lines(&[
        r#"{"type":"hello","protocol":"vi-noc-fleet-v2","role":"submit"}"#,
        r#"{"type":"submit","job":"d12"}"#,
    ]);
    assert_eq!(
        v2.recv(),
        Message::Reject {
            message: "hello: protocol 'vi-noc-fleet-v2' is not 'vi-noc-fleet-v3'".to_string()
        }
    );
    v2.expect_closed();
    // A v3 peer cannot submit either: `submit` is no message type.
    let mut v3 = RawPeer::connect(addr);
    v3.send_lines(&[r#"{"type":"submit","job":"d12"}"#]);
    assert_eq!(
        v3.recv(),
        Message::Reject {
            message: "message: unknown type 'submit'".to_string()
        }
    );
    v3.expect_closed();

    let pool = spawn_local_workers(addr, Arc::new(BenchResolver), 2, WorkerOpts::default());
    assert_eq!(handle.submit("d12").unwrap(), reference("d12"));
    handle.shutdown();
    for w in pool {
        let stats = w.join().unwrap().unwrap();
        assert_eq!(stats.abandoned, 0, "no lease churn in a healthy fleet");
    }
}

/// A job's last fold wakes its submitter before the connection writes that
/// delta's `ack`, and `vi-noc fleet serve` exits as soon as `shutdown`
/// returns. So `shutdown` must return only once the ack is written and the
/// connection thread has exited: here the ack is readable, and the
/// connection closed, without waiting. Before, a worker cut off from its
/// last ack saw `coordinator hung up` mid-lease and exited 2.
#[test]
fn shutdown_returns_after_the_final_ack_is_written() {
    let whole = FleetConfig {
        lease_chunk: 1 << 20,
        checkpoint_every: 1 << 20,
        ..FleetConfig::default()
    };
    let want = reference("d12:boost0");
    for _ in 0..5 {
        let handle =
            start_coordinator("127.0.0.1:0", Arc::new(BenchResolver), whole.clone()).unwrap();
        let mut peer = RawPeer::connect(handle.addr());
        let lease = thread::scope(|s| {
            let submit = s.spawn(|| handle.submit("d12:boost0"));
            // One lease of the whole grid, evaluated as one delta, which
            // finishes the job; its ack is left unread.
            let lease = peer.take_lease();
            let job = BenchResolver.resolve(&lease.job).unwrap();
            let range = ChainRange::new(lease.start, lease.end).unwrap();
            let mut emit = |d: vi_noc_sweep::RangeDelta| -> Result<(), String> {
                peer.send(&Message::Delta(Delta {
                    lease_id: lease.lease_id,
                    grid_fp: lease.grid_fp.clone(),
                    from: d.from,
                    taken: d.taken,
                    stats: d.stats,
                    entries: d
                        .entries
                        .iter()
                        .map(|(_, e)| vi_noc_core::json::parse(e).unwrap())
                        .collect(),
                }));
                Ok(())
            };
            let ids = range.chain_ids();
            run_deltas(
                &job.spec,
                &job.vi,
                &job.grid,
                &job.cfg,
                ids,
                lease.from,
                lease.checkpoint_every,
                job.prune,
                &mut emit,
            )
            .unwrap();
            assert_eq!(submit.join().unwrap().unwrap(), want);
            lease
        });
        handle.shutdown();

        peer.writer.set_nonblocking(true).unwrap();
        let mut line = String::new();
        let read = peer.reader.read_line(&mut line);
        assert!(
            matches!(read, Ok(n) if n > 0),
            "the final ack was not written before shutdown returned: {read:?}"
        );
        assert_eq!(
            parse_message(line.trim_end()).unwrap(),
            Message::Ack {
                lease_id: lease.lease_id,
                done: lease.end - lease.start,
            }
        );
        peer.expect_closed();
    }
}
