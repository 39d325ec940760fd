//! The worker loop: request a lease, evaluate it as a stream of disjoint
//! deltas, wait for each ack before producing the next, repeat until the
//! coordinator says shutdown. An idle worker blocks in its `request`: the
//! coordinator answers it only once a lease is free (or it stops).
//!
//! The ack-per-delta lockstep is what makes SIGKILL safe: the worker
//! never runs ahead of what the coordinator has folded, so the
//! coordinator's acked watermark is always an exact resume point — a
//! killed worker's successor re-evaluates at most one unacked delta,
//! never re-folds an acked one.

use crate::lease::{JobResolver, ResolvedJob};
use crate::protocol::{
    grid_fingerprint, parse_message, write_message, Delta, Lease, Message, Role,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use vi_noc_sweep::{run_deltas, ChainRange};

/// Knobs of a worker process.
#[derive(Debug, Clone, Default)]
pub struct WorkerOpts {
    /// Sleep between a lease's acked deltas (but not after its final one,
    /// which would leave the worker sleeping lease-less) — a test knob
    /// that stretches leases out so kill-mid-lease tests have a wide
    /// window to aim at.
    pub throttle: Duration,
}

/// What a worker did before shutting down, for CLI reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Leases evaluated to completion.
    pub leases: u64,
    /// Deltas acked by the coordinator.
    pub deltas: u64,
    /// Leases abandoned because the coordinator rejected a delta (e.g.
    /// the lease was re-issued to someone else after a timeout).
    pub abandoned: u64,
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    /// Connects to `addr`, retrying 100 times 50 ms apart so that a worker
    /// may start before its coordinator has finished binding.
    fn open(addr: SocketAddr) -> Result<Connection, String> {
        let mut last = String::new();
        for _ in 0..100 {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
                    return Ok(Connection {
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(e) => last = e.to_string(),
            }
            thread::sleep(Duration::from_millis(50));
        }
        Err(format!("worker: cannot connect {addr}: {last}"))
    }

    fn send(&mut self, m: &Message) -> Result<(), String> {
        let mut line = write_message(m);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("worker write: {e}"))
    }

    fn recv(&mut self) -> Result<Message, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("worker read: {e}"))?;
        if n == 0 {
            return Err("worker: coordinator hung up".to_string());
        }
        parse_message(line.trim_end())
    }
}

/// Whether a worker-side error is the transport dying (coordinator gone)
/// rather than a protocol violation.
fn is_disconnect(e: &str) -> bool {
    e == "worker: coordinator hung up"
        || e.starts_with("worker read:")
        || e.starts_with("worker write:")
}

/// Runs the worker loop against the coordinator at `addr` until it sends
/// `shutdown` — or until the coordinator disappears while the worker is
/// idle, which is also a clean end: between leases the worker holds
/// nothing, and a finished coordinator tearing its sockets down is
/// indistinguishable from (and as harmless as) one politely saying
/// goodbye.
///
/// # Errors
///
/// Connection failures, protocol violations, and transport errors
/// mid-lease (an unacked delta may be lost). A rejected delta is *not* an
/// error — the lease is abandoned (counted in [`WorkerStats::abandoned`])
/// and the loop continues.
pub fn run_worker(
    addr: SocketAddr,
    resolver: &dyn JobResolver,
    opts: &WorkerOpts,
) -> Result<WorkerStats, String> {
    let mut conn = Connection::open(addr)?;
    conn.send(&Message::Hello(Role::Work))?;
    let mut jobs: HashMap<String, ResolvedJob> = HashMap::new();
    let mut stats = WorkerStats::default();
    loop {
        let request = conn.send(&Message::Request).and_then(|()| conn.recv());
        match request {
            Ok(Message::Lease(lease)) => {
                evaluate_lease(&mut conn, lease, resolver, opts, &mut jobs, &mut stats)?
            }
            Ok(Message::Shutdown) => return Ok(stats),
            Ok(Message::Reject { message }) => return Err(format!("worker rejected: {message}")),
            Ok(other) => return Err(format!("worker: unexpected message: {other:?}")),
            Err(e) if is_disconnect(&e) => {
                eprintln!("fleet work: coordinator gone while idle, shutting down");
                return Ok(stats);
            }
            Err(e) => return Err(e),
        }
    }
}

fn evaluate_lease(
    conn: &mut Connection,
    lease: Lease,
    resolver: &dyn JobResolver,
    opts: &WorkerOpts,
    jobs: &mut HashMap<String, ResolvedJob>,
    stats: &mut WorkerStats,
) -> Result<(), String> {
    // Resolve (and cache) the job, then prove we agree with the
    // coordinator about what grid this is. A mismatch is descriptor skew —
    // refusing fails the job fast instead of folding foreign entries.
    if !jobs.contains_key(&lease.grid_fp) {
        match resolver.resolve(&lease.job) {
            Ok(mut resolved) => {
                // Chains run one after another inside a worker, because a
                // fleet's parallelism is its worker count. The frontier is
                // byte-identical either way.
                resolved.cfg.parallel = false;
                let fp = grid_fingerprint(&resolved.desc.to_json());
                if fp != lease.grid_fp {
                    conn.send(&Message::Refuse {
                        lease_id: lease.lease_id,
                        message: format!(
                            "grid fingerprint mismatch: worker resolved '{fp}', lease says '{}'",
                            lease.grid_fp
                        ),
                    })?;
                    return Ok(());
                }
                jobs.insert(lease.grid_fp.clone(), resolved);
            }
            Err(e) => {
                conn.send(&Message::Refuse {
                    lease_id: lease.lease_id,
                    message: format!("job payload does not resolve: {e}"),
                })?;
                return Ok(());
            }
        }
    }
    let job = &jobs[&lease.grid_fp];
    let range = match ChainRange::new(lease.start, lease.end) {
        Ok(r) => r,
        Err(e) => {
            conn.send(&Message::Refuse {
                lease_id: lease.lease_id,
                message: e,
            })?;
            return Ok(());
        }
    };

    // Stream deltas in lockstep with acks. `fatal` distinguishes
    // transport failures (abort the worker) from coordinator rejections
    // (abandon the lease, keep working).
    let mut fatal: Option<String> = None;
    let mut acked_deltas = 0u64;
    let range_len = range.len();
    let outcome = {
        let fatal = &mut fatal;
        let acked_deltas = &mut acked_deltas;
        let mut emit = |d: vi_noc_sweep::RangeDelta| -> Result<(), String> {
            let entries = d
                .entries
                .iter()
                .map(|(_, e)| {
                    vi_noc_core::json::parse(e).map_err(|err| format!("entry re-parse: {err}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            conn.send(&Message::Delta(Delta {
                lease_id: lease.lease_id,
                grid_fp: lease.grid_fp.clone(),
                from: d.from,
                taken: d.taken,
                stats: d.stats,
                entries,
            }))
            .inspect_err(|e| *fatal = Some(e.clone()))?;
            match conn.recv() {
                Ok(Message::Ack { lease_id, done }) => {
                    if lease_id != lease.lease_id || done != d.from + d.taken {
                        let e = format!(
                            "worker: ack mismatch: lease {lease_id} done {done}, expected \
                             lease {} done {}",
                            lease.lease_id,
                            d.from + d.taken
                        );
                        *fatal = Some(e.clone());
                        return Err(e);
                    }
                    *acked_deltas += 1;
                    // Throttle only *between* a lease's deltas, never after
                    // its final ack: once the last delta is acked the lease
                    // is done and the worker holds nothing, so sleeping here
                    // would open a wide lease-less window in which a kill
                    // exercises no re-issue path — exactly what the
                    // throttle-using death tests are aiming for.
                    if !opts.throttle.is_zero() && d.from + d.taken < range_len {
                        thread::sleep(opts.throttle);
                    }
                    Ok(())
                }
                Ok(Message::Reject { message }) => Err(format!("lease rejected: {message}")),
                Ok(other) => {
                    let e = format!("worker: unexpected ack reply: {other:?}");
                    *fatal = Some(e.clone());
                    Err(e)
                }
                Err(e) => {
                    *fatal = Some(e.clone());
                    Err(e)
                }
            }
        };
        run_deltas(
            &job.spec,
            &job.vi,
            &job.grid,
            &job.cfg,
            range.chain_ids(),
            lease.from,
            lease.checkpoint_every,
            job.prune,
            &mut emit,
        )
    };
    stats.deltas += acked_deltas;
    match outcome {
        Ok(()) => {
            stats.leases += 1;
            Ok(())
        }
        Err(_) if fatal.is_none() => {
            // The coordinator rejected a delta: someone else owns the
            // lease now. Abandon it and request fresh work.
            stats.abandoned += 1;
            Ok(())
        }
        Err(_) => Err(fatal.unwrap()),
    }
}

/// Spawns `n` in-process worker threads against `addr` — the local fleet
/// used by `vi-noc fleet run --workers N` and the benches.
pub fn spawn_local_workers(
    addr: SocketAddr,
    resolver: Arc<dyn JobResolver>,
    n: usize,
    opts: WorkerOpts,
) -> Vec<thread::JoinHandle<Result<WorkerStats, String>>> {
    (0..n.max(1))
        .map(|_| {
            let resolver = Arc::clone(&resolver);
            let opts = opts.clone();
            thread::spawn(move || run_worker(addr, resolver.as_ref(), &opts))
        })
        .collect()
}
