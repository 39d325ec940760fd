//! The worker loop: request a lease, evaluate it as a stream of disjoint
//! deltas, wait for each ack before producing the next, repeat until the
//! coordinator says shutdown. An idle worker blocks in its `request`: the
//! coordinator answers it only once a lease is free (or it stops).
//!
//! A worker evaluates its chains one after another: [`run_worker`] runs
//! its loop in a one-thread rayon pool, because a fleet's parallelism is
//! its worker count. The frontier is byte-identical at any width.
//!
//! The ack-per-delta lockstep is what makes SIGKILL safe: the worker
//! never runs ahead of what the coordinator has folded, so the
//! coordinator's acked watermark is always an exact resume point — a
//! killed worker's successor re-evaluates at most one unacked delta,
//! never re-folds an acked one.
//!
//! **What a delta carries.** A worker resolves each job payload once and
//! caches it, together with a [`ParetoFold`] of the keys of every entry
//! the coordinator has acked from this worker for that payload. A delta's
//! entries go out as the text [`run_deltas`] wrote
//! ([`crate::protocol::write_delta`]), minus every entry whose key an
//! acked key dominates. The skip is exact: an entry of the final frontier
//! is dominated by no entry of the grid, so no worker ever skips one, and
//! every skipped entry is dominated (dominance is transitive, see
//! [`ParetoFold::is_dominated`]) by an entry of the final frontier, which
//! some worker does send. The coordinator's fold therefore ends on the
//! same frontier, and the counters of a delta are sent whole. Because the
//! argument is about the whole grid, not one job, the fold lives as long
//! as the cached payload and serves every job submitted with it.
//!
//! A worker caches the `CACHED_JOBS` (4) most recently leased payloads and
//! evicts the least recently leased one, so a long-lived worker that
//! serves many scenarios stays bounded. Eviction is exact: resolution is a
//! pure function of the payload (the [`JobResolver`] contract), and an
//! evicted fold only makes later deltas of that payload skip fewer
//! entries.

use crate::lease::{JobResolver, ResolvedJob};
use crate::protocol::{
    grid_fingerprint, parse_message, write_delta, write_message, Delta, Lease, Message,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use vi_noc_core::ParetoFold;
use vi_noc_sweep::{run_deltas, ChainRange, RangeDelta};

/// How many resolved payloads a worker keeps. A lease of another payload
/// evicts the least recently leased one.
const CACHED_JOBS: usize = 4;

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
    /// Frontier entries carried by the acked deltas (entries an acked
    /// entry of the same payload dominates are not sent).
    pub entries: u64,
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
        self.send_line(write_message(m))
    }

    fn send_line(&mut self, mut line: String) -> Result<(), String> {
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

/// Runs the worker loop against the coordinator at `addr`, on one thread,
/// until it sends `shutdown` — or until the coordinator disappears while
/// the worker is idle, which is also a clean end: between leases the
/// worker holds nothing, and a finished coordinator tearing its sockets
/// down is indistinguishable from (and as harmless as) one politely saying
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
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build();
    pool.expect("a rayon pool builds")
        .install(|| worker_loop(addr, resolver, opts))
}

fn worker_loop(
    addr: SocketAddr,
    resolver: &dyn JobResolver,
    opts: &WorkerOpts,
) -> Result<WorkerStats, String> {
    let mut conn = Connection::open(addr)?;
    conn.send(&Message::Hello)?;
    let mut jobs: Vec<CachedJob> = Vec::with_capacity(CACHED_JOBS);
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

/// A job payload resolved once, kept for later leases of the same
/// payload while it is among the [`CACHED_JOBS`] most recently leased.
struct CachedJob {
    payload: String,
    job: ResolvedJob,
    /// Keys of the entries the coordinator has acked from this worker for
    /// this payload: an entry one of them dominates is not sent.
    acked: ParetoFold<()>,
}

fn evaluate_lease(
    conn: &mut Connection,
    lease: Lease,
    resolver: &dyn JobResolver,
    opts: &WorkerOpts,
    jobs: &mut Vec<CachedJob>,
    stats: &mut WorkerStats,
) -> Result<(), String> {
    // Resolve (and cache) the payload, then prove we agree with the
    // coordinator about what grid this is. A mismatch is descriptor skew —
    // refusing fails the job fast instead of folding foreign entries. The
    // cache is keyed by the payload itself: the grid fingerprint does not
    // cover every input of a sweep (synthesis parameters, an inline spec).
    // It is ordered from least to most recently leased.
    if let Some(i) = jobs.iter().position(|c| c.payload == lease.job) {
        jobs[i..].rotate_left(1);
    } else {
        match resolver.resolve(&lease.job) {
            Ok(job) => {
                let fp = grid_fingerprint(&job.desc.to_json());
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
                if jobs.len() == CACHED_JOBS {
                    jobs.remove(0);
                }
                jobs.push(CachedJob {
                    payload: lease.job.clone(),
                    job,
                    acked: ParetoFold::new(),
                });
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
    let CachedJob { job, acked, .. } = jobs.last_mut().expect("cached above");
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
    let (mut acked_deltas, mut acked_entries) = (0u64, 0u64);
    let range_len = range.len();
    let outcome = {
        let fatal = &mut fatal;
        let mut emit = |d: RangeDelta| -> Result<(), String> {
            let sent: Vec<_> = d
                .entries
                .iter()
                .filter(|(key, _)| !acked.is_dominated(key))
                .collect();
            conn.send_line(write_delta(&Delta {
                lease_id: lease.lease_id,
                grid_fp: lease.grid_fp.clone(),
                from: d.from,
                taken: d.taken,
                stats: d.stats,
                entries: sent.iter().map(|(_, entry)| entry.as_str()).collect(),
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
                    acked_deltas += 1;
                    acked_entries += sent.len() as u64;
                    for (key, _) in sent {
                        acked.offer(*key, ());
                    }
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
    stats.entries += acked_entries;
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
