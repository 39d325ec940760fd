//! The coordinator: one listening socket, one lease book, any number of
//! workers. Jobs are submitted in-process, through [`FleetHandle::submit`];
//! no peer can submit one.
//!
//! Std-only, event-driven threading model: a blocking accept loop spawns
//! one thread per connection, which blocks on its reads. A `request` with
//! nothing to lease and a submission awaiting its frontier park on the
//! [`LeaseBook`]'s condvar; a parked `request` also wakes at the earliest
//! lease deadline, so a hung lease is re-issued on time. Nothing polls.
//!
//! Crash safety is the lease book's job (watermark re-issue, superseded
//! ids); the coordinator's part is mechanical: when a worker connection
//! drops — including SIGKILL, which closes the socket — its active leases
//! are released back to `Pending` with their watermarks intact, and the
//! next requesting worker picks them up. Lease deadlines cover the rarer
//! case of a worker that hangs without dying.

use crate::lease::{FleetConfig, FoldOutcome, JobResolver, LeaseBook};
use crate::protocol::{parse_message, write_message, Delta, Lease, Message};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use vi_noc_core::json;

struct Shared {
    book: Mutex<LeaseBook>,
    change: Condvar,
    resolver: Arc<dyn JobResolver>,
    /// Raised under the book lock, so no thread misses it between its
    /// check and its (untimed) wait.
    stop: AtomicBool,
    /// A clone of each open connection, by number, for shutdown to close.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// A running coordinator. Dropping the handle without calling
/// [`FleetHandle::shutdown`] leaves the accept thread running until the
/// process exits; tests and the CLI always shut down explicitly.
pub struct FleetHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The accept loop; it returns the connection threads still running.
    accept: thread::JoinHandle<Vec<thread::JoinHandle<()>>>,
}

/// How long shutdown lets a connection thread block writing what it owes
/// to a peer that does not read.
const SHUTDOWN_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

impl FleetHandle {
    /// The address the coordinator listens on (resolved, so binding to
    /// port 0 reports the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Submits a job from inside the coordinator process and blocks until
    /// its frontier is folded (or the job fails): resolves and queues the
    /// job, waking parked requests, then parks for its result. Any number
    /// of threads may submit at once; their jobs share the worker pool.
    ///
    /// # Errors
    ///
    /// Payload resolution failures, job failures (a worker refused a
    /// lease), and shutdown before completion.
    pub fn submit(&self, payload: &str) -> Result<String, String> {
        let shared = &self.shared;
        let resolved = shared.resolver.resolve(payload)?;
        let mut book = shared.book.lock().unwrap();
        let job_id = book.submit(payload, &resolved.desc)?;
        shared.change.notify_all();
        loop {
            if let Some(result) = book.take_result(job_id) {
                return result;
            }
            if shared.stop.load(Ordering::SeqCst) {
                return Err("coordinator shut down before the job finished".to_string());
            }
            book = shared.change.wait(book).unwrap();
        }
    }

    /// Stops the coordinator: parked requests answer `shutdown`, parked
    /// submissions fail, the accept loop ends, and every open connection
    /// is closed for reading, so its thread ends once it has answered.
    ///
    /// Returns only after every connection thread has written what it owes
    /// — the `ack` of a delta it folded, the `shutdown` answer of a parked
    /// `request` — and has exited. A job's last fold wakes its submitter
    /// before the connection writes that delta's `ack`; a caller that
    /// exits right after shutting down must not cut the ack off, or the
    /// worker sees its coordinator hang up in the middle of a lease.
    pub fn shutdown(self) {
        {
            let _book = self.shared.book.lock().unwrap();
            self.shared.stop.store(true, Ordering::SeqCst);
            self.shared.change.notify_all();
        }
        // Wake the blocking accept with a connection of our own. Should it
        // fail, the accept thread is not joined, so shutdown never hangs.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let connections = match TcpStream::connect(wake) {
            Ok(_) => self.accept.join().unwrap_or_default(),
            Err(_) => Vec::new(),
        };
        // The read side only: a woken `request` still writes `shutdown`,
        // and a folded delta its `ack`. A peer that stopped reading cannot
        // hold a write up for longer than the timeout.
        for stream in self.shared.conns.lock().unwrap().values() {
            let _ = stream.set_write_timeout(Some(SHUTDOWN_WRITE_TIMEOUT));
            let _ = stream.shutdown(Shutdown::Read);
        }
        for connection in connections {
            let _ = connection.join();
        }
    }
}

/// Parks a worker's `request` until a lease is free (`None` once the
/// coordinator stops), waking by the earliest deadline to re-issue it.
fn await_lease(shared: &Shared) -> Option<Lease> {
    let mut book = shared.book.lock().unwrap();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return None;
        }
        let now = Instant::now();
        if let Some(lease) = book.next_lease(now) {
            if book.config().verbose {
                log_metrics(&book, now);
            }
            return Some(lease);
        }
        book = match book.next_deadline() {
            Some(deadline) => shared.change.wait_timeout(book, deadline - now).unwrap().0,
            None => shared.change.wait(book).unwrap(),
        };
    }
}

/// Binds `bind` (e.g. `127.0.0.1:0`) and starts the accept loop.
///
/// # Errors
///
/// A `checkpoint_every` above [`json::MAX_EXACT_INT`], which every lease
/// message carries and no worker could read back, and bind failures.
pub fn start_coordinator(
    bind: &str,
    resolver: Arc<dyn JobResolver>,
    cfg: FleetConfig,
) -> Result<FleetHandle, String> {
    if cfg.checkpoint_every > json::MAX_EXACT_INT {
        return Err(format!(
            "fleet: checkpoint_every {} is above 2^53, the largest integer a lease message \
             can carry",
            cfg.checkpoint_every
        ));
    }
    let listener =
        TcpListener::bind(bind).map_err(|e| format!("fleet: cannot bind {bind}: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("fleet: no local addr: {e}"))?;
    let shared = Arc::new(Shared {
        book: Mutex::new(LeaseBook::new(cfg)),
        change: Condvar::new(),
        resolver,
        stop: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
    });
    let accept_shared = Arc::clone(&shared);
    let accept = thread::spawn(move || {
        let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
        for (id, stream) in (0u64..).zip(listener.incoming()) {
            let Ok(stream) = stream else { break };
            let Ok(clone) = stream.try_clone() else {
                continue;
            };
            // Checked under the connection lock: a connection accepted
            // after shutdown's sweep closes instead of registering.
            let mut conns = accept_shared.conns.lock().unwrap();
            if accept_shared.stop.load(Ordering::SeqCst) {
                break;
            }
            conns.insert(id, clone);
            drop(conns);
            let conn_shared = Arc::clone(&accept_shared);
            connections.retain(|c| !c.is_finished());
            connections.push(thread::spawn(move || {
                handle_connection(stream, &conn_shared);
                conn_shared.conns.lock().unwrap().remove(&id);
            }));
        }
        connections
    });
    Ok(FleetHandle {
        addr,
        shared,
        accept,
    })
}

/// Reads one protocol line. `Ok(None)` means the peer is gone (EOF, also
/// mid-line if it died while writing, or a read side closed by shutdown).
fn read_line(reader: &mut BufReader<TcpStream>) -> Result<Option<String>, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(_) if line.ends_with('\n') => {
            line.truncate(line.trim_end().len());
            Ok(Some(line))
        }
        Ok(_) => Ok(None),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// One `--verbose` metrics line: how many leases are in flight, how many
/// deltas the coordinator has folded, and how long ago the last fold was.
fn log_metrics(book: &LeaseBook, now: Instant) {
    let _ = writeln!(
        std::io::stderr(),
        "fleet: metrics leases_outstanding={} deltas_folded={} fold_lag_ms={}",
        book.leases_outstanding(),
        book.deltas_folded(),
        book.fold_lag_ms(now)
    );
}

fn send(stream: &mut TcpStream, m: &Message) -> Result<(), String> {
    let mut line = write_message(m);
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .map_err(|e| format!("write: {e}"))
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let hello = match read_line(&mut reader) {
        Ok(Some(line)) => parse_message(&line),
        _ => return,
    };
    match hello {
        Ok(Message::Hello) => {}
        Ok(_) => {
            let _ = send(
                &mut writer,
                &Message::Reject {
                    message: "expected a hello".to_string(),
                },
            );
            return;
        }
        Err(message) => {
            let _ = send(&mut writer, &Message::Reject { message });
            return;
        }
    }
    if let Err(e) = serve_worker(&mut reader, &mut writer, shared) {
        // Transport failure: nothing to tell the peer; the book has
        // already been cleaned up by the serving loop.
        let _ = writeln!(std::io::stderr(), "fleet: connection error: {e}");
    }
}

fn serve_worker(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    shared: &Shared,
) -> Result<(), String> {
    // Every lease this connection currently holds; released if it drops.
    let mut held: Vec<u64> = Vec::new();
    let release = |held: &mut Vec<u64>, shared: &Shared| {
        if !held.is_empty() {
            let mut book = shared.book.lock().unwrap();
            book.release_leases(held);
            let _ = writeln!(
                std::io::stderr(),
                "fleet: worker connection lost, re-issued {} lease(s) from their watermarks",
                held.len()
            );
            held.clear();
            shared.change.notify_all();
        }
    };
    loop {
        let line = match read_line(reader) {
            Ok(Some(line)) => line,
            Ok(None) => {
                release(&mut held, shared);
                return Ok(());
            }
            Err(e) => {
                release(&mut held, shared);
                return Err(e);
            }
        };
        let msg = match parse_message(&line) {
            Ok(m) => m,
            Err(message) => {
                // A malformed line means the stream can no longer be
                // trusted to be message-aligned: reject and hang up.
                release(&mut held, shared);
                return send(writer, &Message::Reject { message });
            }
        };
        match msg {
            Message::Request => match await_lease(shared) {
                Some(lease) => {
                    held.push(lease.lease_id);
                    send(writer, &Message::Lease(lease))?;
                }
                None => return send(writer, &Message::Shutdown),
            },
            // Another worker's lease is not this connection's to advance
            // or fail: reject, touch nothing, keep the connection.
            Message::Delta(Delta { lease_id, .. }) | Message::Refuse { lease_id, .. }
                if !held.contains(&lease_id) =>
            {
                let message = format!("lease {lease_id} is not held by this connection");
                send(writer, &Message::Reject { message })?;
            }
            Message::Delta(d) => {
                let folded = {
                    let mut book = shared.book.lock().unwrap();
                    let now = Instant::now();
                    let folded = book.fold_delta(&d, now);
                    if folded.is_ok() && book.config().verbose {
                        log_metrics(&book, now);
                    }
                    folded
                };
                match folded {
                    Ok(outcome) => {
                        if let FoldOutcome::LeaseDone { job_finished, .. } = outcome {
                            held.retain(|&id| id != d.lease_id);
                            if job_finished.is_some() {
                                shared.change.notify_all();
                            }
                        }
                        send(
                            writer,
                            &Message::Ack {
                                lease_id: d.lease_id,
                                done: outcome.done(),
                            },
                        )?;
                    }
                    Err(message) => {
                        // Stale or skewed delta: the worker abandons this
                        // lease and asks for a fresh one; the connection
                        // stays usable.
                        held.retain(|&id| id != d.lease_id);
                        send(writer, &Message::Reject { message })?;
                    }
                }
            }
            Message::Refuse { lease_id, message } => {
                let mut book = shared.book.lock().unwrap();
                let refused = book.refuse(lease_id, &message);
                drop(book);
                held.retain(|&id| id != lease_id);
                if refused.is_ok() {
                    shared.change.notify_all();
                }
            }
            other => {
                release(&mut held, shared);
                return send(
                    writer,
                    &Message::Reject {
                        message: format!("unexpected message from a worker: {other:?}"),
                    },
                );
            }
        }
    }
}
