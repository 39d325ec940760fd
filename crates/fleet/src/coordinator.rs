//! The coordinator: one listening socket, one lease book, any number of
//! workers and submitters.
//!
//! Std-only threading model: a non-blocking accept loop spawns one thread
//! per connection; every connection thread drives the shared
//! [`LeaseBook`] under a mutex and parks on a condvar when it waits for a
//! job to finish. Reads use short timeouts so every thread notices the
//! stop flag promptly — shutdown never hangs on a silent peer.
//!
//! Crash safety is the lease book's job (watermark re-issue, superseded
//! ids); the coordinator's part is mechanical: when a worker connection
//! drops — including SIGKILL, which closes the socket — its active leases
//! are released back to `Pending` with their watermarks intact, and the
//! next requesting worker picks them up. Lease deadlines cover the rarer
//! case of a worker that hangs without dying.

use crate::lease::{FleetConfig, JobResolver, LeaseBook};
use crate::protocol::{parse_message, write_message, Message, Role};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

struct Shared {
    book: Mutex<LeaseBook>,
    change: Condvar,
    resolver: Arc<dyn JobResolver>,
    stop: AtomicBool,
}

/// A running coordinator. Dropping the handle without calling
/// [`FleetHandle::shutdown`] leaves the accept thread running until the
/// process exits; tests and the CLI always shut down explicitly.
pub struct FleetHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
}

impl FleetHandle {
    /// The address the coordinator listens on (resolved, so binding to
    /// port 0 reports the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Submits a job from inside the coordinator process and blocks until
    /// its frontier is folded (or the job fails).
    ///
    /// # Errors
    ///
    /// Payload resolution failures, job failures (a worker refused a
    /// lease), and shutdown before completion.
    pub fn submit(&self, payload: &str) -> Result<String, String> {
        let resolved = self.shared.resolver.resolve(payload)?;
        let job_id = {
            let mut book = self.shared.book.lock().unwrap();
            book.submit(payload, &resolved.desc)?
        };
        await_result(&self.shared, job_id)
    }

    /// Stops accepting, tells every polling worker to shut down, and
    /// joins the accept thread. Connection threads exit on their next
    /// read-timeout tick.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.change.notify_all();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

/// Parks until job `job_id` finishes (or the coordinator stops) and takes
/// its result out of the book.
fn await_result(shared: &Shared, job_id: u64) -> Result<String, String> {
    let mut book = shared.book.lock().unwrap();
    loop {
        if let Some(result) = book.take_result(job_id) {
            return result;
        }
        if shared.stop.load(Ordering::SeqCst) {
            return Err("coordinator shut down before the job finished".to_string());
        }
        let (guard, _) = shared
            .change
            .wait_timeout(book, Duration::from_millis(100))
            .unwrap();
        book = guard;
    }
}

/// Binds `bind` (e.g. `127.0.0.1:0`) and starts the accept loop.
///
/// # Errors
///
/// Bind failures.
pub fn start_coordinator(
    bind: &str,
    resolver: Arc<dyn JobResolver>,
    cfg: FleetConfig,
) -> Result<FleetHandle, String> {
    let listener =
        TcpListener::bind(bind).map_err(|e| format!("fleet: cannot bind {bind}: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("fleet: cannot set nonblocking: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("fleet: no local addr: {e}"))?;
    let shared = Arc::new(Shared {
        book: Mutex::new(LeaseBook::new(cfg)),
        change: Condvar::new(),
        resolver,
        stop: AtomicBool::new(false),
    });
    let accept_shared = Arc::clone(&shared);
    let accept = thread::spawn(move || {
        while !accept_shared.stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let conn_shared = Arc::clone(&accept_shared);
                    thread::spawn(move || handle_connection(stream, conn_shared));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(_) => break,
            }
        }
    });
    Ok(FleetHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

/// Reads one protocol line, looping over read timeouts until the stop
/// flag is raised. `Ok(None)` means the peer is gone (EOF or stop).
fn read_line(reader: &mut BufReader<TcpStream>, shared: &Shared) -> Result<Option<String>, String> {
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(None),
            Ok(_) => {
                if line.ends_with('\n') {
                    return Ok(Some(line.trim_end().to_string()));
                }
                return Ok(None); // EOF mid-line: peer died while writing.
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

/// One `--verbose` metrics line: how many leases are in flight, how many
/// deltas the coordinator has folded, and how long ago the last fold was.
fn log_metrics(book: &LeaseBook, now: Instant) {
    eprintln!(
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

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let hello = match read_line(&mut reader, &shared) {
        Ok(Some(line)) => parse_message(&line),
        _ => return,
    };
    let role = match hello {
        Ok(Message::Hello(role)) => role,
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
    };
    let outcome = match role {
        Role::Work => serve_worker(&mut reader, &mut writer, &shared),
        Role::Submit => serve_submitter(&mut reader, &mut writer, &shared),
    };
    if let Err(e) = outcome {
        // Transport failure: nothing to tell the peer; the book has
        // already been cleaned up by the serving loop.
        eprintln!("fleet: connection error: {e}");
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
            eprintln!(
                "fleet: worker connection lost, re-issued {} lease(s) from their watermarks",
                held.len()
            );
            held.clear();
            shared.change.notify_all();
        }
    };
    loop {
        let line = match read_line(reader, shared) {
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
            Message::Request => {
                if shared.stop.load(Ordering::SeqCst) {
                    return send(writer, &Message::Shutdown);
                }
                let mut book = shared.book.lock().unwrap();
                let now = Instant::now();
                match book.next_lease(now) {
                    Some(lease) => {
                        held.push(lease.lease_id);
                        if book.config().verbose {
                            log_metrics(&book, now);
                        }
                        drop(book);
                        send(writer, &Message::Lease(lease))?;
                    }
                    None => {
                        let poll_ms = book.config().poll_ms;
                        drop(book);
                        send(writer, &Message::Wait { poll_ms })?;
                    }
                }
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
                        if let crate::lease::FoldOutcome::LeaseDone { job_finished, .. } = outcome {
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
                        message: format!("unexpected message in the work role: {other:?}"),
                    },
                );
            }
        }
    }
}

fn serve_submitter(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    shared: &Shared,
) -> Result<(), String> {
    let line = match read_line(reader, shared)? {
        Some(line) => line,
        None => return Ok(()),
    };
    let job = match parse_message(&line) {
        Ok(Message::Submit { job }) => job,
        Ok(_) => {
            return send(
                writer,
                &Message::Reject {
                    message: "expected a submit".to_string(),
                },
            )
        }
        Err(message) => return send(writer, &Message::Reject { message }),
    };
    let job_id = {
        let resolved = match shared.resolver.resolve(&job) {
            Ok(r) => r,
            Err(message) => return send(writer, &Message::Reject { message }),
        };
        let mut book = shared.book.lock().unwrap();
        match book.submit(&job, &resolved.desc) {
            Ok(id) => id,
            Err(message) => {
                drop(book);
                return send(writer, &Message::Reject { message });
            }
        }
    };
    match await_result(shared, job_id) {
        Ok(frontier) => send(writer, &Message::Result { frontier }),
        Err(message) => send(writer, &Message::Reject { message }),
    }
}

/// Submits a job to a remote coordinator over TCP and blocks for the
/// frontier — the client side of the `submit` role.
///
/// # Errors
///
/// Connection failures, protocol violations, and job rejections.
pub fn submit_remote(addr: SocketAddr, payload: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("fleet: cannot connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    send(&mut stream, &Message::Hello(Role::Submit))?;
    send(
        &mut stream,
        &Message::Submit {
            job: payload.to_string(),
        },
    )?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read: {e}"))?;
    match parse_message(line.trim_end())? {
        Message::Result { frontier } => Ok(frontier),
        Message::Reject { message } => Err(message),
        other => Err(format!("fleet: unexpected reply: {other:?}")),
    }
}
