//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions: name, start, end, parent span and op id. They
//! stay in memory until the run ends, then [`Tracer::write_jsonl`] dumps
//! them. Spans opened on other threads (the fleet's worker-side job
//! resolution) attach to whichever op is in flight — the workloads are
//! closed loops with one op at a time, so that op is unambiguous.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::Instant;

const POISONED: &str = "span recorder lock poisoned by a panic while recording";

/// One timed call.
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Recorded on the thread that drives the op (the client), not on a
    /// fleet worker or coordinator thread.
    pub on_client: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    client: ThreadId,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// `(op id, op span id)` of the traced op in flight, if any.
    current: Mutex<Option<(u64, u64)>>,
}

/// The traced op in flight; child spans hang off its root span.
pub struct OpCtx<'a> {
    tracer: &'a Tracer,
    op: u64,
    root: u64,
}

impl Tracer {
    /// A tracer whose client is the calling thread.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            client: thread::current().id(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            current: Mutex::new(None),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` and records it as span `name` of `op`.
    fn timed<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: self.now_ns(),
            on_client: thread::current().id() == self.client,
        };
        self.spans.lock().expect(POISONED).push(span);
        out
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` as op `op`: one root span named `name`, with every span
    /// opened through the context (or on any thread while it runs) as a
    /// child.
    pub fn op<T>(&self, op: u64, name: &'static str, f: impl FnOnce(&OpCtx) -> T) -> T {
        let root = self.next_id();
        *self.current.lock().expect(POISONED) = Some((op, root));
        let cx = OpCtx {
            tracer: self,
            op,
            root,
        };
        let out = self.timed(name, op, None, root, || f(&cx));
        *self.current.lock().expect(POISONED) = None;
        out
    }

    /// Times `f` as a child of the op in flight; runs it untimed when no
    /// traced op is in flight.
    pub fn in_current_op<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let current = *self.current.lock().expect(POISONED);
        match current {
            Some((op, root)) => self.timed(name, op, Some(root), self.next_id(), f),
            None => f(),
        }
    }

    /// Per op: the root span's duration and the summed duration of every
    /// child span by name, plus the root time not covered by client-thread
    /// children (`api.unattributed_ms`).
    pub fn per_op(&self) -> BTreeMap<u64, OpTimes> {
        let spans = self.spans.lock().expect(POISONED);
        let mut ops: BTreeMap<u64, OpTimes> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent.is_none()) {
            ops.entry(s.op).or_default().total_ms = s.ms();
        }
        let mut covered: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent.is_some()) {
            let times = ops.entry(s.op).or_default();
            *times.by_name.entry(s.name).or_insert(0.0) += s.ms();
            if s.on_client {
                *covered.entry(s.op).or_insert(0.0) += s.ms();
            }
        }
        for (op, times) in ops.iter_mut() {
            times.unattributed_ms = times.total_ms - covered.get(op).copied().unwrap_or(0.0);
        }
        ops
    }

    /// Writes every span as one JSON object per line after `header`.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str(header);
        out.push('\n');
        for s in self.spans.lock().expect(POISONED).iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"client\":{}}}",
                s.op, s.id, parent, s.name, s.start_ns, s.end_ns, s.on_client
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Span times of one traced op.
#[derive(Debug, Clone, Default)]
pub struct OpTimes {
    pub total_ms: f64,
    pub unattributed_ms: f64,
    pub by_name: BTreeMap<&'static str, f64>,
}

impl OpCtx<'_> {
    /// Times `f` as a child span of this op.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.tracer.next_id();
        self.tracer.timed(name, self.op, Some(self.root), id, f)
    }
}
