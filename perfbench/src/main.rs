//! The vi-noc benchmark: one command, three closed-loop workloads, every
//! output checked byte for byte.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow|dynsweep|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! alternates untraced ops with traced ones (the stages called one by one,
//! a span around each call) and reports the per-layer metrics; its spans
//! are written to `<--out>/<workload>-seed<N>.jsonl` (default
//! `perfbench/out`). The last stdout line is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! See `perfbench/README.md` for what each workload and metric is for.

mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use workloads::{Counters, Workload};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Timed calls, each reported as `<name>_ms`: the median over traced ops
/// of the op's spans of that name (`fleet.direct` is timed after the ops).
const TIMED: [&str; 16] = [
    "api.ingest",
    "api.emit",
    "soc.resolve",
    "synth.synthesize",
    "floorplan.realize",
    "sim.build",
    "sim.run",
    "sim.power",
    "sim.shutdown",
    "sweep.grid",
    "sweep.run",
    "sweep.refine",
    "sweep.emit",
    "dynsweep.run",
    "fleet.resolve",
    "fleet.direct",
];

/// Exact per-op counters and modelled outputs (`--trace 1`), with units.
/// They must repeat exactly across ops, runs and thread counts.
const EXACT: [(&str, &str); 23] = [
    ("api.report_bytes", "bytes"),
    ("synth.points", "count"),
    ("floorplan.moves", "count"),
    ("sim.ticks", "count"),
    ("sim.packets", "count"),
    ("sim.shutdown_packets", "count"),
    ("sweep.chains", "count"),
    ("sweep.inactive_chains", "count"),
    ("sweep.feasible", "count"),
    ("sweep.duplicates", "count"),
    ("sweep.infeasible", "count"),
    ("sweep.frontier_points", "count"),
    ("dynsweep.cells", "count"),
    ("dynsweep.simulated", "count"),
    ("dynsweep.table_bytes", "bytes"),
    ("fleet.leases_per_job", "count"),
    ("fleet.deltas_per_job", "count"),
    ("fleet.abandoned", "count"),
    ("noc_power_mw", "mW"),
    ("noc_latency_cyc", "cycles"),
    ("sim_latency_ns", "ns"),
    ("sweep.feasible_ratio", "fraction"),
    ("dynsweep.sim_ratio", "fraction"),
];

/// Per-layer metrics derived from wall times (`--trace 1`), with units.
const DERIVED: [(&str, &str); 8] = [
    ("api.unattributed_ms", "ms"),
    ("floorplan.moves_per_ms", "1/ms"),
    ("sim.ticks_per_ms", "1/ms"),
    ("sweep.chains_per_ms", "1/ms"),
    ("dynsweep.cells_per_s", "1/s"),
    ("fleet.overhead_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("failed_frac", "fraction"),
];

/// Fewest ops of each kind a run measures, however short `--seconds` is.
const MIN_OPS: usize = 5;
/// `peak_rss_mb` is read after this many timed ops (or at the end of a
/// shorter run), so a faster program that fits more ops into the run does
/// not read as a memory regression where memory grows per op.
const RSS_OPS: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad.clone())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad.clone())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad);
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join("|")
        ));
    }
    Ok(args)
}

/// The host a result was measured on.
struct Host {
    nproc: usize,
    rayon_threads: usize,
    fleet_workers: usize,
    commit: String,
}

impl Host {
    /// Refuses rayon thread counts above `nproc`; fleet workers are
    /// `min(2, nproc)`.
    fn probe() -> Result<Host, String> {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rayon_threads = rayon::current_num_threads();
        if rayon_threads > nproc {
            return Err(format!(
                "RAYON_NUM_THREADS={rayon_threads} exceeds nproc={nproc}"
            ));
        }
        Ok(Host {
            nproc,
            rayon_threads,
            fleet_workers: nproc.min(2),
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
        })
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"rayon_threads\":{},\"fleet_workers\":{},\"rustc\":\"{}\",\
             \"commit\":\"{}\"}}",
            self.nproc,
            self.rayon_threads,
            self.fleet_workers,
            env!("PERFBENCH_RUSTC"),
            self.commit
        )
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (`None` outside a git checkout).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile of `values` (0 for none).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Ops attempted and failed; a failure is an `Err`, a panic or wrong bytes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs one op under `catch_unwind`, checks its bytes against
    /// `expected`, and returns its wall time in ms.
    fn op(&mut self, expected: &str, f: impl FnOnce() -> Result<String, String>) -> f64 {
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(f));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.check(
            expected,
            out.map_err(|_| "panicked".to_string()).and_then(|r| r),
        );
        ms
    }

    fn check(&mut self, expected: &str, out: Result<String, String>) {
        self.attempted += 1;
        let problem = match out {
            Ok(bytes) if bytes == expected => return,
            Ok(bytes) => format!(
                "wrong output ({} bytes, expected {})",
                bytes.len(),
                expected.len()
            ),
            Err(e) => e,
        };
        self.failed += 1;
        eprintln!("perfbench: op {} failed: {problem}", self.attempted);
    }
}

fn result_line(tally: &Tally, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    )
}

/// Builds the workload and runs one warm-up op, counting a golden mismatch
/// as a failed op.
fn set_up(
    args: &Args,
    host: &Host,
    tracer: &Arc<Tracer>,
    tally: &mut Tally,
) -> Result<(Box<dyn Workload>, String), String> {
    let (mut work, golden_ok) =
        workloads::setup(&args.workload, args.seed, host.fleet_workers, tracer)?;
    let expected = work.expected().to_string();
    if !golden_ok {
        tally.check(
            "",
            Err("reference bytes differ from the committed golden".into()),
        );
    }
    tally.op(&expected, || work.op());
    Ok((work, expected))
}

/// `--trace 0`: the end-to-end metrics.
fn run_untraced(args: &Args, host: &Host, process_start: Instant) -> Result<String, String> {
    let tracer = Arc::new(Tracer::new());
    let mut tally = Tally::default();
    let (mut work, expected) = set_up(args, host, &tracer, &mut tally)?;
    let setup_s = process_start.elapsed().as_secs_f64();

    let mut latencies = Vec::new();
    let mut rss = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds || latencies.len() < MIN_OPS {
        latencies.push(tally.op(&expected, || work.op()));
        if latencies.len() == RSS_OPS {
            rss = Some(peak_rss_mb());
        }
    }
    let rss = rss.unwrap_or_else(peak_rss_mb);
    let grown = peak_rss_mb();
    work.finish()?;
    let deciles: Vec<String> = (0..=10)
        .map(|d| format!("{:.1}", quantile(&latencies, d as f64 / 10.0)))
        .collect();
    println!(
        "perfbench: {} ops, op ms deciles [{}], \
         peak RSS {grown:.1} MB at the end, host {}",
        latencies.len(),
        deciles.join(" "),
        host.json()
    );
    let metrics: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .zip([median(&latencies), quantile(&latencies, 0.9), setup_s, rss])
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect();
    Ok(result_line(&tally, &metrics))
}

/// `--trace 1`: untraced and traced ops alternate; the per-layer metrics.
fn run_traced(args: &Args, host: &Host) -> Result<String, String> {
    let tracer = Arc::new(Tracer::new());
    let mut tally = Tally::default();
    let (mut work, expected) = set_up(args, host, &tracer, &mut tally)?;

    let mut untraced = Vec::new();
    let mut reference: Option<Counters> = None;
    let start = Instant::now();
    let mut op_id = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds || untraced.len() < MIN_OPS {
        untraced.push(tally.op(&expected, || work.op()));
        op_id += 1;
        let out = catch_unwind(AssertUnwindSafe(|| {
            tracer.op(op_id, "op", |cx| work.traced_op(cx))
        }))
        .map_err(|_| "traced op panicked".to_string())
        .and_then(|r| r);
        let out = match out {
            Ok((bytes, counters)) => match &reference {
                Some(r) if *r != counters => Err(format!(
                    "exact counters changed between ops: {r:?} vs {counters:?}"
                )),
                _ => {
                    reference.get_or_insert(counters);
                    Ok(bytes)
                }
            },
            Err(e) => Err(e),
        };
        tally.check(&expected, out);
    }
    // Timed after the loop, so untraced and traced ops alternate back to
    // back and see the same fleet poll phase.
    let mut direct = Vec::new();
    for _ in 0..op_id {
        direct.extend(work.direct_ms()?);
    }
    let mut counters = reference.unwrap_or_default();
    counters.extend(work.finish()?);

    let ops = tracer.per_op();
    let span_ms = |name: &str| -> f64 {
        let v: Vec<f64> = ops
            .values()
            .map(|t| t.by_name.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    };
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut ms = BTreeMap::new();
    for name in TIMED {
        let v = if name == "fleet.direct" {
            median(&direct)
        } else {
            span_ms(name)
        };
        ms.insert(name, v);
        metrics.push((format!("{name}_ms"), v, "ms"));
    }
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let ratios = [
        (
            "sweep.feasible_ratio",
            ratio(
                c("sweep.feasible"),
                c("sweep.feasible") + c("sweep.duplicates") + c("sweep.infeasible"),
            ),
        ),
        (
            "dynsweep.sim_ratio",
            ratio(c("dynsweep.simulated"), c("dynsweep.cells")),
        ),
    ];
    counters.extend(ratios);
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    for (name, unit) in EXACT {
        metrics.push((name.to_string(), c(name), unit));
    }
    let untraced_p50 = median(&untraced);
    let traced: Vec<f64> = ops.values().map(|t| t.total_ms).collect();
    let unattributed: Vec<f64> = ops.values().map(|t| t.unattributed_ms).collect();
    let derived = [
        median(&unattributed),
        ratio(c("floorplan.moves"), ms["floorplan.realize"]),
        ratio(c("sim.ticks"), ms["sim.run"]),
        ratio(c("sweep.chains"), ms["sweep.run"]),
        ratio(c("dynsweep.cells"), ms["dynsweep.run"] / 1e3),
        if !direct.is_empty() {
            untraced_p50 - ms["fleet.direct"]
        } else {
            0.0
        },
        ratio(median(&traced), untraced_p50) - 1.0,
        ratio(tally.failed as f64, tally.attempted as f64),
    ];
    for (&(name, unit), v) in DERIVED.iter().zip(derived) {
        metrics.push((name.to_string(), v, unit));
    }

    println!(
        "perfbench: {} untraced + {} traced ops, host {}",
        untraced.len(),
        traced.len(),
        host.json()
    );
    let line = result_line(&tally, &metrics);
    let path = args
        .out
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"host\":{},\"result\":{}}}",
        args.workload,
        args.seed,
        host.json(),
        line
    );
    tracer
        .write_jsonl(&path, &header)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(line)
}

fn main() {
    let process_start = Instant::now();
    let result = parse_args().and_then(|args| {
        let host = Host::probe()?;
        if args.trace {
            run_traced(&args, &host)
        } else {
            run_untraced(&args, &host, process_start)
        }
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
