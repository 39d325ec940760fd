//! Fleet scaling bench: the fine d26 grid folded by an in-process
//! coordinator with 1, 2 and 4 local workers, against the single-threaded
//! streaming run — wall clock plus the byte-identity guard. Run it with
//! `cargo bench -p vi-noc-bench --bench fleet_scale`.
//!
//! Workers always evaluate their chains on one thread each, and the
//! single-threaded reference runs in a one-thread rayon pool, so any
//! speed-up here comes from the worker *count* — the thing the fleet adds —
//! not from the synthesis-level rayon parallelism that already existed.

use std::sync::Arc;
use std::time::{Duration, Instant};
use vi_noc_core::SynthesisConfig;
use vi_noc_fleet::{
    spawn_local_workers, start_coordinator, FleetConfig, JobResolver, ResolvedJob, WorkerOpts,
};
use vi_noc_soc::{benchmarks, partition};
use vi_noc_sweep::{frontier_json, run_shard, GridConfig, GridDescriptor, Shard, SweepGrid};

/// The benchmark grid: d26 at the paper's island count with the boost and
/// frequency-plan axes opened — the grid of the `sweep-smoke` CI job.
fn fine_grid_cfg() -> GridConfig {
    GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0, 1.12],
        max_intermediate: 4,
    }
}

/// Resolves the one job this bench sweeps. Resolution runs once per
/// coordinator and once per worker, exactly as it would across machines.
struct FineD26Resolver;

impl JobResolver for FineD26Resolver {
    fn resolve(&self, payload: &str) -> Result<ResolvedJob, String> {
        if payload != "d26:fine" {
            return Err(format!("unknown bench job '{payload}'"));
        }
        let spec = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&spec, 6).map_err(|e| e.to_string())?;
        let cfg = SynthesisConfig::default();
        let grid = SweepGrid::build(&spec, &vi, &cfg, &fine_grid_cfg());
        let desc = GridDescriptor::for_grid(&grid, spec.name(), "logical:6", cfg.seed);
        Ok(ResolvedJob {
            spec,
            vi,
            cfg,
            grid,
            desc,
            prune: false,
        })
    }
}

/// One complete fleet session: coordinator up, `workers` local workers,
/// one submission, teardown. Returns the folded frontier file.
fn fleet_session(workers: usize) -> String {
    let resolver: Arc<dyn JobResolver> = Arc::new(FineD26Resolver);
    let handle = start_coordinator("127.0.0.1:0", Arc::clone(&resolver), FleetConfig::default())
        .expect("bind");
    let pool = spawn_local_workers(handle.addr(), resolver, workers, WorkerOpts::default());
    let folded = handle.submit("d26:fine").expect("fleet job");
    handle.shutdown();
    for worker in pool {
        worker.join().expect("worker thread").expect("worker");
    }
    folded
}

/// Median wall time of `samples` runs of `f`.
fn median_secs<O>(samples: usize, mut f: impl FnMut() -> O) -> f64 {
    std::hint::black_box(f()); // warm-up, untimed
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2].as_secs_f64()
}

/// Timed runs per measurement, after one untimed warm-up.
const SAMPLES: usize = 7;

fn main() {
    let job = FineD26Resolver.resolve("d26:fine").expect("resolve");
    let direct = frontier_json(
        &job.desc,
        &run_shard(&job.spec, &job.vi, &job.grid, Shard::full(), &job.cfg),
    );

    // The headline invariant guards the artifact before anything is timed.
    for workers in [1usize, 2, 4] {
        assert_eq!(
            fleet_session(workers),
            direct,
            "fleet frontier with {workers} worker(s) must be byte-identical"
        );
    }

    let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build();
    let single_s = one_thread.expect("a rayon pool builds").install(|| {
        median_secs(SAMPLES, || {
            run_shard(&job.spec, &job.vi, &job.grid, Shard::full(), &job.cfg)
        })
    });
    let fleet_s: Vec<f64> = [1usize, 2, 4]
        .iter()
        .map(|&w| median_secs(SAMPLES, || fleet_session(w)))
        .collect();

    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let speedup_4 = fleet_s[0] / fleet_s[2].max(1e-12);
    println!(
        "fleet_scale/single_thread_direct  median {:>12.3?}   ({SAMPLES} samples, {} chains, {cpus} CPU(s))",
        Duration::from_secs_f64(single_s),
        job.grid.num_chains()
    );
    for (i, &w) in [1usize, 2, 4].iter().enumerate() {
        println!(
            "fleet_scale/{w}_worker(s)          median {:>12.3?}   (vs 1 worker: {:.2}x)",
            Duration::from_secs_f64(fleet_s[i]),
            fleet_s[0] / fleet_s[i].max(1e-12)
        );
    }
    if cpus >= 4 {
        assert!(
            speedup_4 >= 1.5,
            "4 workers on a {cpus}-CPU machine must be at least 1.5x over 1 worker, got {speedup_4:.2}x"
        );
    } else {
        println!(
            "fleet_scale: only {cpus} CPU(s) available — scaling assertion skipped; \
             4-worker speedup measured {speedup_4:.2}x (expect >=1.5x on 4 cores)"
        );
    }
}
