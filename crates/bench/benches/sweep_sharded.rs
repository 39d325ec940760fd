//! Sharded-sweep benchmarks: the streaming shard runner on a fine grid,
//! single process vs a 3-shard split, with a JSON datapoint for the perf
//! trajectory (`BENCH_sweep.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};
use vi_noc_core::SynthesisConfig;
use vi_noc_soc::{benchmarks, partition};
use vi_noc_sweep::{
    frontier_json, frontier_seeds, merge_checkpoints, parse_frontier_file, run_shard,
    run_shard_pruned, shard_checkpoint_json, windows_from_frontier, GridConfig, GridDescriptor,
    RefineParams, Shard, SweepGrid,
};

fn fast_mode() -> bool {
    std::env::var("BENCH_FAST").is_ok_and(|v| v != "0" && !v.is_empty())
}

fn samples(full: usize) -> usize {
    if fast_mode() {
        2
    } else {
        full
    }
}

/// The benchmark grid: d26 at the paper's island count, with the boost and
/// frequency-plan axes opened — ~27x the classic sweep's candidate count.
fn fine_grid_cfg() -> GridConfig {
    GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0, 1.12],
        max_intermediate: 4,
    }
}

fn bench_shard_runner(c: &mut Criterion) {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).expect("islands");
    let cfg = SynthesisConfig::default();
    let grid = SweepGrid::build(&soc, &vi, &cfg, &fine_grid_cfg());

    let mut group = c.benchmark_group("sweep_sharded");
    group.sample_size(samples(10));
    group.bench_function("d26_fine_full", |b| {
        b.iter(|| run_shard(black_box(&soc), black_box(&vi), &grid, Shard::full(), &cfg))
    });
    group.bench_function("d26_fine_shard_0_of_3", |b| {
        b.iter(|| {
            run_shard(
                black_box(&soc),
                black_box(&vi),
                &grid,
                Shard::new(0, 3).unwrap(),
                &cfg,
            )
        })
    });
    group.finish();
}

/// Median wall time of `samples` runs of `f`.
fn median_secs<O>(samples: usize, mut f: impl FnMut() -> O) -> f64 {
    black_box(f()); // warm-up, untimed
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2].as_secs_f64()
}

fn bench_shards_vs_single(_c: &mut Criterion) {
    // The acceptance measurement: the same fine d26 grid streamed by one
    // process vs 3 shard processes plus `merge`. Everything is measured
    // single-threaded so the numbers isolate the sharding overhead (shard
    // processes on separate machines would overlap their `max_shard` times;
    // this container has 1 CPU, so the parallel win must be read as
    // `single / (max_shard + merge)`).
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).expect("islands");
    let cfg = SynthesisConfig {
        parallel: false,
        ..SynthesisConfig::default()
    };
    let grid = SweepGrid::build(&soc, &vi, &cfg, &fine_grid_cfg());
    let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:6", cfg.seed);

    let n = if fast_mode() { 3 } else { 9 };
    let single_s = median_secs(n, || run_shard(&soc, &vi, &grid, Shard::full(), &cfg));
    let shard_s: Vec<f64> = (0..3)
        .map(|i| {
            median_secs(n, || {
                run_shard(&soc, &vi, &grid, Shard::new(i, 3).unwrap(), &cfg)
            })
        })
        .collect();
    let files: Vec<String> = (0..3)
        .map(|i| {
            let shard = Shard::new(i, 3).unwrap();
            shard_checkpoint_json(&desc, shard, &run_shard(&soc, &vi, &grid, shard, &cfg))
        })
        .collect();
    let merge_s = median_secs(n, || merge_checkpoints(&files).expect("merge"));

    // Guard the artifact: the merged frontier must equal the unsharded one.
    let merged = merge_checkpoints(&files).expect("merge");
    let direct = frontier_json(&desc, &run_shard(&soc, &vi, &grid, Shard::full(), &cfg));
    assert_eq!(merged, direct, "sharded frontier must be bit-identical");

    let max_shard_s = shard_s.iter().cloned().fold(0.0f64, f64::max);
    let sum_shard_s: f64 = shard_s.iter().sum();
    println!(
        "sweep_sharded/single_full_grid    median {:>12.3?}   ({n} samples, {} candidates)",
        Duration::from_secs_f64(single_s),
        grid.num_candidates()
    );
    println!(
        "sweep_sharded/max_of_3_shards     median {:>12.3?}   (+ merge {:>9.3?})",
        Duration::from_secs_f64(max_shard_s),
        Duration::from_secs_f64(merge_s),
    );
    let json = format!(
        "{{\n  \"bench\": \"sweep_sharded\",\n  \"soc\": \"{}\",\n  \"islands\": 6,\n  \
         \"mode\": \"single-threaded\",\n  \"history\": [\n    {{\n      \"pr\": null,\n      \
         \"samples\": {n},\n      \"grid\": {{ \"max_boost\": 1, \"freq_scales\": [1, 1.12], \
         \"max_intermediate\": 4, \"candidates\": {} }},\n      \
         \"single_full_grid_ms\": {:.3},\n      \"shard_ms\": [{:.3}, {:.3}, {:.3}],\n      \
         \"merge_ms\": {:.3},\n      \"shard_total_ms\": {:.3},\n      \
         \"projected_3proc_speedup\": {:.2},\n      \"note\": \"fresh measurement of the \
         working tree; shards run as separate processes in production, so wall time is \
         max(shard) + merge; merged frontier asserted bit-identical to the unsharded run\"\n    \
         }}\n  ]\n}}\n",
        soc.name(),
        grid.num_candidates(),
        single_s * 1e3,
        shard_s[0] * 1e3,
        shard_s[1] * 1e3,
        shard_s[2] * 1e3,
        merge_s * 1e3,
        sum_shard_s * 1e3,
        single_s / (max_shard_s + merge_s).max(1e-12),
    );
    let path = std::env::var("BENCH_SWEEP_SHARDED_JSON")
        .unwrap_or_else(|_| "BENCH_sweep_sharded.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("sweep_sharded: wrote {path}"),
        Err(e) => eprintln!("sweep_sharded: could not write {path}: {e}"),
    }
}

fn bench_refine_prune(_c: &mut Criterion) {
    // The refinement acceptance measurement: the exhaustive fine d26 grid
    // vs the frontier-guided pipeline (coarse paper grid -> refinement
    // windows around the surviving points -> slack-pruned windowed fine
    // sweep). The pipeline must evaluate at most half the chains of the
    // exhaustive run; refine_windows.rs separately proves the refined
    // frontier is byte-identical wherever the windows cover the grid.
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).expect("islands");
    let cfg = SynthesisConfig {
        parallel: false,
        ..SynthesisConfig::default()
    };
    let fine_cfg = fine_grid_cfg();
    let fine = SweepGrid::build(&soc, &vi, &cfg, &fine_cfg);
    let params = RefineParams {
        boost_radius: 1,
        base_radius: 0,
        scale_window: 0.25,
    };

    let pipeline = || {
        let coarse_grid = SweepGrid::build(&soc, &vi, &cfg, &GridConfig::default());
        let desc = GridDescriptor::for_grid(&coarse_grid, soc.name(), "logical:6", cfg.seed);
        let coarse = run_shard_pruned(&soc, &vi, &coarse_grid, Shard::full(), &cfg);
        let file = frontier_json(&desc, &coarse);
        let parsed = parse_frontier_file(&file).expect("coarse frontier");
        let seeds = frontier_seeds(&parsed).expect("frontier seeds");
        let windows = windows_from_frontier(&seeds, &fine_cfg, &params);
        let refined_grid = SweepGrid::build_windowed(&soc, &vi, &cfg, &fine_cfg, windows);
        let refined = run_shard_pruned(&soc, &vi, &refined_grid, Shard::full(), &cfg);
        (coarse, refined)
    };

    let n = if fast_mode() { 3 } else { 9 };
    let exhaustive_s = median_secs(n, || run_shard(&soc, &vi, &fine, Shard::full(), &cfg));
    let pipeline_s = median_secs(n, &pipeline);

    let exhaustive = run_shard(&soc, &vi, &fine, Shard::full(), &cfg);
    let (coarse, refined) = pipeline();
    let pipeline_chains = coarse.stats.chains + refined.stats.chains;
    let reduction = exhaustive.stats.chains as f64 / pipeline_chains.max(1) as f64;
    assert!(
        pipeline_chains * 2 <= exhaustive.stats.chains,
        "pipeline must evaluate at most half the exhaustive chains \
         ({pipeline_chains} vs {})",
        exhaustive.stats.chains
    );

    println!(
        "sweep_refine_prune/exhaustive     median {:>12.3?}   ({} chains)",
        Duration::from_secs_f64(exhaustive_s),
        exhaustive.stats.chains
    );
    println!(
        "sweep_refine_prune/pipeline       median {:>12.3?}   ({} coarse + {} refined \
         chains, {} slack-skipped, {:.2}x reduction)",
        Duration::from_secs_f64(pipeline_s),
        coarse.stats.chains,
        refined.stats.chains,
        coarse.pruned_chains + refined.pruned_chains,
        reduction
    );
    let json = format!(
        "{{\n  \"bench\": \"sweep_refine_prune\",\n  \"soc\": \"{}\",\n  \"islands\": 6,\n  \
         \"mode\": \"single-threaded\",\n  \"history\": [\n    {{\n      \"pr\": null,\n      \
         \"samples\": {n},\n      \"fine_grid\": {{ \"max_boost\": 1, \"freq_scales\": \
         [1, 1.12], \"max_intermediate\": 4, \"chains\": {} }},\n      \
         \"refine_params\": {{ \"boost_radius\": 1, \"base_radius\": 0, \"scale_window\": \
         0.25 }},\n      \"exhaustive_ms\": {:.3},\n      \"pipeline_ms\": {:.3},\n      \
         \"coarse_chains\": {},\n      \"refined_chains\": {},\n      \
         \"slack_skipped_chains\": {},\n      \"chain_reduction\": {:.2},\n      \
         \"speedup\": {:.2},\n      \"note\": \"fresh measurement of the working tree; \
         coarse paper grid -> refinement windows -> slack-pruned windowed fine sweep; \
         in-window frontier asserted byte-identical by crates/sweep/tests/refine_windows.rs\"\
         \n    }}\n  ]\n}}\n",
        soc.name(),
        exhaustive.stats.chains,
        exhaustive_s * 1e3,
        pipeline_s * 1e3,
        coarse.stats.chains,
        refined.stats.chains,
        coarse.pruned_chains + refined.pruned_chains,
        reduction,
        exhaustive_s / pipeline_s.max(1e-12),
    );
    let path = std::env::var("BENCH_SWEEP_REFINE_JSON")
        .unwrap_or_else(|_| "BENCH_sweep_refine.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("sweep_refine_prune: wrote {path}"),
        Err(e) => eprintln!("sweep_refine_prune: could not write {path}: {e}"),
    }
}

criterion_group!(
    benches,
    bench_shard_runner,
    bench_shards_vs_single,
    bench_refine_prune
);
criterion_main!(benches);
