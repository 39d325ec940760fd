//! Shard/merge exactness: the whole point of the sharded sweep is that
//! splitting the grid across processes changes *nothing*. These tests pin
//! `merge(shards(n)) == unsharded run`, byte for byte at the file level and
//! key for key in memory, for shard counts that do and do not divide the
//! grid size — golden on the bundled benchmarks, property-based on random
//! synthetic SoCs.

use proptest::prelude::*;
use vi_noc_core::SynthesisConfig;
use vi_noc_soc::{benchmarks, partition, SocSpec, ViAssignment};
use vi_noc_sweep::{
    frontier_json, merge_checkpoints, run_shard, shard_checkpoint_json, GridConfig, GridDescriptor,
    Shard, SweepGrid, SweepStats,
};

fn descriptor(
    spec: &SocSpec,
    tag: &str,
    grid: &SweepGrid,
    cfg: &SynthesisConfig,
) -> GridDescriptor {
    GridDescriptor::for_grid(grid, spec.name(), tag, cfg.seed)
}

/// Runs the grid unsharded and as `n` shard processes would, asserts the
/// merged frontier file equals the unsharded emission byte for byte, and
/// returns the unsharded run's stats for additional checks.
fn check_shard_exactness(
    label: &str,
    spec: &SocSpec,
    vi: &ViAssignment,
    grid_cfg: &GridConfig,
    cfg: &SynthesisConfig,
    shard_counts: &[u64],
) -> SweepStats {
    let grid = SweepGrid::build(spec, vi, cfg, grid_cfg);
    let desc = descriptor(spec, label, &grid, cfg);
    let full = run_shard(spec, vi, &grid, Shard::full(), cfg);
    let direct = frontier_json(&desc, &full);

    for &n in shard_counts {
        let files: Vec<String> = (0..n)
            .map(|i| {
                let shard = Shard::new(i, n).unwrap();
                let run = run_shard(spec, vi, &grid, shard, cfg);
                shard_checkpoint_json(&desc, shard, &run)
            })
            .collect();
        let merged = merge_checkpoints(&files).unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
        assert_eq!(
            merged, direct,
            "{label}: merge of {n} shards differs from the unsharded frontier"
        );
    }
    full.stats
}

/// Golden: d26 at the paper's island count, on a grid ~27x finer than the
/// classic sweep (boost + a second frequency plan), split 1/2/3/7 ways.
/// 7 does not divide the chain count evenly.
#[test]
fn d26_fine_grid_shards_merge_exactly() {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let cfg = SynthesisConfig::default();
    let grid_cfg = GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0, 1.12],
        max_intermediate: 4,
    };
    let grid = SweepGrid::build(&soc, &vi, &cfg, &grid_cfg);
    let classic = vi_noc_core::SweepPlan::build(&soc, &vi, &cfg);
    assert!(
        grid.num_candidates() >= 10 * classic.len() as u64,
        "fine grid ({}) must be >= 10x the classic sweep ({})",
        grid.num_candidates(),
        classic.len()
    );
    assert!(
        grid.num_chains() % 7 != 0,
        "want a shard count that does not divide the grid"
    );
    let stats = check_shard_exactness("d26-fine", &soc, &vi, &grid_cfg, &cfg, &[1, 2, 3, 7]);
    assert!(stats.feasible > 0);
}

/// Golden: the default (paper-equivalent) grid on every suite benchmark,
/// split 3 ways.
#[test]
fn suite_default_grids_shard_exactly() {
    for (soc, k) in benchmarks::suite() {
        let vi = partition::logical_partition(&soc, k).unwrap();
        let cfg = SynthesisConfig::default();
        check_shard_exactness(soc.name(), &soc, &vi, &GridConfig::default(), &cfg, &[3]);
    }
}

/// Golden: a communication partition (retry-heavy island shapes) with a
/// boost axis, split 2 and 7 ways.
#[test]
fn communication_partition_shards_exactly() {
    let soc = benchmarks::d16_settop();
    let vi = partition::communication_partition(&soc, 4, 1).unwrap();
    let cfg = SynthesisConfig::default();
    let grid_cfg = GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0],
        max_intermediate: 3,
    };
    check_shard_exactness("d16-comm", &soc, &vi, &grid_cfg, &cfg, &[2, 7]);
}

/// Sequential and parallel shard runs emit identical checkpoint bytes (the
/// block-parallel fold is exact too).
#[test]
fn parallel_shard_checkpoints_match_sequential() {
    let soc = benchmarks::d12_auto();
    let vi = partition::logical_partition(&soc, 4).unwrap();
    let grid_cfg = GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0, 1.2],
        max_intermediate: 2,
    };
    let seq_cfg = SynthesisConfig {
        parallel: false,
        ..SynthesisConfig::default()
    };
    let par_cfg = SynthesisConfig {
        parallel: true,
        ..SynthesisConfig::default()
    };
    let grid = SweepGrid::build(&soc, &vi, &seq_cfg, &grid_cfg);
    let desc = descriptor(&soc, "d12-par", &grid, &seq_cfg);
    for i in 0..2 {
        let shard = Shard::new(i, 2).unwrap();
        let seq =
            shard_checkpoint_json(&desc, shard, &run_shard(&soc, &vi, &grid, shard, &seq_cfg));
        let par =
            shard_checkpoint_json(&desc, shard, &run_shard(&soc, &vi, &grid, shard, &par_cfg));
        assert_eq!(seq, par, "shard {shard}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: shard/merge exactness holds on random synthetic SoCs,
    /// random island counts, and random grid axes.
    #[test]
    fn random_socs_shard_and_merge_exactly(
        n_cores in 6usize..14,
        seed in 0u64..32,
        k in 2usize..5,
        max_boost in 0usize..2,
        second_scale in 0usize..3,
    ) {
        let spec = vi_noc_soc::generate_synthetic(&vi_noc_soc::SyntheticConfig {
            n_cores,
            seed,
            ..vi_noc_soc::SyntheticConfig::default()
        });
        let Ok(vi) = partition::logical_partition(&spec, k) else {
            return Ok(());
        };
        let mut freq_scales = vec![1.0];
        if second_scale > 0 {
            freq_scales.push(1.0 + 0.1 * second_scale as f64);
        }
        let grid_cfg = GridConfig {
            max_boost,
            freq_scales,
            max_intermediate: 2,
        };
        let cfg = SynthesisConfig::default();
        check_shard_exactness(
            &format!("synthetic n={n_cores} seed={seed} k={k}"),
            &spec,
            &vi,
            &grid_cfg,
            &cfg,
            &[2, 3],
        );
    }
}
