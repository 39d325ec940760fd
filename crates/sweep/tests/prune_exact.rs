//! Dominance-pruning exactness: slack-certified skips must change *nothing*
//! about the frontier. These tests pin, golden on the bundled benchmarks and
//! property-based on random synthetic SoCs:
//!
//! * the pruned full run's frontier section is byte-identical to the
//!   unpruned run's (the stats line legitimately differs — skips count as
//!   inactive chains);
//! * merged pruned shard sets reproduce the full pruned emission byte for
//!   byte (the skip set is a pure function of the grid, never the shard);
//! * every chain the certificate skips is dominated when force-evaluated —
//!   the semantic claim behind the byte comparison.
//!
//! The certificate is deliberately conservative: the d26 fine grid's
//! frontier lives on boosted chains of its port- and capacity-stressed
//! islands, so only the unstressed islands' boost codes may ever be
//! skipped. The headline ≥2× chain reduction comes from the pruned *and
//! refined* pipeline (`tests/refine_windows.rs`), where the refinement
//! windows exclude most of the fine grid outright.

use proptest::prelude::*;
use vi_noc_core::{evaluate_candidate_chain, CandidateOutcome, PlanTable, SynthesisConfig};
use vi_noc_soc::{benchmarks, partition, SocSpec, ViAssignment};
use vi_noc_sweep::{
    frontier_json, merge_checkpoints, run_shard, run_shard_pruned, shard_checkpoint_json,
    GridConfig, GridDescriptor, Shard, ShardProgress, SweepGrid,
};

/// The frontier-entry section of a frontier file (everything from the
/// `"frontier":[` line on). Pruned and unpruned emissions agree here;
/// their stats lines differ by design.
fn frontier_entries(file: &str) -> &str {
    file.split_once("\n\"frontier\":[")
        .expect("frontier file has a frontier section")
        .1
}

/// Runs the grid unpruned and pruned, asserts frontier equality and
/// counter consistency, checks `n`-way pruned shard sets merge to the full
/// pruned emission, and returns the pruned full run for ratio checks.
fn check_prune_exactness(
    label: &str,
    spec: &SocSpec,
    vi: &ViAssignment,
    grid_cfg: &GridConfig,
    cfg: &SynthesisConfig,
    shard_counts: &[u64],
) -> ShardProgress {
    let grid = SweepGrid::build(spec, vi, cfg, grid_cfg);
    let desc = GridDescriptor::for_grid(&grid, spec.name(), label, cfg.seed);
    let full = run_shard(spec, vi, &grid, Shard::full(), cfg);
    let direct = frontier_json(&desc, &full);
    let pruned = run_shard_pruned(spec, vi, &grid, Shard::full(), cfg);
    let pruned_file = frontier_json(&desc, &pruned);

    assert_eq!(
        frontier_entries(&pruned_file),
        frontier_entries(&direct),
        "{label}: pruned frontier differs from the exhaustive frontier"
    );
    // Skips fold into the inactive counter: the chain partition is intact.
    assert_eq!(full.pruned_chains, 0, "{label}: unpruned run counted skips");
    assert_eq!(
        full.stats.chains,
        pruned.stats.chains + pruned.pruned_chains,
        "{label}: pruned + evaluated must cover every active chain"
    );
    assert_eq!(
        pruned.stats.inactive_chains,
        full.stats.inactive_chains + pruned.pruned_chains,
        "{label}: skips must count as inactive chains"
    );

    for &n in shard_counts {
        let files: Vec<String> = (0..n)
            .map(|i| {
                let shard = Shard::new(i, n).unwrap();
                let run = run_shard_pruned(spec, vi, &grid, shard, cfg);
                shard_checkpoint_json(&desc, shard, &run)
            })
            .collect();
        let merged = merge_checkpoints(&files).unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
        assert_eq!(
            merged, pruned_file,
            "{label}: merge of {n} pruned shards differs from the full pruned run"
        );
    }
    pruned
}

/// Recomputes the skip set from first principles (reference certificate per
/// `(scale, base)` block), force-evaluates every skipped chain, and asserts
/// each of its feasible points is dominated by the pruned run's frontier.
/// Also pins the recomputed skip count to [`ShardProgress::pruned_chains`].
fn check_skipped_chains_dominated(
    label: &str,
    spec: &SocSpec,
    vi: &ViAssignment,
    grid_cfg: &GridConfig,
    cfg: &SynthesisConfig,
) {
    let grid = SweepGrid::build(spec, vi, cfg, grid_cfg);
    let pruned = run_shard_pruned(spec, vi, &grid, Shard::full(), cfg);
    let mut skipped = 0u64;
    for chain_id in 0..grid.num_chains() {
        let Some(chain) = grid.chain(chain_id) else {
            continue;
        };
        if chain.boosts.iter().all(|&b| b == 0) {
            continue;
        }
        // A fresh table: nothing computed for the pruned run is reused.
        let table = PlanTable::new(grid.plan(chain.scale_index).clone(), grid.vcgs().into());
        let reference = grid.reference_candidates(chain.scale_index, chain.base_sweep_index);
        let cert = evaluate_candidate_chain(spec, vi, &table, &reference, cfg).1;
        if !cert.certifies_skip(&chain.boosts) {
            continue;
        }
        skipped += 1;
        let candidates = grid.candidates_of(&chain);
        let outcomes = evaluate_candidate_chain(spec, vi, &table, &candidates, cfg).0;
        for (k, outcome) in outcomes.into_iter().enumerate() {
            if let CandidateOutcome::Feasible(point) = outcome {
                let key = point.pareto_key(grid.ordinal(chain_id, k));
                assert!(
                    pruned.frontier.is_dominated(&key),
                    "{label}: skipped chain {chain_id} candidate {k} is NOT dominated \
                     (key {key:?}) — the slack certificate over-promised"
                );
            }
        }
    }
    assert_eq!(
        skipped, pruned.pruned_chains,
        "{label}: independently recomputed skip set disagrees with the runner"
    );
}

fn fine_grid() -> GridConfig {
    GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0, 1.12],
        max_intermediate: 4,
    }
}

/// Golden: d26 at the paper's island count on the fine grid, split
/// 2/3/7 ways, with a guarantee that the certificate actually fires.
#[test]
fn d26_fine_grid_prunes_exactly() {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let cfg = SynthesisConfig::default();
    let pruned = check_prune_exactness("d26-fine", &soc, &vi, &fine_grid(), &cfg, &[2, 3, 7]);
    assert!(pruned.pruned_chains > 0, "d26-fine: nothing was pruned");
}

/// Golden: the largest benchmark (d36) with a boost axis.
#[test]
fn d36_grid_prunes_exactly() {
    let soc = benchmarks::d36_tablet();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let cfg = SynthesisConfig::default();
    let grid_cfg = GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0],
        max_intermediate: 3,
    };
    check_prune_exactness("d36", &soc, &vi, &grid_cfg, &cfg, &[3]);
}

/// Golden: a communication partition (retry-heavy island shapes, the
/// adversarial case for slack certification).
#[test]
fn communication_partition_prunes_exactly() {
    let soc = benchmarks::d16_settop();
    let vi = partition::communication_partition(&soc, 4, 1).unwrap();
    let cfg = SynthesisConfig::default();
    let grid_cfg = GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0],
        max_intermediate: 3,
    };
    check_prune_exactness("d16-comm", &soc, &vi, &grid_cfg, &cfg, &[2, 7]);
}

/// Golden semantic check on d26: every skipped chain is dominated when
/// force-evaluated, and the recomputed skip set matches the runner's.
#[test]
fn d26_skipped_chains_are_dominated_when_forced() {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let cfg = SynthesisConfig::default();
    check_skipped_chains_dominated("d26-fine", &soc, &vi, &fine_grid(), &cfg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: pruning is exact on random synthetic SoCs, island counts,
    /// and grid axes.
    #[test]
    fn random_socs_prune_exactly(
        n_cores in 6usize..14,
        seed in 0u64..32,
        k in 2usize..5,
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
            max_boost: 1,
            freq_scales,
            max_intermediate: 2,
        };
        let cfg = SynthesisConfig::default();
        let label = format!("synthetic n={n_cores} seed={seed} k={k}");
        check_prune_exactness(&label, &spec, &vi, &grid_cfg, &cfg, &[2, 3]);
        check_skipped_chains_dominated(&label, &spec, &vi, &grid_cfg, &cfg);
    }
}
