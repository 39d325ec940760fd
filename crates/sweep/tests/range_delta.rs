//! Differential proof of the lease/delta machinery: folding the streamed
//! [`RangeDelta`]s of *any* covering set of chain ranges — any chunking,
//! any delta granularity, any interleaving, resumed from any watermark —
//! reproduces the unsharded shard runner's frontier and stats exactly,
//! down to the emitted frontier file bytes. This is the invariant the
//! fleet coordinator's elastic re-leasing rests on.

use vi_noc_core::{ParetoFold, SynthesisConfig};
use vi_noc_soc::{benchmarks, partition, SocSpec, ViAssignment};
use vi_noc_sweep::{
    frontier_json, run_deltas, run_shard, run_shard_pruned, ChainRange, GridConfig, GridDescriptor,
    RangeDelta, Shard, ShardProgress, SweepGrid,
};

fn setup() -> (SocSpec, ViAssignment, SynthesisConfig, SweepGrid) {
    let soc = benchmarks::d12_auto();
    let vi = partition::logical_partition(&soc, 4).unwrap();
    let cfg = SynthesisConfig::default();
    let grid_cfg = GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0, 1.1],
        max_intermediate: 2,
    };
    let grid = SweepGrid::build(&soc, &vi, &cfg, &grid_cfg);
    (soc, vi, cfg, grid)
}

/// Folds every delta of every range in `ranges` (cut at `every` positions
/// per delta) into one progress value, like the coordinator does.
fn fold_coverage(
    soc: &SocSpec,
    vi: &ViAssignment,
    cfg: &SynthesisConfig,
    grid: &SweepGrid,
    ranges: &[ChainRange],
    every: u64,
    prune: bool,
) -> ShardProgress {
    let mut progress = ShardProgress::new();
    for &range in ranges {
        let mut emit = |d: RangeDelta| {
            assert!(d.taken >= 1 && d.taken <= every.max(1), "delta sizing");
            progress.absorb(d);
            Ok(())
        };
        let ids = range.chain_ids();
        run_deltas(soc, vi, grid, cfg, ids, 0, every, prune, &mut emit).unwrap();
    }
    progress
}

#[test]
fn any_range_cut_and_delta_granularity_reproduces_the_full_frontier_bytes() {
    let (soc, vi, cfg, grid) = setup();
    let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:4", cfg.seed);
    let full = run_shard(&soc, &vi, &grid, Shard::full(), &cfg);
    let want = frontier_json(&desc, &full);

    for chunk in [1u64, 3, 7, grid.num_chains()] {
        for every in [1u64, 2, 5, 64] {
            let ranges = ChainRange::cut(grid.num_chains(), chunk);
            let progress = fold_coverage(&soc, &vi, &cfg, &grid, &ranges, every, false);
            assert_eq!(progress.chains_done, grid.num_chains());
            assert_eq!(progress.stats, full.stats, "chunk={chunk} every={every}");
            assert_eq!(
                frontier_json(&desc, &progress),
                want,
                "chunk={chunk} every={every}: delta folds must be byte-identical"
            );
        }
    }
}

#[test]
fn pruned_deltas_reproduce_the_pruned_runner_exactly() {
    let (soc, vi, cfg, grid) = setup();
    let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:4", cfg.seed);
    let pruned = run_shard_pruned(&soc, &vi, &grid, Shard::full(), &cfg);
    let want = frontier_json(&desc, &pruned);

    let ranges = ChainRange::cut(grid.num_chains(), 5);
    let progress = fold_coverage(&soc, &vi, &cfg, &grid, &ranges, 2, true);
    assert_eq!(progress.stats, pruned.stats);
    assert_eq!(frontier_json(&desc, &progress), want);

    // And the pruned frontier *entries* equal the unpruned ones (pruning
    // only moves counters) — the cross-check the CI smoke pins end to end.
    let unpruned = fold_coverage(&soc, &vi, &cfg, &grid, &ranges, 2, false);
    let strip = |s: &str| s.split("\n\"frontier\":[").nth(1).unwrap().to_string();
    assert_eq!(
        strip(&frontier_json(&desc, &progress)),
        strip(&frontier_json(&desc, &unpruned))
    );
}

#[test]
fn a_reissued_range_resumed_from_its_watermark_loses_nothing() {
    // Simulates a worker death: the first worker streams deltas up to an
    // acked watermark and dies; the range is re-leased `from` that
    // watermark. The combined fold must equal the uninterrupted run.
    let (soc, vi, cfg, grid) = setup();
    let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:4", cfg.seed);
    let full = run_shard(&soc, &vi, &grid, Shard::full(), &cfg);
    let want = frontier_json(&desc, &full);

    let ranges = ChainRange::cut(grid.num_chains(), 11);
    for killed_after in [0u64, 1, 2] {
        let mut progress = ShardProgress::new();
        for &range in &ranges {
            // First lease: the worker dies after `killed_after` acked
            // deltas; unacked work is discarded by construction (a delta
            // is folded only when emit succeeds — here: when we keep it).
            let mut acked = 0u64;
            let mut watermark = 0u64;
            let mut emit = |d: RangeDelta| {
                if acked == killed_after {
                    return Err("worker killed".to_string());
                }
                watermark = d.from + d.taken;
                progress.absorb(d);
                acked += 1;
                Ok(())
            };
            let ids = range.chain_ids();
            let died = run_deltas(&soc, &vi, &grid, &cfg, ids, 0, 3, false, &mut emit).is_err();
            assert_eq!(died, watermark < range.len(), "kill schedule sanity");
            // Re-lease from the acked watermark (the fleet's re-issue).
            let mut emit = |d: RangeDelta| {
                assert!(
                    d.from >= watermark,
                    "re-issued lease starts at the watermark"
                );
                progress.absorb(d);
                Ok(())
            };
            let ids = range.chain_ids();
            run_deltas(&soc, &vi, &grid, &cfg, ids, watermark, 3, false, &mut emit).unwrap();
        }
        assert_eq!(progress.chains_done, grid.num_chains());
        assert_eq!(progress.stats, full.stats, "killed_after={killed_after}");
        assert_eq!(
            frontier_json(&desc, &progress),
            want,
            "killed_after={killed_after}: kill + re-lease must be byte-exact"
        );
    }
}

#[test]
fn delta_entries_survive_a_wire_round_trip_byte_for_byte() {
    // Entries crossing the fleet wire are parsed into a JSON value and
    // re-serialized by the coordinator; the writers are parse→write fixed
    // points, so no byte may change.
    let (soc, vi, cfg, grid) = setup();
    let range = ChainRange::full(grid.num_chains());
    let mut entries: Vec<(vi_noc_core::ParetoKey, String)> = Vec::new();
    let mut emit = |d: RangeDelta| {
        entries.extend(d.entries);
        Ok(())
    };
    let ids = range.chain_ids();
    run_deltas(&soc, &vi, &grid, &cfg, ids, 0, 7, false, &mut emit).unwrap();
    assert!(!entries.is_empty());
    let mut fold: ParetoFold<String> = ParetoFold::new();
    for (key, entry) in entries {
        let round_tripped = vi_noc_core::json::parse(&entry).unwrap().to_json();
        assert_eq!(round_tripped, entry, "entry bytes survive parse→write");
        fold.offer(key, entry);
    }
    let full = run_shard(&soc, &vi, &grid, Shard::full(), &cfg);
    assert_eq!(fold.len(), full.frontier.len());
}
