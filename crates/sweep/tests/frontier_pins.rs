//! Pinned frontier files: four grids' unsharded frontier bytes, stats line
//! included, hashed with [`fnv1a64`].
//!
//! The constants were produced by the path allocator that searched a
//! materialized candidate graph with a generic Dijkstra. Every chain
//! outcome feeds the fold, so a changed allocation moves the frontier or
//! its `feasible`/`duplicates`/`infeasible` counters, and with them a pin.
//! No pin may move: a faster allocator must fold exactly the same file.

use vi_noc_core::{fnv1a64, SynthesisConfig};
use vi_noc_soc::{benchmarks, partition, SocSpec};
use vi_noc_sweep::{frontier_json, run_shard, GridConfig, GridDescriptor, Shard, SweepGrid};

/// Digest of the unsharded frontier file of `spec` under a logical
/// partition into `islands` islands, over `grid`.
fn digest(spec: &SocSpec, islands: usize, grid: GridConfig) -> u64 {
    let vi = partition::logical_partition(spec, islands).unwrap();
    let cfg = SynthesisConfig::default();
    let grid = SweepGrid::build(spec, &vi, &cfg, &grid);
    let desc =
        GridDescriptor::for_grid(&grid, spec.name(), &format!("logical:{islands}"), cfg.seed);
    fnv1a64(frontier_json(&desc, &run_shard(spec, &vi, &grid, Shard::full(), &cfg)).as_bytes())
}

fn grid(max_boost: usize, freq_scales: &[f64]) -> GridConfig {
    GridConfig {
        max_boost,
        freq_scales: freq_scales.to_vec(),
        max_intermediate: 4,
    }
}

#[test]
fn d26_fine_grid_frontier_is_pinned() {
    // The grid of `scenarios/d26_overclocked_fine.json`.
    let d = digest(&benchmarks::d26_mobile(), 6, grid(1, &[1.0, 1.12]));
    assert_eq!(d, 0x7485628eeaa44437, "{d:#018x}");
}

#[test]
fn d26_boosted_three_scale_frontier_is_pinned() {
    let d = digest(&benchmarks::d26_mobile(), 6, grid(2, &[1.0, 1.06, 1.12]));
    assert_eq!(d, 0x5e2c17050f7fb223, "{d:#018x}");
}

#[test]
fn d36_frontier_is_pinned() {
    let d = digest(&benchmarks::d36_tablet(), 7, grid(1, &[1.0, 1.12]));
    assert_eq!(d, 0x0e3b8eea0f702834, "{d:#018x}");
}

#[test]
fn d12_boosted_frontier_is_pinned() {
    let d = digest(&benchmarks::d12_auto(), 4, grid(2, &[1.0]));
    assert_eq!(d, 0xffc40fd89b14aca0, "{d:#018x}");
}
