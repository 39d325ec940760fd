//! Coarse-to-fine refinement exactness: a refined sweep must agree with the
//! exhaustive fine sweep wherever its windows cover the grid, and its
//! checkpoints must refuse to merge with anything swept over different
//! windows.
//!
//! Together with the slack-certificate pruning (`tests/prune_exact.rs`)
//! this pins the headline pipeline — coarse sweep → windows around the
//! survivors → pruned fine sweep inside the windows — including its ≥2×
//! chain reduction against the exhaustive d26 fine grid
//! (`d26_pipeline_reduces_evaluated_chains_at_least_2x`).

use std::collections::HashSet;

use vi_noc_core::json::Value;
use vi_noc_core::SynthesisConfig;
use vi_noc_soc::{benchmarks, partition, SocSpec, ViAssignment};
use vi_noc_sweep::{
    frontier_json, frontier_seeds, merge_checkpoints, parse_frontier_file, parse_shard_checkpoint,
    run_shard, run_shard_pruned, shard_checkpoint_json, validate_frontier_source,
    windows_from_frontier, GridConfig, GridDescriptor, RefineParams, Shard, ShardProgress,
    SweepGrid,
};

const PARTITION: &str = "logical:6";

/// The d26 fine grid of `tests/prune_exact.rs`: boost axis on, two scales.
fn fine_grid() -> GridConfig {
    GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0, 1.12],
        max_intermediate: 4,
    }
}

/// The refinement parameters of the benchmarked pipeline: full boost box,
/// surviving base indices only, nearby scales.
fn pipeline_params() -> RefineParams {
    RefineParams {
        boost_radius: 1,
        base_radius: 0,
        scale_window: 0.25,
    }
}

fn frontier_entries(file: &str) -> &str {
    file.split_once("\n\"frontier\":[")
        .expect("frontier file has a frontier section")
        .1
}

/// Runs the coarse (paper) sweep and returns its frontier file + run.
fn coarse_frontier(
    spec: &SocSpec,
    vi: &ViAssignment,
    cfg: &SynthesisConfig,
) -> (String, ShardProgress) {
    let coarse = SweepGrid::build(spec, vi, cfg, &GridConfig::default());
    let desc = GridDescriptor::for_grid(&coarse, spec.name(), PARTITION, cfg.seed);
    let run = run_shard(spec, vi, &coarse, Shard::full(), cfg);
    (frontier_json(&desc, &run), run)
}

/// Derives the fine grid restricted to windows around a coarse frontier,
/// the way the CLI's `refine` stage does.
fn refined_grid(
    spec: &SocSpec,
    vi: &ViAssignment,
    cfg: &SynthesisConfig,
    coarse_file: &str,
    fine: &GridConfig,
    params: &RefineParams,
) -> SweepGrid {
    let parsed = parse_frontier_file(coarse_file).expect("coarse frontier parses");
    validate_frontier_source(&parsed, spec.name(), PARTITION, cfg.seed)
        .expect("coarse frontier matches the experiment");
    let seeds = frontier_seeds(&parsed).expect("seeds extract");
    assert!(!seeds.is_empty(), "coarse frontier has surviving points");
    let windows = windows_from_frontier(&seeds, fine, params);
    assert!(!windows.is_empty(), "windows derived");
    SweepGrid::build_windowed(spec, vi, cfg, fine, windows)
}

/// The window-relevant coordinates of one frontier entry value.
fn entry_coords(entry: &Value, fine: &GridConfig) -> (usize, usize, Vec<usize>) {
    let scale = entry.get("scale").and_then(Value::as_f64).expect("scale");
    let scale_index = fine
        .freq_scales
        .iter()
        .position(|&s| s.to_bits() == scale.to_bits())
        .expect("entry scale is a fine-grid scale");
    let sweep_index = entry
        .get("point")
        .and_then(|p| p.get("sweep_index"))
        .and_then(Value::as_usize)
        .expect("sweep_index");
    let boosts: Vec<usize> = match entry.get("boosts").expect("boosts") {
        Value::Arr(bs) => bs.iter().map(|b| b.as_usize().expect("boost")).collect(),
        _ => panic!("boosts is not an array"),
    };
    (scale_index, sweep_index, boosts)
}

/// Windows wide enough to cover the whole fine grid collapse refinement to
/// the exhaustive sweep: entry bytes, shard merges and active-chain counts
/// all coincide with the full fine run's.
#[test]
fn full_coverage_refinement_reproduces_the_exhaustive_frontier_bytes() {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let cfg = SynthesisConfig::default();
    let (coarse_file, _) = coarse_frontier(&soc, &vi, &cfg);
    let fine = fine_grid();
    let wide = RefineParams {
        boost_radius: 1,
        base_radius: 99,
        scale_window: 1.0,
    };
    let refined = refined_grid(&soc, &vi, &cfg, &coarse_file, &fine, &wide);
    let full = SweepGrid::build(&soc, &vi, &cfg, &fine);
    assert_eq!(
        refined.num_active_chains(),
        full.num_active_chains(),
        "wide windows must cover every active fine chain"
    );

    let full_desc = GridDescriptor::for_grid(&full, soc.name(), PARTITION, cfg.seed);
    let exhaustive = run_shard(&soc, &vi, &full, Shard::full(), &cfg);
    let exhaustive_file = frontier_json(&full_desc, &exhaustive);

    let refined_desc = GridDescriptor::for_grid(&refined, soc.name(), PARTITION, cfg.seed);
    let refined_run = run_shard_pruned(&soc, &vi, &refined, Shard::full(), &cfg);
    let refined_file = frontier_json(&refined_desc, &refined_run);

    assert_eq!(
        frontier_entries(&refined_file),
        frontier_entries(&exhaustive_file),
        "full-coverage refined frontier differs from the exhaustive frontier"
    );
    // Sharded refined runs still merge to the full refined emission.
    let files: Vec<String> = (0..3)
        .map(|i| {
            let shard = Shard::new(i, 3).unwrap();
            let run = run_shard_pruned(&soc, &vi, &refined, shard, &cfg);
            shard_checkpoint_json(&refined_desc, shard, &run)
        })
        .collect();
    let merged = merge_checkpoints(&files).expect("refined shards merge");
    assert_eq!(
        merged, refined_file,
        "merged refined shards differ from the full refined run"
    );
}

/// Partial windows keep the guarantee the descriptor promises: every
/// exhaustive frontier entry whose chain lies inside some window appears
/// byte-identically in the refined output. (Entries outside the windows
/// are legitimately absent — that is what refinement skips.)
#[test]
fn refined_runs_keep_every_in_window_exhaustive_frontier_point() {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let cfg = SynthesisConfig::default();
    let (coarse_file, _) = coarse_frontier(&soc, &vi, &cfg);
    let fine = fine_grid();

    let full = SweepGrid::build(&soc, &vi, &cfg, &fine);
    let full_desc = GridDescriptor::for_grid(&full, soc.name(), PARTITION, cfg.seed);
    let exhaustive = run_shard(&soc, &vi, &full, Shard::full(), &cfg);
    let exhaustive_file = frontier_json(&full_desc, &exhaustive);
    let exhaustive_parsed = parse_frontier_file(&exhaustive_file).unwrap();

    let mut covered = 0usize;
    let mut uncovered = 0usize;
    for params in [
        RefineParams::default(),
        pipeline_params(),
        RefineParams {
            boost_radius: 1,
            base_radius: 1,
            scale_window: 0.05,
        },
    ] {
        let refined = refined_grid(&soc, &vi, &cfg, &coarse_file, &fine, &params);
        let refined_desc = GridDescriptor::for_grid(&refined, soc.name(), PARTITION, cfg.seed);
        let refined_run = run_shard_pruned(&soc, &vi, &refined, Shard::full(), &cfg);
        let refined_file = frontier_json(&refined_desc, &refined_run);
        let refined_set: HashSet<String> = parse_frontier_file(&refined_file)
            .expect("refined frontier parses (incl. window validation)")
            .entries
            .iter()
            .map(|(_, v)| v.to_json())
            .collect();
        for (_, entry) in &exhaustive_parsed.entries {
            let (scale_index, sweep_index, boosts) = entry_coords(entry, &fine);
            let in_window = refined
                .windows()
                .iter()
                .any(|w| w.contains(scale_index, sweep_index, &boosts));
            if in_window {
                covered += 1;
                assert!(
                    refined_set.contains(&entry.to_json()),
                    "in-window exhaustive frontier entry missing from the refined \
                     frontier ({params:?}): {}",
                    entry.to_json()
                );
            } else {
                uncovered += 1;
            }
        }
    }
    assert!(covered > 0, "no exhaustive entry was ever inside a window");
    assert!(uncovered > 0, "every window set covered the whole frontier");
}

/// Descriptor mismatches are merge errors with path context: coarse vs
/// refined, differently-windowed, and incomplete refined shard sets must
/// all be rejected.
#[test]
fn mismatched_refinement_checkpoints_refuse_to_merge() {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let cfg = SynthesisConfig::default();
    let (coarse_file, _) = coarse_frontier(&soc, &vi, &cfg);
    let fine = fine_grid();

    let coarse = SweepGrid::build(&soc, &vi, &cfg, &GridConfig::default());
    let coarse_desc = GridDescriptor::for_grid(&coarse, soc.name(), PARTITION, cfg.seed);
    let refined_a = refined_grid(
        &soc,
        &vi,
        &cfg,
        &coarse_file,
        &fine,
        &RefineParams::default(),
    );
    let desc_a = GridDescriptor::for_grid(&refined_a, soc.name(), PARTITION, cfg.seed);
    let refined_b = refined_grid(&soc, &vi, &cfg, &coarse_file, &fine, &pipeline_params());
    let desc_b = GridDescriptor::for_grid(&refined_b, soc.name(), PARTITION, cfg.seed);

    let shard_file = |grid: &SweepGrid, desc: &GridDescriptor, i: u64, n: u64| {
        let shard = Shard::new(i, n).unwrap();
        let run = run_shard_pruned(&soc, &vi, grid, shard, &cfg);
        shard_checkpoint_json(desc, shard, &run)
    };

    // Coarse and refined shards describe different grids.
    let err = merge_checkpoints(&[
        shard_file(&coarse, &coarse_desc, 0, 2),
        shard_file(&refined_a, &desc_a, 1, 2),
    ])
    .unwrap_err();
    assert!(
        err.contains("different grids"),
        "coarse+refined merge: {err}"
    );

    // Two refinements of the same frontier with different windows differ
    // too — the windows are part of the descriptor.
    let err = merge_checkpoints(&[
        shard_file(&refined_a, &desc_a, 0, 2),
        shard_file(&refined_b, &desc_b, 1, 2),
    ])
    .unwrap_err();
    assert!(
        err.contains("different grids"),
        "differently-windowed merge: {err}"
    );

    // An incomplete refined shard set names the missing stripe.
    let err = merge_checkpoints(&[shard_file(&refined_a, &desc_a, 0, 2)]).unwrap_err();
    assert!(err.contains("shard 1/2 is missing"), "partial set: {err}");
}

/// The pipeline's chain reduction: on the d26 fine grid, the coarse →
/// refine → prune pipeline evaluates at most half the chains of the
/// exhaustive fine sweep while reproducing its frontier inside the
/// windows (previous tests).
#[test]
fn d26_pipeline_reduces_evaluated_chains_at_least_2x() {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let cfg = SynthesisConfig::default();
    let (coarse_file, coarse_run) = coarse_frontier(&soc, &vi, &cfg);
    let fine = fine_grid();

    let full = SweepGrid::build(&soc, &vi, &cfg, &fine);
    let exhaustive = run_shard(&soc, &vi, &full, Shard::full(), &cfg);

    let refined = refined_grid(&soc, &vi, &cfg, &coarse_file, &fine, &pipeline_params());
    let refined_run = run_shard_pruned(&soc, &vi, &refined, Shard::full(), &cfg);

    let pipeline = coarse_run.stats.chains + refined_run.stats.chains;
    assert!(
        pipeline * 2 <= exhaustive.stats.chains,
        "pipeline evaluated {pipeline} chains ({} coarse + {} refined, {} pruned) — \
         more than half the exhaustive fine sweep's {}",
        coarse_run.stats.chains,
        refined_run.stats.chains,
        refined_run.pruned_chains,
        exhaustive.stats.chains
    );
}

/// A base radius of `usize::MAX` must saturate the window's upper end, not
/// wrap it below the lower end (an empty window evaluates no chain): the
/// window then reaches the last base index, like any radius wider than the
/// grid.
#[test]
fn huge_base_radius_refines_like_a_wide_one() {
    let soc = benchmarks::d12_auto();
    let vi = partition::logical_partition(&soc, 4).unwrap();
    let cfg = SynthesisConfig::default();
    let coarse = SweepGrid::build(&soc, &vi, &cfg, &GridConfig::default());
    let coarse_desc = GridDescriptor::for_grid(&coarse, soc.name(), "logical:4", cfg.seed);
    let coarse_file = frontier_json(
        &coarse_desc,
        &run_shard(&soc, &vi, &coarse, Shard::full(), &cfg),
    );
    let seeds = frontier_seeds(&parse_frontier_file(&coarse_file).unwrap()).unwrap();
    let fine = fine_grid();

    let refine = |base_radius: usize| {
        let params = RefineParams {
            base_radius,
            ..RefineParams::default()
        };
        let windows = windows_from_frontier(&seeds, &fine, &params);
        let grid = SweepGrid::build_windowed(&soc, &vi, &cfg, &fine, windows);
        let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:4", cfg.seed);
        let run = run_shard(&soc, &vi, &grid, Shard::full(), &cfg);
        (run.stats, frontier_json(&desc, &run))
    };
    let (wide_stats, wide_file) = refine(100);
    let (huge_stats, huge_file) = refine(usize::MAX);
    assert_eq!(wide_stats.chains, 42);
    assert_eq!(huge_stats, wide_stats);
    assert_eq!(frontier_entries(&huge_file), frontier_entries(&wide_file));
}

/// A saturated window records the grid's last base index, not
/// `usize::MAX` (above 2^53, which the JSON reader rejects): its shard
/// checkpoints re-parse and merge to the unsharded file of any radius
/// wider than the grid, descriptor included.
#[test]
fn saturated_window_shards_parse_and_merge_like_a_wide_refinement() {
    let soc = benchmarks::d12_auto();
    let vi = partition::logical_partition(&soc, 4).unwrap();
    let cfg = SynthesisConfig::default();
    let coarse = SweepGrid::build(&soc, &vi, &cfg, &GridConfig::default());
    let coarse_desc = GridDescriptor::for_grid(&coarse, soc.name(), "logical:4", cfg.seed);
    let coarse_file = frontier_json(
        &coarse_desc,
        &run_shard(&soc, &vi, &coarse, Shard::full(), &cfg),
    );
    let seeds = frontier_seeds(&parse_frontier_file(&coarse_file).unwrap()).unwrap();
    let fine = fine_grid();
    let refine = |base_radius: usize| {
        let params = RefineParams {
            base_radius,
            ..RefineParams::default()
        };
        let windows = windows_from_frontier(&seeds, &fine, &params);
        let grid = SweepGrid::build_windowed(&soc, &vi, &cfg, &fine, windows);
        let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:4", cfg.seed);
        (grid, desc)
    };

    let (wide, wide_desc) = refine(100);
    let want = frontier_json(
        &wide_desc,
        &run_shard(&soc, &vi, &wide, Shard::full(), &cfg),
    );
    let (huge, huge_desc) = refine(usize::MAX);
    let files: Vec<String> = (0..2)
        .map(|i| {
            let shard = Shard::new(i, 2).unwrap();
            let run = run_shard(&soc, &vi, &huge, shard, &cfg);
            let file = shard_checkpoint_json(&huge_desc, shard, &run);
            parse_shard_checkpoint(&file).expect("a saturated window's checkpoint re-parses");
            file
        })
        .collect();
    assert_eq!(merge_checkpoints(&files).expect("the shards merge"), want);
}
