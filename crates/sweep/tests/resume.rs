//! Mid-shard checkpoint resume: a shard killed partway through its stripe
//! and resumed from its checkpoint file must produce a final checkpoint
//! byte-identical to an uninterrupted run's.

use vi_noc_core::SynthesisConfig;
use vi_noc_soc::{benchmarks, partition, SocSpec, ViAssignment};
use vi_noc_sweep::{
    frontier_json, merge_checkpoints, parse_shard_checkpoint, run_deltas, run_shard,
    run_shard_pruned, shard_checkpoint_json, GridConfig, GridDescriptor, Shard, ShardProgress,
    SweepGrid,
};

fn setup() -> (SocSpec, ViAssignment, SynthesisConfig, GridConfig) {
    let soc = benchmarks::d12_auto();
    let vi = partition::logical_partition(&soc, 4).unwrap();
    let cfg = SynthesisConfig::default();
    let grid_cfg = GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0],
        max_intermediate: 2,
    };
    (soc, vi, cfg, grid_cfg)
}

/// One process lifetime of a resumable shard run, as `vi-noc sweep run
/// --resume --checkpoint-every N` drives it: continue `progress` from its
/// watermark, absorbing deltas of `limit` positions, and die right after
/// the first one (`None`: run to the end of the stripe). Returns `true`
/// once the stripe is exhausted.
#[allow(clippy::too_many_arguments)]
fn resume_process(
    soc: &SocSpec,
    vi: &ViAssignment,
    grid: &SweepGrid,
    shard: Shard,
    cfg: &SynthesisConfig,
    progress: &mut ShardProgress,
    limit: Option<u64>,
    prune: bool,
) -> bool {
    let ids = shard.chain_ids(grid.num_chains());
    let from = progress.chains_done;
    let every = limit.unwrap_or(u64::MAX);
    let _ = run_deltas(soc, vi, grid, cfg, ids, from, every, prune, &mut |d| {
        progress.absorb(d);
        match limit {
            Some(_) => Err("killed".to_string()),
            None => Ok(()),
        }
    });
    progress.chains_done >= shard.stripe_len(grid.num_chains())
}

#[test]
fn kill_and_resume_reproduces_uninterrupted_bytes() {
    let (soc, vi, cfg, grid_cfg) = setup();
    let grid = SweepGrid::build(&soc, &vi, &cfg, &grid_cfg);
    let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:4", cfg.seed);

    for shard in [Shard::full(), Shard::new(1, 3).unwrap()] {
        // Reference: the one-shot runner's checkpoint.
        let run = run_shard(&soc, &vi, &grid, shard, &cfg);
        let reference = shard_checkpoint_json(&desc, shard, &run);

        // One uninterrupted resumable run matches it.
        let mut progress = ShardProgress::new();
        assert!(resume_process(
            &soc,
            &vi,
            &grid,
            shard,
            &cfg,
            &mut progress,
            None,
            false
        ));
        assert_eq!(shard_checkpoint_json(&desc, shard, &progress), reference);

        // Kill-and-resume: every 2 stripe positions the run is "killed" —
        // its state survives only as checkpoint file bytes, which a fresh
        // process parses back before continuing.
        let mut progress = ShardProgress::new();
        let mut rounds = 0;
        loop {
            let finished =
                resume_process(&soc, &vi, &grid, shard, &cfg, &mut progress, Some(2), false);
            let file = shard_checkpoint_json(&desc, shard, &progress);
            let parsed = parse_shard_checkpoint(&file).unwrap();
            assert_eq!(parsed.shard, shard);
            assert_eq!(parsed.chains_done, progress.chains_done);
            progress = parsed.to_progress();
            rounds += 1;
            if finished {
                break;
            }
        }
        assert!(rounds >= 2, "stripe long enough to actually interrupt");
        assert_eq!(
            shard_checkpoint_json(&desc, shard, &progress),
            reference,
            "shard {shard}: resumed bytes differ from uninterrupted bytes"
        );
    }
}

#[test]
fn resumed_unsharded_run_emits_the_exact_frontier_file() {
    let (soc, vi, cfg, grid_cfg) = setup();
    let grid = SweepGrid::build(&soc, &vi, &cfg, &grid_cfg);
    let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:4", cfg.seed);

    let run = run_shard(&soc, &vi, &grid, Shard::full(), &cfg);
    let reference = frontier_json(&desc, &run);

    let mut progress = ShardProgress::new();
    while !resume_process(
        &soc,
        &vi,
        &grid,
        Shard::full(),
        &cfg,
        &mut progress,
        Some(5),
        false,
    ) {}
    assert_eq!(frontier_json(&desc, &progress), reference);
}

#[test]
fn merge_rejects_partial_checkpoints() {
    let (soc, vi, cfg, grid_cfg) = setup();
    let grid = SweepGrid::build(&soc, &vi, &cfg, &grid_cfg);
    let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:4", cfg.seed);

    let shard = Shard::full();
    let mut progress = ShardProgress::new();
    let finished = resume_process(&soc, &vi, &grid, shard, &cfg, &mut progress, Some(2), false);
    assert!(!finished, "grid must be larger than the interrupt budget");
    let partial = shard_checkpoint_json(&desc, shard, &progress);
    let err = merge_checkpoints(&[partial]).unwrap_err();
    assert!(err.contains("partial"), "{err}");

    // Driven to completion, the same state merges fine.
    assert!(resume_process(
        &soc,
        &vi,
        &grid,
        shard,
        &cfg,
        &mut progress,
        None,
        false
    ));
    let complete = shard_checkpoint_json(&desc, shard, &progress);
    assert!(merge_checkpoints(&[complete]).is_ok());
}

#[test]
fn complete_checkpoints_record_the_full_watermark() {
    let (soc, vi, cfg, grid_cfg) = setup();
    let grid = SweepGrid::build(&soc, &vi, &cfg, &grid_cfg);
    let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:4", cfg.seed);
    for i in 0..2 {
        let shard = Shard::new(i, 2).unwrap();
        let run = run_shard(&soc, &vi, &grid, shard, &cfg);
        let parsed = parse_shard_checkpoint(&shard_checkpoint_json(&desc, shard, &run)).unwrap();
        assert_eq!(parsed.chains_done, shard.stripe_len(grid.num_chains()));
        assert!(parsed.is_complete().unwrap());
    }
}

/// `vi-noc sweep run --prune --resume`: a pruned shard killed after every
/// delta and resumed from its parsed checkpoint bytes skips the identical
/// chain set and ends on the one-shot pruned runner's exact file.
#[test]
fn pruned_kill_and_resume_reproduces_the_one_shot_pruned_bytes() {
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let cfg = SynthesisConfig::default();
    // The d26 fine grid of `tests/prune_exact.rs`.
    let grid_cfg = GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0, 1.12],
        max_intermediate: 4,
    };
    let grid = SweepGrid::build(&soc, &vi, &cfg, &grid_cfg);
    let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:6", cfg.seed);

    for (shard, skipped) in [(Shard::full(), 6), (Shard::new(1, 3).unwrap(), 2)] {
        let run = run_shard_pruned(&soc, &vi, &grid, shard, &cfg);
        assert_eq!(run.pruned_chains, skipped, "shard {shard}: pruning fires");
        let reference = shard_checkpoint_json(&desc, shard, &run);

        let mut progress = ShardProgress::new();
        let mut rounds = 0;
        loop {
            let finished =
                resume_process(&soc, &vi, &grid, shard, &cfg, &mut progress, Some(50), true);
            let file = shard_checkpoint_json(&desc, shard, &progress);
            let parsed = parse_shard_checkpoint(&file).unwrap();
            assert_eq!(parsed.chains_done, progress.chains_done);
            progress = parsed.to_progress();
            rounds += 1;
            if finished {
                break;
            }
        }
        assert_eq!(
            rounds,
            shard.stripe_len(grid.num_chains()).div_ceil(50),
            "shard {shard}: one process per delta"
        );
        assert_eq!(
            shard_checkpoint_json(&desc, shard, &progress),
            reference,
            "shard {shard}: resumed pruned bytes differ from the one-shot pruned run"
        );
    }
}
