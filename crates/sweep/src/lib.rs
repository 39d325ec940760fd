//! Sharded, streaming design-space exploration with a merging Pareto fold.
//!
//! The classic driver (`vi_noc_core::synthesize`) enumerates every
//! candidate eagerly and materializes the whole `DesignSpace` — fine for the
//! paper's ~10² candidates per SoC, a dead end for production-scale sweeps.
//! This crate turns the sweep into a subsystem that scales across processes
//! and machines while staying *exact*:
//!
//! * [`SweepGrid`] — lazy candidate enumeration over axes finer than the
//!   paper's global `(i, k)` pair: per-island switch-count boosts and
//!   alternative (overclocked) frequency plans on top of the base schedule.
//!   Grids of 10⁴–10⁵ candidates are addressed by index, never materialized.
//! * [`Shard`] — deterministic round-robin striping of the grid's *chains*
//!   (not candidates), keeping PR 2's warm-start sharing intact inside each
//!   stripe.
//! * [`run_deltas`] — the one chain loop: evaluates a sequence of chain
//!   ids through `vi_noc_core::evaluate_candidate_chain` from a watermark
//!   on, folds outcomes into a bounded-memory [`vi_noc_core::ParetoFold`]
//!   the moment they complete, and emits a [`RangeDelta`] (counters +
//!   serialized frontier entries) every `every` positions. With `prune`
//!   set, boosted chains whose zero-boost reference certifies slack on
//!   every boosted island are skipped without evaluation, exactly like the
//!   closed-form caps check; pruned runs reproduce the exhaustive frontier
//!   byte for byte.
//! * [`ShardProgress`] — the one fold record every caller absorbs deltas
//!   into. [`run_shard`] / [`run_shard_pruned`] fold a stripe as one delta;
//!   `vi-noc sweep run --checkpoint-every` writes the record after each
//!   delta, and its `chains_done` watermark lets a killed shard resume
//!   where it stopped with a byte-identical final checkpoint; the
//!   `vi-noc-fleet` coordinator folds the deltas workers stream for their
//!   [`ChainRange`] leases — any worker count, any kill/re-lease schedule —
//!   into the identical frontier bytes.
//! * [`checkpoint`] — a JSON checkpoint per shard (read and written
//!   through [`vi_noc_core::json`]) plus
//!   [`merge_checkpoints`], which combines any complete shard set into a
//!   frontier file **byte-identical** to the unsharded run's emission.
//!   Exactness rests on dominance being a strict partial order
//!   (`vi_noc_core::pareto`): survival is pairwise, so folds compose in any
//!   order and across process boundaries.
//! * [`refine`] — coarse-to-fine refinement: derive
//!   [`grid::RefineWindow`]s of a finer grid around a merged coarse
//!   frontier's surviving points and sweep only those windows
//!   ([`SweepGrid::build_windowed`]), with the windows recorded in the
//!   [`GridDescriptor`] so refined and exhaustive checkpoints never merge.
//!
//! The `vi-noc sweep` subcommand (implemented in `vi-noc-api`) exposes the
//! workflow over the grid a scenario file declares:
//!
//! ```text
//! vi-noc sweep run --scenario scenarios/d26_overclocked_fine.json --shard 0/3 --out a.json
//! vi-noc sweep run --scenario scenarios/d26_overclocked_fine.json --shard 1/3 --out b.json
//! vi-noc sweep run --scenario scenarios/d26_overclocked_fine.json --shard 2/3 --out c.json
//! vi-noc sweep merge a.json b.json c.json --out frontier.json
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod grid;
pub mod refine;
pub mod run;
pub mod shard;

pub use checkpoint::{
    entry_coords, frontier_json, merge_checkpoints, parse_frontier_file, parse_shard_checkpoint,
    shard_checkpoint_json, stats_from_value, validate_entries, windows_from_value, write_stats,
    write_window, FrontierEntryCoords, GridDescriptor, ParsedFrontier, ParsedShard,
    FRONTIER_FORMAT, SHARD_FORMAT,
};
pub use grid::{ChainSpec, GridConfig, RefineWindow, SweepGrid};
pub use refine::{
    frontier_seeds, validate_frontier_source, windows_from_frontier, FrontierSeed, RefineParams,
};
pub use run::{
    regenerate_point, run_deltas, run_shard, run_shard_pruned, RangeDelta, ShardProgress,
    SweepStats,
};
pub use shard::{ChainRange, Shard};
/// The JSON module, re-exported from `vi-noc-core` for callers that
/// import it through this crate.
pub use vi_noc_core::json;
