//! The JSON checkpoint format: one file per shard, merged into a frontier
//! file that is byte-identical to the unsharded run's emission.
//!
//! Byte-identity is engineered, not hoped for: every writer in the pipeline
//! (the struct writers here, [`vi_noc_core::write_design_point`] for
//! embedded points, and the [`Value`] re-writer `merge` uses) goes through
//! [`vi_noc_core::json`], which emits a fixed key order, a fixed layout and
//! shortest-round-trip numbers — so `write(parse(write(x))) == write(x)`
//! byte for byte, and a frontier assembled from parsed shard files equals
//! the frontier written directly from the in-memory run.

use crate::grid::RefineWindow;
use crate::run::{FrontierPoint, ShardProgress, SweepStats};
use crate::shard::Shard;
use std::borrow::Borrow;
use std::collections::BTreeSet;
use vi_noc_core::json::{self, Obj, Value};
use vi_noc_core::{write_design_point, ParetoFold, ParetoKey};

/// `format` tag of shard checkpoint files.
pub const SHARD_FORMAT: &str = "vi-noc-sweep-shard-v1";
/// `format` tag of merged frontier files.
pub const FRONTIER_FORMAT: &str = "vi-noc-sweep-frontier-v1";

/// Everything that identifies a grid run, echoed into every shard file so
/// `merge` can refuse to combine shards of different sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct GridDescriptor {
    /// Benchmark/spec name the sweep ran over.
    pub spec_name: String,
    /// Number of voltage islands.
    pub island_count: usize,
    /// Free-form partition tag (e.g. `logical:6`).
    pub partition: String,
    /// The synthesis seed (drives the min-cut partitioner).
    pub seed: u64,
    /// Grid axis: largest per-island switch-count boost.
    pub max_boost: usize,
    /// Grid axis: frequency-plan scale factors.
    pub freq_scales: Vec<f64>,
    /// Grid axis: largest intermediate-island switch count.
    pub max_intermediate: usize,
    /// Total chain ids of the grid (sharding-invariant).
    pub num_chains: u64,
    /// Refinement windows of a windowed (refined) grid; empty for a full
    /// grid. Serialized only when non-empty, so pre-refinement files keep
    /// their exact bytes — and because `merge` compares grids structurally,
    /// a coarse checkpoint (no `windows` member), a refined one, and a
    /// differently-windowed one can never merge.
    pub windows: Vec<RefineWindow>,
}

impl GridDescriptor {
    /// Builds the descriptor of `grid` (the canonical way — axis fields are
    /// taken from the grid itself, so e.g. the *effective* intermediate
    /// bound is recorded: a grid built under `allow_intermediate_vi: false`
    /// describes itself with `max_intermediate: 0` and can never be merged
    /// with shards of the unrestricted grid).
    pub fn for_grid(
        grid: &crate::grid::SweepGrid,
        spec_name: &str,
        partition: &str,
        seed: u64,
    ) -> Self {
        GridDescriptor {
            spec_name: spec_name.to_string(),
            island_count: grid.vcgs().len(),
            partition: partition.to_string(),
            seed,
            max_boost: grid.config().max_boost,
            freq_scales: grid.config().freq_scales.clone(),
            max_intermediate: (grid.chain_len() - 1) as usize,
            num_chains: grid.num_chains(),
            windows: grid.windows().to_vec(),
        }
    }

    /// Serializes the descriptor as one compact JSON object. The `windows`
    /// member is emitted only when non-empty — descriptors of full grids
    /// keep their pre-refinement bytes exactly.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let mut o = Obj::new(&mut s);
        o.str("spec_name", &self.spec_name)
            .num("island_count", self.island_count)
            .str("partition", &self.partition)
            .num("seed", self.seed)
            .num("max_boost", self.max_boost);
        json::array(o.key("freq_scales"), &self.freq_scales, |out, &x| {
            json::num(out, x)
        });
        o.num("max_intermediate", self.max_intermediate)
            .num("num_chains", self.num_chains);
        if !self.windows.is_empty() {
            json::array(o.key("windows"), &self.windows, write_window);
        }
        o.end();
        s
    }
}

/// Writes one refinement window of a grid descriptor as a compact JSON
/// object.
fn write_window(out: &mut String, w: &RefineWindow) {
    let mut o = Obj::new(out);
    json::array(o.key("scales"), &w.scales, |out, &i| json::num(out, i));
    o.num("base_lo", w.base_lo)
        .num("base_hi", w.base_hi)
        .num("boost_lo", w.boost_lo)
        .num("boost_hi", w.boost_hi)
        .end();
}

/// Writes the counters object used in checkpoint/frontier files and in
/// fleet delta messages.
pub fn write_stats(out: &mut String, s: &SweepStats) {
    Obj::new(out)
        .num("chains", s.chains)
        .num("inactive_chains", s.inactive_chains)
        .num("feasible", s.feasible)
        .num("duplicates", s.duplicates)
        .num("infeasible", s.infeasible)
        .end();
}

/// Serializes one frontier entry: the dominance key fields first (so
/// `merge` can fold without touching the payload), then the chain
/// provenance, then the full design point.
pub(crate) fn frontier_entry_json(fp: &FrontierPoint) -> String {
    let mut s = String::new();
    let mut o = Obj::new(&mut s);
    o.num("ordinal", fp.ordinal)
        .num("power_mw", fp.point.metrics.noc_dynamic_power().mw())
        .num("latency_cycles", fp.point.metrics.avg_latency_cycles)
        .num("chain_id", fp.chain_id)
        .num("scale", fp.scale);
    json::array(o.key("boosts"), &fp.boosts, |out, &b| json::num(out, b));
    write_design_point(o.key("point"), &fp.point);
    o.end();
    s
}

/// Shared file layout of shard and frontier files: top-level members one
/// per line, frontier entries one per line. Shard files carry their stripe
/// and the `chains_done` resume watermark — stripe positions already
/// folded into the file; frontier files carry neither.
fn file_json<T>(
    format: &str,
    grid_json: &str,
    stripe: Option<(Shard, u64)>,
    stats: &SweepStats,
    entries: impl IntoIterator<Item = T>,
    entry: impl FnMut(&mut String, T),
) -> String {
    let mut s = String::new();
    let mut o = Obj::lines(&mut s);
    o.str("format", format).raw("grid", grid_json);
    if let Some((sh, done)) = stripe {
        Obj::new(o.key("shard"))
            .num("index", sh.index)
            .num("count", sh.count)
            .end();
        o.num("chains_done", done);
    }
    write_stats(o.key("stats"), stats);
    json::lines(o.key("frontier"), entries, entry);
    o.end();
    s.push('\n');
    s
}

/// Entries of a fold, sorted by dominance key (the payloads are already
/// serialized).
fn sorted_entries(frontier: &ParetoFold<String>) -> impl Iterator<Item = String> {
    frontier.clone().into_sorted().into_iter().map(|(_, e)| e)
}

/// Serializes a shard run's (possibly partial) checkpoint file: the
/// stripe, the `chains_done` watermark, the counters and the frontier of
/// `progress`.
pub fn shard_checkpoint_json(
    desc: &GridDescriptor,
    shard: Shard,
    progress: &ShardProgress,
) -> String {
    file_json(
        SHARD_FORMAT,
        &desc.to_json(),
        Some((shard, progress.chains_done)),
        &progress.stats,
        sorted_entries(&progress.frontier),
        |out, e| json::raw(out, &e),
    )
}

/// Serializes a frontier file directly from an unsharded run's fold
/// record — byte-identical to merging that run's (or any complete shard
/// set's) checkpoint files.
pub fn frontier_json(desc: &GridDescriptor, progress: &ShardProgress) -> String {
    file_json(
        FRONTIER_FORMAT,
        &desc.to_json(),
        None,
        &progress.stats,
        sorted_entries(&progress.frontier),
        |out, e| json::raw(out, &e),
    )
}

/// A parsed shard checkpoint, payloads kept as raw JSON values.
#[derive(Debug, Clone)]
pub struct ParsedShard {
    /// The grid descriptor, unparsed (compared structurally by `merge`).
    pub grid: Value,
    /// Which stripe this file covers.
    pub shard: Shard,
    /// Resume watermark: stripe positions folded into the file, at most
    /// the stripe's length.
    pub chains_done: u64,
    /// The shard's counters.
    pub stats: SweepStats,
    /// Frontier entries: dominance key + the full entry value.
    pub entries: Vec<(ParetoKey, Value)>,
}

impl ParsedShard {
    /// Total chain ids of the grid this checkpoint describes.
    pub fn num_chains(&self) -> Result<u64, String> {
        self.grid.u64_member("num_chains", "grid")
    }

    /// `true` iff the checkpoint covers its whole stripe.
    pub fn is_complete(&self) -> Result<bool, String> {
        Ok(self.chains_done == self.shard.stripe_len(self.num_chains()?))
    }

    /// Reconstructs the resumable run state this checkpoint froze, with
    /// every frontier entry re-serialized to its original bytes (the
    /// writers are parse→write fixed points, so resuming from a file loses
    /// nothing).
    pub fn to_progress(&self) -> ShardProgress {
        let mut frontier = ParetoFold::new();
        for (key, entry) in &self.entries {
            frontier.offer(*key, entry.to_json());
        }
        ShardProgress {
            chains_done: self.chains_done,
            stats: self.stats,
            // The advisory pruned-chain counter is per-process and not
            // serialized; a resumed run restarts it at zero.
            pruned_chains: 0,
            frontier,
        }
    }
}

/// Parses the counters object of a checkpoint, frontier file, or fleet
/// delta message (the inverse of [`write_stats`]).
///
/// # Errors
///
/// Missing or non-integer counter members.
pub fn stats_from_value(stats_v: &Value) -> Result<SweepStats, String> {
    Ok(SweepStats {
        chains: stats_v.u64_member("chains", "stats")?,
        inactive_chains: stats_v.u64_member("inactive_chains", "stats")?,
        feasible: stats_v.u64_member("feasible", "stats")?,
        duplicates: stats_v.u64_member("duplicates", "stats")?,
        infeasible: stats_v.u64_member("infeasible", "stats")?,
    })
}

/// Parses one refinement-window object of a serialized grid descriptor.
fn window_from_value(v: &Value, ctx: &str) -> Result<RefineWindow, String> {
    let scales = match v.member("scales", ctx)? {
        Value::Arr(xs) => xs
            .iter()
            .map(|x| {
                x.as_u64()
                    .map(|u| u as usize)
                    .ok_or_else(|| format!("{ctx}: window scale is not an unsigned integer"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(format!("{ctx}: 'scales' is not an array")),
    };
    Ok(RefineWindow {
        scales,
        base_lo: v.usize_member("base_lo", ctx)?,
        base_hi: v.usize_member("base_hi", ctx)?,
        boost_lo: v.usize_member("boost_lo", ctx)?,
        boost_hi: v.usize_member("boost_hi", ctx)?,
    })
}

/// Validates every frontier entry against the serialized grid descriptor
/// and returns `(dominance key, entry)` pairs.
///
/// Checks per entry, each failing with a `frontier[i]:` path context:
///
/// * the fold key bit-matches the embedded point's metrics (tamper check);
/// * `boosts` is an integer array of exactly `island_count` elements;
/// * `chain_id` is within the grid's id space and `ordinal` belongs to
///   that chain (`ordinal / chain_len == chain_id`);
/// * on windowed grids, the entry's `(scale, sweep_index, boosts)`
///   coordinate lies inside at least one refinement window.
///
/// Shared by the checkpoint/frontier parsers here, which pass the parsed
/// entries by value, and the fleet coordinator, which runs the same checks
/// on every streamed delta by reference before folding it.
///
/// # Errors
///
/// The first failing check, as a path-contexted message.
pub fn validate_entries<V: Borrow<Value>>(
    frontier: impl IntoIterator<Item = V>,
    grid: &Value,
) -> Result<Vec<(ParetoKey, V)>, String> {
    let island_count = grid.usize_member("island_count", "grid")?;
    let num_chains = grid.u64_member("num_chains", "grid")?;
    let chain_len = grid.u64_member("max_intermediate", "grid")? + 1;
    let freq_scales: Vec<f64> = match grid.member("freq_scales", "grid")? {
        Value::Arr(xs) => xs
            .iter()
            .map(|x| x.as_f64().ok_or("grid: freq_scale is not a number"))
            .collect::<Result<_, _>>()?,
        _ => return Err("grid: 'freq_scales' is not an array".to_string()),
    };
    let windows: Option<Vec<RefineWindow>> = match grid.get("windows") {
        None => None,
        Some(Value::Arr(ws)) => Some(
            ws.iter()
                .map(|w| window_from_value(w, "grid windows"))
                .collect::<Result<_, _>>()?,
        ),
        Some(_) => return Err("grid: 'windows' is not an array".to_string()),
    };

    let mut entries = Vec::new();
    for (i, item) in frontier.into_iter().enumerate() {
        let entry = item.borrow();
        let ctx = format!("frontier[{i}]");
        let key = ParetoKey {
            power_mw: entry.f64_member("power_mw", &ctx)?,
            latency_cycles: entry.f64_member("latency_cycles", &ctx)?,
            ordinal: entry.u64_member("ordinal", &ctx)?,
        };
        // Cross-check the fold key against the embedded point's metrics —
        // a mismatch means the file was edited or truncated.
        let point = entry.member("point", &ctx)?;
        let metrics = point.member("metrics", &ctx)?;
        let total = metrics
            .member("power_mw", &ctx)?
            .f64_member("total", &ctx)?;
        let lat = metrics.f64_member("avg_latency_cycles", &ctx)?;
        if total.to_bits() != key.power_mw.to_bits()
            || lat.to_bits() != key.latency_cycles.to_bits()
        {
            return Err(format!("{ctx}: key fields disagree with point metrics"));
        }
        let boosts: Vec<u64> = match entry.member("boosts", &ctx)? {
            Value::Arr(bs) => bs
                .iter()
                .map(|b| {
                    b.as_u64()
                        .ok_or_else(|| format!("{ctx}: boost is not an unsigned integer"))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err(format!("{ctx}: 'boosts' is not an array")),
        };
        if boosts.len() != island_count {
            return Err(format!(
                "{ctx}: boosts arity {} does not match the grid's island_count {island_count}",
                boosts.len()
            ));
        }
        let chain_id = entry.u64_member("chain_id", &ctx)?;
        if chain_id >= num_chains {
            return Err(format!(
                "{ctx}: chain_id {chain_id} is outside the grid's {num_chains} chains"
            ));
        }
        if key.ordinal / chain_len != chain_id {
            return Err(format!(
                "{ctx}: ordinal {} does not belong to chain {chain_id} (chain length {chain_len})",
                key.ordinal
            ));
        }
        if let Some(windows) = &windows {
            let scale = entry.f64_member("scale", &ctx)?;
            let scale_index = freq_scales
                .iter()
                .position(|&s| s.to_bits() == scale.to_bits())
                .ok_or_else(|| format!("{ctx}: scale {scale} is not a grid scale"))?;
            let sweep_index = point.usize_member("sweep_index", &ctx)?;
            let inside = windows.iter().any(|w| {
                w.scales.contains(&scale_index)
                    && (w.base_lo..=w.base_hi).contains(&sweep_index)
                    && boosts
                        .iter()
                        .all(|&b| (w.boost_lo as u64..=w.boost_hi as u64).contains(&b))
            });
            if !inside {
                return Err(format!(
                    "{ctx}: chain {chain_id} lies outside every refinement window"
                ));
            }
        }
        entries.push((key, item));
    }
    Ok(entries)
}

/// Parses and validates one shard checkpoint file: besides the per-entry
/// checks of [`validate_entries`], the `chains_done` watermark must be
/// present and at most the stripe's length.
pub fn parse_shard_checkpoint(text: &str) -> Result<ParsedShard, String> {
    let mut doc = json::parse(text).map_err(|e| e.to_string())?;
    let format = doc.str_member("format", "checkpoint")?;
    if format != SHARD_FORMAT {
        return Err(format!(
            "checkpoint: format '{format}' is not '{SHARD_FORMAT}'"
        ));
    }
    let shard_v = doc.member("shard", "checkpoint")?;
    let shard = Shard::new(
        shard_v.u64_member("index", "shard")?,
        shard_v.u64_member("count", "shard")?,
    )?;
    let chains_done = doc.u64_member("chains_done", "checkpoint")?;
    let stats = stats_from_value(doc.member("stats", "checkpoint")?)?;
    let grid = doc.take_member("grid", "checkpoint")?;
    let stripe_len = shard.stripe_len(grid.u64_member("num_chains", "grid")?);
    if chains_done > stripe_len {
        return Err(format!(
            "checkpoint: chains_done {chains_done} is above the {stripe_len} chains of shard \
             {shard}"
        ));
    }
    let frontier = match doc.take_member("frontier", "checkpoint")? {
        Value::Arr(items) => items,
        _ => return Err("checkpoint: 'frontier' is not an array".to_string()),
    };
    let entries = validate_entries(frontier, &grid)?;
    Ok(ParsedShard {
        grid,
        shard,
        chains_done,
        stats,
        entries,
    })
}

/// The grid coordinates and recorded key fields of one frontier entry —
/// everything the dynamic-sweep subsystem needs to regenerate and
/// cross-check the embedded design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierEntryCoords {
    /// Global candidate ordinal.
    pub ordinal: u64,
    /// The chain that produced the point.
    pub chain_id: u64,
    /// Recorded dynamic power of the point, mW.
    pub power_mw: f64,
    /// Recorded average zero-load latency, cycles.
    pub latency_cycles: f64,
}

/// Extracts the coordinates of one parsed frontier entry (an element of
/// [`ParsedFrontier::entries`]).
///
/// # Errors
///
/// Missing or mistyped `ordinal` / `chain_id` / `power_mw` /
/// `latency_cycles` members, with a `frontier entry:` context.
pub fn entry_coords(entry: &Value) -> Result<FrontierEntryCoords, String> {
    let ctx = "frontier entry";
    Ok(FrontierEntryCoords {
        ordinal: entry.u64_member("ordinal", ctx)?,
        chain_id: entry.u64_member("chain_id", ctx)?,
        power_mw: entry.f64_member("power_mw", ctx)?,
        latency_cycles: entry.f64_member("latency_cycles", ctx)?,
    })
}

/// A parsed merged-frontier file — the `refine` stage's input.
#[derive(Debug, Clone)]
pub struct ParsedFrontier {
    /// The grid descriptor of the run that produced the frontier, unparsed.
    pub grid: Value,
    /// The producing run's counters.
    pub stats: SweepStats,
    /// Frontier entries: dominance key + the full entry value.
    pub entries: Vec<(ParetoKey, Value)>,
}

/// Parses and validates one frontier file (the output of
/// [`merge_checkpoints`] or [`frontier_json`]), with the same per-entry
/// checks as [`parse_shard_checkpoint`].
pub fn parse_frontier_file(text: &str) -> Result<ParsedFrontier, String> {
    let mut doc = json::parse(text).map_err(|e| e.to_string())?;
    let format = doc.str_member("format", "frontier")?;
    if format != FRONTIER_FORMAT {
        return Err(format!(
            "frontier: format '{format}' is not '{FRONTIER_FORMAT}'"
        ));
    }
    let stats = stats_from_value(doc.member("stats", "frontier")?)?;
    let grid = doc.take_member("grid", "frontier")?;
    let frontier = match doc.take_member("frontier", "frontier")? {
        Value::Arr(items) => items,
        _ => return Err("frontier: 'frontier' is not an array".to_string()),
    };
    let entries = validate_entries(frontier, &grid)?;
    Ok(ParsedFrontier {
        grid,
        stats,
        entries,
    })
}

/// Merges a complete set of shard checkpoint files into a frontier file.
///
/// Validates that every file describes the same grid, that all shard counts
/// agree, that the shard indices are exactly `0..count` (no gaps, no
/// duplicates), and that no file is a partial (resumable) checkpoint — then
/// folds all entries and re-emits the survivors. The output is
/// byte-identical to [`frontier_json`] of the unsharded run.
pub fn merge_checkpoints(files: &[String]) -> Result<String, String> {
    if files.is_empty() {
        return Err("merge needs at least one checkpoint file".to_string());
    }
    let parsed: Vec<ParsedShard> = files
        .iter()
        .enumerate()
        .map(|(i, text)| parse_shard_checkpoint(text).map_err(|e| format!("checkpoint #{i}: {e}")))
        .collect::<Result<_, _>>()?;

    let grid = parsed[0].grid.clone();
    let count = parsed[0].shard.count;
    // Sized by the files, not by `count`: a crafted count must not drive
    // an allocation.
    let mut seen = BTreeSet::new();
    let mut stats = SweepStats::default();
    let mut fold: ParetoFold<Value> = ParetoFold::new();
    for p in parsed {
        if p.grid != grid {
            return Err("checkpoints describe different grids".to_string());
        }
        if p.shard.count != count {
            return Err(format!(
                "shard counts disagree: {} vs {count}",
                p.shard.count
            ));
        }
        let idx = p.shard.index;
        if seen.contains(&idx) {
            return Err(format!("shard {idx}/{count} appears twice"));
        }
        if !p.is_complete()? {
            return Err(format!(
                "shard {idx}/{count} is a partial checkpoint ({} of {} chains) — resume it \
                 to completion before merging",
                p.chains_done,
                p.shard.stripe_len(p.num_chains()?)
            ));
        }
        seen.insert(idx);
        stats.add(&p.stats);
        for (key, entry) in p.entries {
            fold.offer(key, entry);
        }
    }
    // At most `files` indices are seen, so this scan ends within
    // `files + 1` steps.
    if let Some(missing) = (0..count).find(|i| !seen.contains(i)) {
        return Err(format!("shard {missing}/{count} is missing"));
    }

    Ok(file_json(
        FRONTIER_FORMAT,
        &grid.to_json(),
        None,
        &stats,
        fold.into_sorted(),
        |out, (_, v)| v.write(out),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{GridConfig, SweepGrid};
    use crate::run::run_shard;
    use vi_noc_core::SynthesisConfig;
    use vi_noc_soc::{benchmarks, partition};

    fn small_setup() -> (GridDescriptor, Vec<ShardProgress>, ShardProgress) {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let cfg = SynthesisConfig::default();
        let grid_cfg = GridConfig {
            max_boost: 1,
            freq_scales: vec![1.0],
            max_intermediate: 2,
        };
        let grid = SweepGrid::build(&soc, &vi, &cfg, &grid_cfg);
        let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:4", cfg.seed);
        let shards: Vec<ShardProgress> = (0..3)
            .map(|i| run_shard(&soc, &vi, &grid, Shard::new(i, 3).unwrap(), &cfg))
            .collect();
        let full = run_shard(&soc, &vi, &grid, Shard::full(), &cfg);
        (desc, shards, full)
    }

    /// The checkpoint files of the three shard runs of `small_setup`.
    fn checkpoint_files(desc: &GridDescriptor, shards: &[ShardProgress]) -> Vec<String> {
        (0..3)
            .map(|i| shard_checkpoint_json(desc, Shard::new(i, 3).unwrap(), &shards[i as usize]))
            .collect()
    }

    #[test]
    fn merge_reproduces_the_unsharded_frontier_byte_for_byte() {
        let (desc, shards, full) = small_setup();
        let files = checkpoint_files(&desc, &shards);
        let merged = merge_checkpoints(&files).unwrap();
        let direct = frontier_json(&desc, &full);
        assert_eq!(merged, direct);
        // And merging the single full checkpoint gives the same bytes too.
        let full_desc_file = shard_checkpoint_json(&desc, Shard::full(), &full);
        let merged_single = merge_checkpoints(&[full_desc_file]).unwrap();
        assert_eq!(merged_single, direct);
    }

    #[test]
    fn checkpoints_round_trip_through_the_parser() {
        let (desc, shards, _) = small_setup();
        let text = shard_checkpoint_json(&desc, Shard::new(1, 3).unwrap(), &shards[1]);
        let parsed = parse_shard_checkpoint(&text).unwrap();
        assert_eq!(parsed.shard, Shard::new(1, 3).unwrap());
        assert_eq!(parsed.stats, shards[1].stats);
        assert_eq!(parsed.entries.len(), shards[1].frontier.len());
        // The parsed grid re-serializes to the descriptor's exact bytes.
        assert_eq!(parsed.grid.to_json(), desc.to_json());
    }

    #[test]
    fn merge_rejects_incomplete_or_mismatched_shard_sets() {
        let (desc, shards, _) = small_setup();
        let files = checkpoint_files(&desc, &shards);
        // Missing shard.
        let err = merge_checkpoints(&files[..2]).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        // Duplicate shard.
        let dup = vec![files[0].clone(), files[0].clone(), files[1].clone()];
        let err = merge_checkpoints(&dup).unwrap_err();
        assert!(err.contains("twice"), "{err}");
        // Different grid.
        let mut other_desc = desc.clone();
        other_desc.seed ^= 1;
        let mut mixed = files.clone();
        mixed[2] = shard_checkpoint_json(&other_desc, Shard::new(2, 3).unwrap(), &shards[2]);
        let err = merge_checkpoints(&mixed).unwrap_err();
        assert!(err.contains("different grids"), "{err}");
        // Tampered metrics.
        let tampered = files[0].replace("\"latency_cycles\":", "\"latency_cycles\":1e9,\"x\":");
        if tampered != files[0] {
            assert!(merge_checkpoints(&[tampered]).is_err());
        }
    }
}
