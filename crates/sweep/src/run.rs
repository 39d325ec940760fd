//! The sweep's one chain loop ([`run_deltas`]): evaluate a sequence of
//! chains, fold outcomes into a Pareto frontier as they complete, never
//! materialize the space, and hand the result out as deltas that every
//! caller folds into the same [`ShardProgress`] record.

use crate::grid::{ChainSpec, SweepGrid};
use crate::shard::Shard;
use rayon::prelude::*;
use std::collections::HashMap;
use vi_noc_core::{
    evaluate_candidate_chain, evaluate_candidate_chain_with_certificate, island_switch_assignment,
    CandidateOutcome, DesignPoint, ParetoFold, ParetoKey, SlackCertificate, SynthesisConfig,
};
use vi_noc_soc::{SocSpec, ViAssignment};

/// Chains evaluated per fold step: a block is fanned out over rayon (as
/// wide as `rayon::current_num_threads()`), its chain-local frontiers are
/// merged into the running fold, and everything else is dropped — so peak
/// memory is `O(block × chain frontier)`, independent of the grid size.
const PARALLEL_BLOCK: usize = 64;

/// One surviving design point with its full grid provenance.
#[derive(Debug, Clone)]
pub(crate) struct FrontierPoint {
    /// Global candidate ordinal (`chain_id * chain_len + k`): the Pareto
    /// tiebreak, stable across any sharding.
    pub(crate) ordinal: u64,
    /// The chain that produced the point.
    pub(crate) chain_id: u64,
    /// Frequency-plan scale factor of the chain.
    pub(crate) scale: f64,
    /// Per-island switch-count boosts of the chain.
    pub(crate) boosts: Vec<usize>,
    /// The design point itself (provenance fields carry the base sweep
    /// index and the boosted switch counts).
    pub(crate) point: DesignPoint,
}

impl FrontierPoint {
    /// The point's dominance key.
    fn key(&self) -> ParetoKey {
        self.point.pareto_key(self.ordinal)
    }
}

/// Evaluation counters of one shard run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Chains evaluated (active chains owned by the shard).
    pub chains: u64,
    /// Chain ids skipped because their boost vector exceeds an island cap.
    pub inactive_chains: u64,
    /// Candidates that produced a feasible design point.
    pub feasible: u64,
    /// Candidates that were provable duplicates of a smaller-`k` candidate.
    pub duplicates: u64,
    /// Candidates with no constraint-satisfying allocation.
    pub infeasible: u64,
}

impl SweepStats {
    /// Component-wise sum (used when merging shard checkpoints).
    pub fn add(&mut self, other: &SweepStats) {
        self.chains += other.chains;
        self.inactive_chains += other.inactive_chains;
        self.feasible += other.feasible;
        self.duplicates += other.duplicates;
        self.infeasible += other.infeasible;
    }

    /// Checks that these counters cover exactly `positions` chain
    /// positions, as every run's do ([`run_deltas`] counts each consumed
    /// position once, evaluated or inactive); `what` names `positions`.
    pub fn check_positions(&self, positions: u64, what: &str) -> Result<(), String> {
        if self.chains.checked_add(self.inactive_chains) == Some(positions) {
            return Ok(());
        }
        Err(format!(
            "stats count {} chains + {} inactive_chains, not {what} {positions}",
            self.chains, self.inactive_chains
        ))
    }
}

/// Memoized per-`(scale, base)` slack certificates backing the dominance
/// pruning of [`run_shard_pruned`].
///
/// For each `(scale_index, base_sweep_index)` block the oracle evaluates
/// the *reference* chain (the boost-free counts) once through
/// [`evaluate_candidate_chain_with_certificate`] and caches the resulting
/// [`SlackCertificate`]. A chain is skipped iff the certificate certifies
/// every island it boosts **and** the reference's canonical chain id is
/// active in the grid at hand (on windowed grids the dominating reference
/// can fall outside every window, in which case nothing in the block may
/// be pruned — the dominators would be missing from the fold).
///
/// The decision depends only on `(grid, chain)`, never on the shard, so
/// every shard of a pruned sweep skips the identical set and merged pruned
/// checkpoints stay consistent. Oracle evaluations are certificate-only:
/// they touch neither the stats nor the frontier (the reference chain's
/// owning shard folds it normally when its stripe position comes up).
struct SlackOracle<'a> {
    spec: &'a SocSpec,
    vi: &'a ViAssignment,
    grid: &'a SweepGrid,
    cfg: &'a SynthesisConfig,
    cache: HashMap<(usize, usize), SlackCertificate>,
}

impl SlackOracle<'_> {
    /// `true` when `chain` is provably dominated and may be skipped.
    fn should_skip(&mut self, chain: &ChainSpec) -> bool {
        if chain.boosts.iter().all(|&b| b == 0) {
            // Boost-free chains are the references everything else is
            // dominated by; they are never skipped.
            return false;
        }
        if !self.grid.windows().is_empty() {
            let canonical = self
                .grid
                .canonical_reference_id(chain.scale_index, chain.base_sweep_index);
            if self.grid.chain(canonical).is_none() {
                return false;
            }
        }
        let (spec, vi, grid, cfg) = (self.spec, self.vi, self.grid, self.cfg);
        let cert = self
            .cache
            .entry((chain.scale_index, chain.base_sweep_index))
            .or_insert_with(|| {
                let plan = grid.plan(chain.scale_index);
                let counts = grid.base_counts(chain.scale_index, chain.base_sweep_index);
                let assignment = island_switch_assignment(grid.vcgs(), plan, counts, cfg);
                let candidates =
                    grid.reference_candidates(chain.scale_index, chain.base_sweep_index);
                evaluate_candidate_chain_with_certificate(
                    spec,
                    vi,
                    plan,
                    &assignment,
                    &candidates,
                    cfg,
                )
                .1
            });
        cert.certifies_skip(&chain.boosts)
    }
}

/// Evaluates one chain and folds its feasible outcomes into a chain-local
/// frontier (at most `chain_len` entries; everything dominated is dropped
/// on the spot).
fn evaluate_chain(
    spec: &SocSpec,
    vi: &ViAssignment,
    grid: &SweepGrid,
    chain: &ChainSpec,
    cfg: &SynthesisConfig,
) -> (SweepStats, ParetoFold<FrontierPoint>) {
    let plan = grid.plan(chain.scale_index);
    let assignment = island_switch_assignment(grid.vcgs(), plan, &chain.counts, cfg);
    let candidates = grid.candidates_of(chain);
    let outcomes = evaluate_candidate_chain(spec, vi, plan, &assignment, &candidates, cfg);

    let mut stats = SweepStats {
        chains: 1,
        ..SweepStats::default()
    };
    let mut local = ParetoFold::new();
    for (k, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            CandidateOutcome::Feasible(point) => {
                stats.feasible += 1;
                let fp = FrontierPoint {
                    ordinal: grid.ordinal(chain.chain_id, k),
                    chain_id: chain.chain_id,
                    scale: chain.scale,
                    boosts: chain.boosts.clone(),
                    point: *point,
                };
                local.offer(fp.key(), fp);
            }
            CandidateOutcome::Duplicate => stats.duplicates += 1,
            CandidateOutcome::Infeasible(_) => stats.infeasible += 1,
        }
    }
    (stats, local)
}

/// Regenerates the full [`DesignPoint`] at one frontier coordinate by
/// re-evaluating its warm-start chain — the dynamic-sweep subsystem's way
/// of turning a parsed frontier entry (which carries only the serialized
/// point) back into a live topology without a topology parser.
///
/// `ordinal` must belong to `chain_id` (`ordinal / chain_len == chain_id`,
/// as [`crate::validate_entries`] guarantees for parsed files). Evaluation
/// is bit-deterministic, so the regenerated point's metrics match the
/// frontier entry's recorded key fields exactly; callers cross-check that
/// to detect a frontier paired with the wrong scenario.
///
/// # Errors
///
/// A `chain_id` outside the grid (or pointing at an inactive chain), an
/// `ordinal` outside the chain, or a candidate that did not evaluate to a
/// feasible point under this grid.
pub fn regenerate_point(
    spec: &SocSpec,
    vi: &ViAssignment,
    grid: &SweepGrid,
    cfg: &SynthesisConfig,
    chain_id: u64,
    ordinal: u64,
) -> Result<DesignPoint, String> {
    let chain = grid
        .chain(chain_id)
        .ok_or_else(|| format!("chain {chain_id} is not an active chain of the scenario's grid"))?;
    if ordinal / grid.chain_len() != chain_id {
        return Err(format!(
            "ordinal {ordinal} does not belong to chain {chain_id} (chain length {})",
            grid.chain_len()
        ));
    }
    let k = (ordinal - chain_id * grid.chain_len()) as usize;
    let plan = grid.plan(chain.scale_index);
    let assignment = island_switch_assignment(grid.vcgs(), plan, &chain.counts, cfg);
    let candidates = grid.candidates_of(&chain);
    let mut outcomes = evaluate_candidate_chain(spec, vi, plan, &assignment, &candidates, cfg);
    if k >= outcomes.len() {
        return Err(format!(
            "ordinal {ordinal} indexes candidate {k} of a {}-candidate chain",
            outcomes.len()
        ));
    }
    match outcomes.swap_remove(k) {
        CandidateOutcome::Feasible(point) => Ok(*point),
        CandidateOutcome::Duplicate => Err(format!(
            "ordinal {ordinal} is a duplicate candidate, not a frontier point"
        )),
        CandidateOutcome::Infeasible(why) => Err(format!(
            "ordinal {ordinal} is infeasible under this grid: {why}"
        )),
    }
}

/// Streams shard `shard` of `grid`: evaluates every owned chain (rayon
/// block-parallel, one chain after another at one thread) and folds
/// outcomes into a bounded-memory Pareto frontier as they complete:
/// [`run_deltas`] with the stripe as one delta.
///
/// The result is exact and sharding-invariant: because dominance is a
/// strict partial order (see [`vi_noc_core::pareto`]), merging the
/// [`ShardProgress::frontier`]s of any complete shard set — including this
/// function's own internal block merges — reproduces, bit for bit, the
/// frontier a single sequential pass over all candidates produces.
pub fn run_shard(
    spec: &SocSpec,
    vi: &ViAssignment,
    grid: &SweepGrid,
    shard: Shard,
    cfg: &SynthesisConfig,
) -> ShardProgress {
    let mut progress = ShardProgress::new();
    let ids = shard.chain_ids(grid.num_chains());
    // Absorbing cannot fail, so neither can the loop.
    let _ = run_deltas(spec, vi, grid, cfg, ids, 0, u64::MAX, false, &mut |d| {
        progress.absorb(d);
        Ok(())
    });
    progress
}

/// [`run_shard`] with slack-based dominance pruning: chains whose boosts
/// only raise islands the [`SlackCertificate`] of their boost-free
/// reference certifies as slack are skipped without evaluation, counting
/// into [`SweepStats::inactive_chains`] exactly like the caps-exceeded
/// rule (plus the advisory [`ShardProgress::pruned_chains`] counter).
///
/// Exactness contract: for any *complete* shard set, the merged pruned
/// frontier is byte-identical to the merged unpruned frontier — every
/// skipped chain's feasible points are dominated by retained points. A
/// single pruned shard's local frontier may differ from its unpruned twin
/// (the dominating reference can live in another stripe); only complete
/// sets are comparable. `crates/sweep/tests/prune_exact.rs` is the proof.
pub fn run_shard_pruned(
    spec: &SocSpec,
    vi: &ViAssignment,
    grid: &SweepGrid,
    shard: Shard,
    cfg: &SynthesisConfig,
) -> ShardProgress {
    let mut progress = ShardProgress::new();
    let ids = shard.chain_ids(grid.num_chains());
    // Absorbing cannot fail, so neither can the loop.
    let _ = run_deltas(spec, vi, grid, cfg, ids, 0, u64::MAX, true, &mut |d| {
        progress.absorb(d);
        Ok(())
    });
    progress
}

/// The one fold record of a sweep — of a shard run, a resumable checkpoint
/// and a fleet job alike: the chain positions consumed, the counters, and
/// the frontier, built by [`ShardProgress::absorb`]ing [`RangeDelta`]s.
///
/// Keeping entries as strings is what makes kill-and-resume *byte-exact*:
/// a checkpoint written mid-run, parsed after a crash and re-serialized
/// reproduces each entry's bytes verbatim (`write(parse(write(x))) ==
/// write(x)` — see [`crate::checkpoint`]), and the Pareto fold is
/// order-independent, so the resumed run's final checkpoint equals the
/// uninterrupted run's bit for bit.
#[derive(Debug, Clone, Default)]
pub struct ShardProgress {
    /// Chain positions consumed so far, counting active *and* inactive
    /// chain ids. For a shard this is the resume watermark, complete when
    /// it reaches [`crate::Shard::stripe_len`].
    pub chains_done: u64,
    /// Evaluation counters accumulated over the consumed positions.
    pub stats: SweepStats,
    /// Active chains skipped by dominance pruning in *this process* (they
    /// also count into [`SweepStats::inactive_chains`]). Advisory: callers
    /// report the skip ratio from it, but it is not serialized and is 0
    /// when progress is reparsed from a checkpoint file.
    pub pruned_chains: u64,
    /// Undominated outcomes, each as its serialized frontier entry.
    pub frontier: ParetoFold<String>,
}

impl ShardProgress {
    /// A fresh run: nothing consumed, empty frontier.
    pub fn new() -> Self {
        ShardProgress::default()
    }

    /// Folds one delta; disjoint deltas fold to the same record in any
    /// order.
    pub fn absorb(&mut self, delta: RangeDelta) {
        self.chains_done += delta.taken;
        self.stats.add(&delta.stats);
        self.pruned_chains += delta.pruned_chains;
        for (key, entry) in delta.entries {
            self.frontier.offer(key, entry);
        }
    }
}

/// One streaming checkpoint delta: the counters and surviving frontier
/// entries of chain positions `[from, from+taken)` of a [`run_deltas`]
/// stream. Deltas are disjoint, so folding every delta of chain-id
/// sequences that cover the grid exactly once reproduces the full run's
/// frontier bit for bit. Entries are serialized: the writers are
/// parse→write fixed points, so an entry that crosses the fleet wire as
/// JSON keeps its exact bytes.
#[derive(Debug, Clone)]
pub struct RangeDelta {
    /// First position the delta covers (offset into the chain-id sequence,
    /// counting active *and* inactive chain ids).
    pub from: u64,
    /// Number of positions covered; the next delta starts at
    /// `from + taken`.
    pub taken: u64,
    /// Evaluation counters of the covered positions.
    pub stats: SweepStats,
    /// Active chains of the covered positions skipped by dominance
    /// pruning; see [`ShardProgress::pruned_chains`]. Advisory: neither
    /// serialized nor sent over the fleet wire.
    pub pruned_chains: u64,
    /// Undominated outcomes of the covered positions, each as its
    /// dominance key plus its serialized frontier entry. Entries dominated
    /// *within* the interval are already dropped — exact, because every
    /// kill chain ends in a surviving witness that is included.
    pub entries: Vec<(ParetoKey, String)>,
}

/// The sweep's one chain loop. Evaluates `chain_ids` (ascending: a
/// shard's [`Shard::chain_ids`] or a lease's
/// [`ChainRange::chain_ids`](crate::ChainRange::chain_ids)) from position
/// `from` on, emitting a [`RangeDelta`] through `emit` every `every`
/// positions (the last delta may be shorter); an `Err` from `emit` aborts
/// the run and is returned verbatim. Within a delta, active chains run in
/// rayon blocks of up to `PARALLEL_BLOCK` evaluated chains, as wide as
/// `rayon::current_num_threads()`. With `prune` set, chains whose slack
/// certificate proves them dominated are skipped; the decision is a pure
/// function of `(grid, chain)`, so every split of the ids into shards,
/// leases, deltas or resumed runs skips the identical set
/// (`crates/sweep/tests/range_delta.rs` and `resume.rs` pin the bytes).
///
/// # Errors
///
/// Only errors surfaced by `emit` (the evaluation itself cannot fail).
#[allow(clippy::too_many_arguments)]
pub fn run_deltas(
    spec: &SocSpec,
    vi: &ViAssignment,
    grid: &SweepGrid,
    cfg: &SynthesisConfig,
    chain_ids: impl IntoIterator<Item = u64>,
    from: u64,
    every: u64,
    prune: bool,
    emit: &mut dyn FnMut(RangeDelta) -> Result<(), String>,
) -> Result<(), String> {
    let every = usize::try_from(every.max(1)).unwrap_or(usize::MAX);
    let skip = usize::try_from(from).unwrap_or(usize::MAX);
    let mut ids = chain_ids.into_iter().skip(skip).peekable();
    let mut oracle = prune.then_some(SlackOracle {
        spec,
        vi,
        grid,
        cfg,
        cache: HashMap::new(),
    });
    let evaluate = |chain: &ChainSpec| evaluate_chain(spec, vi, grid, chain, cfg);
    let flush = |block: &mut Vec<ChainSpec>,
                 stats: &mut SweepStats,
                 frontier: &mut ParetoFold<FrontierPoint>| {
        let results: Vec<_> = block.par_iter().map(evaluate).collect();
        for (s, local) in results {
            stats.add(&s);
            frontier.absorb(local);
        }
        block.clear();
    };

    let mut pos = from;
    while ids.peek().is_some() {
        let mut delta = RangeDelta {
            from: pos,
            taken: 0,
            stats: SweepStats::default(),
            pruned_chains: 0,
            entries: Vec::new(),
        };
        let mut frontier: ParetoFold<FrontierPoint> = ParetoFold::new();
        let mut block: Vec<ChainSpec> = Vec::with_capacity(PARALLEL_BLOCK);
        for chain_id in ids.by_ref().take(every) {
            delta.taken += 1;
            match grid.chain(chain_id) {
                Some(chain) if oracle.as_mut().is_some_and(|o| o.should_skip(&chain)) => {
                    delta.stats.inactive_chains += 1;
                    delta.pruned_chains += 1;
                }
                Some(chain) => block.push(chain),
                None => delta.stats.inactive_chains += 1,
            }
            if block.len() >= PARALLEL_BLOCK {
                flush(&mut block, &mut delta.stats, &mut frontier);
            }
        }
        flush(&mut block, &mut delta.stats, &mut frontier);
        delta.entries = frontier
            .into_sorted()
            .into_iter()
            .map(|(key, fp)| (key, crate::checkpoint::frontier_entry_json(&fp)))
            .collect();
        pos += delta.taken;
        emit(delta)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridConfig;
    use vi_noc_soc::{benchmarks, partition};

    #[test]
    fn default_grid_frontier_matches_synthesize() {
        // On the paper-equivalent grid the streaming fold must reproduce
        // `DesignSpace::pareto_front` of the classic eager sweep, point for
        // point and bit for bit.
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let cfg = SynthesisConfig::default();
        let grid = SweepGrid::build(&soc, &vi, &cfg, &GridConfig::default());
        let run = run_shard(&soc, &vi, &grid, Shard::full(), &cfg);

        let space = vi_noc_core::synthesize(&soc, &vi, &cfg).unwrap();
        let want = space.pareto_front();
        let got = run.frontier.clone().into_sorted();
        assert_eq!(got.len(), want.len());
        for ((key, entry), dp) in got.iter().zip(&want) {
            // The entry embeds the eager sweep's point verbatim, and the
            // point it regenerates to is the same value.
            let embedded = format!(",\"point\":{}}}", vi_noc_core::design_point_json(dp));
            assert!(entry.ends_with(&embedded), "{entry}");
            let coords = crate::entry_coords(&vi_noc_core::json::parse(entry).unwrap()).unwrap();
            assert_eq!(coords.ordinal, key.ordinal);
            let fp =
                regenerate_point(&soc, &vi, &grid, &cfg, coords.chain_id, key.ordinal).unwrap();
            assert_eq!(fp.sweep_index, dp.sweep_index);
            assert_eq!(fp.requested_intermediate, dp.requested_intermediate);
            assert_eq!(fp.switch_counts, dp.switch_counts);
            assert_eq!(fp.topology, dp.topology);
            assert_eq!(
                fp.metrics.noc_dynamic_power().mw(),
                dp.metrics.noc_dynamic_power().mw()
            );
            assert_eq!(fp.metrics.avg_latency_cycles, dp.metrics.avg_latency_cycles);
            assert_eq!(key.power_mw, dp.metrics.noc_dynamic_power().mw());
            assert_eq!(key.latency_cycles, dp.metrics.avg_latency_cycles);
        }
        assert_eq!(
            run.stats.feasible,
            space.points.len() as u64,
            "every feasible candidate was streamed"
        );
    }

    #[test]
    fn parallel_and_sequential_runs_agree() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let grid_cfg = GridConfig {
            max_boost: 1,
            freq_scales: vec![1.0, 1.2],
            max_intermediate: 2,
        };
        let cfg = SynthesisConfig::default();
        let grid = SweepGrid::build(&soc, &vi, &cfg, &grid_cfg);
        let at = |width| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build();
            pool.unwrap()
                .install(|| run_shard(&soc, &vi, &grid, Shard::full(), &cfg))
        };
        let (seq, par) = (at(1), at(2));
        assert_eq!(seq.stats, par.stats);
        let a = seq.frontier.into_sorted();
        let b = par.frontier.into_sorted();
        assert_eq!(a.len(), b.len());
        for ((ka, ea), (kb, eb)) in a.iter().zip(&b) {
            assert_eq!(ka.ordinal, kb.ordinal);
            assert_eq!(ka.power_mw, kb.power_mw);
            assert_eq!(ka.latency_cycles, kb.latency_cycles);
            assert_eq!(ea, eb, "entry bytes, topology included");
        }
    }

    #[test]
    fn finer_axes_strictly_extend_the_explored_space() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let cfg = SynthesisConfig::default();
        let coarse = SweepGrid::build(&soc, &vi, &cfg, &GridConfig::default());
        let fine = SweepGrid::build(
            &soc,
            &vi,
            &cfg,
            &GridConfig {
                max_boost: 2,
                freq_scales: vec![1.0, 1.15],
                ..GridConfig::default()
            },
        );
        assert!(fine.num_candidates() >= 10 * coarse.num_candidates());
        let run = run_shard(&soc, &vi, &fine, Shard::full(), &cfg);
        assert_eq!(
            run.stats.chains + run.stats.inactive_chains,
            fine.num_chains()
        );
        assert!(run.stats.feasible > 0);
        // The frontier stays bounded even though the space is 10x+ larger.
        assert!(run.frontier.len() as u64 <= run.stats.feasible);
    }
}
