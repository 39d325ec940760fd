//! The sweep grid: lazy enumeration of candidate topologies over axes finer
//! than Algorithm 1's global `(i, k)` pair.
//!
//! A grid point is identified by four coordinates:
//!
//! 1. **frequency scale** — an alternative [`FrequencyPlan`], every island
//!    clock scaled up by a factor `>= 1.0` (see [`FrequencyPlan::scaled`]);
//! 2. **base sweep index** — Algorithm 1's switch-count schedule at that
//!    plan ([`vi_noc_core::base_schedule`], the enumeration
//!    `SweepPlan::build` uses);
//! 3. **per-island boost** — extra switches added to *individual* islands on
//!    top of the base schedule, `0..=max_boost` each, capped at one switch
//!    per core (the paper only ever grows all islands in lock step; the
//!    boost axis explores the asymmetric count vectors in between);
//! 4. **intermediate count** `k` — as today, `0..=max_intermediate`.
//!
//! Coordinates 1–3 select a *chain*: the set of candidates sharing a switch
//! assignment, evaluated warm-started in ascending-`k` order exactly like
//! `synthesize` evaluates its per-sweep-index chains. Chains are numbered
//! `0..num_chains()` in mixed-radix order and decoded on demand
//! ([`SweepGrid::chain`]) — nothing proportional to the grid size is ever
//! materialized, so grids of 10⁴–10⁵ candidates (and far beyond) cost a few
//! frequency plans and base count vectors up front.
//!
//! Each frequency scale owns a [`PlanTable`]: the plan's priced flows and
//! every island's min-cut partition per switch count, each computed the
//! first time a chain of the scale needs it. Every chain, slack-oracle
//! reference chain and regenerated point of the grid shares them, for as
//! long as the grid lives (a fleet worker keeps a resolved job's grid
//! across leases). A grid that only describes itself — a coordinator
//! resolving a job for its descriptor — computes none of it.
//!
//! Every candidate owns a stable global **ordinal**
//! (`chain_id * (max_intermediate + 1) + k`) used as the Pareto tiebreak, so
//! any sharding of the chains folds to the identical frontier.

use std::sync::Arc;
use vi_noc_core::{
    base_schedule, build_vcg, FrequencyPlan, PlanTable, SweepCandidate, SynthesisConfig, Vcg,
};
use vi_noc_soc::{SocSpec, ViAssignment};

/// The grid's axis configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GridConfig {
    /// Largest per-island switch-count boost on top of the base schedule.
    /// `0` restricts the grid to the paper's lock-step count vectors.
    pub max_boost: usize,
    /// Frequency-plan scale factors, each finite and `>= 1.0`. `vec![1.0]`
    /// restricts the grid to the baseline plan.
    pub freq_scales: Vec<f64>,
    /// Largest intermediate-island switch count; the `k` axis is
    /// `0..=max_intermediate`.
    pub max_intermediate: usize,
}

impl Default for GridConfig {
    /// The paper-equivalent grid: no boosts, baseline frequency plan, and
    /// the default intermediate sweep.
    fn default() -> Self {
        GridConfig {
            max_boost: 0,
            freq_scales: vec![1.0],
            max_intermediate: SynthesisConfig::default().max_intermediate_switches,
        }
    }
}

/// One refinement window: a sub-box of a fine grid's chain coordinates,
/// spawned around a surviving coarse-frontier point by the `refine` stage.
///
/// A windowed grid (see [`SweepGrid::build_windowed`]) treats every chain
/// outside all of its windows as inactive, exactly like the caps-exceeded
/// and duplicate-of-earlier-base rules — chain ids, ordinals, striping and
/// checkpoint bytes are those of the *full* fine grid, so wherever the
/// windows cover the grid, a refined run's frontier entries are
/// byte-identical to the exhaustive fine run's. Windows are recorded in the
/// [`crate::GridDescriptor`], which is what keeps coarse and refined
/// checkpoints from ever merging accidentally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefineWindow {
    /// Fine-grid scale indices the window spans (sorted, deduplicated).
    pub scales: Vec<usize>,
    /// Smallest base sweep index (1-based, inclusive).
    pub base_lo: usize,
    /// Largest base sweep index (1-based, inclusive).
    pub base_hi: usize,
    /// Smallest per-island boost (inclusive, applies to every island).
    pub boost_lo: usize,
    /// Largest per-island boost (inclusive, applies to every island).
    pub boost_hi: usize,
}

impl RefineWindow {
    /// `true` when the chain coordinate lies inside this window.
    pub fn contains(&self, scale_index: usize, base_sweep_index: usize, boosts: &[usize]) -> bool {
        self.scales.contains(&scale_index)
            && (self.base_lo..=self.base_hi).contains(&base_sweep_index)
            && boosts
                .iter()
                .all(|&b| (self.boost_lo..=self.boost_hi).contains(&b))
    }
}

/// One frequency-scale slice of the grid.
#[derive(Debug, Clone)]
struct ScaleAxis {
    scale: f64,
    /// The scaled plan and what its chains share.
    table: PlanTable,
    /// Deduplicated base count vectors, indexed by `base_sweep_index - 1`.
    base: Vec<Vec<usize>>,
}

/// A lazily enumerable design-space grid for one `(spec, vi)` pair.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    vcgs: Arc<[Vcg]>,
    /// One switch per core is the hard ceiling of island `j`'s count.
    caps: Vec<usize>,
    scales: Vec<ScaleAxis>,
    cfg: GridConfig,
    /// The effective `k` axis bound: `cfg.max_intermediate`, forced to 0
    /// when [`SynthesisConfig::allow_intermediate_vi`] is off — the grid
    /// must never explore candidates the synthesis config forbids.
    max_mid: usize,
    /// `(max_boost + 1)^island_count`: boost codes per base vector.
    boost_codes: u64,
    /// Chain-id offset of each scale slice (prefix sums), plus the total.
    chain_offsets: Vec<u64>,
    /// Refinement windows; empty for a full (unwindowed) grid. Non-empty
    /// windows deactivate every chain outside all of them.
    windows: Vec<RefineWindow>,
}

/// One decoded chain: the candidates of a `(scale, base index, boost)` grid
/// coordinate, which share a switch assignment and warm-start one another.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSpec {
    /// The chain's id in `0..num_chains()`.
    pub chain_id: u64,
    /// Index into the configured `freq_scales`.
    pub scale_index: usize,
    /// The frequency scale factor itself.
    pub scale: f64,
    /// Base sweep index (1-based, Algorithm 1's schedule at this scale).
    pub base_sweep_index: usize,
    /// Per-island extra switches on top of the base schedule.
    pub boosts: Vec<usize>,
    /// The resulting per-island switch counts (base + boost).
    pub counts: Vec<usize>,
}

impl SweepGrid {
    /// Builds the grid skeleton: VCGs, one frequency plan (and empty
    /// [`PlanTable`]) per scale, and each scale's deduplicated base count
    /// schedule. Cost is independent of the number of grid candidates.
    ///
    /// # Panics
    ///
    /// If `grid.freq_scales` is empty or contains a factor that is not
    /// finite and `>= 1.0` (underclocking would silently overload NI links;
    /// see [`FrequencyPlan::scaled`]).
    pub fn build(
        spec: &SocSpec,
        vi: &ViAssignment,
        cfg: &SynthesisConfig,
        grid: &GridConfig,
    ) -> Self {
        assert!(
            !grid.freq_scales.is_empty(),
            "grid needs at least one frequency scale"
        );
        let vcgs: Arc<[Vcg]> = (0..vi.island_count())
            .map(|j| build_vcg(spec, vi, j, cfg))
            .collect();
        let caps: Vec<usize> = vcgs.iter().map(Vcg::len).collect();
        let base_plan = FrequencyPlan::compute(spec, vi, cfg);

        let scales: Vec<ScaleAxis> = grid
            .freq_scales
            .iter()
            .map(|&scale| {
                let plan = base_plan.scaled(scale, cfg);
                let base = base_schedule(&vcgs, &plan);
                ScaleAxis {
                    scale,
                    table: PlanTable::new(plan, Arc::clone(&vcgs)),
                    base,
                }
            })
            .collect();

        let boost_codes = (grid.max_boost as u64 + 1)
            .checked_pow(u32::try_from(vcgs.len()).expect("island count fits u32"))
            .expect("boost code space fits u64");
        let mut chain_offsets = Vec::with_capacity(scales.len() + 1);
        let mut total = 0u64;
        for axis in &scales {
            chain_offsets.push(total);
            total = total
                .checked_add(axis.base.len() as u64 * boost_codes)
                .expect("chain count fits u64");
        }
        chain_offsets.push(total);

        SweepGrid {
            vcgs,
            caps,
            scales,
            max_mid: if cfg.allow_intermediate_vi {
                grid.max_intermediate
            } else {
                0
            },
            cfg: grid.clone(),
            boost_codes,
            chain_offsets,
            windows: Vec::new(),
        }
    }

    /// Builds the fine grid restricted to `windows`: identical skeleton,
    /// chain ids and ordinals as [`SweepGrid::build`] of the same axes, but
    /// every chain outside all windows decodes to `None`.
    ///
    /// Windows are canonicalized (upper ends clamped to the grid's axes,
    /// then sorted and deduplicated) so that any process deriving them from
    /// the same coarse frontier builds a byte-identical
    /// [`crate::GridDescriptor`] — the merge-compatibility requirement for
    /// refined shard checkpoints. Clamping moves no chain in or out of a
    /// window, and keeps a saturated radius from recording an integer
    /// above 2^53, which the JSON reader rejects.
    pub fn build_windowed(
        spec: &SocSpec,
        vi: &ViAssignment,
        cfg: &SynthesisConfig,
        grid: &GridConfig,
        mut windows: Vec<RefineWindow>,
    ) -> Self {
        let mut built = SweepGrid::build(spec, vi, cfg, grid);
        let max_base = built.scales.iter().map(|a| a.base.len()).max().unwrap_or(0);
        for w in &mut windows {
            w.base_hi = w.base_hi.min(max_base);
            w.boost_hi = w.boost_hi.min(grid.max_boost);
        }
        windows.sort_by(|a, b| {
            (&a.scales, a.base_lo, a.base_hi, a.boost_lo, a.boost_hi)
                .cmp(&(&b.scales, b.base_lo, b.base_hi, b.boost_lo, b.boost_hi))
        });
        windows.dedup();
        built.windows = windows;
        built
    }

    /// The refinement windows (empty for a full grid).
    pub fn windows(&self) -> &[RefineWindow] {
        &self.windows
    }

    /// The grid's axis configuration.
    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// The per-island VI communication graphs (shared by every chain).
    pub fn vcgs(&self) -> &[Vcg] {
        &self.vcgs
    }

    /// The frequency plan of scale slice `scale_index`.
    pub fn plan(&self, scale_index: usize) -> &FrequencyPlan {
        self.table(scale_index).plan()
    }

    /// What every chain of scale slice `scale_index` shares: its plan, its
    /// priced flows and its islands' min-cut partitions.
    pub(crate) fn table(&self, scale_index: usize) -> &PlanTable {
        &self.scales[scale_index].table
    }

    /// Total number of chain ids (active and inactive).
    pub fn num_chains(&self) -> u64 {
        *self.chain_offsets.last().expect("offsets non-empty")
    }

    /// Candidates per chain: `max_intermediate + 1` (just 1 when
    /// [`SynthesisConfig::allow_intermediate_vi`] forbids the intermediate
    /// island — the grid honors the synthesis config).
    pub fn chain_len(&self) -> u64 {
        self.max_mid as u64 + 1
    }

    /// Number of *active* chains. A chain id is inactive — decoding to
    /// `None` — when evaluating it could only duplicate another chain's
    /// work:
    ///
    /// * its boost vector pushes an island past the one-switch-per-core
    ///   cap (the clamped vector is reachable through a smaller code), or
    /// * its count vector is already reachable from the *previous* base
    ///   sweep index with in-range boosts (the base schedule grows every
    ///   unsaturated island by one, so e.g. base `i` with all-one boosts
    ///   equals base `i+1` with none; the smallest-base representation is
    ///   the canonical one).
    ///
    /// Closed form, no enumeration — except on windowed grids, where the
    /// window boxes intersect the cap/duplicate rules in irregular ways and
    /// the count falls back to decoding every id (windowed grids are small
    /// by construction; that is their point).
    pub fn num_active_chains(&self) -> u64 {
        if !self.windows.is_empty() {
            return (0..self.num_chains())
                .filter(|&c| self.chain(c).is_some())
                .count() as u64;
        }
        self.scales
            .iter()
            .map(|axis| {
                axis.base
                    .iter()
                    .enumerate()
                    .map(|(i, counts)| {
                        // Boost codes within the caps…
                        let in_cap: u64 = counts
                            .iter()
                            .zip(&self.caps)
                            .map(|(&c, &cap)| (self.cfg.max_boost.min(cap - c) + 1) as u64)
                            .product();
                        // …minus those whose count vector the previous base
                        // index also reaches (boost'_j = boost_j + delta_j
                        // must stay <= max_boost for every island).
                        let dup: u64 = if i == 0 {
                            0
                        } else {
                            counts
                                .iter()
                                .zip(&axis.base[i - 1])
                                .zip(&self.caps)
                                .map(|((&c, &prev), &cap)| {
                                    let delta = c - prev;
                                    match self.cfg.max_boost.checked_sub(delta) {
                                        Some(room) => (room.min(cap - c) + 1) as u64,
                                        None => 0,
                                    }
                                })
                                .product()
                        };
                        in_cap - dup
                    })
                    .sum::<u64>()
            })
            .sum()
    }

    /// Number of candidates the grid will actually evaluate
    /// (`num_active_chains() * chain_len()`).
    pub fn num_candidates(&self) -> u64 {
        self.num_active_chains() * self.chain_len()
    }

    /// Global candidate ordinal of `(chain_id, k)` — the Pareto tiebreak
    /// index, stable across any sharding.
    pub fn ordinal(&self, chain_id: u64, k: usize) -> u64 {
        chain_id * self.chain_len() + k as u64
    }

    /// Decodes chain `chain_id`, or `None` if the id is inactive — its
    /// boost vector exceeds an island's core count, or its count vector is
    /// a duplicate of one reachable from the previous base sweep index
    /// (see [`SweepGrid::num_active_chains`] for both rules).
    ///
    /// # Panics
    ///
    /// If `chain_id >= num_chains()`.
    pub fn chain(&self, chain_id: u64) -> Option<ChainSpec> {
        assert!(chain_id < self.num_chains(), "chain id out of range");
        let scale_index = match self.chain_offsets[1..]
            .iter()
            .position(|&off| chain_id < off)
        {
            Some(s) => s,
            None => unreachable!("offset table covers every id"),
        };
        let axis = &self.scales[scale_index];
        let rem = chain_id - self.chain_offsets[scale_index];
        let base_index = (rem / self.boost_codes) as usize;
        let mut code = rem % self.boost_codes;

        let radix = self.cfg.max_boost as u64 + 1;
        let base = &axis.base[base_index];
        let mut boosts = Vec::with_capacity(base.len());
        let mut counts = Vec::with_capacity(base.len());
        for (j, &b) in base.iter().enumerate() {
            let boost = (code % radix) as usize;
            code /= radix;
            if b + boost > self.caps[j] {
                return None;
            }
            boosts.push(boost);
            counts.push(b + boost);
        }
        // Duplicate-of-earlier-base check: if every island could absorb the
        // base i-1 -> i growth into its boost budget, this exact count
        // vector was already enumerated at base index i-1 (canonical, being
        // the smaller chain id); checking one step back suffices because
        // the per-island growth only accumulates further back.
        if base_index > 0
            && base
                .iter()
                .zip(&axis.base[base_index - 1])
                .zip(&boosts)
                .all(|((&b, &prev), &boost)| boost + (b - prev) <= self.cfg.max_boost)
        {
            return None;
        }
        // Window check: a refined grid only activates chains inside one of
        // its windows. This runs *after* the canonical-representation rules
        // so that windowed and full grids agree on which id represents each
        // count vector — a window can only hide chains, never re-home them.
        if !self.windows.is_empty()
            && !self
                .windows
                .iter()
                .any(|w| w.contains(scale_index, base_index + 1, &boosts))
        {
            return None;
        }
        Some(ChainSpec {
            chain_id,
            scale_index,
            scale: axis.scale,
            base_sweep_index: base_index + 1,
            boosts,
            counts,
        })
    }

    /// The candidates of a chain, in the ascending-`k` order
    /// [`vi_noc_core::evaluate_candidate_chain`] requires.
    pub fn candidates_of(&self, chain: &ChainSpec) -> Vec<SweepCandidate> {
        (0..=self.max_mid)
            .map(|k| SweepCandidate {
                sweep_index: chain.base_sweep_index,
                switch_counts: chain.counts.clone(),
                requested_intermediate: k,
            })
            .collect()
    }

    /// The chain id encoding `(scale_index, base_sweep_index, boosts)` —
    /// the inverse of [`SweepGrid::chain`]'s decode, whether or not the id
    /// is active.
    ///
    /// # Panics
    ///
    /// If a coordinate is out of range or a boost exceeds `max_boost`.
    pub fn chain_id_of(
        &self,
        scale_index: usize,
        base_sweep_index: usize,
        boosts: &[usize],
    ) -> u64 {
        assert_eq!(boosts.len(), self.vcgs.len(), "one boost per island");
        let radix = self.cfg.max_boost as u64 + 1;
        let mut code = 0u64;
        for &b in boosts.iter().rev() {
            assert!(b <= self.cfg.max_boost, "boost {b} exceeds the axis");
            code = code * radix + b as u64;
        }
        self.chain_offsets[scale_index] + (base_sweep_index as u64 - 1) * self.boost_codes + code
    }

    /// The chain id canonically carrying the *zero-boost counts* of
    /// `(scale_index, base_sweep_index)`: the smallest base sweep index
    /// that reaches those counts with in-range boosts (the representation
    /// [`SweepGrid::chain`]'s duplicate rule keeps active).
    ///
    /// The pruning oracle uses this to confirm that a skipped chain's
    /// dominating reference is actually explored by the grid at hand — on
    /// windowed grids the canonical id may fall outside every window, in
    /// which case no chain of that `(scale, base)` block may be pruned.
    pub fn canonical_reference_id(&self, scale_index: usize, base_sweep_index: usize) -> u64 {
        let counts = self.base_counts(scale_index, base_sweep_index);
        for m in 1..=base_sweep_index {
            let base = &self.scales[scale_index].base[m - 1];
            // The base schedule grows monotonically per island, so
            // `counts >= base` componentwise for every earlier index.
            if counts
                .iter()
                .zip(base)
                .all(|(&c, &b)| c - b <= self.cfg.max_boost)
            {
                let boosts: Vec<usize> = counts.iter().zip(base).map(|(&c, &b)| c - b).collect();
                return self.chain_id_of(scale_index, m, &boosts);
            }
        }
        unreachable!("base_sweep_index itself always fits with zero boosts")
    }

    /// The boost-free switch counts of `(scale_index, base_sweep_index)`.
    ///
    /// # Panics
    ///
    /// If either coordinate is out of range (`base_sweep_index` is
    /// 1-based).
    pub fn base_counts(&self, scale_index: usize, base_sweep_index: usize) -> &[usize] {
        &self.scales[scale_index].base[base_sweep_index - 1]
    }

    /// The boost-free *reference* candidates of
    /// `(scale_index, base_sweep_index)`, in ascending-`k` order — the
    /// chain the dominance pruning's slack certificate is computed from.
    /// Unlike [`SweepGrid::chain`], this never returns `None`: the
    /// reference counts exist even when their chain id is inactive (their
    /// canonical representative lives at an earlier base index).
    pub fn reference_candidates(
        &self,
        scale_index: usize,
        base_sweep_index: usize,
    ) -> Vec<SweepCandidate> {
        let counts = self.base_counts(scale_index, base_sweep_index).to_vec();
        (0..=self.max_mid)
            .map(|k| SweepCandidate {
                sweep_index: base_sweep_index,
                switch_counts: counts.clone(),
                requested_intermediate: k,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_noc_soc::{benchmarks, partition};

    fn d26_grid(grid: &GridConfig) -> SweepGrid {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        SweepGrid::build(&soc, &vi, &SynthesisConfig::default(), grid)
    }

    #[test]
    fn default_grid_matches_the_paper_schedule() {
        let grid = d26_grid(&GridConfig::default());
        // One chain per base sweep index, every one active.
        assert_eq!(grid.num_chains(), grid.scales[0].base.len() as u64);
        assert_eq!(grid.num_active_chains(), grid.num_chains());
        for c in 0..grid.num_chains() {
            let chain = grid.chain(c).expect("active");
            assert_eq!(chain.base_sweep_index, c as usize + 1);
            assert!(chain.boosts.iter().all(|&b| b == 0));
            assert_eq!(chain.scale, 1.0);
        }
    }

    #[test]
    fn boost_axis_multiplies_chains_and_respects_caps() {
        let fine = d26_grid(&GridConfig {
            max_boost: 1,
            ..GridConfig::default()
        });
        let coarse = d26_grid(&GridConfig::default());
        assert_eq!(fine.num_chains(), coarse.num_chains() * 64, "2^6 codes");
        // Active chains are fewer than ids when a base count sits at a cap.
        assert!(fine.num_active_chains() <= fine.num_chains());
        let mut seen_boosted = false;
        for c in 0..fine.num_chains() {
            if let Some(chain) = fine.chain(c) {
                for (j, &count) in chain.counts.iter().enumerate() {
                    assert!(count <= fine.caps[j], "chain {c} island {j}");
                    assert_eq!(
                        count,
                        fine.scales[chain.scale_index].base[chain.base_sweep_index - 1][j]
                            + chain.boosts[j]
                    );
                }
                seen_boosted |= chain.boosts.iter().any(|&b| b > 0);
            }
        }
        assert!(seen_boosted, "boost axis explored");
        // The closed-form active count matches enumeration.
        let enumerated = (0..fine.num_chains())
            .filter(|&c| fine.chain(c).is_some())
            .count() as u64;
        assert_eq!(fine.num_active_chains(), enumerated);
    }

    #[test]
    fn disallowing_the_intermediate_island_restricts_the_k_axis() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let cfg = SynthesisConfig {
            allow_intermediate_vi: false,
            ..SynthesisConfig::default()
        };
        let grid = SweepGrid::build(&soc, &vi, &cfg, &GridConfig::default());
        assert_eq!(grid.chain_len(), 1, "k axis collapses to {{0}}");
        let chain = grid.chain(0).expect("active");
        let cands = grid.candidates_of(&chain);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].requested_intermediate, 0);
    }

    #[test]
    fn duplicate_lock_step_chains_are_inactive() {
        // With boost 1, base index i with all-one boosts reproduces base
        // index i+1 exactly; the grid must enumerate each distinct count
        // vector exactly once per scale slice.
        let fine = d26_grid(&GridConfig {
            max_boost: 1,
            ..GridConfig::default()
        });
        let mut seen = std::collections::HashSet::new();
        for c in 0..fine.num_chains() {
            if let Some(chain) = fine.chain(c) {
                assert!(
                    seen.insert((chain.scale_index, chain.counts.clone())),
                    "chain {c} duplicates an earlier active chain's counts {:?}",
                    chain.counts
                );
            }
        }
        assert_eq!(seen.len() as u64, fine.num_active_chains());
    }

    #[test]
    fn freq_scale_axis_adds_slices_with_scaled_plans() {
        let grid = d26_grid(&GridConfig {
            freq_scales: vec![1.0, 1.25],
            ..GridConfig::default()
        });
        assert_eq!(grid.scales.len(), 2);
        let last = grid.num_chains() - 1;
        let chain = grid.chain(last).expect("active");
        assert_eq!(chain.scale_index, 1);
        assert_eq!(chain.scale, 1.25);
        assert!(
            grid.plan(1).frequency(0).hz() > grid.plan(0).frequency(0).hz(),
            "scaled slice runs faster"
        );
    }

    #[test]
    fn ordinals_are_dense_per_chain() {
        let grid = d26_grid(&GridConfig::default());
        assert_eq!(grid.ordinal(0, 0), 0);
        assert_eq!(grid.ordinal(0, 4), 4);
        assert_eq!(grid.ordinal(1, 0), grid.chain_len());
        let chain = grid.chain(1).unwrap();
        let cands = grid.candidates_of(&chain);
        assert_eq!(cands.len() as u64, grid.chain_len());
        assert!(cands
            .windows(2)
            .all(|w| w[0].requested_intermediate < w[1].requested_intermediate));
    }

    #[test]
    fn windowed_grids_share_ids_and_only_hide_chains() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let cfg = SynthesisConfig::default();
        let grid_cfg = GridConfig {
            max_boost: 1,
            ..GridConfig::default()
        };
        let full = SweepGrid::build(&soc, &vi, &cfg, &grid_cfg);
        let window = RefineWindow {
            scales: vec![0],
            base_lo: 2,
            base_hi: 3,
            boost_lo: 0,
            boost_hi: 1,
        };
        let windowed = SweepGrid::build_windowed(
            &soc,
            &vi,
            &cfg,
            &grid_cfg,
            vec![window.clone(), window.clone()],
        );
        assert_eq!(windowed.windows().len(), 1, "duplicates canonicalized");
        assert_eq!(windowed.num_chains(), full.num_chains(), "same id space");
        let mut inside = 0u64;
        for c in 0..full.num_chains() {
            match (full.chain(c), windowed.chain(c)) {
                (Some(a), Some(b)) => {
                    assert_eq!(a, b, "chain {c} decodes identically");
                    assert!(window.contains(b.scale_index, b.base_sweep_index, &b.boosts));
                    inside += 1;
                }
                (Some(a), None) => {
                    assert!(!window.contains(a.scale_index, a.base_sweep_index, &a.boosts));
                }
                (None, None) => {}
                (None, Some(_)) => panic!("window activated inactive id {c}"),
            }
        }
        assert!(inside > 0, "window covers some active chains");
        assert_eq!(windowed.num_active_chains(), inside);
    }

    #[test]
    fn reference_candidates_exist_even_for_inactive_zero_boost_ids() {
        // With max_boost 1, the zero-boost chain of base index i > 1 is a
        // duplicate of base i-1 (delta fits the boost budget) — but its
        // reference counts are still well-defined and what the pruning
        // oracle certifies against.
        let fine = d26_grid(&GridConfig {
            max_boost: 1,
            ..GridConfig::default()
        });
        let cands = fine.reference_candidates(0, 2);
        assert_eq!(cands.len() as u64, fine.chain_len());
        assert_eq!(cands[0].sweep_index, 2);
        assert_eq!(cands[0].switch_counts, fine.base_counts(0, 2));
    }

    #[test]
    fn fine_grids_are_expressible_without_materialization() {
        // ~10^5 candidates: 26 islands, boost 1, two scales. Building the
        // grid must stay cheap because nothing per-candidate is allocated.
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 26).unwrap();
        let grid = SweepGrid::build(
            &soc,
            &vi,
            &SynthesisConfig::default(),
            &GridConfig {
                max_boost: 1,
                freq_scales: vec![1.0, 1.1],
                max_intermediate: 4,
            },
        );
        assert!(grid.num_chains() > 100_000, "got {}", grid.num_chains());
        // Decoding far-out ids works without enumerating predecessors: the
        // zero-boost chain of the last scale slice is active, and the
        // all-boost final id is correctly inactive (every island already
        // sits at one switch per core).
        assert!(grid.chain(grid.chain_offsets[1]).is_some());
        assert!(grid.chain(grid.num_chains() - 1).is_none());
    }
}
