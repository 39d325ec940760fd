//! The synthesis driver — Algorithm 1 of the paper, staged as an explicit
//! design-space pipeline.
//!
//! The paper's nested sweep is embarrassingly parallel: every
//! (switch-count vector, intermediate-switch count) pair is an independent
//! candidate design. The driver therefore splits into three stages:
//!
//! 1. [`SweepPlan::build`] — frequency planning, VCG construction, and
//!    up-front enumeration of every [`SweepCandidate`];
//! 2. [`evaluate_candidate`] — a *pure* per-candidate stage: VCG min-cut
//!    partitioning into switches, bandwidth-ordered path allocation, and
//!    metric evaluation;
//! 3. [`synthesize`] — a rayon `par_iter` over per-sweep-index candidate
//!    *chains*, as wide as `rayon::current_num_threads()`, folded into the
//!    [`DesignSpace`].
//!
//! Work is shared at two levels, and both are exact: each shared part is a
//! pure function computed once.
//!
//! * Per frequency plan, a [`PlanTable`] holds the allocator's priced flows
//!   (the ordered flow list, every flow's priced search blocks, the
//!   island-pair link table) and every island's min-cut partition per
//!   switch count, each filled on first use. Every chain of the plan reads
//!   them; the `vi-noc-sweep` grids keep one table per frequency scale.
//! * Per chain — the fan-out unit — all intermediate-count candidates of
//!   one sweep index share a switch assignment, so the chain evaluator
//!   builds one [`crate::paths`] allocation context and warm-starts
//!   candidate `(i, k+1)` from `(i, k)`'s recorded allocation. A topology
//!   is built only for a feasible candidate.
//!
//! Warm-starting only skips work whose result is provably unchanged, so
//! every candidate's outcome is bit-identical to the pure cold evaluation
//! of [`evaluate_candidate`], and the fan-out visits candidates in the same
//! order at any width (the parallel map is order-preserving), producing
//! byte-identical design spaces on one thread or many.

use crate::assign::{base_schedule, island_partition};
use crate::config::{FrequencyPlan, SynthesisConfig};
use crate::design_space::{DesignPoint, DesignSpace};
use crate::error::SynthesisError;
use crate::metrics::compute_metrics;
use crate::paths::{
    allocate_paths_warm, build_topology, AllocContext, AllocScratch, CandidateRecord, FlowPricing,
};
use crate::vcg::{build_vcg, Vcg};
use rayon::prelude::*;
use std::sync::{Arc, OnceLock};
use vi_noc_soc::{CoreId, SocSpec, ViAssignment};

/// One candidate design of the sweep: a per-island switch-count vector plus
/// a requested intermediate-island switch count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCandidate {
    /// Sweep index `i` of Algorithm 1 (1 = minimum switch counts).
    pub sweep_index: usize,
    /// Per-island switch counts at this sweep index.
    pub switch_counts: Vec<usize>,
    /// Intermediate-island switch count `k` requested for this candidate.
    pub requested_intermediate: usize,
}

/// Everything the chains of one frequency plan share, each part computed
/// at most once, on first use:
///
/// * the path allocator's prices: the bandwidth-ordered flow list,
///   every flow's priced search blocks and fresh-intermediate bound, and
///   the island-pair link table;
/// * every island's min-cut partition into each switch count (Algorithm 1,
///   step 11), one slot per `(island, count)`.
///
/// A [`SweepPlan`] owns one, and so does each frequency scale of a
/// `vi-noc-sweep` grid, so every chain of the plan — and every later use of
/// the same grid — reuses them. Both parts are pure functions of the plan,
/// the VCGs and the spec, partition and config they were built from, so
/// sharing them changes no outcome. Building the table computes nothing:
/// a caller that never evaluates a chain pays for no part.
///
/// The `spec`, `vi` and `cfg` passed to [`evaluate_candidate_chain`] with
/// a table must be the ones its plan and VCGs were built from.
#[derive(Debug, Clone)]
pub struct PlanTable {
    plan: FrequencyPlan,
    vcgs: Arc<[Vcg]>,
    pricing: OnceLock<FlowPricing>,
    /// `partitions[j][c - 1]`: island `j`'s partition into `c` switches,
    /// for `c` in `1..=|V_j|` (the partitioner clamps any count into that
    /// range).
    partitions: Vec<Vec<OnceLock<Vec<Vec<CoreId>>>>>,
}

impl PlanTable {
    /// An empty table for the chains of `plan` over the islands of `vcgs`.
    pub fn new(plan: FrequencyPlan, vcgs: Arc<[Vcg]>) -> Self {
        let partitions = vcgs
            .iter()
            .map(|vcg| (0..vcg.len().max(1)).map(|_| OnceLock::new()).collect())
            .collect();
        PlanTable {
            plan,
            vcgs,
            pricing: OnceLock::new(),
            partitions,
        }
    }

    /// The frequency plan.
    pub fn plan(&self) -> &FrequencyPlan {
        &self.plan
    }

    /// Island `j`'s min-cut partition into `count` switches: the cores
    /// behind each switch, as [`crate::island_switch_assignment`] groups
    /// them.
    pub(crate) fn partition(
        &self,
        j: usize,
        count: usize,
        cfg: &SynthesisConfig,
    ) -> &[Vec<CoreId>] {
        let slots = &self.partitions[j];
        let slot = &slots[count.clamp(1, slots.len()) - 1];
        slot.get_or_init(|| {
            #[cfg(test)]
            TABLE_FILLS.with(|n| n.set((n.get().0 + 1, n.get().1)));
            island_partition(&self.vcgs[j], &self.plan, count, cfg)
        })
    }

    /// The allocator's prices under this plan.
    pub(crate) fn pricing(
        &self,
        spec: &SocSpec,
        vi: &ViAssignment,
        cfg: &SynthesisConfig,
    ) -> &FlowPricing {
        self.pricing.get_or_init(|| {
            #[cfg(test)]
            TABLE_FILLS.with(|n| n.set((n.get().0, n.get().1 + 1)));
            FlowPricing::new(spec, vi, &self.plan, cfg)
        })
    }
}

#[cfg(test)]
thread_local! {
    /// Island partitions and flow pricings the [`PlanTable`]s computed on
    /// this thread.
    pub(crate) static TABLE_FILLS: std::cell::Cell<(usize, usize)> =
        const { std::cell::Cell::new((0, 0)) };
}

/// Per frequency scale of a test grid: its table and its chains' count
/// vectors.
#[cfg(test)]
pub(crate) type TestGrid = Vec<(PlanTable, Vec<Vec<usize>>)>;

/// The chains of a `vi-noc-sweep` grid with the given scales and boost
/// bound, for tests: per scale, its [`PlanTable`] and every distinct
/// in-cap count vector (base schedule plus per-island boosts up to
/// `max_boost`), in the grid's chain order.
#[cfg(test)]
pub(crate) fn test_grid(
    spec: &SocSpec,
    vi: &ViAssignment,
    cfg: &SynthesisConfig,
    scales: &[f64],
    max_boost: usize,
) -> TestGrid {
    let vcgs: Arc<[Vcg]> = (0..vi.island_count())
        .map(|j| build_vcg(spec, vi, j, cfg))
        .collect();
    let base_plan = FrequencyPlan::compute(spec, vi, cfg);
    let mut grid = Vec::new();
    for &scale in scales {
        let plan = base_plan.scaled(scale, cfg);
        let mut chains: Vec<Vec<usize>> = Vec::new();
        for base in base_schedule(&vcgs, &plan) {
            let mut boosts = vec![0; base.len()];
            loop {
                let counts: Vec<usize> = base.iter().zip(&boosts).map(|(b, x)| b + x).collect();
                let in_cap = counts.iter().zip(vcgs.iter()).all(|(&c, v)| c <= v.len());
                if in_cap && !chains.contains(&counts) {
                    chains.push(counts);
                }
                // The next boost code, island 0 the least significant digit.
                let Some(j) = boosts.iter().position(|&b| b < max_boost) else {
                    break;
                };
                boosts[..j].fill(0);
                boosts[j] += 1;
            }
        }
        grid.push((PlanTable::new(plan, Arc::clone(&vcgs)), chains));
    }
    grid
}

/// Stage 1 of the pipeline: everything the per-candidate stage needs — the
/// frequency plan (Algorithm 1 step 1) and the per-island VCGs, in a
/// [`PlanTable`] that also holds the min-cut switch assignments (steps
/// 4–11) once a chain asks for them — and the full list of candidates
/// (steps 12–14 unrolled).
#[derive(Debug, Clone)]
pub struct SweepPlan {
    table: PlanTable,
    candidates: Vec<SweepCandidate>,
}

impl SweepPlan {
    /// Enumerates the design-space sweep for `spec` under `vi`.
    ///
    /// The switch-count sweep stops as soon as every island has saturated
    /// at one switch per core (higher sweep indices would repeat the same
    /// configuration); the intermediate sweep covers `0..=max` when the
    /// intermediate island is allowed and just `0` otherwise.
    pub fn build(spec: &SocSpec, vi: &ViAssignment, cfg: &SynthesisConfig) -> Self {
        let plan = FrequencyPlan::compute(spec, vi, cfg);
        let vcgs: Vec<Vcg> = (0..vi.island_count())
            .map(|j| build_vcg(spec, vi, j, cfg))
            .collect();

        let mid_range: Vec<usize> = if cfg.allow_intermediate_vi {
            (0..=cfg.max_intermediate_switches).collect()
        } else {
            vec![0]
        };

        let mut candidates = Vec::new();
        for (i, counts) in base_schedule(&vcgs, &plan).iter().enumerate() {
            for &k_mid in &mid_range {
                candidates.push(SweepCandidate {
                    sweep_index: i + 1,
                    switch_counts: counts.clone(),
                    requested_intermediate: k_mid,
                });
            }
        }
        SweepPlan {
            table: PlanTable::new(plan, vcgs.into()),
            candidates,
        }
    }

    /// The table every chain of the sweep shares.
    pub fn table(&self) -> &PlanTable {
        &self.table
    }

    /// The enumerated candidates, in exploration order.
    pub fn candidates(&self) -> &[SweepCandidate] {
        &self.candidates
    }

    /// Number of candidates the sweep will explore.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the sweep is empty (degenerate specs only).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// Outcome of evaluating one [`SweepCandidate`].
#[derive(Debug, Clone)]
pub enum CandidateOutcome {
    /// The candidate produced a feasible design point.
    Feasible(Box<DesignPoint>),
    /// The allocator used fewer intermediate switches than requested; the
    /// identical topology is produced by the run that requested that
    /// smaller count, so this one is dropped.
    Duplicate,
    /// Path allocation could not satisfy every constraint; the reason is
    /// surfaced in [`SynthesisError::NoFeasibleDesign`] if no candidate
    /// succeeds.
    Infeasible(String),
}

/// Stage 2 of the pipeline: evaluates one candidate, independently of all
/// others — takes the candidate's min-cut switch assignment from the
/// plan's table (step 11), allocates min-cost shutdown-legal paths for
/// every flow in decreasing bandwidth order (steps 14–17), and computes the
/// design metrics.
///
/// The function is pure: the table's parts are pure functions filled at
/// most once, so candidates can be evaluated in any order or concurrently
/// with identical results. It is the cold reference for the chain
/// evaluator's warm start: a chain of this one candidate.
pub fn evaluate_candidate(
    spec: &SocSpec,
    vi: &ViAssignment,
    sweep: &SweepPlan,
    candidate: &SweepCandidate,
    cfg: &SynthesisConfig,
) -> CandidateOutcome {
    let chain = std::slice::from_ref(candidate);
    let (mut outcomes, _) = evaluate_candidate_chain(spec, vi, &sweep.table, chain, cfg);
    outcomes.pop().expect("one outcome per candidate")
}

/// A per-island port-slack certificate distilled from one evaluated chain,
/// used by the sweep crate's dominance pruning to skip boost codes that
/// provably cannot improve the Pareto front.
///
/// The certificate is computed for a *reference* chain (a boost-free
/// switch-count vector) and answers: "would splitting island `j` into more
/// switches change anything the dominance key can see for the better?"
/// Extra switches help exactly where the reference allocation shows
/// *stress*: a port-exhausted switch forces detour routes (higher latency
/// and link power) or forces the min-cut partitioner to separate heavily
/// communicating cores (its part-weight cap equals the switch size
/// budget). Island `j` is **certified** when neither stress signal is
/// present:
///
/// * the certificate is globally *valid* — every candidate of the chain
///   allocated feasibly and without the port-reserve retry (the retry's
///   admissibility is count-dependent, so nothing is provable from it);
/// * every switch of island `j` finished with port headroom under its size
///   budget. Headroom subsumes the partition-pressure signal: a part at
///   the weight cap implies a switch whose core ports alone consume the
///   whole budget.
///
/// Unstressed islands gain nothing from more switches — a finer partition
/// only adds idle switch power and extra hops — so every boost code that
/// raises only certified islands is dominated by the boost-free reference
/// (identical metrics path, smaller ordinal) and may be skipped. Routes
/// longer than two switches are deliberately *not* treated as stress: with
/// free ports they are the cost optimizer choosing link reuse over opening
/// a direct link, which a boosted twin re-chooses identically.
///
/// The soundness contract is not a standalone theorem but the differential
/// harness in `crates/sweep/tests/prune_exact.rs`, which compares pruned
/// against exhaustive frontiers byte-for-byte and forces skipped chains
/// through the evaluator to assert their points are dominated. Tighten
/// `SlackCertificate::observe` if that harness ever finds a miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlackCertificate {
    valid: bool,
    island_slack: Vec<bool>,
}

impl SlackCertificate {
    fn fresh(islands: usize) -> Self {
        SlackCertificate {
            valid: true,
            island_slack: vec![true; islands],
        }
    }

    /// The certificate that certifies nothing (used when the reference
    /// chain hit a port-reserve retry or an infeasibility).
    pub fn invalid(islands: usize) -> Self {
        SlackCertificate {
            valid: false,
            island_slack: vec![false; islands],
        }
    }

    /// `true` when the chain-wide conditions held (no retry, no
    /// infeasibility).
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// `true` when boosting island `j`'s switch-size budget is certified
    /// slack.
    pub fn island_certified(&self, j: usize) -> bool {
        self.valid && self.island_slack.get(j).copied().unwrap_or(false)
    }

    /// `true` when a chain whose per-island boosts are `boosts` may be
    /// skipped: at least one boost is nonzero and every nonzero boost
    /// raises a certified island. Boost-free chains are never skipped —
    /// they are the reference points the skipped chains are dominated by.
    pub fn certifies_skip(&self, boosts: &[usize]) -> bool {
        self.valid
            && boosts.iter().any(|&b| b > 0)
            && boosts
                .iter()
                .enumerate()
                .all(|(j, &b)| b == 0 || self.island_certified(j))
    }

    /// Fraction of a link's capacity that may be loaded before its endpoint
    /// islands stop being certifiable. A near-full link means flows were
    /// (or nearly were) detoured around it; splitting an endpoint switch
    /// adds a parallel link, so extra capacity there is not provably slack.
    const LINK_STRESS_UTILIZATION: f64 = 0.5;

    /// Folds one successful allocation into the certificate, reading the
    /// attempt's flat state: the ports of every real-island switch and the
    /// load of every open link, which the built topology would only copy.
    fn observe(&mut self, ctx: &AllocContext, s: &AllocScratch, plan: &FrequencyPlan) {
        if !self.valid {
            return;
        }
        for (j, inp, outp) in s.real_switch_ports(ctx) {
            if inp.max(outp) >= plan.max_switch_size_ext(j) {
                // The allocator consumed island j's whole port budget
                // somewhere — late flows may have been detoured around this
                // switch, and the partitioner's part-weight cap was binding
                // — so more switches in j are not provably useless.
                self.island_slack[j] = false;
            }
        }
        let mid = self.island_slack.len();
        for (from, to, load, capacity) in s.open_links(ctx) {
            if load.bytes_per_s() <= Self::LINK_STRESS_UTILIZATION * capacity.bytes_per_s() {
                continue;
            }
            for j in [from, to] {
                if j < mid {
                    self.island_slack[j] = false;
                }
            }
        }
    }
}

#[cfg(test)]
impl SlackCertificate {
    /// [`SlackCertificate::observe`] as it read a built topology before
    /// the flat state sufficed: the oracle the flat reading is checked
    /// against.
    fn observe_topology(
        &mut self,
        vi: &ViAssignment,
        plan: &FrequencyPlan,
        topo: &crate::topology::Topology,
    ) {
        if !self.valid {
            return;
        }
        let mid = vi.island_count();
        for s in topo.switch_ids() {
            let j = topo.switch(s).island_ext;
            if j >= mid {
                continue;
            }
            let (inp, outp) = topo.switch_ports(s);
            if inp.max(outp) >= plan.max_switch_size_ext(j) {
                self.island_slack[j] = false;
            }
        }
        for l in topo.links() {
            if l.load.bytes_per_s() <= Self::LINK_STRESS_UTILIZATION * l.capacity.bytes_per_s() {
                continue;
            }
            for s in [l.from, l.to] {
                let j = topo.switch(s).island_ext;
                if j < mid {
                    self.island_slack[j] = false;
                }
            }
        }
    }
}

/// Evaluates one chain of intermediate-count candidates that share a switch
/// assignment, building the allocation context once and warm-starting each
/// candidate from its predecessor's recorded allocation, and returns the
/// outcomes with the chain's [`SlackCertificate`].
///
/// This is the streaming-consumption entry point of the pipeline: callers
/// that enumerate their own candidate grids (the `vi-noc-sweep` crate's
/// sharded sweep) feed one chain at a time — with an arbitrary switch-count
/// vector and the [`PlanTable`] of its (possibly scaled)
/// [`FrequencyPlan`] — and fold the returned outcomes without ever
/// materializing a [`DesignSpace`]. The table supplies the chain's min-cut
/// partitions and the plan's priced flows, computing each on first use.
///
/// Outcome-equivalent to evaluating every candidate cold and independently
/// (asserted by the warm-start equivalence tests); the sharing only removes
/// redundant work, never changes a result. A topology is built only for a
/// feasible candidate: the Duplicate test and the certificate read the
/// allocation's flat state.
///
/// Chain contract: every candidate must carry the same `sweep_index` and
/// `switch_counts`, with `requested_intermediate` strictly ascending — the
/// order the warm start and the Duplicate short-circuit are proven for.
pub fn evaluate_candidate_chain(
    spec: &SocSpec,
    vi: &ViAssignment,
    table: &PlanTable,
    chain: &[SweepCandidate],
    cfg: &SynthesisConfig,
) -> (Vec<CandidateOutcome>, SlackCertificate) {
    debug_assert!(chain.windows(2).all(|w| {
        w[0].sweep_index == w[1].sweep_index
            && w[0].switch_counts == w[1].switch_counts
            && w[0].requested_intermediate < w[1].requested_intermediate
    }));
    let islands = vi.island_count();
    let mut cert = SlackCertificate::fresh(islands);
    let Some(first) = chain.first() else {
        return (Vec::new(), cert);
    };
    let plan = table.plan();
    let groups: Vec<&[Vec<CoreId>]> = first
        .switch_counts
        .iter()
        .enumerate()
        .map(|(j, &count)| table.partition(j, count, cfg))
        .collect();
    let k_max = chain
        .iter()
        .map(|c| c.requested_intermediate)
        .max()
        .unwrap_or(0);
    let pricing = table.pricing(spec, vi, cfg);
    let ctx = match AllocContext::build(spec, pricing, plan, &groups, k_max, cfg) {
        Ok(ctx) => ctx,
        // The context pre-check (core counts vs switch size budgets) fails
        // identically for every candidate of the index.
        Err(reason) => {
            let outcomes = chain
                .iter()
                .map(|_| CandidateOutcome::Infeasible(reason.clone()))
                .collect();
            return (outcomes, SlackCertificate::invalid(islands));
        }
    };
    let mut scratch = AllocScratch::default();
    let mut prev: Option<CandidateRecord> = None;
    let mut record = CandidateRecord::default();
    let mut outcomes = Vec::with_capacity(chain.len());
    let mut saturated = false;
    for candidate in chain {
        // Duplicate short-circuit: once a reserve-0 allocation left an
        // intermediate switch unused, every higher-count candidate of this
        // sweep index provably reproduces the same topology (see
        // `Allocation::has_spare_intermediate`), so it is a Duplicate
        // without running.
        if saturated {
            outcomes.push(CandidateOutcome::Duplicate);
            continue;
        }
        let k = candidate.requested_intermediate;
        let outcome =
            match allocate_paths_warm(&ctx, k, cfg, &mut scratch, prev.as_ref(), &mut record) {
                Ok(alloc) => {
                    saturated = alloc.has_spare_intermediate(k);
                    if alloc.via_retry {
                        cert = SlackCertificate::invalid(islands);
                    } else {
                        cert.observe(&ctx, &scratch, plan);
                    }
                    // The allocator used fewer intermediate switches than
                    // requested: the run that requested that many builds the
                    // same topology.
                    if alloc.intermediate_used != k {
                        CandidateOutcome::Duplicate
                    } else {
                        let topology = build_topology(&ctx, k, cfg, &scratch, &record);
                        let metrics = compute_metrics(spec, &topology, cfg);
                        CandidateOutcome::Feasible(Box::new(DesignPoint {
                            sweep_index: candidate.sweep_index,
                            requested_intermediate: k,
                            switch_counts: candidate.switch_counts.clone(),
                            topology,
                            metrics,
                        }))
                    }
                }
                Err(reason) => {
                    cert = SlackCertificate::invalid(islands);
                    CandidateOutcome::Infeasible(reason)
                }
            };
        outcomes.push(outcome);
        // The record becomes the next seed; the old seed's buffers take
        // the next candidate's record.
        record = prev.replace(record).unwrap_or_default();
    }
    (outcomes, cert)
}

/// Synthesizes the space of VI-aware NoC topologies for `spec` under the
/// island assignment `vi`.
///
/// Implements Algorithm 1:
///
/// 1. per-island NoC frequency and `max_sw_size_j` ([`FrequencyPlan`]),
/// 2. `min_sw_j = ceil(|V_j| / max_sw_size_j)`,
/// 3. sweep the per-island switch counts from the minimum up to one switch
///    per core, min-cut partitioning each island's VCG,
/// 4. for each switch-count vector, sweep the intermediate-island switch
///    count `k = 0..=max` and allocate min-cost paths for all flows in
///    decreasing bandwidth order,
/// 5. save every design point whose flows all meet their latency
///    constraints.
///
/// Candidate chains are evaluated concurrently, as many at once as
/// `rayon::current_num_threads()`; every width returns the identical
/// design space.
///
/// # Errors
///
/// * [`SynthesisError::InvalidSpec`] if `spec` fails validation;
/// * [`SynthesisError::NoFeasibleDesign`] if no explored point satisfies
///   all constraints.
pub fn synthesize(
    spec: &SocSpec,
    vi: &ViAssignment,
    cfg: &SynthesisConfig,
) -> Result<DesignSpace, SynthesisError> {
    spec.validate()
        .map_err(|e| SynthesisError::InvalidSpec(e.to_string()))?;

    let sweep = SweepPlan::build(spec, vi, cfg);
    // Fan out over per-sweep-index chains: candidates within a chain share
    // their allocation context and warm-start one another (see
    // `evaluate_candidate_chain`), so they must run on the same worker;
    // distinct sweep indices are independent.
    let candidates = sweep.candidates();
    let mut chains: Vec<&[SweepCandidate]> = Vec::new();
    let mut start = 0;
    for i in 1..=candidates.len() {
        if i == candidates.len() || candidates[i].sweep_index != candidates[start].sweep_index {
            chains.push(&candidates[start..i]);
            start = i;
        }
    }
    let outcomes: Vec<CandidateOutcome> = chains
        .par_iter()
        .map(|chain| evaluate_candidate_chain(spec, vi, &sweep.table, chain, cfg).0)
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect();

    let explored = outcomes.len();
    let mut points = Vec::new();
    let mut last_failure = String::from("no design points explored");
    for outcome in outcomes {
        match outcome {
            CandidateOutcome::Feasible(point) => points.push(*point),
            CandidateOutcome::Duplicate => {}
            CandidateOutcome::Infeasible(reason) => last_failure = reason,
        }
    }

    if points.is_empty() {
        return Err(SynthesisError::NoFeasibleDesign {
            explored,
            last_failure,
        });
    }
    Ok(DesignSpace {
        spec_name: spec.name().to_string(),
        island_count: vi.island_count(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::island_switch_assignment;
    use crate::paths::TOPOLOGIES_BUILT;
    use vi_noc_soc::{benchmarks, partition};

    /// The candidates `0..=k_max` of a chain with `counts`.
    fn chain_of(counts: &[usize], k_max: usize) -> Vec<SweepCandidate> {
        (0..=k_max)
            .map(|k| SweepCandidate {
                sweep_index: 1,
                switch_counts: counts.to_vec(),
                requested_intermediate: k,
            })
            .collect()
    }

    /// The fleet grid's two scales give island 0 different switch size
    /// budgets, so their tables partition it differently.
    fn fine_grid() -> (SocSpec, ViAssignment, TestGrid) {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let grid = test_grid(&soc, &vi, &SynthesisConfig::default(), &[1.0, 1.12], 1);
        let (a, b) = (grid[0].0.plan(), grid[1].0.plan());
        assert_ne!(a.max_switch_size(0), b.max_switch_size(0));
        (soc, vi, grid)
    }

    /// Every partition a table holds — counts clamped into `1..=|V_j|`
    /// included — is the one a fresh `island_switch_assignment` computes.
    #[test]
    fn table_partitions_equal_fresh_assignments() {
        let (_, _, grid) = fine_grid();
        let cfg = SynthesisConfig::default();
        let d12 = benchmarks::d12_auto();
        let vi12 = partition::logical_partition(&d12, 4).unwrap();
        let grid12 = test_grid(&d12, &vi12, &cfg, &[1.0, 1.1], 1);
        let mut checked = 0;
        for (table, chains) in grid.iter().chain(&grid12) {
            let caps: Vec<usize> = table.vcgs.iter().map(Vcg::len).collect();
            let extremes = [vec![0; caps.len()], caps.iter().map(|c| c + 3).collect()];
            for counts in chains.iter().chain(&extremes) {
                let fresh = island_switch_assignment(&table.vcgs, table.plan(), counts, &cfg);
                for (j, &count) in counts.iter().enumerate() {
                    assert_eq!(
                        table.partition(j, count, &cfg),
                        fresh.groups[j],
                        "{counts:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 1_000, "{checked}");
    }

    /// Over every chain of the `prune_exact.rs` grids, the certificate read
    /// from the allocations' flat state equals the one read from their
    /// built topologies, and is the one the chain evaluator returns.
    #[test]
    fn the_flat_certificate_equals_the_topology_certificate() {
        let (d26, d36, d16) = (
            benchmarks::d26_mobile(),
            benchmarks::d36_tablet(),
            benchmarks::d16_settop(),
        );
        let cases = [
            (
                &d26,
                partition::logical_partition(&d26, 6).unwrap(),
                &[1.0, 1.12][..],
                4,
            ),
            (
                &d36,
                partition::logical_partition(&d36, 6).unwrap(),
                &[1.0][..],
                3,
            ),
            (
                &d16,
                partition::communication_partition(&d16, 4, 1).unwrap(),
                &[1.0][..],
                3,
            ),
        ];
        let cfg = SynthesisConfig::default();
        let (mut observed, mut certified) = (0, 0);
        for (spec, vi, scales, k_max) in cases {
            let islands = vi.island_count();
            for (table, chains) in test_grid(spec, &vi, &cfg, scales, 1) {
                let plan = table.plan();
                for counts in &chains {
                    let (_, cert) =
                        evaluate_candidate_chain(spec, &vi, &table, &chain_of(counts, k_max), &cfg);
                    let groups: Vec<&[Vec<CoreId>]> = counts
                        .iter()
                        .enumerate()
                        .map(|(j, &c)| table.partition(j, c, &cfg))
                        .collect();
                    let pricing = table.pricing(spec, &vi, &cfg);
                    let Ok(ctx) = AllocContext::build(spec, pricing, plan, &groups, k_max, &cfg)
                    else {
                        assert_eq!(cert, SlackCertificate::invalid(islands));
                        continue;
                    };
                    // The chain's allocations, as the evaluator runs them.
                    let (mut flat, mut by_topology) = (
                        SlackCertificate::fresh(islands),
                        SlackCertificate::fresh(islands),
                    );
                    let mut scratch = AllocScratch::default();
                    let (mut prev, mut record) = (None, CandidateRecord::default());
                    for k in 0..=k_max {
                        let alloc = allocate_paths_warm(
                            &ctx,
                            k,
                            &cfg,
                            &mut scratch,
                            prev.as_ref(),
                            &mut record,
                        );
                        match alloc {
                            Ok(a) if !a.via_retry => {
                                flat.observe(&ctx, &scratch, plan);
                                let topo = build_topology(&ctx, k, &cfg, &scratch, &record);
                                by_topology.observe_topology(&vi, plan, &topo);
                                observed += 1;
                                if a.has_spare_intermediate(k) {
                                    break;
                                }
                            }
                            _ => {
                                flat = SlackCertificate::invalid(islands);
                                by_topology = SlackCertificate::invalid(islands);
                            }
                        }
                        record = prev.replace(record).unwrap_or_default();
                    }
                    assert_eq!(flat, by_topology, "{} {counts:?}", spec.name());
                    assert_eq!(cert, flat, "{} {counts:?}", spec.name());
                    certified += usize::from((0..islands).any(|j| cert.island_certified(j)));
                }
            }
        }
        assert!(observed >= 400 && certified > 0, "{observed} {certified}");
    }

    /// With the shared tables, one pass over the fleet grid
    /// (`d26_overclocked_fine`: 216 active chains, 120 feasible, 480
    /// duplicates, 480 infeasible) builds a topology only for the 120
    /// feasible candidates (not also for the 120 duplicates its `k = 1`
    /// attempts produce), partitions each `(scale, island, count)` once
    /// (52, not 216 × 6) and prices each scale's flows once (2, not 216).
    #[test]
    fn the_fine_grid_builds_each_shared_part_once() {
        let (soc, vi, grid) = fine_grid();
        let cfg = SynthesisConfig::default();
        TOPOLOGIES_BUILT.with(|n| n.set(0));
        TABLE_FILLS.with(|n| n.set((0, 0)));
        let mut counts = [0usize; 4];
        for (table, chains) in &grid {
            for c in chains {
                counts[0] += 1;
                for outcome in evaluate_candidate_chain(&soc, &vi, table, &chain_of(c, 4), &cfg).0 {
                    counts[match outcome {
                        CandidateOutcome::Feasible(_) => 1,
                        CandidateOutcome::Duplicate => 2,
                        CandidateOutcome::Infeasible(_) => 3,
                    }] += 1;
                }
            }
        }
        assert_eq!(counts, [216, 120, 480, 480]);
        assert_eq!(TOPOLOGIES_BUILT.with(|n| n.get()), 120);
        let mut distinct: Vec<(usize, usize, usize)> = Vec::new();
        for (table, _) in &grid {
            for (j, slots) in table.partitions.iter().enumerate() {
                for (c, slot) in slots.iter().enumerate() {
                    let key = (j, table.plan().max_switch_size(j), c + 1);
                    if slot.get().is_some() && !distinct.contains(&key) {
                        distinct.push(key);
                    }
                }
            }
        }
        // One partition per filled `(scale, island, count)` slot: 52. They
        // have 37 distinct inputs; the other 15 repeat an island whose size
        // budget is the same at both scales, which a per-plan table does
        // not share.
        assert_eq!(TABLE_FILLS.with(|n| n.get()), (52, 2));
        assert_eq!(distinct.len(), 37);
    }

    #[test]
    fn d26_synthesizes_across_the_paper_sweep() {
        let soc = benchmarks::d26_mobile();
        for k in [1usize, 2, 4, 6, 7] {
            let vi = partition::logical_partition(&soc, k).unwrap();
            let space = synthesize(&soc, &vi, &SynthesisConfig::default())
                .unwrap_or_else(|e| panic!("k={k}: {e}"));
            assert!(!space.points.is_empty(), "k={k}");
        }
    }

    #[test]
    fn twenty_six_islands_is_feasible() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 26).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).expect("26 islands");
        assert!(!space.points.is_empty());
    }

    #[test]
    fn communication_partitioning_synthesizes_too() {
        let soc = benchmarks::d26_mobile();
        for k in [2usize, 4, 6] {
            let vi = partition::communication_partition(&soc, k, 1).unwrap();
            let space = synthesize(&soc, &vi, &SynthesisConfig::default())
                .unwrap_or_else(|e| panic!("k={k}: {e}"));
            assert!(!space.points.is_empty());
        }
    }

    #[test]
    fn disabling_intermediate_island_restricts_space() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let with = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        let cfg_no = SynthesisConfig {
            allow_intermediate_vi: false,
            ..SynthesisConfig::default()
        };
        let without = synthesize(&soc, &vi, &cfg_no).unwrap();
        assert!(without
            .points
            .iter()
            .all(|p| p.topology.intermediate_switch_count() == 0));
        assert!(with.points.len() >= without.points.len());
    }

    #[test]
    fn all_flows_routed_in_every_point() {
        let soc = benchmarks::d16_settop();
        let vi = partition::logical_partition(&soc, 5).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        for p in &space.points {
            assert_eq!(p.topology.routes().count(), soc.flow_count());
        }
    }

    #[test]
    fn rejects_invalid_specs() {
        let mut bad = benchmarks::d12_auto();
        let a = bad.core_ids().next().unwrap();
        bad.add_flow(vi_noc_soc::TrafficFlow::new(a, a, 10.0, 10));
        let vi = partition::logical_partition(&bad, 1).unwrap();
        let err = synthesize(&bad, &vi, &SynthesisConfig::default()).unwrap_err();
        assert!(matches!(err, SynthesisError::InvalidSpec(_)));
    }

    #[test]
    fn whole_suite_synthesizes_at_natural_island_counts() {
        for (soc, k) in benchmarks::suite() {
            let vi = partition::logical_partition(&soc, k).unwrap();
            let space = synthesize(&soc, &vi, &SynthesisConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", soc.name()));
            assert!(!space.points.is_empty(), "{}", soc.name());
        }
    }

    #[test]
    fn sweep_plan_enumerates_the_cross_product() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let cfg = SynthesisConfig::default();
        let sweep = SweepPlan::build(&soc, &vi, &cfg);
        assert!(!sweep.is_empty());
        assert_eq!(sweep.len() % (cfg.max_intermediate_switches + 1), 0);
        // Candidates are ordered by sweep index, then intermediate count.
        for pair in sweep.candidates().windows(2) {
            assert!(
                pair[0].sweep_index < pair[1].sweep_index
                    || (pair[0].sweep_index == pair[1].sweep_index
                        && pair[0].requested_intermediate < pair[1].requested_intermediate)
            );
        }
        // Switch-count vectors never repeat across sweep indices.
        let per_index: Vec<&SweepCandidate> = sweep
            .candidates()
            .iter()
            .filter(|c| c.requested_intermediate == 0)
            .collect();
        for pair in per_index.windows(2) {
            assert_ne!(pair[0].switch_counts, pair[1].switch_counts);
        }
    }

    #[test]
    fn parallel_and_sequential_modes_agree_exactly() {
        let soc = benchmarks::d26_mobile();
        let cfg = SynthesisConfig::default();
        for k in [2usize, 6, 26] {
            let vi = partition::logical_partition(&soc, k).unwrap();
            let at = |width| {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build();
                pool.unwrap()
                    .install(|| synthesize(&soc, &vi, &cfg))
                    .unwrap()
            };
            let (seq, par) = (at(1), at(2));
            assert_eq!(seq.points.len(), par.points.len(), "k={k}");
            for (a, b) in seq.points.iter().zip(&par.points) {
                assert_eq!(a.sweep_index, b.sweep_index);
                assert_eq!(a.switch_counts, b.switch_counts);
                assert_eq!(a.topology, b.topology);
                assert_eq!(
                    a.metrics.noc_dynamic_power().mw(),
                    b.metrics.noc_dynamic_power().mw()
                );
                assert_eq!(a.metrics.avg_latency_cycles, b.metrics.avg_latency_cycles);
            }
        }
    }

    #[test]
    fn evaluate_candidate_matches_synthesize_points() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 3).unwrap();
        let cfg = SynthesisConfig::default();
        let sweep = SweepPlan::build(&soc, &vi, &cfg);
        let space = synthesize(&soc, &vi, &cfg).unwrap();
        let mut rebuilt = Vec::new();
        for candidate in sweep.candidates() {
            if let CandidateOutcome::Feasible(p) =
                evaluate_candidate(&soc, &vi, &sweep, candidate, &cfg)
            {
                rebuilt.push(*p);
            }
        }
        assert_eq!(rebuilt.len(), space.points.len());
        for (a, b) in rebuilt.iter().zip(&space.points) {
            assert_eq!(a.topology, b.topology);
        }
    }
}
