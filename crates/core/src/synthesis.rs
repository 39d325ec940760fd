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
//! The fan-out unit is a chain, not a single candidate, because all
//! intermediate-count candidates of one sweep index share their expensive
//! prefix: the chain evaluator builds one [`crate::paths`] allocation
//! context (candidate switch graph, power models, ordered flow list) per
//! sweep index and warm-starts candidate `(i, k+1)` from `(i, k)`'s
//! recorded allocation. Warm-starting is an exact optimization — it only
//! skips work whose result is provably unchanged — so every candidate's
//! outcome is bit-identical to the pure cold evaluation of
//! [`evaluate_candidate`], and the fan-out visits candidates in the same
//! order at any width (the parallel map is order-preserving), producing
//! byte-identical design spaces on one thread or many.

use crate::assign::{base_schedule, island_switch_assignment, SwitchAssignment};
use crate::config::{FrequencyPlan, SynthesisConfig};
use crate::design_space::{DesignPoint, DesignSpace};
use crate::error::SynthesisError;
use crate::metrics::compute_metrics;
use crate::paths::{allocate_paths, allocate_paths_warm, AllocContext, CandidateRecord};
use crate::topology::Topology;
use crate::vcg::{build_vcg, Vcg};
use rayon::prelude::*;
use vi_noc_graph::SearchScratch;
use vi_noc_soc::{SocSpec, ViAssignment};

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

/// Stage 1 of the pipeline: everything the per-candidate stage needs,
/// computed once — the frequency plan (Algorithm 1 step 1), the per-island
/// VCGs, the min-cut switch assignment of every sweep index (steps 4–11;
/// shared by all intermediate-count candidates of that index), and the
/// full list of candidates (steps 12–14 unrolled).
#[derive(Debug, Clone)]
pub struct SweepPlan {
    plan: FrequencyPlan,
    /// One [`SwitchAssignment`] per sweep index, at position
    /// `sweep_index - 1` (sweep indices are consecutive from 1).
    assignments: Vec<SwitchAssignment>,
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

        let count_vectors = base_schedule(&vcgs, &plan);
        let mut candidates = Vec::new();
        for (i, counts) in count_vectors.iter().enumerate() {
            for &k_mid in &mid_range {
                candidates.push(SweepCandidate {
                    sweep_index: i + 1,
                    switch_counts: counts.clone(),
                    requested_intermediate: k_mid,
                });
            }
        }

        // The min-cut partition of each sweep index is shared by all of
        // its intermediate-count candidates, so it is computed here once
        // per index, in parallel (each assignment is a pure function of
        // its count vector).
        let assignments = count_vectors
            .par_iter()
            .map(|counts| island_switch_assignment(&vcgs, &plan, counts, cfg))
            .collect();

        SweepPlan {
            plan,
            assignments,
            candidates,
        }
    }

    /// The core→switch grouping of sweep index `sweep_index`.
    ///
    /// # Panics
    ///
    /// If `sweep_index` is not one of the plan's (1-based, consecutive)
    /// sweep indices.
    pub fn assignment(&self, sweep_index: usize) -> &SwitchAssignment {
        sweep_index
            .checked_sub(1)
            .and_then(|i| self.assignments.get(i))
            .expect("sweep_index must be 1-based and within the plan")
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
/// others — takes the candidate's min-cut switch assignment from the plan
/// (step 11), allocates min-cost shutdown-legal paths for every flow in
/// decreasing bandwidth order (steps 14–17), and computes the design
/// metrics.
///
/// The function is pure: it touches no shared mutable state, so candidates
/// can be evaluated in any order or concurrently with identical results.
pub fn evaluate_candidate(
    spec: &SocSpec,
    vi: &ViAssignment,
    sweep: &SweepPlan,
    candidate: &SweepCandidate,
    cfg: &SynthesisConfig,
) -> CandidateOutcome {
    let assignment = sweep.assignment(candidate.sweep_index);
    let result = allocate_paths(
        spec,
        vi,
        &sweep.plan,
        assignment,
        candidate.requested_intermediate,
        cfg,
    );
    candidate_outcome(result, candidate, spec, cfg)
}

/// Folds an allocation result into a [`CandidateOutcome`].
fn candidate_outcome(
    result: Result<Topology, String>,
    candidate: &SweepCandidate,
    spec: &SocSpec,
    cfg: &SynthesisConfig,
) -> CandidateOutcome {
    match result {
        Ok(topology) => {
            if topology.intermediate_switch_count() != candidate.requested_intermediate {
                return CandidateOutcome::Duplicate;
            }
            let metrics = compute_metrics(spec, &topology, cfg);
            CandidateOutcome::Feasible(Box::new(DesignPoint {
                sweep_index: candidate.sweep_index,
                requested_intermediate: candidate.requested_intermediate,
                switch_counts: candidate.switch_counts.clone(),
                topology,
                metrics,
            }))
        }
        Err(reason) => CandidateOutcome::Infeasible(reason),
    }
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

    /// Folds one successful allocation's topology into the certificate.
    fn observe(&mut self, vi: &ViAssignment, plan: &FrequencyPlan, topo: &Topology) {
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
                // The allocator consumed island j's whole port budget
                // somewhere — late flows may have been detoured around this
                // switch, and the partitioner's part-weight cap was binding
                // — so more switches in j are not provably useless.
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
/// candidate from its predecessor's recorded allocation.
///
/// This is the streaming-consumption entry point of the pipeline: callers
/// that enumerate their own candidate grids (the `vi-noc-sweep` crate's
/// sharded sweep) feed one chain at a time — with an arbitrary switch-count
/// vector and possibly a scaled [`FrequencyPlan`] — and fold the returned
/// outcomes without ever materializing a [`DesignSpace`].
///
/// Outcome-equivalent to evaluating every candidate cold and independently
/// (asserted by the warm-start equivalence tests); the sharing only removes
/// redundant work, never changes a result.
///
/// Chain contract: every candidate must carry the same `sweep_index` and
/// `switch_counts` (matching `assignment`), with `requested_intermediate`
/// strictly ascending — the order the warm start and the Duplicate
/// short-circuit are proven for.
pub fn evaluate_candidate_chain(
    spec: &SocSpec,
    vi: &ViAssignment,
    plan: &FrequencyPlan,
    assignment: &SwitchAssignment,
    chain: &[SweepCandidate],
    cfg: &SynthesisConfig,
) -> Vec<CandidateOutcome> {
    evaluate_candidate_chain_with_certificate(spec, vi, plan, assignment, chain, cfg).0
}

/// [`evaluate_candidate_chain`] plus the chain's [`SlackCertificate`].
///
/// The outcomes are bit-identical to the plain evaluator's — the
/// certificate is a read-only distillation of the allocations the chain
/// produced anyway, so surfacing it costs one pass over each topology and
/// changes nothing about the results.
pub fn evaluate_candidate_chain_with_certificate(
    spec: &SocSpec,
    vi: &ViAssignment,
    plan: &FrequencyPlan,
    assignment: &SwitchAssignment,
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
    let k_max = chain
        .iter()
        .map(|c| c.requested_intermediate)
        .max()
        .unwrap_or(0);
    let ctx = match AllocContext::build(spec, vi, plan, assignment, k_max, cfg) {
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
    let mut scratch = SearchScratch::new();
    let mut prev: Option<CandidateRecord> = None;
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
        let mut record = CandidateRecord::default();
        let result = allocate_paths_warm(
            &ctx,
            candidate.requested_intermediate,
            cfg,
            &mut scratch,
            prev.as_ref(),
            Some(&mut record),
        );
        match &result {
            Ok(alloc) => {
                saturated = alloc.has_spare_intermediate(candidate.requested_intermediate);
                if alloc.via_retry {
                    cert = SlackCertificate::invalid(islands);
                } else {
                    cert.observe(vi, plan, &alloc.topology);
                }
            }
            Err(_) => cert = SlackCertificate::invalid(islands),
        }
        outcomes.push(candidate_outcome(
            result.map(|a| a.topology),
            candidate,
            spec,
            cfg,
        ));
        prev = Some(record);
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
    // `evaluate_chain`), so they must run on the same worker; distinct
    // sweep indices are independent.
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
        .map(|chain| {
            let assignment = sweep.assignment(chain[0].sweep_index);
            evaluate_candidate_chain(spec, vi, &sweep.plan, assignment, chain, cfg)
        })
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
    use vi_noc_soc::{benchmarks, partition};

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
