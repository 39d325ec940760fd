//! Min-cost path allocation with shutdown-legal link opening
//! (Algorithm 1, steps 14–17).
//!
//! Flows are routed in decreasing bandwidth order. For each flow a Dijkstra
//! search runs over the *candidate* switch graph; the edge filter enforces
//! the paper's shutdown rule — a flow from island `a` to island `b` may only
//! touch switches of `a`, `b` or the always-on intermediate island, moving
//! monotonically `a → (mid →)* b` — and the edge cost implements the paper's
//! "linear combination of the power consumption increase in opening a new
//! link or reusing an existing link and the latency constraint of the flow".
//!
//! # Incremental evaluation
//!
//! One sweep index `i` spawns `max_intermediate_switches + 1` candidates
//! `(i, k)` that share everything except the number of active intermediate
//! switches. The expensive shared prefix — the O(S²) candidate edge set, the
//! power models, the bandwidth-ordered flow list, the per-island idle-power
//! deltas — is computed once per sweep index in an [`AllocContext`] (built
//! with the *maximum* intermediate count; smaller candidates simply never
//! admit edges touching the extra switches, which provably cannot change any
//! search result). On top of that, [`allocate_paths_warm`] warm-starts
//! candidate `(i, k+1)` from `(i, k)`'s recorded allocation: while the two
//! runs' committed states are identical, flows whose legal edge set cannot
//! contain the new intermediate switches (intra-island flows) replay their
//! recorded path without searching, and every other flow re-runs exactly the
//! search a cold start would run — so the produced topology is bit-identical
//! to a cold start by construction.
//!
//! The port-reserve retry (see [`AllocState::reserve`]) is warm-started the
//! same way, from the *previous candidate's retry* record, with one extra
//! condition: consecutive retries run at different reserves (`k` and
//! `k + 1`), and the reserve enters the port-admissibility check of every
//! non-mid edge — including intra-island ones. A recorded intra-island path
//! is therefore only replayed when every switch of the flow's island
//! answers both admissibility questions (room for one more output port?
//! one more input port?) identically at the two reserves, given the — still
//! identical — committed state ([`reserve_invariant`]). The edge costs never
//! read the reserve, so equal admissibility means an identical search
//! result, and the replay stays exact.

use crate::assign::SwitchAssignment;
use crate::config::{FrequencyPlan, SynthesisConfig};
use crate::flows::{inter_switch_flows, InterSwitchFlow};
use crate::topology::{LinkKind, Route, Switch, SwitchId, TopoLink, Topology};
use vi_noc_graph::{dijkstra, DiGraph, EdgeId, NodeId, SearchScratch};
use vi_noc_models::{Bandwidth, BisyncFifoModel, Frequency, LinkModel, Power, SwitchModel};
use vi_noc_soc::{SocSpec, ViAssignment};

/// Candidate (potential) link between two switches.
#[derive(Debug, Clone)]
struct Cand {
    from: SwitchId,
    to: SwitchId,
    from_isl: usize,
    to_isl: usize,
    crossing: bool,
    length_mm: f64,
    capacity: Bandwidth,
}

/// Everything shared by every candidate `(i, k)` of one sweep index `i`:
/// the candidate switch graph (built once with `k_mid_max` intermediate
/// switches), the instantiated power models, the bandwidth-ordered flow
/// list, and the precomputed per-island port-growth idle-power deltas that
/// the hot search loop previously recomputed per edge relaxation.
pub(crate) struct AllocContext {
    cand_graph: DiGraph<SwitchId, Cand>,
    /// Topology skeleton holding the real-island switches (no intermediate
    /// switches, links or routes); cloned per candidate.
    base_topo: Topology,
    flows: Vec<InterSwitchFlow>,
    island_freq: Vec<Frequency>,
    link_model: LinkModel,
    fifo_model: BisyncFifoModel,
    nominal_switch: SwitchModel,
    /// Idle-power delta of growing the nominal 4×4 switch by one port, per
    /// extended island (i.e. at that island's frequency). Indexed by
    /// `island_ext`; the last entry is the intermediate island.
    port_growth: Vec<Power>,
    /// Number of real-island switches (intermediate switch `k` is graph
    /// node / switch id `n_real + k`).
    n_real: usize,
    /// Intermediate switches the candidate graph was built with.
    k_mid_max: usize,
    /// Extended island index of the intermediate island.
    mid: usize,
    min_lat_global: f64,
    /// Per-switch size budget, including all `k_mid_max` mid switches.
    max_size: Vec<usize>,
    /// Initial per-switch port usage (attached cores; both directions).
    core_ports: Vec<usize>,
    /// Switch indices of each real island (mid switches excluded), for the
    /// reserve-invariance replay check of intra-island flows.
    switches_of_island: Vec<Vec<usize>>,
}

impl AllocContext {
    /// Builds the shared context for one sweep index.
    ///
    /// Fails with the same human-readable reason a cold allocation would if
    /// a switch's attached cores alone exceed its size budget.
    pub(crate) fn build(
        spec: &SocSpec,
        vi: &ViAssignment,
        plan: &FrequencyPlan,
        assignment: &SwitchAssignment,
        k_mid_max: usize,
        cfg: &SynthesisConfig,
    ) -> Result<Self, String> {
        let n_islands = vi.island_count();
        let mid = n_islands;

        let mut island_freq: Vec<Frequency> = (0..n_islands).map(|j| plan.frequency(j)).collect();
        island_freq.push(plan.intermediate_frequency());

        let mut base_topo =
            Topology::new(spec, n_islands, island_freq.clone(), cfg.link_width_bits);
        for (j, groups) in assignment.groups.iter().enumerate() {
            for (g, cores) in groups.iter().enumerate() {
                base_topo.add_switch(Switch {
                    name: format!("sw{j}.{g}"),
                    island_ext: j,
                    cores: cores.clone(),
                });
            }
        }
        let n_real = base_topo.switches().len();
        let n_switches = n_real + k_mid_max;

        // Extended island of each graph node (mid switches come last).
        let island_of = |s: usize| -> usize {
            if s < n_real {
                base_topo.switch(SwitchId(s)).island_ext
            } else {
                mid
            }
        };

        // Pre-check: core counts alone must fit the switch size budgets
        // (intermediate switches carry no cores and can never fail this).
        for s in 0..n_real {
            let cores = base_topo.switch(SwitchId(s)).cores.len();
            let max = plan.max_switch_size_ext(island_of(s));
            if cores > max {
                return Err(format!(
                    "switch {} holds {cores} cores but max size is {max}",
                    base_topo.switch(SwitchId(s)).name,
                ));
            }
        }

        // --- Candidate graph over switches. ------------------------------
        // Node i of the candidate graph is switch i; edges are all potential
        // links permitted by the architecture (per-flow legality is filtered
        // during the search). Built once per sweep index with the largest
        // intermediate count; candidates with fewer active mid switches
        // filter the extra nodes out in the admissibility check.
        let link_model = LinkModel::new(&cfg.technology, cfg.link_width_bits);
        let fifo_model = BisyncFifoModel::new(&cfg.technology, cfg.link_width_bits);
        let nominal_switch = SwitchModel::new(&cfg.technology, 4, 4, cfg.link_width_bits);

        let mut cand_graph: DiGraph<SwitchId, Cand> =
            DiGraph::with_capacity(n_switches, n_switches * n_switches.saturating_sub(1));
        for s in 0..n_switches {
            cand_graph.add_node(SwitchId(s));
        }
        for u in 0..n_switches {
            for v in 0..n_switches {
                if u == v {
                    continue;
                }
                let iu = island_of(u);
                let iv = island_of(v);
                let crossing = iu != iv;
                let length_mm = if !crossing {
                    cfg.est_intra_link_mm
                } else if iu == mid || iv == mid {
                    cfg.est_mid_link_mm
                } else {
                    cfg.est_inter_link_mm
                };
                let f = Frequency::from_hz(island_freq[iu].hz().min(island_freq[iv].hz()));
                let capacity = link_model.capacity(f);
                cand_graph.add_edge(
                    NodeId::from_index(u),
                    NodeId::from_index(v),
                    Cand {
                        from: SwitchId(u),
                        to: SwitchId(v),
                        from_isl: iu,
                        to_isl: iv,
                        crossing,
                        length_mm,
                        capacity,
                    },
                );
            }
        }

        // The per-port idle-power delta the link-opening cost charges used
        // to instantiate two `SwitchModel`s per edge relaxation; precompute
        // it per island as nominal-grown-by-one-port minus nominal.
        let grown = SwitchModel::new(&cfg.technology, 4, 5, cfg.link_width_bits);
        let port_growth: Vec<Power> = island_freq
            .iter()
            .map(|&f| grown.idle_power(f) - nominal_switch.idle_power(f))
            .collect();

        let max_size: Vec<usize> = (0..n_switches)
            .map(|s| plan.max_switch_size_ext(island_of(s)))
            .collect();
        let core_ports: Vec<usize> = (0..n_switches)
            .map(|s| {
                if s < n_real {
                    base_topo.switch(SwitchId(s)).cores.len()
                } else {
                    0
                }
            })
            .collect();

        let min_lat_global = spec.min_latency_cycles().max(1) as f64;
        let flows = inter_switch_flows(spec, &base_topo);

        let mut switches_of_island: Vec<Vec<usize>> = vec![Vec::new(); n_islands];
        for s in 0..n_real {
            switches_of_island[island_of(s)].push(s);
        }

        Ok(AllocContext {
            cand_graph,
            base_topo,
            flows,
            island_freq,
            link_model,
            fifo_model,
            nominal_switch,
            port_growth,
            n_real,
            k_mid_max,
            mid,
            min_lat_global,
            max_size,
            core_ports,
            switches_of_island,
        })
    }
}

/// Mutable allocation state shared by the cost/filter closures.
struct AllocState {
    /// Open link id per candidate edge index (parallel to the cand graph).
    open: Vec<Option<crate::topology::LinkId>>,
    /// Load per candidate edge (mirrors the topology's link loads).
    load: Vec<Bandwidth>,
    in_ports: Vec<usize>,
    out_ports: Vec<usize>,
    max_size: Vec<usize>,
    /// Ports per switch held back for links to/from the intermediate
    /// island. Greedy bandwidth-ordered allocation can otherwise exhaust a
    /// hub switch with direct links, stranding later flows whose only legal
    /// route is indirect (they would need a mid link into the same switch).
    /// Zero on the first attempt; the synthesis driver retries failed design
    /// points with `reserve = k_mid`.
    reserve: usize,
}

impl AllocState {
    /// Can this candidate edge accept `bw` more bandwidth (opening it if
    /// necessary without blowing a switch size budget)?
    fn admits(&self, e: usize, cand: &Cand, bw: Bandwidth, mid: usize) -> bool {
        // Tiny relative slack so a flow that exactly fills the link is not
        // rejected by floating-point noise.
        if (self.load[e] + bw).bytes_per_s() > cand.capacity.bytes_per_s() * (1.0 + 1e-9) {
            return false;
        }
        if self.open[e].is_some() {
            return true;
        }
        let u = cand.from.index();
        let v = cand.to.index();
        // Links touching the intermediate island may use reserved ports.
        let is_mid_link = cand.from_isl == mid || cand.to_isl == mid;
        let reserve = if is_mid_link { 0 } else { self.reserve };
        let u_size = self.in_ports[u].max(self.out_ports[u] + 1);
        let v_size = (self.in_ports[v] + 1).max(self.out_ports[v]);
        u_size + reserve <= self.max_size[u] && v_size + reserve <= self.max_size[v]
    }
}

/// One flow's committed path, recorded for warm-starting the next
/// intermediate-count candidate of the same sweep index.
#[derive(Debug, Clone, PartialEq)]
enum FlowPath {
    /// Source and destination share a switch; no search ever runs.
    OwnSwitch,
    /// Path as candidate-graph edge ids (stable across the sweep index
    /// because the graph is shared).
    Edges(Vec<EdgeId>),
}

/// Committed paths of one allocation attempt, aligned with
/// [`AllocContext::flows`]. Holds the successful prefix even when the
/// attempt failed partway — the prefix is still a valid warm-start seed.
#[derive(Debug, Default)]
pub(crate) struct AllocRecord {
    paths: Vec<FlowPath>,
    /// Port reserve the recorded attempt ran at. Replaying a recorded path
    /// under a *different* reserve additionally requires
    /// [`reserve_invariant`] to hold for the flow's island.
    reserve: usize,
}

/// Both attempts' records of one candidate evaluation — the warm-start seed
/// for the next candidate of the chain. The reserve-0 attempt and the
/// port-reserve retry commit different paths, so each seeds only its own
/// successor.
#[derive(Debug, Default)]
pub(crate) struct CandidateRecord {
    /// The reserve-0 attempt (always runs).
    main: AllocRecord,
    /// The port-reserve retry; present only when the reserve-0 attempt
    /// failed and the retry ran (its failed prefix is kept too).
    retry: Option<AllocRecord>,
}

/// `true` when every switch in `switches` answers the two
/// port-admissibility questions of [`AllocState::admits`] — room to grow by
/// one output port, room to grow by one input port — identically at port
/// reserves `r_a` and `r_b`, given the current state. Under that condition
/// an intra-island search's admissible edge set (and the costs never read
/// the reserve) is the same at both reserves, so its result is too.
fn reserve_invariant(state: &AllocState, switches: &[usize], r_a: usize, r_b: usize) -> bool {
    switches.iter().all(|&u| {
        let grow_out = state.in_ports[u].max(state.out_ports[u] + 1);
        let grow_in = (state.in_ports[u] + 1).max(state.out_ports[u]);
        let max = state.max_size[u];
        (grow_out + r_a <= max) == (grow_out + r_b <= max)
            && (grow_in + r_a <= max) == (grow_in + r_b <= max)
    })
}

/// A successful allocation plus how it was obtained.
///
/// Beyond the Duplicate short-circuit, the chain evaluator also distills a
/// [`crate::SlackCertificate`] from each allocation: `via_retry` poisons
/// the certificate outright (retry admissibility is count-dependent, so
/// nothing about port slack is provable), and the topology's routes and
/// port counts supply the per-island slack conditions.
pub(crate) struct Allocation {
    pub(crate) topology: Topology,
    /// `true` when the reserve-0 attempt failed and the port-reserve retry
    /// produced the topology. The sweep driver's Duplicate short-circuit
    /// (see [`Allocation::has_spare_intermediate`]) must not fire then,
    /// because the retry's admissibility depends on the requested
    /// intermediate count.
    pub(crate) via_retry: bool,
}

impl Allocation {
    /// `true` when the reserve-0 allocation left at least one requested
    /// intermediate switch unused.
    ///
    /// An unused intermediate switch is an *interchangeable twin* of the
    /// extra switch the next candidate `(i, k+1)` would add: identical
    /// island, frequency, ports, loads and edge costs, with a lower node
    /// id. A Dijkstra relaxation through the new switch can therefore
    /// never strictly improve a distance the twin does not already
    /// provide, and the tie-breaking (smaller node id settles first,
    /// strict-`<` relaxation) always keeps the twin's paths — so every
    /// higher-count candidate of the sweep index reproduces this exact
    /// topology and is a [`crate::CandidateOutcome::Duplicate`] without
    /// running.
    pub(crate) fn has_spare_intermediate(&self, requested: usize) -> bool {
        !self.via_retry && self.topology.intermediate_switch_count() < requested
    }
}

/// Zero-load latency of a route given its switch count and crossings.
pub(crate) fn route_latency(switches: usize, crossings: u32, cfg: &SynthesisConfig) -> u32 {
    let links = switches as u32 + 1; // NI->s1, inter-switch links, sm->NI
    switches as u32 * cfg.switch_delay_cycles
        + links * cfg.link_delay_cycles
        + crossings * BisyncFifoModel::CROSSING_LATENCY_CYCLES
}

/// Allocates paths for all flows, opening links as needed.
///
/// Returns the finished topology (unused intermediate switches pruned), or a
/// human-readable reason why the design point is infeasible.
///
/// Cold-start convenience wrapper over [`AllocContext::build`] +
/// [`allocate_paths_warm`]; the sweep driver builds the context once per
/// sweep index and warm-starts consecutive candidates instead.
pub(crate) fn allocate_paths(
    spec: &SocSpec,
    vi: &ViAssignment,
    plan: &FrequencyPlan,
    assignment: &SwitchAssignment,
    k_mid: usize,
    cfg: &SynthesisConfig,
) -> Result<Topology, String> {
    let ctx = AllocContext::build(spec, vi, plan, assignment, k_mid, cfg)?;
    let mut scratch = SearchScratch::new();
    allocate_paths_warm(&ctx, k_mid, cfg, &mut scratch, None, None).map(|a| a.topology)
}

/// Allocates paths for the candidate with `k_mid` active intermediate
/// switches, optionally warm-started from the previous candidate's
/// [`CandidateRecord`] and recording this candidate's attempts into
/// `record`.
///
/// The result is bit-identical to a cold start: warm-starting only skips
/// searches whose outcome is provably unchanged (see the module docs). On
/// reserve-0 infeasibility the port-reserve retry runs, itself warm-started
/// from the previous candidate's retry record when one exists — the
/// differing reserves are handled by the [`reserve_invariant`] replay
/// guard.
pub(crate) fn allocate_paths_warm(
    ctx: &AllocContext,
    k_mid: usize,
    cfg: &SynthesisConfig,
    scratch: &mut SearchScratch,
    prev: Option<&CandidateRecord>,
    mut record: Option<&mut CandidateRecord>,
) -> Result<Allocation, String> {
    assert!(
        k_mid <= ctx.k_mid_max,
        "candidate requests {k_mid} intermediate switches but the context \
         was built with {}",
        ctx.k_mid_max
    );
    let main = try_allocate(
        ctx,
        k_mid,
        0,
        cfg,
        scratch,
        prev.map(|p| &p.main),
        record.as_deref_mut().map(|r| &mut r.main),
    );
    match main {
        Ok(topology) => {
            if let Some(r) = record {
                r.retry = None;
            }
            Ok(Allocation {
                topology,
                via_retry: false,
            })
        }
        // Greedy direct-link opening may have stranded later flows on a
        // port-exhausted hub switch; retry holding ports back for
        // intermediate-island links (see `AllocState::reserve`).
        Err(first) if k_mid > 0 => {
            let prev_retry = prev.and_then(|p| p.retry.as_ref());
            let retry_rec = record.map(|r| r.retry.insert(AllocRecord::default()));
            try_allocate(ctx, k_mid, k_mid, cfg, scratch, prev_retry, retry_rec)
                .map(|topology| Allocation {
                    topology,
                    via_retry: true,
                })
                .map_err(|_| first)
        }
        Err(e) => {
            if let Some(r) = record {
                r.retry = None;
            }
            Err(e)
        }
    }
}

/// One allocation attempt at a fixed port reserve.
fn try_allocate(
    ctx: &AllocContext,
    k_mid: usize,
    reserve: usize,
    cfg: &SynthesisConfig,
    scratch: &mut SearchScratch,
    prev: Option<&AllocRecord>,
    mut record: Option<&mut AllocRecord>,
) -> Result<Topology, String> {
    let mut topo = ctx.base_topo.clone();
    for k in 0..k_mid {
        topo.add_switch(Switch {
            name: format!("mid.{k}"),
            island_ext: ctx.mid,
            cores: Vec::new(),
        });
    }

    let mut state = AllocState {
        open: vec![None; ctx.cand_graph.edge_count()],
        load: vec![Bandwidth::ZERO; ctx.cand_graph.edge_count()],
        in_ports: ctx.core_ports.clone(),
        out_ports: ctx.core_ports.clone(),
        max_size: ctx.max_size.clone(),
        reserve,
    };
    if let Some(r) = record.as_deref_mut() {
        r.paths.clear();
        r.reserve = reserve;
    }

    // Warm-start bookkeeping: while `diverged` is false, every flow
    // committed so far committed exactly the path the recorded run did, so
    // the two runs' states are identical and recorded intra-island paths
    // can be replayed without searching. When the recorded run used a
    // different port reserve (consecutive retries), replay additionally
    // needs the per-island reserve-invariance guard below.
    let prev_reserve = prev.map_or(reserve, |r| r.reserve);
    let mut diverged = prev.is_none();
    let mut path_buf: Vec<EdgeId> = Vec::new();

    for (t, isf) in ctx.flows.iter().enumerate() {
        if isf.src_switch == isf.dst_switch {
            let latency = route_latency(1, 0, cfg);
            if latency > isf.max_latency_cycles {
                return Err(format!(
                    "flow {} latency {latency} exceeds constraint {} on its own switch",
                    isf.flow, isf.max_latency_cycles
                ));
            }
            topo.set_route(Route {
                flow: isf.flow,
                switches: vec![isf.src_switch],
                latency_cycles: latency,
                crossings: 0,
            });
            if let Some(r) = record.as_deref_mut() {
                r.paths.push(FlowPath::OwnSwitch);
            }
            continue;
        }

        let prev_path = if diverged {
            None
        } else {
            let p = prev.and_then(|r| r.paths.get(t));
            if p.is_none() {
                // The recorded run ended here (it failed at this flow);
                // beyond this point its state is unknown.
                diverged = true;
            }
            p
        };

        let replayable = matches!(prev_path, Some(FlowPath::Edges(_)))
            && isf.src_island == isf.dst_island
            && (prev_reserve == reserve
                || reserve_invariant(
                    &state,
                    &ctx.switches_of_island[isf.src_island],
                    prev_reserve,
                    reserve,
                ));
        if replayable {
            // Intra-island searches admit only edges inside the source
            // island, which the intermediate-count change cannot touch —
            // and any reserve difference is screened off by the invariance
            // guard above. With identical state the search would return
            // the recorded path verbatim, so skip it.
            let Some(FlowPath::Edges(edges)) = prev_path else {
                unreachable!()
            };
            path_buf.clear();
            path_buf.extend_from_slice(edges);
        } else {
            find_path(ctx, &state, isf, k_mid, cfg, scratch, &mut path_buf)?;
            if let Some(FlowPath::Edges(edges)) = prev_path {
                if path_buf != *edges {
                    diverged = true;
                }
            } else {
                debug_assert!(
                    prev_path.is_none(),
                    "same-switch classification is state-independent"
                );
            }
        }

        // Commit the path.
        let mut switches = vec![isf.src_switch];
        let mut crossings = 0u32;
        for &e in &path_buf {
            let cand = ctx.cand_graph.edge(e);
            if cand.crossing {
                crossings += 1;
            }
            let ei = e.index();
            if state.open[ei].is_none() {
                let kind = if !cand.crossing {
                    LinkKind::Intra
                } else if cand.from_isl == ctx.mid || cand.to_isl == ctx.mid {
                    LinkKind::Intermediate
                } else {
                    LinkKind::InterDirect
                };
                let lid = topo.open_link(TopoLink {
                    from: cand.from,
                    to: cand.to,
                    capacity: cand.capacity,
                    load: Bandwidth::ZERO,
                    kind,
                    length_mm: cand.length_mm,
                });
                state.open[ei] = Some(lid);
                state.out_ports[cand.from.index()] += 1;
                state.in_ports[cand.to.index()] += 1;
            }
            let lid = state.open[ei].expect("just opened");
            topo.add_load(lid, isf.bandwidth);
            state.load[ei] += isf.bandwidth;
            switches.push(cand.to);
        }
        let latency = route_latency(switches.len(), crossings, cfg);
        if latency > isf.max_latency_cycles {
            return Err(format!(
                "flow {} routed latency {latency} exceeds constraint {}",
                isf.flow, isf.max_latency_cycles
            ));
        }
        topo.set_route(Route {
            flow: isf.flow,
            switches,
            latency_cycles: latency,
            crossings,
        });
        if let Some(r) = record.as_deref_mut() {
            r.paths.push(FlowPath::Edges(path_buf.clone()));
        }
    }

    topo.prune_unused_intermediate();
    Ok(topo)
}

/// Finds the path for one flow: first min-cost, then (if the latency
/// constraint is violated) min-latency as a fallback. Writes the edge
/// sequence into `out`.
fn find_path(
    ctx: &AllocContext,
    state: &AllocState,
    isf: &InterSwitchFlow,
    k_mid: usize,
    cfg: &SynthesisConfig,
    scratch: &mut SearchScratch,
    out: &mut Vec<EdgeId>,
) -> Result<(), String> {
    let src = NodeId::from_index(isf.src_switch.index());
    let dst = NodeId::from_index(isf.dst_switch.index());
    let bw = isf.bandwidth;
    let (src_isl, dst_isl) = (isf.src_island, isf.dst_island);
    let mid = ctx.mid;
    let n_active = ctx.n_real + k_mid;

    let admit = |e: EdgeId, cand: &Cand| -> bool {
        // Intermediate switches beyond this candidate's count exist in the
        // shared graph but are inactive. The search only ever relaxes edges
        // out of reachable (hence active) nodes, so screening the target is
        // enough to keep it inside the active subgraph.
        if cand.to.index() >= n_active {
            return false;
        }
        let legal = if src_isl == dst_isl {
            // Intra-island flows never leave their island.
            cand.from_isl == src_isl && cand.to_isl == src_isl
        } else {
            let (a, b) = (cand.from_isl, cand.to_isl);
            (a == b && (a == src_isl || a == dst_isl))
                || (a == src_isl && b == dst_isl)
                || (a == src_isl && b == mid)
                || (a == mid && b == dst_isl)
                || (a == mid && b == mid)
        };
        legal && state.admits(e.index(), cand, bw, mid)
    };

    let urgency = ctx.min_lat_global / isf.max_latency_cycles.max(1) as f64;
    let power_cost = |e: EdgeId, cand: &Cand| -> f64 {
        // Marginal traffic power on this hop: wire + downstream switch
        // datapath + converter, all for this flow's bandwidth.
        let mut p =
            ctx.link_model.traffic_power(cand.length_mm, bw) + ctx.nominal_switch.traffic_power(bw);
        if cand.crossing {
            p += ctx.fifo_model.power(Frequency::ZERO, Frequency::ZERO, bw);
        }
        // Opening a new link pays its standing (idle/clock) power too.
        let mut scarcity = 0.0;
        if state.open[e.index()].is_none() {
            let fu = ctx.island_freq[cand.from_isl];
            let fv = ctx.island_freq[cand.to_isl];
            if cand.crossing {
                p += ctx.fifo_model.power(fu, fv, Bandwidth::ZERO);
            }
            // One extra output port at `from`, one extra input at `to`:
            // approximate with the nominal switch's per-port idle delta,
            // precomputed per island in the context.
            p += ctx.port_growth[cand.from_isl];
            p += ctx.port_growth[cand.to_isl];
            // Port scarcity: consuming one of the endpoints' last free
            // ports is exponentially discouraged so hub switches keep
            // ports for later flows (which may have no alternative).
            let u = cand.from.index();
            let v = cand.to.index();
            let rem_out = state.max_size[u].saturating_sub(state.out_ports[u]).max(1);
            let rem_in = state.max_size[v].saturating_sub(state.in_ports[v]).max(1);
            scarcity = cfg.cost_port_scarcity
                * (f64::powi(2.0, -(rem_out as i32 - 1)) + f64::powi(2.0, -(rem_in as i32 - 1)));
        }
        p.mw() + scarcity
    };
    let hop_latency = |cand: &Cand| -> f64 {
        (cfg.link_delay_cycles + cfg.switch_delay_cycles) as f64
            + if cand.crossing {
                BisyncFifoModel::CROSSING_LATENCY_CYCLES as f64
            } else {
                0.0
            }
    };

    // Pass 1: paper cost = linear combination of power increase and latency.
    dijkstra(
        &ctx.cand_graph,
        src,
        Some(dst),
        |e, cand| {
            cfg.cost_power_weight * power_cost(e, cand)
                + cfg.cost_latency_weight * hop_latency(cand) * urgency
        },
        admit,
        scratch,
    );
    if scratch.path_edges_into(dst, out) {
        let crossings = out
            .iter()
            .filter(|&&e| ctx.cand_graph.edge(e).crossing)
            .count() as u32;
        let latency = route_latency(out.len() + 1, crossings, cfg);
        if latency <= isf.max_latency_cycles {
            return Ok(());
        }
    }

    // Pass 2: pure latency (the cost-optimal path was too slow or absent).
    dijkstra(
        &ctx.cand_graph,
        src,
        Some(dst),
        |_, cand| hop_latency(cand),
        admit,
        scratch,
    );
    if scratch.path_edges_into(dst, out) {
        let crossings = out
            .iter()
            .filter(|&&e| ctx.cand_graph.edge(e).crossing)
            .count() as u32;
        let latency = route_latency(out.len() + 1, crossings, cfg);
        if latency <= isf.max_latency_cycles {
            Ok(())
        } else {
            Err(format!(
                "flow {} min latency {latency} exceeds constraint {}",
                isf.flow, isf.max_latency_cycles
            ))
        }
    } else {
        Err(format!(
            "flow {}: no shutdown-legal path with available capacity/ports",
            isf.flow
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{island_switch_assignment, switch_counts_for_sweep};
    use crate::vcg::build_vcg;
    use vi_noc_soc::{benchmarks, partition};

    fn alloc_d26(k_islands: usize, sweep: usize, k_mid: usize) -> Result<Topology, String> {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, k_islands).unwrap();
        let cfg = SynthesisConfig::default();
        let plan = FrequencyPlan::compute(&soc, &vi, &cfg);
        let vcgs: Vec<_> = (0..k_islands)
            .map(|j| build_vcg(&soc, &vi, j, &cfg))
            .collect();
        let counts = switch_counts_for_sweep(&vcgs, &plan, sweep);
        let asg = island_switch_assignment(&vcgs, &plan, &counts, &cfg);
        allocate_paths(&soc, &vi, &plan, &asg, k_mid, &cfg)
    }

    /// The minimum-switch-count configuration can be legitimately
    /// port-starved (that is exactly why Algorithm 1 sweeps); tests that
    /// need *a* feasible topology search like the driver does.
    fn first_feasible_d26(k_islands: usize) -> Topology {
        for sweep in 1..=8 {
            for k_mid in 0..=4 {
                if let Ok(t) = alloc_d26(k_islands, sweep, k_mid) {
                    return t;
                }
            }
        }
        panic!("no feasible allocation for {k_islands} islands");
    }

    #[test]
    fn latency_formula() {
        let cfg = SynthesisConfig::default();
        // 1 switch: NI link + switch + NI link = 3 cycles.
        assert_eq!(route_latency(1, 0, &cfg), 3);
        // 2 switches same island: 2 sw + 3 links = 5.
        assert_eq!(route_latency(2, 0, &cfg), 5);
        // 2 switches across islands: + 4-cycle crossing = 9.
        assert_eq!(route_latency(2, 1, &cfg), 9);
        // via mid: 3 switches, 2 crossings = 3 + 4 + 8 = 15.
        assert_eq!(route_latency(3, 2, &cfg), 15);
    }

    #[test]
    fn single_island_routes_everything() {
        let topo = first_feasible_d26(1);
        assert_eq!(topo.routes().count(), benchmarks::d26_mobile().flow_count());
        // No crossings in a single island.
        for r in topo.routes() {
            assert_eq!(r.crossings, 0);
        }
        for l in topo.links() {
            assert_eq!(l.kind, LinkKind::Intra);
        }
    }

    #[test]
    fn six_islands_route_with_crossings() {
        let topo = first_feasible_d26(6);
        let soc = benchmarks::d26_mobile();
        assert_eq!(topo.routes().count(), soc.flow_count());
        assert!(
            topo.routes().any(|r| r.crossings > 0),
            "inter-island flows must cross"
        );
        // Link loads never exceed capacity.
        for l in topo.links() {
            assert!(l.load <= l.capacity, "{} overloaded", l.from);
        }
    }

    #[test]
    fn routes_respect_latency_constraints() {
        let topo = first_feasible_d26(6);
        let soc = benchmarks::d26_mobile();
        for r in topo.routes() {
            assert!(
                r.latency_cycles <= soc.flow(r.flow).max_latency_cycles,
                "flow {} latency {} > {}",
                r.flow,
                r.latency_cycles,
                soc.flow(r.flow).max_latency_cycles
            );
        }
    }

    #[test]
    fn shutdown_legality_of_all_routes() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let topo = first_feasible_d26(6);
        let mid = vi.island_count();
        for r in topo.routes() {
            let f = soc.flow(r.flow);
            let a = vi.island_of(f.src);
            let b = vi.island_of(f.dst);
            for &s in &r.switches {
                let isl = topo.switch(s).island_ext;
                assert!(
                    isl == a || isl == b || isl == mid,
                    "flow {} visits foreign island {isl}",
                    r.flow
                );
            }
        }
    }

    #[test]
    fn switch_sizes_stay_within_budget() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let cfg = SynthesisConfig::default();
        let plan = FrequencyPlan::compute(&soc, &vi, &cfg);
        let topo = first_feasible_d26(6);
        for s in topo.switch_ids() {
            let (inp, outp) = topo.switch_ports(s);
            let max = plan.max_switch_size_ext(topo.switch(s).island_ext);
            assert!(
                inp.max(outp) <= max,
                "switch {} size {} exceeds {}",
                topo.switch(s).name,
                inp.max(outp),
                max
            );
        }
    }

    #[test]
    fn unused_intermediate_switches_are_pruned() {
        // With generous direct connectivity the mid island is unnecessary;
        // requesting 3 mid switches must not leave dead switches behind.
        let topo = alloc_d26(2, 1, 3).expect("feasible");
        for s in topo.switch_ids() {
            if topo.switch(s).island_ext == topo.island_count() {
                let (inp, outp) = topo.switch_ports(s);
                assert!(inp + outp > 0, "dead intermediate switch survived pruning");
            }
        }
    }

    #[test]
    fn discrete_islands_need_the_intermediate_island() {
        // At 26 islands the SDRAM hub would need ~20 direct links; the
        // switch size budget forces traffic through mid switches.
        let direct_only = alloc_d26(26, 1, 0);
        let with_mid = alloc_d26(26, 1, 4);
        assert!(
            with_mid.is_ok(),
            "26-island design should be feasible with an intermediate island: {:?}",
            with_mid.err()
        );
        if let Ok(t) = &with_mid {
            // Either direct-only fails, or mid genuinely reduces links.
            if direct_only.is_ok() {
                assert!(t.intermediate_switch_count() <= 4);
            } else {
                assert!(t.intermediate_switch_count() > 0);
            }
        }
    }

    /// A context built with spare (inactive) intermediate switches must
    /// produce exactly the topology of a context built with the candidate's
    /// own count — the inactive nodes are invisible to the searches.
    #[test]
    fn oversized_context_is_invisible() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let cfg = SynthesisConfig::default();
        let plan = FrequencyPlan::compute(&soc, &vi, &cfg);
        let vcgs: Vec<_> = (0..6).map(|j| build_vcg(&soc, &vi, j, &cfg)).collect();
        let counts = switch_counts_for_sweep(&vcgs, &plan, 1);
        let asg = island_switch_assignment(&vcgs, &plan, &counts, &cfg);

        let mut scratch = SearchScratch::new();
        for k_mid in 0..=3usize {
            let exact = AllocContext::build(&soc, &vi, &plan, &asg, k_mid, &cfg).unwrap();
            let oversized = AllocContext::build(&soc, &vi, &plan, &asg, 4, &cfg).unwrap();
            let a = allocate_paths_warm(&exact, k_mid, &cfg, &mut scratch, None, None)
                .map(|a| a.topology);
            let b = allocate_paths_warm(&oversized, k_mid, &cfg, &mut scratch, None, None)
                .map(|a| a.topology);
            match (a, b) {
                (Ok(ta), Ok(tb)) => assert_eq!(ta, tb, "k_mid={k_mid}"),
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "k_mid={k_mid}"),
                (a, b) => panic!("k_mid={k_mid}: {a:?} vs {b:?}"),
            }
        }
    }

    /// The reserve-invariance guard itself: switches answer the
    /// port-growth admissibility questions identically at two reserves iff
    /// neither inequality flips between them.
    #[test]
    fn reserve_invariance_guard() {
        let state = AllocState {
            open: Vec::new(),
            load: Vec::new(),
            in_ports: vec![2, 2],
            out_ports: vec![2, 6],
            max_size: vec![8, 8],
            reserve: 0,
        };
        // Switch 0 grows to 3 ports either way: 3+1 and 3+2 both fit in 8.
        assert!(reserve_invariant(&state, &[0], 1, 2));
        // Switch 1's output growth needs 7 ports: 7+1 fits, 7+2 does not.
        assert!(!reserve_invariant(&state, &[1], 1, 2));
        assert!(!reserve_invariant(&state, &[0, 1], 1, 2));
        // Equal reserves are trivially invariant even on the tight switch.
        assert!(reserve_invariant(&state, &[0, 1], 2, 2));
    }

    /// The port-reserve retry must actually fire somewhere in the d26
    /// sweep chains, and a warm-started retry (seeded by the previous
    /// candidate's retry record, at a *different* reserve) must be
    /// bit-identical to a cold evaluation of the same candidate.
    #[test]
    fn warm_started_retry_matches_cold_retry() {
        // The communication partition of D36 port-starves its hub switches
        // at the minimum switch counts: every k_mid >= 1 candidate of sweep
        // index 1 succeeds only via the port-reserve retry, so consecutive
        // candidates exercise the retry-from-retry warm start at differing
        // reserves.
        let soc = benchmarks::d36_tablet();
        let cfg = SynthesisConfig::default();
        let mut retries = 0usize;
        let mut warm_seeded_retries = 0usize;
        for k_islands in [6usize, 7] {
            let vi = partition::communication_partition(&soc, k_islands, 1).unwrap();
            let plan = FrequencyPlan::compute(&soc, &vi, &cfg);
            let vcgs: Vec<_> = (0..k_islands)
                .map(|j| build_vcg(&soc, &vi, j, &cfg))
                .collect();
            for sweep in 1..=2usize {
                let counts = switch_counts_for_sweep(&vcgs, &plan, sweep);
                let asg = island_switch_assignment(&vcgs, &plan, &counts, &cfg);
                let ctx = AllocContext::build(&soc, &vi, &plan, &asg, 4, &cfg).unwrap();
                let mut scratch = SearchScratch::new();
                let mut prev: Option<CandidateRecord> = None;
                for k_mid in 0..=4usize {
                    let mut rec = CandidateRecord::default();
                    let warm = allocate_paths_warm(
                        &ctx,
                        k_mid,
                        &cfg,
                        &mut scratch,
                        prev.as_ref(),
                        Some(&mut rec),
                    );
                    let cold = allocate_paths_warm(&ctx, k_mid, &cfg, &mut scratch, None, None);
                    let label = format!("islands={k_islands} sweep={sweep} k={k_mid}");
                    match (&warm, &cold) {
                        (Ok(aw), Ok(ac)) => {
                            assert_eq!(aw.via_retry, ac.via_retry, "{label}");
                            assert_eq!(aw.topology, ac.topology, "{label}");
                            if aw.via_retry {
                                retries += 1;
                                if prev.as_ref().is_some_and(|p| p.retry.is_some()) {
                                    warm_seeded_retries += 1;
                                }
                            }
                        }
                        (Err(ew), Err(ec)) => assert_eq!(ew, ec, "{label}"),
                        _ => panic!("{label}: {:?} vs {:?}", warm.is_ok(), cold.is_ok()),
                    }
                    prev = Some(rec);
                }
            }
        }
        assert!(
            retries > 0,
            "fixture never exercised the port-reserve retry"
        );
        assert!(
            warm_seeded_retries > 0,
            "no retry ever ran with a previous retry record to warm-start from"
        );
    }

    /// Warm-starting from the previous candidate's record must be
    /// bit-identical to a cold start, both when the warm path replays
    /// recorded flows and when it diverges.
    #[test]
    fn warm_start_matches_cold_start_across_the_mid_sweep() {
        let soc = benchmarks::d26_mobile();
        for k_islands in [2usize, 6, 26] {
            let vi = partition::logical_partition(&soc, k_islands).unwrap();
            let cfg = SynthesisConfig::default();
            let plan = FrequencyPlan::compute(&soc, &vi, &cfg);
            let vcgs: Vec<_> = (0..k_islands)
                .map(|j| build_vcg(&soc, &vi, j, &cfg))
                .collect();
            for sweep in 1..=3usize {
                let counts = switch_counts_for_sweep(&vcgs, &plan, sweep);
                let asg = island_switch_assignment(&vcgs, &plan, &counts, &cfg);
                let ctx = AllocContext::build(&soc, &vi, &plan, &asg, 4, &cfg).unwrap();
                let mut scratch = SearchScratch::new();
                let mut prev: Option<CandidateRecord> = None;
                for k_mid in 0..=4usize {
                    let mut rec = CandidateRecord::default();
                    let warm = allocate_paths_warm(
                        &ctx,
                        k_mid,
                        &cfg,
                        &mut scratch,
                        prev.as_ref(),
                        Some(&mut rec),
                    )
                    .map(|a| a.topology);
                    let cold = allocate_paths_warm(&ctx, k_mid, &cfg, &mut scratch, None, None)
                        .map(|a| a.topology);
                    match (&warm, &cold) {
                        (Ok(tw), Ok(tc)) => {
                            assert_eq!(tw, tc, "islands={k_islands} sweep={sweep} k={k_mid}")
                        }
                        (Err(ew), Err(ec)) => {
                            assert_eq!(ew, ec, "islands={k_islands} sweep={sweep} k={k_mid}")
                        }
                        _ => panic!(
                            "islands={k_islands} sweep={sweep} k={k_mid}: {warm:?} vs {cold:?}"
                        ),
                    }
                    prev = Some(rec);
                }
            }
        }
    }
}
