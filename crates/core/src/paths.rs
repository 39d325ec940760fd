//! Min-cost path allocation with shutdown-legal link opening
//! (Algorithm 1, steps 14–17).
//!
//! Flows are routed in decreasing bandwidth order. For each flow a
//! [`dijkstra`] search runs over the implicit *candidate* switch graph —
//! every ordered pair of switches is a potential link, with edge id
//! `u·(n−1) + v − [v > u]` — restricted to the paper's shutdown rule: a
//! flow from island `a` to island `b` may only touch switches of `a`, `b`
//! or the always-on intermediate island, moving monotonically
//! `a → (mid →)* b`. The edge cost implements the paper's "linear
//! combination of the power consumption increase in opening a new link or
//! reusing an existing link and the latency constraint of the flow".
//!
//! # The island-blocked search
//!
//! Switches are numbered island by island, intermediate switches last, so
//! the legal targets of a switch are at most three contiguous [`Block`]s:
//! the own island for an intra-island flow; for a flow from `a` to `b`,
//! `a`, `b` and mid when leaving `a`, `b` and mid when leaving mid, and `b`
//! when leaving `b`. A candidate edge's length, capacity, crossing and link
//! kind depend only on its island pair, so each block's reuse cost,
//! opening power and latency term are priced once per flow, with the float
//! operations of the per-edge formula in the same order; only the
//! port-scarcity term and the admissibility checks read per-switch state.
//! Settled targets are skipped: with non-negative weights a settled switch
//! can never improve, and ingestion bounds every cost weight and wire
//! estimate at `>= 0`. Ties resolve by [`dijkstra`]'s rule: the heap pops
//! the smaller cost first, then the smaller switch, and relaxation is
//! strict.
//!
//! An attempt tracks open links, loads and ports in flat arrays
//! ([`AllocScratch`]) and numbers links in opening order. A successful
//! attempt answers from those arrays what the chain evaluator asks before
//! it keeps a candidate: how many intermediate switches it uses (the
//! Duplicate test, [`Allocation`]) and each switch's ports and each link's
//! load (the slack certificate). Only a feasible candidate becomes a
//! [`Topology`]: [`build_topology`] replays the committed paths in flow
//! order, which opens the links in the same order and so gives them the
//! same ids.
//!
//! # What is shared, and by whom
//!
//! A block's prices depend on the flow, the frequency plan and the config,
//! never on the switch assignment. So the island-pair link table, the
//! bandwidth-ordered flow list and every flow's priced blocks and
//! fresh-intermediate bound are a [`FlowPricing`], computed once per
//! frequency plan and shared by every chain of it (through its
//! [`crate::PlanTable`]). An [`AllocContext`] adds what one chain's switch
//! assignment decides: the switch numbering, the real-island switches,
//! their size budgets and core ports.
//!
//! # Incremental evaluation
//!
//! One sweep index `i` spawns `max_intermediate_switches + 1` candidates
//! `(i, k)` that share everything except the number of active intermediate
//! switches, so one [`AllocContext`] serves them all (built with the
//! *maximum* intermediate count; a smaller candidate's mid block simply
//! ends at its own count). On top of that, [`allocate_paths_warm`]
//! warm-starts candidate `(i, k+1)` from `(i, k)`'s recorded allocation.
//! While the two runs' committed states are identical, a flow replays its
//! recorded path without searching when the search provably returns it:
//!
//! * an intra-island flow, whose blocks cannot reach an intermediate
//!   switch;
//! * an inter-island flow whose recorded path pass 1 accepted at distance
//!   `D`, when the run is at the recorded port reserve, has more
//!   intermediate switches than the recorded run, and `W_in + W_out > D`.
//!   `W_in` and `W_out` are the cheapest pass-1 costs of opening an edge
//!   into and out of a *fresh* intermediate switch (one the recorded run
//!   did not have), both with the port-scarcity term of switches with no
//!   port used. A fresh switch has no links, so every path through it pays
//!   both; rounding is monotone and weights are non-negative, so every
//!   switch reached through one sits above `D`; and fresh switches have the
//!   highest ids, so the destination pops before any tied one. The search
//!   therefore settles the same switches, with the same distances and
//!   predecessors, up to the destination. The rule is taken only when all
//!   of the flow's weights are non-negative (a Rust caller's negative
//!   config falls back to searching), and debug builds re-run the search
//!   for every such replay and assert the path and `D`.
//!
//! Every other flow re-runs exactly the search a cold start would run, so
//! the produced topology is bit-identical to a cold start by construction.
//!
//! The port-reserve retry (see [`AllocScratch::reserve_invariant`]) is
//! warm-started the same way, from the *previous candidate's retry* record.
//! Consecutive retries run at different reserves (`k` and `k + 1`), and
//! the reserve enters the port-admissibility check of every non-mid edge —
//! including intra-island ones. A recorded intra-island path is therefore
//! only replayed when every switch of the flow's island answers both
//! admissibility questions (room for one more output port? one more input
//! port?) identically at the two reserves, given the — still identical —
//! committed state. The edge costs never read the reserve, so equal
//! admissibility means an identical search result, and the replay stays
//! exact. The fresh-intermediate rule needs equal reserves, so retries
//! never take it.

use crate::config::{FrequencyPlan, SynthesisConfig};
use crate::dijkstra::{dijkstra, SearchScratch};
use crate::flows::{bandwidth_order, lift_flow, InterSwitchFlow};
use crate::topology::{LinkId, LinkKind, Route, Switch, SwitchId, TopoLink, Topology};
use std::cmp::Ordering;
use std::ops::Range;
use vi_noc_models::{Bandwidth, BisyncFifoModel, Frequency, LinkModel, Power, SwitchModel};
use vi_noc_soc::{CoreId, FlowId, SocSpec, ViAssignment};

/// The candidate link between two extended islands: every edge from a
/// switch of the one to a switch of the other shares it.
#[derive(Debug, Clone, Copy)]
struct PairLink {
    kind: LinkKind,
    length_mm: f64,
    capacity: Bandwidth,
}

/// One legal target block of a flow's search: the edges from a switch of
/// extended island `from` into the switches of island `to`, priced for the
/// flow.
#[derive(Debug, Clone, Copy)]
struct Block {
    from: usize,
    to: usize,
    /// The edges touch the intermediate island, so they may use reserved
    /// ports.
    touches_mid: bool,
    /// Load above which an edge is full: the capacity plus a `1e-9`
    /// relative slack, so a flow that exactly fills the link is not
    /// rejected by floating-point noise.
    limit: f64,
    /// An unopened edge has room for the flow.
    fresh_fits: bool,
    /// Pass-1 weight of an open edge.
    reuse: f64,
    /// Power of opening an edge, mW, before the port-scarcity term.
    open_mw: f64,
    /// Pass-1 latency term, `cost_latency_weight · hop · urgency`.
    lat_term: f64,
    /// Hop latency, the pass-2 weight.
    hop: f64,
}

/// What the allocator prices from the frequency plan alone, shared by
/// every chain of the plan (one per [`crate::PlanTable`]): the candidate
/// link of every extended-island pair, the bandwidth-ordered flow list and
/// every flow's priced search blocks and fresh-intermediate bound.
///
/// A block depends on the flow's islands, bandwidth and latency bound, the
/// plan's clocks and the config, never on the switch assignment, so every
/// flow is priced as if its endpoints sat on different switches: an
/// intra-island flow gets its own island's block, an inter-island flow its
/// six. A chain whose assignment puts both endpoints on one switch never
/// searches that flow.
#[derive(Debug, Clone)]
pub(crate) struct FlowPricing {
    /// The SoC flows in allocation order.
    order: Vec<FlowId>,
    /// Each flow's blocks in `blocks`, aligned with `order`, ordered by
    /// `from` and then by first target.
    flow_blocks: Vec<Range<usize>>,
    blocks: Vec<Block>,
    /// Each flow's `W_in + W_out` for the fresh-intermediate replay (see
    /// the module docs); NaN where the rule may not be taken.
    fresh_bound: Vec<f64>,
    /// The candidate link of every ordered extended-island pair, row-major.
    pairs: Vec<PairLink>,
}

impl FlowPricing {
    /// Prices every flow of `spec` under `plan`.
    pub(crate) fn new(
        spec: &SocSpec,
        vi: &ViAssignment,
        plan: &FrequencyPlan,
        cfg: &SynthesisConfig,
    ) -> Self {
        let mid = plan.island_count();
        let island_freq = extended_frequencies(plan);
        let link_model = LinkModel::new(&cfg.technology, cfg.link_width_bits);
        let pairs: Vec<PairLink> = (0..=mid)
            .flat_map(|iu| (0..=mid).map(move |iv| (iu, iv)))
            .map(|(iu, iv)| {
                let (kind, length_mm) = if iu == iv {
                    (LinkKind::Intra, cfg.est_intra_link_mm)
                } else if iu == mid || iv == mid {
                    (LinkKind::Intermediate, cfg.est_mid_link_mm)
                } else {
                    (LinkKind::InterDirect, cfg.est_inter_link_mm)
                };
                let f = Frequency::from_hz(island_freq[iu].hz().min(island_freq[iv].hz()));
                PairLink {
                    kind,
                    length_mm,
                    capacity: link_model.capacity(f),
                }
            })
            .collect();

        let fifo_model = BisyncFifoModel::new(&cfg.technology, cfg.link_width_bits);
        let nominal_switch = SwitchModel::new(&cfg.technology, 4, 4, cfg.link_width_bits);
        // The idle-power delta of growing the nominal 4×4 switch by one
        // port, per extended island: opening a link adds one output port at
        // its source and one input at its destination.
        let grown = SwitchModel::new(&cfg.technology, 4, 5, cfg.link_width_bits);
        let port_growth: Vec<Power> = island_freq
            .iter()
            .map(|&f| grown.idle_power(f) - nominal_switch.idle_power(f))
            .collect();
        // Port-scarcity summand of a switch of island `j` with no port used.
        let idle_scarcity =
            |j: usize| f64::powi(2.0, -(plan.max_switch_size_ext(j).max(1) as i32 - 1));
        let min_lat_global = spec.min_latency_cycles().max(1) as f64;
        let hop_cycles = cfg
            .link_delay_cycles
            .saturating_add(cfg.switch_delay_cycles) as f64;

        let order = bandwidth_order(spec);
        let mut flow_blocks = Vec::with_capacity(order.len());
        let mut blocks = Vec::new();
        let mut fresh_bound = Vec::with_capacity(order.len());
        for &fid in &order {
            let f = spec.flow(fid);
            let start = blocks.len();
            let (a, b) = (vi.island_of(f.src), vi.island_of(f.dst));
            let legal: &[(usize, usize)] = if a == b {
                &[(a, a)]
            } else {
                &[
                    (a, a.min(b)),
                    (a, a.max(b)),
                    (a, mid),
                    (mid, b),
                    (mid, mid),
                    (b, b),
                ]
            };
            let bw = f.bandwidth;
            let urgency = min_lat_global / f.max_latency_cycles.max(1) as f64;
            for &(from, to) in legal {
                let pair = pairs[from * (mid + 1) + to];
                let crossing = from != to;
                // Marginal traffic power on this hop: wire + downstream
                // switch datapath + converter, all for this flow's
                // bandwidth.
                let mut p =
                    link_model.traffic_power(pair.length_mm, bw) + nominal_switch.traffic_power(bw);
                if crossing {
                    p += fifo_model.power(Frequency::ZERO, Frequency::ZERO, bw);
                }
                let reuse_mw = p.mw();
                // Opening a new link pays its standing (idle/clock) power
                // too: the converter's and two ports' worth of switch.
                if crossing {
                    p += fifo_model.power(island_freq[from], island_freq[to], Bandwidth::ZERO);
                }
                p += port_growth[from];
                p += port_growth[to];
                let hop = hop_cycles
                    + if crossing {
                        BisyncFifoModel::CROSSING_LATENCY_CYCLES as f64
                    } else {
                        0.0
                    };
                let lat_term = cfg.cost_latency_weight * hop * urgency;
                let limit = pair.capacity.bytes_per_s() * (1.0 + 1e-9);
                blocks.push(Block {
                    from,
                    to,
                    touches_mid: from == mid || to == mid,
                    limit,
                    fresh_fits: (Bandwidth::ZERO + bw).bytes_per_s().partial_cmp(&limit)
                        != Some(Ordering::Greater),
                    // A reused link pays no scarcity term.
                    reuse: cfg.cost_power_weight * (reuse_mw + 0.0) + lat_term,
                    open_mw: p.mw(),
                    lat_term,
                    hop,
                });
            }
            let flow_blocks_of = &blocks[start..];
            let non_negative = cfg.cost_power_weight >= 0.0
                && cfg.cost_port_scarcity >= 0.0
                && flow_blocks_of
                    .iter()
                    .all(|b| b.reuse >= 0.0 && b.open_mw >= 0.0 && b.lat_term >= 0.0);
            let bound = if a != b && non_negative {
                // The cheapest pass-1 cost of opening an edge of the block
                // `from -> to`, at the scarcity of two switches with no
                // port used.
                let open_at_least = |from: usize, to: usize| {
                    let blk = flow_blocks_of.iter().find(|b| (b.from, b.to) == (from, to));
                    let blk = blk.expect("inter-island flows have every mid block");
                    let scarcity =
                        cfg.cost_port_scarcity * (idle_scarcity(from) + idle_scarcity(to));
                    cfg.cost_power_weight * (blk.open_mw + scarcity) + blk.lat_term
                };
                let mid_mid = open_at_least(mid, mid);
                open_at_least(a, mid).min(mid_mid) + open_at_least(mid, b).min(mid_mid)
            } else {
                f64::NAN
            };
            flow_blocks.push(start..blocks.len());
            fresh_bound.push(bound);
        }
        FlowPricing {
            order,
            flow_blocks,
            blocks,
            fresh_bound,
            pairs,
        }
    }
}

/// The clock of every extended island: the real islands', then the
/// intermediate island's.
fn extended_frequencies(plan: &FrequencyPlan) -> Vec<Frequency> {
    let mut freq: Vec<Frequency> = (0..plan.island_count())
        .map(|j| plan.frequency(j))
        .collect();
    freq.push(plan.intermediate_frequency());
    freq
}

/// What the switch assignment of one chain decides, on top of its plan's
/// [`FlowPricing`]: the switch numbering (and so each flow's switches), the
/// real-island switches, the per-switch size budgets and core ports.
/// Shared by every candidate `(i, k)` of the chain.
pub(crate) struct AllocContext<'p> {
    pricing: &'p FlowPricing,
    /// Topology skeleton holding the real-island switches (no intermediate
    /// switches, links or routes); cloned per built topology.
    base_topo: Topology,
    /// The pricing's flows on this assignment's switches, in its order.
    flows: Vec<InterSwitchFlow>,
    /// Number of real-island switches (intermediate switch `k` is switch
    /// `n_real + k`).
    n_real: usize,
    /// Intermediate switches the context was built with.
    k_mid_max: usize,
    /// Extended island index of the intermediate island.
    mid: usize,
    /// Real island `j`'s switches are `island_start[j]..island_start[j + 1]`;
    /// `island_start[mid] == n_real`.
    island_start: Vec<usize>,
    /// Extended island of every switch, all `k_mid_max` mid switches
    /// included.
    island_of: Vec<usize>,
    /// Per-switch size budget.
    max_size: Vec<usize>,
    /// Initial per-switch port usage (attached cores; both directions).
    core_ports: Vec<usize>,
}

impl<'p> AllocContext<'p> {
    /// Builds the context of one chain: `groups[j]` holds the cores behind
    /// each switch of real island `j`, and `pricing` must be `plan`'s.
    ///
    /// Fails with the same human-readable reason a cold allocation would if
    /// a switch's attached cores alone exceed its size budget.
    pub(crate) fn build(
        spec: &SocSpec,
        pricing: &'p FlowPricing,
        plan: &FrequencyPlan,
        groups: &[&[Vec<CoreId>]],
        k_mid_max: usize,
        cfg: &SynthesisConfig,
    ) -> Result<Self, String> {
        let n_islands = groups.len();
        let mid = n_islands;

        let mut base_topo = Topology::new(
            spec,
            n_islands,
            extended_frequencies(plan),
            cfg.link_width_bits,
        );
        let mut island_start = Vec::with_capacity(n_islands + 1);
        for (j, island) in groups.iter().enumerate() {
            island_start.push(base_topo.switches().len());
            for (g, cores) in island.iter().enumerate() {
                base_topo.add_switch(Switch {
                    name: format!("sw{j}.{g}"),
                    island_ext: j,
                    cores: cores.clone(),
                });
            }
        }
        let n_real = base_topo.switches().len();
        island_start.push(n_real);

        // Pre-check: core counts alone must fit the switch size budgets
        // (intermediate switches carry no cores and can never fail this).
        for sw in base_topo.switches() {
            let max = plan.max_switch_size_ext(sw.island_ext);
            if sw.cores.len() > max {
                return Err(format!(
                    "switch {} holds {} cores but max size is {max}",
                    sw.name,
                    sw.cores.len(),
                ));
            }
        }
        let real = base_topo.switches().iter();
        let island_of: Vec<usize> = real
            .clone()
            .map(|sw| sw.island_ext)
            .chain(std::iter::repeat_n(mid, k_mid_max))
            .collect();
        let core_ports: Vec<usize> = real
            .map(|sw| sw.cores.len())
            .chain(std::iter::repeat_n(0, k_mid_max))
            .collect();
        let max_size: Vec<usize> = island_of
            .iter()
            .map(|&j| plan.max_switch_size_ext(j))
            .collect();
        let flows: Vec<InterSwitchFlow> = pricing
            .order
            .iter()
            .map(|&fid| lift_flow(spec, &base_topo, fid))
            .collect();
        // The pricing took each flow's islands from the partition the
        // assignment refines.
        debug_assert!(flows.iter().zip(&pricing.flow_blocks).all(|(isf, r)| {
            let blocks = &pricing.blocks[r.clone()];
            blocks.first().map(|b| b.from) == Some(isf.src_island)
                && blocks.last().map(|b| b.to) == Some(isf.dst_island)
        }));

        Ok(AllocContext {
            pricing,
            base_topo,
            flows,
            n_real,
            k_mid_max,
            mid,
            island_start,
            island_of,
            max_size,
            core_ports,
        })
    }

    /// The switches of real island `j`.
    fn island_switches(&self, j: usize) -> Range<usize> {
        self.island_start[j]..self.island_start[j + 1]
    }

    /// The endpoints of candidate edge `e`.
    fn endpoints(&self, e: usize) -> (usize, usize) {
        let n1 = self.island_of.len() - 1;
        let (u, r) = (e / n1, e % n1);
        (u, r + usize::from(r >= u))
    }

    /// The candidate link of edge `u -> v`.
    fn pair_of(&self, u: usize, v: usize) -> PairLink {
        self.pricing.pairs[self.island_of[u] * (self.mid + 1) + self.island_of[v]]
    }

    /// Zero-load latency of a path given as candidate edges.
    fn path_latency(&self, path: &[usize], cfg: &SynthesisConfig) -> u32 {
        let crossings = path
            .iter()
            .filter(|&&e| {
                let (u, v) = self.endpoints(e);
                self.island_of[u] != self.island_of[v]
            })
            .count() as u32;
        route_latency(path.len() + 1, crossings, cfg)
    }
}

/// Marks an unopened candidate edge in [`AllocScratch::open`].
const CLOSED: usize = usize::MAX;

/// The two passes of a flow's search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// The paper's cost: power increase plus urgency-weighted latency.
    Cost,
    /// Pure hop latency, when the cost-optimal path is too slow or absent.
    Latency,
}

/// The buffers of one chain's allocation attempts, reused across them: the
/// committed state of the current attempt and the search arenas.
#[derive(Debug, Default)]
pub(crate) struct AllocScratch {
    /// Link id of every open candidate edge, [`CLOSED`] otherwise. Ids
    /// count in opening order, the order [`Topology`] numbers links.
    open: Vec<usize>,
    /// Load per candidate edge (the topology's link loads).
    load: Vec<Bandwidth>,
    in_ports: Vec<usize>,
    out_ports: Vec<usize>,
    /// Links opened so far.
    links: usize,
    /// The search arenas; after a search, its shortest-path tree.
    tree: SearchScratch,
    /// The current flow's path, as candidate edges.
    path: Vec<usize>,
}

impl AllocScratch {
    /// Resets the committed state for a new attempt.
    fn reset(&mut self, ctx: &AllocContext) {
        let n = ctx.island_of.len();
        let edges = n * n.saturating_sub(1);
        self.open.clear();
        self.open.resize(edges, CLOSED);
        self.load.clear();
        self.load.resize(edges, Bandwidth::ZERO);
        self.in_ports.clone_from(&ctx.core_ports);
        self.out_ports.clone_from(&ctx.core_ports);
        self.links = 0;
    }

    /// `true` when every switch in `switches` answers the two
    /// port-admissibility questions of the search — room to grow by one
    /// output port, room to grow by one input port — identically at port
    /// reserves `r_a` and `r_b`, given the current state. Under that
    /// condition an intra-island search's admissible edge set (and the
    /// costs never read the reserve) is the same at both reserves, so its
    /// result is too.
    fn reserve_invariant(
        &self,
        max_size: &[usize],
        mut switches: Range<usize>,
        r_a: usize,
        r_b: usize,
    ) -> bool {
        switches.all(|u| {
            let grow_out = self.in_ports[u].max(self.out_ports[u] + 1);
            let grow_in = (self.in_ports[u] + 1).max(self.out_ports[u]);
            let max = max_size[u];
            (grow_out + r_a <= max) == (grow_out + r_b <= max)
                && (grow_in + r_a <= max) == (grow_in + r_b <= max)
        })
    }

    /// One pass of flow `t`'s search with `k_mid` active intermediate
    /// switches, from its source switch until its destination settles.
    /// Leaves the path in [`AllocScratch::path`] and returns the
    /// destination's distance, or `None` when no admissible path exists.
    fn search(
        &mut self,
        ctx: &AllocContext,
        t: usize,
        k_mid: usize,
        reserve: usize,
        cfg: &SynthesisConfig,
        pass: Pass,
    ) -> Option<f64> {
        let isf = &ctx.flows[t];
        let blocks = &ctx.pricing.blocks[ctx.pricing.flow_blocks[t].clone()];
        let (src, dst) = (isf.src_switch.index(), isf.dst_switch.index());
        let n1 = ctx.island_of.len() - 1;
        let n_active = ctx.n_real + k_mid;
        let (open, load) = (&self.open, &self.load);
        let (in_ports, out_ports) = (&self.in_ports, &self.out_ports);
        let found = dijkstra(&mut self.tree, n_active, src, dst, |u, out| {
            let iu = ctx.island_of[u];
            let grow_out = in_ports[u].max(out_ports[u] + 1);
            // Port scarcity: consuming one of the endpoints' last free
            // ports is exponentially discouraged so hub switches keep
            // ports for later flows (which may have no alternative).
            let rem_out = ctx.max_size[u].saturating_sub(out_ports[u]).max(1);
            let scarce_out = f64::powi(2.0, -(rem_out as i32 - 1));
            for b in blocks.iter().filter(|b| b.from == iu) {
                // Links touching the intermediate island may use reserved
                // ports.
                let r = if b.touches_mid { 0 } else { reserve };
                let can_open = b.fresh_fits && grow_out + r <= ctx.max_size[u];
                let targets = if b.to == ctx.mid {
                    ctx.n_real..n_active
                } else {
                    ctx.island_switches(b.to)
                };
                for v in targets {
                    if v == u || out.settled(v) {
                        continue;
                    }
                    let e = u * n1 + v - usize::from(v > u);
                    let w = if open[e] != CLOSED {
                        if (load[e] + isf.bandwidth).bytes_per_s() > b.limit {
                            continue;
                        }
                        match pass {
                            Pass::Cost => b.reuse,
                            Pass::Latency => b.hop,
                        }
                    } else {
                        let grow_in = (in_ports[v] + 1).max(out_ports[v]);
                        if !can_open || grow_in + r > ctx.max_size[v] {
                            continue;
                        }
                        match pass {
                            Pass::Cost => {
                                let rem_in = ctx.max_size[v].saturating_sub(in_ports[v]).max(1);
                                let scarcity = cfg.cost_port_scarcity
                                    * (scarce_out + f64::powi(2.0, -(rem_in as i32 - 1)));
                                cfg.cost_power_weight * (b.open_mw + scarcity) + b.lat_term
                            }
                            Pass::Latency => b.hop,
                        }
                    };
                    out.relax(v, w);
                }
            }
        });

        self.path.clear();
        let dist = found?;
        let mut v = dst;
        while let Some(u) = self.tree.predecessor(v) {
            self.path.push(u * n1 + v - usize::from(v > u));
            v = u;
        }
        self.path.reverse();
        Some(dist)
    }

    /// Finds flow `t`'s path: first min-cost, then (if the latency
    /// constraint is violated) min-latency as a fallback. Leaves it in
    /// [`AllocScratch::path`] and returns its pass-1 distance when pass 1
    /// chose it.
    fn find_path(
        &mut self,
        ctx: &AllocContext,
        t: usize,
        k_mid: usize,
        reserve: usize,
        cfg: &SynthesisConfig,
    ) -> Result<Option<f64>, String> {
        let isf = &ctx.flows[t];
        if let Some(d) = self.search(ctx, t, k_mid, reserve, cfg, Pass::Cost) {
            if ctx.path_latency(&self.path, cfg) <= isf.max_latency_cycles {
                return Ok(Some(d));
            }
        }
        if self
            .search(ctx, t, k_mid, reserve, cfg, Pass::Latency)
            .is_none()
        {
            return Err(format!(
                "flow {}: no shutdown-legal path with available capacity/ports",
                isf.flow
            ));
        }
        let latency = ctx.path_latency(&self.path, cfg);
        if latency <= isf.max_latency_cycles {
            Ok(None)
        } else {
            Err(format!(
                "flow {} min latency {latency} exceeds constraint {}",
                isf.flow, isf.max_latency_cycles
            ))
        }
    }

    /// Commits [`AllocScratch::path`] for a flow of bandwidth `bw`,
    /// opening its unopened edges.
    fn commit(&mut self, ctx: &AllocContext, bw: Bandwidth) {
        for &e in &self.path {
            if self.open[e] == CLOSED {
                let (u, v) = ctx.endpoints(e);
                self.open[e] = self.links;
                self.links += 1;
                self.out_ports[u] += 1;
                self.in_ports[v] += 1;
            }
            self.load[e] += bw;
        }
    }

    /// The island and `(inputs, outputs)` port usage — attached cores plus
    /// incident links, [`Topology::switch_ports`] — of every real-island
    /// switch in the current state.
    pub(crate) fn real_switch_ports<'a>(
        &'a self,
        ctx: &'a AllocContext,
    ) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
        (0..ctx.n_real).map(|u| (ctx.island_of[u], self.in_ports[u], self.out_ports[u]))
    }

    /// The endpoint islands, load and capacity of every open link in the
    /// current state (loads summed in flow order, as the built topology
    /// sums them).
    pub(crate) fn open_links<'a>(
        &'a self,
        ctx: &'a AllocContext,
    ) -> impl Iterator<Item = (usize, usize, Bandwidth, Bandwidth)> + 'a {
        (0..self.open.len())
            .filter(|&e| self.open[e] != CLOSED)
            .map(|e| {
                let (u, v) = ctx.endpoints(e);
                let capacity = ctx.pair_of(u, v).capacity;
                (ctx.island_of[u], ctx.island_of[v], self.load[e], capacity)
            })
    }
}

/// Committed paths of one allocation attempt, aligned with
/// [`AllocContext::flows`]. Holds the successful prefix even when the
/// attempt failed partway — the prefix is still a valid warm-start seed.
#[derive(Debug, Default)]
pub(crate) struct AllocRecord {
    /// Every committed flow's path as candidate edges (stable across the
    /// sweep index because the context is shared), concatenated in flow
    /// order; a same-switch flow's path is empty.
    edges: Vec<usize>,
    /// End of each committed flow's path in `edges`.
    ends: Vec<usize>,
    /// Each committed flow's pass-1 distance, when pass 1 chose its path.
    pass1: Vec<Option<f64>>,
    /// Port reserve the recorded attempt ran at. Replaying a recorded path
    /// under a *different* reserve additionally requires
    /// [`AllocScratch::reserve_invariant`] to hold for the flow's island.
    reserve: usize,
    /// Intermediate switches the recorded attempt had.
    k_mid: usize,
    /// Flows the fresh-intermediate rule replayed.
    #[cfg(test)]
    fresh_replays: usize,
}

impl AllocRecord {
    /// Empties the record for an attempt at `reserve` with `k_mid`
    /// intermediate switches.
    fn start(&mut self, reserve: usize, k_mid: usize) {
        self.edges.clear();
        self.ends.clear();
        self.pass1.clear();
        self.reserve = reserve;
        self.k_mid = k_mid;
        #[cfg(test)]
        {
            self.fresh_replays = 0;
        }
    }

    fn push(&mut self, path: &[usize], pass1: Option<f64>) {
        self.edges.extend_from_slice(path);
        self.ends.push(self.edges.len());
        self.pass1.push(pass1);
    }

    /// Flow `t`'s committed path and pass-1 distance, if the attempt got
    /// that far.
    fn path(&self, t: usize) -> Option<(&[usize], Option<f64>)> {
        let end = *self.ends.get(t)?;
        let start = if t == 0 { 0 } else { self.ends[t - 1] };
        Some((&self.edges[start..end], self.pass1[t]))
    }
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

/// How a successful allocation was obtained, read from the attempt's flat
/// state: the chain evaluator decides Duplicates and distills its
/// [`crate::SlackCertificate`] from it, and builds a [`Topology`]
/// ([`build_topology`]) only for a candidate that is feasible.
#[derive(Debug)]
pub(crate) struct Allocation {
    /// `true` when the reserve-0 attempt failed and the port-reserve retry
    /// succeeded. The sweep driver's Duplicate short-circuit (see
    /// [`Allocation::has_spare_intermediate`]) must not fire then, because
    /// the retry's admissibility depends on the requested intermediate
    /// count, and the retry poisons the certificate outright.
    pub(crate) via_retry: bool,
    /// Intermediate switches with at least one link: the
    /// [`Topology::intermediate_switch_count`] of the built topology, which
    /// prunes the others.
    pub(crate) intermediate_used: usize,
}

impl Allocation {
    /// `true` when the reserve-0 allocation left at least one requested
    /// intermediate switch unused.
    ///
    /// An unused intermediate switch is an *interchangeable twin* of the
    /// extra switch the next candidate `(i, k+1)` would add: identical
    /// island, frequency, ports, loads and edge costs, with a lower switch
    /// id. A Dijkstra relaxation through the new switch can therefore
    /// never strictly improve a distance the twin does not already
    /// provide, and the tie-breaking (smaller switch settles first,
    /// strict-`<` relaxation) always keeps the twin's paths — so every
    /// higher-count candidate of the sweep index reproduces this exact
    /// topology and is a [`crate::CandidateOutcome::Duplicate`] without
    /// running.
    pub(crate) fn has_spare_intermediate(&self, requested: usize) -> bool {
        !self.via_retry && self.intermediate_used < requested
    }
}

/// Zero-load latency of a route given its switch count and crossings,
/// saturating at `u32::MAX`.
pub(crate) fn route_latency(switches: usize, crossings: u32, cfg: &SynthesisConfig) -> u32 {
    let switches = u32::try_from(switches).unwrap_or(u32::MAX);
    let links = switches.saturating_add(1); // NI->s1, inter-switch links, sm->NI
    switches
        .saturating_mul(cfg.switch_delay_cycles)
        .saturating_add(links.saturating_mul(cfg.link_delay_cycles))
        .saturating_add(crossings.saturating_mul(BisyncFifoModel::CROSSING_LATENCY_CYCLES))
}

/// Allocates paths for the candidate with `k_mid` active intermediate
/// switches, optionally warm-started from the previous candidate's
/// [`CandidateRecord`], and records this candidate's attempts into
/// `record`. On success the successful attempt's state stays in `scratch`
/// and its paths in `record`, for [`build_topology`].
///
/// The result is bit-identical to a cold start: warm-starting only skips
/// searches whose outcome is provably unchanged (see the module docs). On
/// reserve-0 infeasibility the port-reserve retry runs, itself warm-started
/// from the previous candidate's retry record when one exists — the
/// differing reserves are handled by the
/// [`AllocScratch::reserve_invariant`] replay guard.
pub(crate) fn allocate_paths_warm(
    ctx: &AllocContext,
    k_mid: usize,
    cfg: &SynthesisConfig,
    scratch: &mut AllocScratch,
    prev: Option<&CandidateRecord>,
    record: &mut CandidateRecord,
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
        &mut record.main,
    );
    let via_retry = match main {
        Ok(()) => {
            record.retry = None;
            false
        }
        // Greedy direct-link opening may have stranded later flows on a
        // port-exhausted hub switch; retry holding ports back for
        // intermediate-island links (see `try_allocate`).
        Err(first) if k_mid > 0 => {
            let prev_retry = prev.and_then(|p| p.retry.as_ref());
            let retry = record.retry.get_or_insert_with(AllocRecord::default);
            try_allocate(ctx, k_mid, k_mid, cfg, scratch, prev_retry, retry).map_err(|_| first)?;
            true
        }
        Err(e) => {
            record.retry = None;
            return Err(e);
        }
    };
    let mid_switches = ctx.n_real..ctx.n_real + k_mid;
    let intermediate_used = mid_switches
        .filter(|&v| scratch.in_ports[v] + scratch.out_ports[v] > 0)
        .count();
    Ok(Allocation {
        via_retry,
        intermediate_used,
    })
}

/// One allocation attempt at a fixed port reserve, recorded into `record`;
/// a successful attempt leaves its committed state in `s` for
/// [`build_topology`].
///
/// `reserve` is the number of ports per switch held back for links to or
/// from the intermediate island. Greedy bandwidth-ordered allocation can
/// otherwise exhaust a hub switch with direct links, stranding later flows
/// whose only legal route is indirect (they would need a mid link into the
/// same switch). It is zero on the first attempt; the port-reserve retry
/// runs at `reserve = k_mid`.
fn try_allocate(
    ctx: &AllocContext,
    k_mid: usize,
    reserve: usize,
    cfg: &SynthesisConfig,
    s: &mut AllocScratch,
    prev: Option<&AllocRecord>,
    record: &mut AllocRecord,
) -> Result<(), String> {
    s.reset(ctx);
    record.start(reserve, k_mid);

    // Warm-start bookkeeping: while `diverged` is false, every flow
    // committed so far committed exactly the path the recorded run did, so
    // the two runs' states are identical and recorded paths can be
    // replayed under the rules of the module docs.
    let prev_reserve = prev.map_or(reserve, |r| r.reserve);
    let fresh_switches = prev.is_some_and(|r| r.reserve == reserve && r.k_mid < k_mid);
    let mut diverged = prev.is_none();

    for (t, isf) in ctx.flows.iter().enumerate() {
        if isf.src_switch == isf.dst_switch {
            let latency = route_latency(1, 0, cfg);
            if latency > isf.max_latency_cycles {
                return Err(format!(
                    "flow {} latency {latency} exceeds constraint {} on its own switch",
                    isf.flow, isf.max_latency_cycles
                ));
            }
            record.push(&[], None);
            continue;
        }

        let recorded = if diverged {
            None
        } else {
            let p = prev.and_then(|r| r.path(t));
            if p.is_none() {
                // The recorded run ended here (it failed at this flow);
                // beyond this point its state is unknown.
                diverged = true;
            }
            p
        };

        let replay = match recorded {
            // Intra-island searches stay inside the source island, which
            // the intermediate-count change cannot touch, and any reserve
            // difference is screened off by the invariance guard.
            Some(_) if isf.src_island == isf.dst_island => {
                prev_reserve == reserve
                    || s.reserve_invariant(
                        &ctx.max_size,
                        ctx.island_switches(isf.src_island),
                        prev_reserve,
                        reserve,
                    )
            }
            // No fresh intermediate switch can undercut the recorded
            // pass-1 distance.
            Some((_, Some(d))) => fresh_switches && ctx.pricing.fresh_bound[t] > d,
            _ => false,
        };
        let pass1 = match recorded {
            Some((path, pass1)) if replay => {
                if cfg!(debug_assertions) && isf.src_island != isf.dst_island {
                    let searched = s.find_path(ctx, t, k_mid, reserve, cfg);
                    assert!(
                        searched.is_ok_and(|d| d.map(f64::to_bits) == pass1.map(f64::to_bits))
                            && s.path == path,
                        "flow {}: the fresh-intermediate replay differs from its search",
                        isf.flow
                    );
                }
                #[cfg(test)]
                {
                    record.fresh_replays += usize::from(isf.src_island != isf.dst_island);
                }
                s.path.clear();
                s.path.extend_from_slice(path);
                pass1
            }
            _ => {
                let pass1 = s.find_path(ctx, t, k_mid, reserve, cfg)?;
                if recorded.is_some_and(|(path, _)| s.path != path) {
                    diverged = true;
                }
                pass1
            }
        };
        debug_assert!(ctx.path_latency(&s.path, cfg) <= isf.max_latency_cycles);
        s.commit(ctx, isf.bandwidth);
        record.push(&s.path, pass1);
    }
    Ok(())
}

/// Builds the topology of the allocation [`allocate_paths_warm`] just
/// returned: replays the successful attempt's recorded paths in flow order
/// — its `open_link`/`add_load`/`set_route` sequence, so every link gets
/// the id the attempt gave it — then prunes unused intermediate switches.
pub(crate) fn build_topology(
    ctx: &AllocContext,
    k_mid: usize,
    cfg: &SynthesisConfig,
    s: &AllocScratch,
    record: &CandidateRecord,
) -> Topology {
    #[cfg(test)]
    TOPOLOGIES_BUILT.with(|n| n.set(n.get() + 1));
    // The retry record is kept only when the retry ran, and an allocation
    // that needed the retry succeeded through it.
    let record = record.retry.as_ref().unwrap_or(&record.main);
    let mut topo = ctx.base_topo.clone();
    for k in 0..k_mid {
        topo.add_switch(Switch {
            name: format!("mid.{k}"),
            island_ext: ctx.mid,
            cores: Vec::new(),
        });
    }
    for (t, isf) in ctx.flows.iter().enumerate() {
        let (path, _) = record.path(t).expect("a complete record holds every flow");
        let mut switches = vec![isf.src_switch];
        let mut crossings = 0u32;
        for &e in path {
            let (u, v) = ctx.endpoints(e);
            let pair = ctx.pair_of(u, v);
            if pair.kind != LinkKind::Intra {
                crossings += 1;
            }
            let link = s.open[e];
            if link == topo.links().len() {
                topo.open_link(TopoLink {
                    from: SwitchId(u),
                    to: SwitchId(v),
                    capacity: pair.capacity,
                    load: Bandwidth::ZERO,
                    kind: pair.kind,
                    length_mm: pair.length_mm,
                });
            }
            topo.add_load(LinkId(link), isf.bandwidth);
            switches.push(SwitchId(v));
        }
        topo.set_route(Route {
            flow: isf.flow,
            latency_cycles: route_latency(switches.len(), crossings, cfg),
            switches,
            crossings,
        });
    }
    debug_assert_eq!(topo.links().len(), s.links);
    topo.prune_unused_intermediate();
    topo
}

#[cfg(test)]
thread_local! {
    /// Topologies [`build_topology`] built on this thread.
    pub(crate) static TOPOLOGIES_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{island_switch_assignment, switch_counts_for_sweep, SwitchAssignment};
    use crate::bellman_ford::bellman_ford;
    use crate::vcg::build_vcg;
    use vi_noc_soc::{benchmarks, partition};

    /// The context of `asg`'s chain over `pricing`.
    fn context<'p>(
        spec: &SocSpec,
        pricing: &'p FlowPricing,
        plan: &FrequencyPlan,
        asg: &SwitchAssignment,
        k_mid_max: usize,
        cfg: &SynthesisConfig,
    ) -> Result<AllocContext<'p>, String> {
        let groups: Vec<&[Vec<CoreId>]> = asg.groups.iter().map(Vec::as_slice).collect();
        AllocContext::build(spec, pricing, plan, &groups, k_mid_max, cfg)
    }

    /// [`allocate_paths_warm`] with the topology of a successful
    /// allocation built, Duplicates included, and whether the retry made
    /// it.
    fn allocate(
        ctx: &AllocContext,
        k_mid: usize,
        cfg: &SynthesisConfig,
        scratch: &mut AllocScratch,
        prev: Option<&CandidateRecord>,
        record: &mut CandidateRecord,
    ) -> Result<(bool, Topology), String> {
        let alloc = allocate_paths_warm(ctx, k_mid, cfg, scratch, prev, record)?;
        let topo = build_topology(ctx, k_mid, cfg, scratch, record);
        assert_eq!(alloc.intermediate_used, topo.intermediate_switch_count());
        Ok((alloc.via_retry, topo))
    }

    /// One candidate allocated cold, with its topology built.
    fn allocate_paths(
        spec: &SocSpec,
        vi: &ViAssignment,
        plan: &FrequencyPlan,
        asg: &SwitchAssignment,
        k_mid: usize,
        cfg: &SynthesisConfig,
    ) -> Result<Topology, String> {
        let pricing = FlowPricing::new(spec, vi, plan, cfg);
        let ctx = context(spec, &pricing, plan, asg, k_mid, cfg)?;
        let mut scratch = AllocScratch::default();
        let mut record = CandidateRecord::default();
        allocate(&ctx, k_mid, cfg, &mut scratch, None, &mut record).map(|(_, t)| t)
    }

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

        let pricing = FlowPricing::new(&soc, &vi, &plan, &cfg);
        let mut scratch = AllocScratch::default();
        for k_mid in 0..=3usize {
            let exact = context(&soc, &pricing, &plan, &asg, k_mid, &cfg).unwrap();
            let oversized = context(&soc, &pricing, &plan, &asg, 4, &cfg).unwrap();
            let mut record = CandidateRecord::default();
            let a = allocate(&exact, k_mid, &cfg, &mut scratch, None, &mut record);
            let b = allocate(&oversized, k_mid, &cfg, &mut scratch, None, &mut record);
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
        let state = AllocScratch {
            in_ports: vec![2, 2],
            out_ports: vec![2, 6],
            ..AllocScratch::default()
        };
        let max_size = [8, 8];
        // Switch 0 grows to 3 ports either way: 3+1 and 3+2 both fit in 8.
        assert!(state.reserve_invariant(&max_size, 0..1, 1, 2));
        // Switch 1's output growth needs 7 ports: 7+1 fits, 7+2 does not.
        assert!(!state.reserve_invariant(&max_size, 1..2, 1, 2));
        assert!(!state.reserve_invariant(&max_size, 0..2, 1, 2));
        // Equal reserves are trivially invariant even on the tight switch.
        assert!(state.reserve_invariant(&max_size, 0..2, 2, 2));
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
            let pricing = FlowPricing::new(&soc, &vi, &plan, &cfg);
            let vcgs: Vec<_> = (0..k_islands)
                .map(|j| build_vcg(&soc, &vi, j, &cfg))
                .collect();
            for sweep in 1..=2usize {
                let counts = switch_counts_for_sweep(&vcgs, &plan, sweep);
                let asg = island_switch_assignment(&vcgs, &plan, &counts, &cfg);
                let ctx = context(&soc, &pricing, &plan, &asg, 4, &cfg).unwrap();
                let mut scratch = AllocScratch::default();
                let mut prev: Option<CandidateRecord> = None;
                for k_mid in 0..=4usize {
                    let mut rec = CandidateRecord::default();
                    let warm = allocate(&ctx, k_mid, &cfg, &mut scratch, prev.as_ref(), &mut rec);
                    let cold = allocate(
                        &ctx,
                        k_mid,
                        &cfg,
                        &mut scratch,
                        None,
                        &mut CandidateRecord::default(),
                    );
                    let label = format!("islands={k_islands} sweep={sweep} k={k_mid}");
                    match (&warm, &cold) {
                        (Ok(aw), Ok(ac)) => {
                            assert_eq!(aw.0, ac.0, "{label}");
                            assert_eq!(aw.1, ac.1, "{label}");
                            if aw.0 {
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
            let pricing = FlowPricing::new(&soc, &vi, &plan, &cfg);
            let vcgs: Vec<_> = (0..k_islands)
                .map(|j| build_vcg(&soc, &vi, j, &cfg))
                .collect();
            for sweep in 1..=3usize {
                let counts = switch_counts_for_sweep(&vcgs, &plan, sweep);
                let asg = island_switch_assignment(&vcgs, &plan, &counts, &cfg);
                let ctx = context(&soc, &pricing, &plan, &asg, 4, &cfg).unwrap();
                let mut scratch = AllocScratch::default();
                let mut prev: Option<CandidateRecord> = None;
                for k_mid in 0..=4usize {
                    let mut rec = CandidateRecord::default();
                    let warm = allocate(&ctx, k_mid, &cfg, &mut scratch, prev.as_ref(), &mut rec)
                        .map(|(_, t)| t);
                    let cold = allocate(
                        &ctx,
                        k_mid,
                        &cfg,
                        &mut scratch,
                        None,
                        &mut CandidateRecord::default(),
                    )
                    .map(|(_, t)| t);
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

    /// The fresh-intermediate replay must actually fire on the d26 chains
    /// (every replay is re-searched and compared in debug builds, so this
    /// also exercises that check), and the warm chain must still match the
    /// cold evaluation of every candidate.
    #[test]
    fn fresh_intermediate_replay_fires_on_d26() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let cfg = SynthesisConfig::default();
        let plan = FrequencyPlan::compute(&soc, &vi, &cfg);
        let vcgs: Vec<_> = (0..6).map(|j| build_vcg(&soc, &vi, j, &cfg)).collect();
        let pricing = FlowPricing::new(&soc, &vi, &plan, &cfg);
        let mut replays = 0;
        for sweep in 1..=3usize {
            let counts = switch_counts_for_sweep(&vcgs, &plan, sweep);
            let asg = island_switch_assignment(&vcgs, &plan, &counts, &cfg);
            let ctx = context(&soc, &pricing, &plan, &asg, 4, &cfg).unwrap();
            let mut scratch = AllocScratch::default();
            let mut prev: Option<CandidateRecord> = None;
            for k_mid in 0..=4usize {
                let mut rec = CandidateRecord::default();
                let warm = allocate(&ctx, k_mid, &cfg, &mut scratch, prev.as_ref(), &mut rec)
                    .map(|(_, t)| t);
                let cold = allocate_paths(&soc, &vi, &plan, &asg, k_mid, &cfg);
                assert_eq!(warm, cold, "sweep={sweep} k={k_mid}");
                replays += rec.main.fresh_replays;
                prev = Some(rec);
            }
        }
        assert!(replays > 0, "the fresh-intermediate replay never fired");
    }

    /// A negative cost weight from a Rust caller (ingestion rejects one in
    /// a scenario) turns the fresh-intermediate replay off and still
    /// allocates: settled switches are never re-pointed, so no predecessor
    /// cycle can form.
    #[test]
    fn negative_weights_fall_back_to_searching() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let cfg = SynthesisConfig {
            cost_power_weight: -1.0,
            ..SynthesisConfig::default()
        };
        let plan = FrequencyPlan::compute(&soc, &vi, &cfg);
        let vcgs: Vec<_> = (0..6).map(|j| build_vcg(&soc, &vi, j, &cfg)).collect();
        let counts = switch_counts_for_sweep(&vcgs, &plan, 1);
        let asg = island_switch_assignment(&vcgs, &plan, &counts, &cfg);
        let pricing = FlowPricing::new(&soc, &vi, &plan, &cfg);
        assert!(pricing.fresh_bound.iter().all(|b| b.is_nan()));
        let ctx = context(&soc, &pricing, &plan, &asg, 4, &cfg).unwrap();
        let mut scratch = AllocScratch::default();
        let mut prev: Option<CandidateRecord> = None;
        for k_mid in 0..=4usize {
            let mut rec = CandidateRecord::default();
            let _ = allocate_paths_warm(&ctx, k_mid, &cfg, &mut scratch, prev.as_ref(), &mut rec);
            assert_eq!(rec.main.fresh_replays, 0);
            prev = Some(rec);
        }
    }

    /// The per-chain pricing the shared [`FlowPricing`] replaced, kept as
    /// its oracle: every flow of `ctx` priced on its switches (a same-switch
    /// flow gets no blocks), as each chain's context once priced them.
    /// Returns each flow's blocks and fresh-intermediate bound.
    fn per_chain_pricing(
        ctx: &AllocContext,
        spec: &SocSpec,
        plan: &FrequencyPlan,
        cfg: &SynthesisConfig,
    ) -> Vec<(Vec<Block>, f64)> {
        let mid = ctx.mid;
        let island_freq = extended_frequencies(plan);
        let link_model = LinkModel::new(&cfg.technology, cfg.link_width_bits);
        let fifo_model = BisyncFifoModel::new(&cfg.technology, cfg.link_width_bits);
        let nominal_switch = SwitchModel::new(&cfg.technology, 4, 4, cfg.link_width_bits);
        let grown = SwitchModel::new(&cfg.technology, 4, 5, cfg.link_width_bits);
        let port_growth: Vec<Power> = island_freq
            .iter()
            .map(|&f| grown.idle_power(f) - nominal_switch.idle_power(f))
            .collect();
        let idle_scarcity =
            |j: usize| f64::powi(2.0, -(plan.max_switch_size_ext(j).max(1) as i32 - 1));
        let min_lat_global = spec.min_latency_cycles().max(1) as f64;

        let mut priced = Vec::new();
        for isf in &ctx.flows {
            let (a, b) = (isf.src_island, isf.dst_island);
            let legal: &[(usize, usize)] = if isf.src_switch == isf.dst_switch {
                &[]
            } else if a == b {
                &[(a, a)]
            } else {
                &[
                    (a, a.min(b)),
                    (a, a.max(b)),
                    (a, mid),
                    (mid, b),
                    (mid, mid),
                    (b, b),
                ]
            };
            let bw = isf.bandwidth;
            let urgency = min_lat_global / isf.max_latency_cycles.max(1) as f64;
            let mut blocks = Vec::new();
            for &(from, to) in legal {
                let pair = ctx.pricing.pairs[from * (mid + 1) + to];
                let crossing = from != to;
                let mut p =
                    link_model.traffic_power(pair.length_mm, bw) + nominal_switch.traffic_power(bw);
                if crossing {
                    p += fifo_model.power(Frequency::ZERO, Frequency::ZERO, bw);
                }
                let reuse_mw = p.mw();
                if crossing {
                    p += fifo_model.power(island_freq[from], island_freq[to], Bandwidth::ZERO);
                }
                p += port_growth[from];
                p += port_growth[to];
                let hop = (cfg.link_delay_cycles + cfg.switch_delay_cycles) as f64
                    + if crossing {
                        BisyncFifoModel::CROSSING_LATENCY_CYCLES as f64
                    } else {
                        0.0
                    };
                let lat_term = cfg.cost_latency_weight * hop * urgency;
                let limit = pair.capacity.bytes_per_s() * (1.0 + 1e-9);
                blocks.push(Block {
                    from,
                    to,
                    touches_mid: from == mid || to == mid,
                    limit,
                    fresh_fits: (Bandwidth::ZERO + bw).bytes_per_s().partial_cmp(&limit)
                        != Some(Ordering::Greater),
                    reuse: cfg.cost_power_weight * (reuse_mw + 0.0) + lat_term,
                    open_mw: p.mw(),
                    lat_term,
                    hop,
                });
            }
            let non_negative = cfg.cost_power_weight >= 0.0
                && cfg.cost_port_scarcity >= 0.0
                && blocks
                    .iter()
                    .all(|b| b.reuse >= 0.0 && b.open_mw >= 0.0 && b.lat_term >= 0.0);
            let bound = if a != b && non_negative {
                let open_at_least = |from: usize, to: usize| {
                    let blk = blocks
                        .iter()
                        .find(|b| (b.from, b.to) == (from, to))
                        .unwrap();
                    let scarcity =
                        cfg.cost_port_scarcity * (idle_scarcity(from) + idle_scarcity(to));
                    cfg.cost_power_weight * (blk.open_mw + scarcity) + blk.lat_term
                };
                let mid_mid = open_at_least(mid, mid);
                open_at_least(a, mid).min(mid_mid) + open_at_least(mid, b).min(mid_mid)
            } else {
                f64::NAN
            };
            priced.push((blocks, bound));
        }
        priced
    }

    /// A block's fields, floats as bits.
    fn block_bits(b: &Block) -> (usize, usize, bool, bool, [u64; 5]) {
        let floats = [b.limit, b.reuse, b.open_mw, b.lat_term, b.hop].map(f64::to_bits);
        (b.from, b.to, b.touches_mid, b.fresh_fits, floats)
    }

    /// For every flow a chain searches, on grids whose two scales give an
    /// island different switch size budgets (d26's fleet grid, d12's
    /// dynamic grid) and under a second cost model, the priced blocks and
    /// fresh-intermediate bound shared through the plan's table equal the
    /// per-chain pricing bit for bit.
    #[test]
    fn shared_pricing_equals_the_per_chain_pricing() {
        let d26 = benchmarks::d26_mobile();
        let d12 = benchmarks::d12_auto();
        let tuned = SynthesisConfig {
            cost_latency_weight: 3.5,
            cost_port_scarcity: 0.25,
            est_inter_link_mm: 4.0,
            ..SynthesisConfig::default()
        };
        let cases = [
            (&d26, 6, [1.0, 1.12], SynthesisConfig::default()),
            (&d12, 4, [1.0, 1.1], SynthesisConfig::default()),
            (&d26, 6, [1.0, 1.12], tuned),
        ];
        let mut searched = 0;
        for (spec, islands, scales, cfg) in cases {
            let vi = partition::logical_partition(spec, islands).unwrap();
            let grid = crate::synthesis::test_grid(spec, &vi, &cfg, &scales, 1);
            let budgets = |g: usize| -> Vec<usize> {
                let plan = grid[g].0.plan();
                (0..islands).map(|j| plan.max_switch_size(j)).collect()
            };
            assert_ne!(budgets(0), budgets(1), "{}", spec.name());
            for (table, chains) in &grid {
                let (plan, pricing) = (table.plan(), table.pricing(spec, &vi, &cfg));
                for counts in chains {
                    let groups: Vec<&[Vec<CoreId>]> = counts
                        .iter()
                        .enumerate()
                        .map(|(j, &c)| table.partition(j, c, &cfg))
                        .collect();
                    let Ok(ctx) = AllocContext::build(spec, pricing, plan, &groups, 4, &cfg) else {
                        continue;
                    };
                    let oracle = per_chain_pricing(&ctx, spec, plan, &cfg);
                    for (t, (isf, (blocks, bound))) in ctx.flows.iter().zip(&oracle).enumerate() {
                        if isf.src_switch == isf.dst_switch {
                            continue;
                        }
                        let shared = &pricing.blocks[pricing.flow_blocks[t].clone()];
                        let bits = |b: &[Block]| b.iter().map(block_bits).collect::<Vec<_>>();
                        assert_eq!(bits(shared), bits(blocks), "{} flow {t}", spec.name());
                        assert_eq!(pricing.fresh_bound[t].to_bits(), bound.to_bits());
                        searched += 1;
                    }
                }
            }
        }
        assert!(searched > 10_000, "{searched}");
    }

    /// The allocator's search over the explicit candidate edge list, as
    /// the allocator ran it before the blocked search: the shutdown rule as
    /// an edge filter, every weight priced per edge from the models, every
    /// admitted out-edge relaxed (settled targets included). Returns the destination's distance and path, and
    /// the Bellman–Ford distance over the same admitted edges.
    #[allow(clippy::too_many_arguments)]
    fn reference_search(
        ctx: &AllocContext,
        s: &AllocScratch,
        spec: &SocSpec,
        plan: &FrequencyPlan,
        cfg: &SynthesisConfig,
        t: usize,
        k_mid: usize,
        reserve: usize,
        pass: Pass,
    ) -> (Option<(f64, Vec<usize>)>, f64) {
        let isf = &ctx.flows[t];
        let (a, b, mid) = (isf.src_island, isf.dst_island, ctx.mid);
        let n = ctx.island_of.len();
        let n_active = ctx.n_real + k_mid;
        let freq = |j: usize| {
            if j == mid {
                plan.intermediate_frequency()
            } else {
                plan.frequency(j)
            }
        };
        let link_model = LinkModel::new(&cfg.technology, cfg.link_width_bits);
        let fifo_model = BisyncFifoModel::new(&cfg.technology, cfg.link_width_bits);
        let nominal = SwitchModel::new(&cfg.technology, 4, 4, cfg.link_width_bits);
        let grown = SwitchModel::new(&cfg.technology, 4, 5, cfg.link_width_bits);
        let urgency =
            spec.min_latency_cycles().max(1) as f64 / isf.max_latency_cycles.max(1) as f64;
        let bw = isf.bandwidth;

        // (from, to, weight) of every admitted edge, by edge id.
        let mut edges: Vec<Option<(usize, usize, f64)>> = Vec::new();
        for u in 0..n {
            for v in (0..n).filter(|&v| v != u) {
                let e = edges.len();
                assert_eq!(e, u * (n - 1) + v - usize::from(v > u));
                let (iu, iv) = (ctx.island_of[u], ctx.island_of[v]);
                let legal = if a == b {
                    iu == a && iv == a
                } else {
                    (iu == iv && (iu == a || iu == b))
                        || (iu == a && (iv == b || iv == mid))
                        || (iu == mid && (iv == b || iv == mid))
                };
                let crossing = iu != iv;
                let length = if !crossing {
                    cfg.est_intra_link_mm
                } else if iu == mid || iv == mid {
                    cfg.est_mid_link_mm
                } else {
                    cfg.est_inter_link_mm
                };
                let capacity =
                    link_model.capacity(Frequency::from_hz(freq(iu).hz().min(freq(iv).hz())));
                let open = s.open[e] != CLOSED;
                let r = if iu == mid || iv == mid { 0 } else { reserve };
                let admitted = v < n_active
                    && legal
                    && (s.load[e] + bw).bytes_per_s() <= capacity.bytes_per_s() * (1.0 + 1e-9)
                    && (open
                        || (s.in_ports[u].max(s.out_ports[u] + 1) + r <= ctx.max_size[u]
                            && (s.in_ports[v] + 1).max(s.out_ports[v]) + r <= ctx.max_size[v]));
                let hop = (cfg.link_delay_cycles + cfg.switch_delay_cycles) as f64
                    + if crossing {
                        BisyncFifoModel::CROSSING_LATENCY_CYCLES as f64
                    } else {
                        0.0
                    };
                let mut p = link_model.traffic_power(length, bw) + nominal.traffic_power(bw);
                if crossing {
                    p += fifo_model.power(Frequency::ZERO, Frequency::ZERO, bw);
                }
                let mut scarcity = 0.0;
                if !open {
                    if crossing {
                        p += fifo_model.power(freq(iu), freq(iv), Bandwidth::ZERO);
                    }
                    p += grown.idle_power(freq(iu)) - nominal.idle_power(freq(iu));
                    p += grown.idle_power(freq(iv)) - nominal.idle_power(freq(iv));
                    let rem_out = ctx.max_size[u].saturating_sub(s.out_ports[u]).max(1);
                    let rem_in = ctx.max_size[v].saturating_sub(s.in_ports[v]).max(1);
                    scarcity = cfg.cost_port_scarcity
                        * (f64::powi(2.0, -(rem_out as i32 - 1))
                            + f64::powi(2.0, -(rem_in as i32 - 1)));
                }
                let w = match pass {
                    Pass::Cost => {
                        cfg.cost_power_weight * (p.mw() + scarcity)
                            + cfg.cost_latency_weight * hop * urgency
                    }
                    Pass::Latency => hop,
                };
                edges.push(admitted.then_some((u, v, w)));
            }
        }

        let (src, dst) = (isf.src_switch.index(), isf.dst_switch.index());
        let mut tree = SearchScratch::default();
        let found = dijkstra(&mut tree, n, src, dst, |u, out| {
            for &(_, v, w) in edges[u * (n - 1)..(u + 1) * (n - 1)].iter().flatten() {
                out.relax(v, w);
            }
        })
        .map(|d| {
            let mut path = Vec::new();
            let mut v = dst;
            while let Some(u) = tree.predecessor(v) {
                path.push(u * (n - 1) + v - usize::from(v > u));
                v = u;
            }
            path.reverse();
            (d, path)
        });
        let admitted: Vec<_> = edges.iter().flatten().copied().collect();
        let bf = bellman_ford(n, src, &admitted).expect("non-negative weights");
        (found, bf[dst])
    }

    /// The island-blocked search returns, bit for bit, the distance and
    /// path of the generic Dijkstra it replaces, the distance is optimal
    /// (Bellman–Ford agrees), the path walks admitted shutdown-legal edges
    /// from source to destination, and a fresh scratch with the same
    /// committed state gives the same answer as the reused one. Covers both
    /// passes, reserves 0 and `k`, growing committed states and
    /// unreachable destinations.
    #[test]
    fn blocked_search_matches_bellman_ford() {
        let d26 = benchmarks::d26_mobile();
        let d36 = benchmarks::d36_tablet();
        let cases = [
            (&d26, partition::logical_partition(&d26, 6).unwrap(), 1),
            (&d26, partition::logical_partition(&d26, 6).unwrap(), 2),
            (
                &d36,
                partition::communication_partition(&d36, 7, 1).unwrap(),
                1,
            ),
        ];
        let cfg = SynthesisConfig::default();
        let (mut searched, mut unreachable) = (0, 0);
        for (soc, vi, sweep) in cases {
            let plan = FrequencyPlan::compute(soc, &vi, &cfg);
            let vcgs: Vec<_> = (0..vi.island_count())
                .map(|j| build_vcg(soc, &vi, j, &cfg))
                .collect();
            let counts = switch_counts_for_sweep(&vcgs, &plan, sweep);
            let asg = island_switch_assignment(&vcgs, &plan, &counts, &cfg);
            let pricing = FlowPricing::new(soc, &vi, &plan, &cfg);
            let ctx = context(soc, &pricing, &plan, &asg, 3, &cfg).unwrap();
            for k_mid in [0, 3] {
                let mut s = AllocScratch::default();
                s.reset(&ctx);
                for (t, isf) in ctx.flows.iter().enumerate() {
                    if isf.src_switch == isf.dst_switch {
                        continue;
                    }
                    for (pass, reserve) in
                        [(Pass::Cost, 0), (Pass::Latency, 0), (Pass::Cost, k_mid)]
                    {
                        let label = format!(
                            "{} sweep {sweep} k={k_mid} flow {t} {pass:?} r={reserve}",
                            soc.name()
                        );
                        let got = s.search(&ctx, t, k_mid, reserve, &cfg, pass);
                        let (want, bf) =
                            reference_search(&ctx, &s, soc, &plan, &cfg, t, k_mid, reserve, pass);
                        match (&got, &want) {
                            (Some(d), Some((wd, wpath))) => {
                                assert_eq!(d.to_bits(), wd.to_bits(), "{label}");
                                assert_eq!(&s.path, wpath, "{label}");
                                assert!(
                                    (d - bf).abs() <= 1e-9 * bf.max(1.0),
                                    "{label}: {d} vs {bf}"
                                );
                                let mut at = isf.src_switch.index();
                                for &e in &s.path {
                                    let (u, v) = ctx.endpoints(e);
                                    assert_eq!(u, at, "{label}: the path is not a walk");
                                    at = v;
                                }
                                assert_eq!(at, isf.dst_switch.index(), "{label}");
                                searched += 1;
                            }
                            (None, None) => {
                                assert!(bf.is_infinite(), "{label}");
                                unreachable += 1;
                            }
                            _ => panic!("{label}: {got:?} vs {want:?}"),
                        }
                        let mut fresh = AllocScratch {
                            open: s.open.clone(),
                            load: s.load.clone(),
                            in_ports: s.in_ports.clone(),
                            out_ports: s.out_ports.clone(),
                            ..AllocScratch::default()
                        };
                        let again = fresh.search(&ctx, t, k_mid, reserve, &cfg, pass);
                        assert_eq!(again.map(f64::to_bits), got.map(f64::to_bits), "{label}");
                        assert_eq!(fresh.path, s.path, "{label}");
                    }
                    // Commit as an attempt would, growing the state.
                    match s.find_path(&ctx, t, k_mid, 0, &cfg) {
                        Ok(_) => s.commit(&ctx, isf.bandwidth),
                        Err(_) => break,
                    }
                }
            }
        }
        assert!(
            searched > 0 && unreachable > 0,
            "{searched} found, {unreachable} unreachable"
        );
    }
}
