//! Static simulation network derived from a synthesized topology.
//!
//! Everything here is resolved once, before time starts, into flat tables
//! indexed by **global queue id** — the switch-major number
//! `port_base[si] + p` of port `p` of switch `si`, one per output-buffered
//! port:
//!
//! * `hops[g]` says where a flit popped from queue `g` goes (an NI, or the
//!   downstream switch), which clock domain it lands in, and its hop delay:
//!   `2·period(dd) + dwell` for a link into domain `dd` (link + downstream
//!   switch traversal, plus the 4-cycle bi-synchronous dwell when the link
//!   crosses islands), `period(d)` for an ejection port (the final NI link).
//! * `route` holds every flow's route as global queue ids, concatenated,
//!   with per-flow offsets in `route_start`; a flit carries its position in
//!   that array, so the next queue is one lookup away.
//!
//! The engine (`crate::engine`) owns all mutable state — queues,
//! generators and the readiness bounds and bitsets its event scheduler
//! batches ticks with — so this structure can be shared read-only by every
//! run mode, and the analytic zero-load latency (`crate::zeroload`) sums the
//! same hop delays the engine charges.

use std::collections::HashMap;
use std::ops::Range;
use vi_noc_core::{SwitchId, Topology};
use vi_noc_models::BisyncFifoModel;
use vi_noc_soc::{FlowId, SocSpec};

/// Where an output port of a switch leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PortTarget {
    /// Ejection to one attached core's NI (each core has its own NI link,
    /// hence its own ejection port).
    Eject,
    /// A link to another switch.
    Link {
        /// Downstream switch index.
        to: u32,
    },
}

/// One output queue's forwarding entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PortHop {
    pub target: PortTarget,
    /// Clock domain the flit lands in: the downstream switch's extended
    /// island for a link, the port's own for an ejection port.
    pub dom: u32,
    /// Picoseconds from the pop until the flit may leave its next queue
    /// (links) or is delivered (ejection).
    pub delay_ps: u64,
}

/// The static structure the engine runs on: per-queue forwarding entries,
/// per-island clock periods, and per-flow routes as global queue ids.
#[derive(Debug, Clone)]
pub struct SimNetwork {
    /// Extended island index (clock domain) of each switch.
    pub(crate) switch_domain: Vec<usize>,
    /// Clock period per extended island, picoseconds.
    pub(crate) period_ps: Vec<u64>,
    /// Forwarding entry of each global queue id.
    pub(crate) hops: Vec<PortHop>,
    /// Every flow's route as global queue ids, ending at the destination
    /// core's ejection port; flow `f` owns `route[route_start[f]..route_start[f + 1]]`.
    pub(crate) route: Vec<u32>,
    /// Offset of each flow's route in [`Self::route`], plus the total.
    pub(crate) route_start: Vec<u32>,
    /// Switch of each core (NI attachment).
    pub(crate) switch_of_core: Vec<usize>,
    /// Clock domain of each core's NI (its switch's island).
    pub(crate) island_of_core: Vec<usize>,
    /// First global queue id of each switch, plus the total: switch `si`
    /// owns the ids `port_base[si]..port_base[si + 1]`, and queue `(si, p)`
    /// has the id `port_base[si] + p`. Wake lists, parked flags and the
    /// live-port bitset are keyed by these ids.
    pub(crate) port_base: Vec<usize>,
    /// Owning `(switch, port)` of each global queue id (the inverse of
    /// [`Self::port_base`]).
    pub(crate) port_owner: Vec<(u32, u32)>,
}

impl SimNetwork {
    /// Builds the simulation structure for `topo`.
    ///
    /// # Panics
    ///
    /// Panics if some flow of `spec` has no route in `topo` (synthesized
    /// topologies always route everything).
    pub fn build(spec: &SocSpec, topo: &Topology) -> Self {
        let n_switch = topo.switches().len();
        let switch_domain: Vec<usize> = topo.switches().iter().map(|s| s.island_ext).collect();
        // Clock periods (extended islands: real + intermediate).
        let n_isl = topo.island_count();
        let period_ps: Vec<u64> = (0..=n_isl)
            .map(|j| {
                let f = topo.island_frequency(j);
                (1e12 / f.hz().max(1.0)).round() as u64
            })
            .collect();

        // Per-switch output ports: one ejection port per attached core
        // (each core has its own NI link of one flit per island cycle),
        // then one port per outgoing link.
        let mut ports: Vec<Vec<PortHop>> = vec![Vec::new(); n_switch];
        let mut eject_port_of_core = vec![usize::MAX; spec.core_count()];
        let mut switch_of_core = vec![usize::MAX; spec.core_count()];
        let mut island_of_core = vec![usize::MAX; spec.core_count()];
        for (i, sw) in topo.switches().iter().enumerate() {
            for &core in &sw.cores {
                eject_port_of_core[core.index()] = ports[i].len();
                switch_of_core[core.index()] = i;
                island_of_core[core.index()] = sw.island_ext;
                ports[i].push(PortHop {
                    target: PortTarget::Eject,
                    dom: sw.island_ext as u32,
                    delay_ps: period_ps[sw.island_ext],
                });
            }
        }
        let dwell_cycles = BisyncFifoModel::CROSSING_LATENCY_CYCLES as u64;
        let mut link_port = HashMap::new();
        for l in topo.links() {
            let (from, to) = (l.from.index(), l.to.index());
            let dd = switch_domain[to];
            let dwell = if l.crosses_domain() { dwell_cycles } else { 0 };
            link_port.insert((l.from, l.to), ports[from].len());
            ports[from].push(PortHop {
                target: PortTarget::Link { to: to as u32 },
                dom: dd as u32,
                delay_ps: (2 + dwell) * period_ps[dd],
            });
        }

        // Global queue ids, assigned switch-major so `(si, p)` round-trips
        // through `port_base` / `port_owner`.
        let mut port_base = Vec::with_capacity(n_switch + 1);
        let mut port_owner = Vec::new();
        for (i, sw_ports) in ports.iter().enumerate() {
            port_base.push(port_owner.len());
            port_owner.extend((0..sw_ports.len()).map(|p| (i as u32, p as u32)));
        }
        port_base.push(port_owner.len());
        let hops = ports.concat();

        // Per-flow routes as global queue ids.
        let mut route = Vec::new();
        let mut route_start = Vec::with_capacity(spec.flow_count() + 1);
        for fid in spec.flow_ids() {
            let r = topo
                .route(fid)
                .unwrap_or_else(|| panic!("flow {fid} has no route"));
            let dst = spec.flow(fid).dst;
            route_start.push(route.len() as u32);
            for (h, &s) in r.switches.iter().enumerate() {
                let port = if h + 1 < r.switches.len() {
                    let next: SwitchId = r.switches[h + 1];
                    link_port[&(s, next)]
                } else {
                    eject_port_of_core[dst.index()]
                };
                route.push((port_base[s.index()] + port) as u32);
            }
        }
        route_start.push(route.len() as u32);

        let net = SimNetwork {
            switch_domain,
            period_ps,
            hops,
            route,
            route_start,
            switch_of_core,
            island_of_core,
            port_base,
            port_owner,
        };
        debug_assert_eq!(net.shared_next_queue(), None);
        net
    }

    /// The first route step that breaks what lets the engine visit a
    /// switch's ports in any order within one tick, as `(port, next
    /// queue)`, or `None`. A step from port `g` of switch `s` to queue
    /// `next` breaks it when `next` sits on `s` itself, or when another
    /// port of `s` also leads to `next`.
    pub(crate) fn shared_next_queue(&self) -> Option<(usize, usize)> {
        // The one port of each `(switch, next queue)` pair seen so far.
        let mut feeder = HashMap::new();
        for r in self.route_start.windows(2) {
            for step in self.route[r[0] as usize..r[1] as usize].windows(2) {
                let (g, next) = (step[0] as usize, step[1] as usize);
                let s = self.port_owner[g].0;
                if s == self.port_owner[next].0 || *feeder.entry((s, next)).or_insert(g) != g {
                    return Some((g, next));
                }
            }
        }
        None
    }

    /// Number of switches.
    pub fn switch_count(&self) -> usize {
        self.switch_domain.len()
    }

    /// Clock period of extended island `island_ext`, picoseconds.
    pub fn period_ps(&self, island_ext: usize) -> u64 {
        self.period_ps[island_ext]
    }

    /// The route of `flow` as global queue ids.
    pub(crate) fn route(&self, flow: FlowId) -> &[u32] {
        let f = flow.index();
        &self.route[self.route_start[f] as usize..self.route_start[f + 1] as usize]
    }

    /// Global queue ids of switch `si`'s output ports.
    pub(crate) fn ports(&self, si: usize) -> Range<usize> {
        self.port_base[si]..self.port_base[si + 1]
    }

    /// Total output queues across all switches.
    pub(crate) fn port_count(&self) -> usize {
        self.port_owner.len()
    }

    /// Picoseconds from a flit's injection at switch `si` until it may
    /// leave its first queue: the NI link plus the switch traversal, two
    /// cycles of the switch's domain.
    pub(crate) fn inject_delay_ps(&self, si: usize) -> u64 {
        2 * self.period_ps[self.switch_domain[si]]
    }

    /// Zero-load latency of `flow`, ps: the injection delay plus the delay
    /// of every hop of its route — exactly what the engine charges a flit
    /// that never waits.
    pub(crate) fn zero_load_ps(&self, flow: FlowId) -> u64 {
        let route = self.route(flow);
        let first = self.port_owner[route[0] as usize].0 as usize;
        self.inject_delay_ps(first)
            + route
                .iter()
                .map(|&g| self.hops[g as usize].delay_ps)
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vi_noc_core::{synthesize, SynthesisConfig};
    use vi_noc_soc::{benchmarks, partition};

    /// The network of `soc`'s min-power design at `k` logical islands.
    fn min_power_network(soc: &SocSpec, k: usize) -> SimNetwork {
        let vi = partition::logical_partition(soc, k).unwrap();
        let space = synthesize(soc, &vi, &SynthesisConfig::default()).unwrap();
        SimNetwork::build(soc, &space.min_power_point().unwrap().topology)
    }

    fn network() -> (SocSpec, SimNetwork) {
        let soc = benchmarks::d12_auto();
        let net = min_power_network(&soc, 4);
        (soc, net)
    }

    /// Every route position that has a next step, as `(queue, next queue)`.
    fn steps(net: &SimNetwork) -> Vec<(usize, usize)> {
        net.route_start
            .windows(2)
            .flat_map(|r| net.route[r[0] as usize..r[1] as usize].windows(2))
            .map(|w| (w[0] as usize, w[1] as usize))
            .collect()
    }

    /// The engine visits a switch's ports in ascending order, which is
    /// exact only if no port's forward can see another port's: no port
    /// leads back into its own switch, and no two ports of one switch
    /// lead to one queue.
    #[test]
    fn a_switch_port_shares_its_next_queues_with_no_other_port() {
        for (soc, k) in [(benchmarks::d12_auto(), 4), (benchmarks::d26_mobile(), 6)] {
            let net = min_power_network(&soc, k);
            let mut next = vec![BTreeSet::new(); net.port_count()];
            for (g, q) in steps(&net) {
                next[g].insert(q);
            }
            for si in 0..net.switch_count() {
                for g in net.ports(si) {
                    for &q in &next[g] {
                        assert_ne!(net.port_owner[q].0 as usize, si, "{}: port {g}", soc.name());
                    }
                    for h in g + 1..net.ports(si).end {
                        assert!(
                            next[g].is_disjoint(&next[h]),
                            "{}: ports {g}, {h}",
                            soc.name()
                        );
                    }
                }
            }
            assert_eq!(net.shared_next_queue(), None, "{}", soc.name());
        }
    }

    #[test]
    fn shared_next_queue_finds_either_break() {
        let (_, net) = network();
        let steps = steps(&net);
        let pos = |g: usize, q: usize| {
            (0..net.route.len() - 1)
                .find(|&i| (net.route[i], net.route[i + 1]) == (g as u32, q as u32))
                .unwrap()
        };
        // A step back into the port's own switch.
        let (g, q) = steps[0];
        let mut own = net.clone();
        own.route[pos(g, q) + 1] = g as u32;
        assert_eq!(own.shared_next_queue(), Some((g, g)));
        // Two ports of one switch stepping into one queue.
        let owner = |g: usize| net.port_owner[g].0;
        let (&(g, q), &(h, r)) = steps
            .iter()
            .flat_map(|a| steps.iter().map(move |b| (a, b)))
            .find(|(a, b)| a.0 != b.0 && owner(a.0) == owner(b.0))
            .expect("some switch forwards from two ports");
        let mut shared = net.clone();
        shared.route[pos(h, r) + 1] = q as u32;
        assert!(
            matches!(shared.shared_next_queue(), Some((p, n)) if n == q && [g, h].contains(&p))
        );
    }

    #[test]
    fn every_flow_has_a_port_route() {
        let (soc, net) = network();
        for fid in soc.flow_ids() {
            let route = net.route(fid);
            assert!(!route.is_empty());
            // Last hop ejects; earlier hops are links.
            let last = *route.last().unwrap() as usize;
            assert_eq!(net.hops[last].target, PortTarget::Eject);
            for &g in &route[..route.len() - 1] {
                assert!(matches!(
                    net.hops[g as usize].target,
                    PortTarget::Link { .. }
                ));
            }
        }
    }

    #[test]
    fn port_links_are_consistent_chains() {
        let (soc, net) = network();
        for fid in soc.flow_ids() {
            let route = net.route(fid);
            for w in route.windows(2) {
                match net.hops[w[0] as usize].target {
                    PortTarget::Link { to } => assert_eq!(to, net.port_owner[w[1] as usize].0),
                    PortTarget::Eject => panic!("premature ejection"),
                }
            }
        }
    }

    #[test]
    fn distinct_cores_have_distinct_eject_ports() {
        let (soc, net) = network();
        // Flows to different cores on the same switch must use different
        // ejection ports (each core has its own NI link).
        for a in soc.flow_ids() {
            for b in soc.flow_ids() {
                if a == b {
                    continue;
                }
                let (fa, fb) = (soc.flow(a), soc.flow(b));
                let (sa, pa) = net.port_owner[*net.route(a).last().unwrap() as usize];
                let (sb, pb) = net.port_owner[*net.route(b).last().unwrap() as usize];
                if sa == sb && fa.dst != fb.dst {
                    assert_ne!(pa, pb, "flows {a},{b} share an eject port");
                }
                if fa.dst == fb.dst {
                    assert_eq!((sa, pa), (sb, pb));
                }
            }
        }
    }

    #[test]
    fn periods_reflect_island_frequencies() {
        let (_, net) = network();
        for p in &net.period_ps {
            assert!(*p >= 1_000, "period {p} ps implies > 1 GHz island");
            assert!(*p <= 50_000, "period {p} ps implies < 20 MHz island");
        }
        // Links charge link + switch traversal (2 cycles) plus the 4-cycle
        // crossing dwell, ejection ports the final NI link (1 cycle), all
        // in the domain the flit lands in.
        let mut crossings = 0;
        for hop in &net.hops {
            let p = net.period_ps[hop.dom as usize];
            match hop.target {
                PortTarget::Eject => assert_eq!(hop.delay_ps, p),
                PortTarget::Link { .. } => {
                    assert!(hop.delay_ps == 2 * p || hop.delay_ps == (2 + 4) * p);
                    crossings += usize::from(hop.delay_ps == (2 + 4) * p);
                }
            }
        }
        assert!(crossings > 0);
    }

    #[test]
    fn port_ids_round_trip() {
        let (_, net) = network();
        let total: usize = (0..net.switch_count()).map(|si| net.ports(si).len()).sum();
        assert_eq!(net.port_count(), total);
        for si in 0..net.switch_count() {
            for p in 0..net.ports(si).len() {
                let gid = net.port_base[si] + p;
                assert_eq!(net.port_owner[gid], (si as u32, p as u32));
            }
        }
    }

    #[test]
    fn core_attachments_resolved() {
        let (soc, net) = network();
        for c in soc.core_ids() {
            assert!(net.switch_of_core[c.index()] != usize::MAX);
            assert!(net.island_of_core[c.index()] != usize::MAX);
        }
    }
}
