//! Synthesized NoC topology: switches, links, routes.

use crate::config::SynthesisConfig;
use crate::paths::route_latency;
use std::collections::HashMap;
use std::fmt;
use vi_noc_models::{Bandwidth, Frequency};
use vi_noc_soc::{CoreId, FlowId, SocSpec};

/// Estimated NI↔switch wire length before floorplanning, mm.
const EST_NI_LINK_MM: f64 = 0.8;

/// Identifier of a switch within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub(crate) usize);

impl SwitchId {
    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of a directed link within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub(crate) usize);

impl LinkId {
    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Classification of a switch-to-switch link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Both endpoints in the same voltage island.
    Intra,
    /// Directly across two different (real) islands — carries a
    /// bi-synchronous converter FIFO.
    InterDirect,
    /// One endpoint in the intermediate NoC island — also a converter
    /// crossing (unless both endpoints are intermediate).
    Intermediate,
}

/// A NoC switch.
#[derive(Debug, Clone, PartialEq)]
pub struct Switch {
    /// Instance name (`swJ.G` for island J group G, `mid.K` for
    /// intermediate switches).
    pub name: String,
    /// Extended island index: `0..n_islands` for real islands,
    /// `n_islands` for the intermediate NoC island.
    pub island_ext: usize,
    /// Cores attached to this switch through NIs (empty for intermediate
    /// switches — they never connect cores directly).
    pub cores: Vec<CoreId>,
}

/// A directed switch-to-switch link.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoLink {
    /// Source switch.
    pub from: SwitchId,
    /// Destination switch.
    pub to: SwitchId,
    /// Peak bandwidth (width × the slower endpoint's clock).
    pub capacity: Bandwidth,
    /// Allocated bandwidth.
    pub load: Bandwidth,
    /// Link classification.
    pub kind: LinkKind,
    /// Estimated (pre-floorplan) length in mm; replaced by the realized
    /// length after floorplanning.
    pub length_mm: f64,
}

impl TopoLink {
    /// `true` if the link crosses a clock/voltage boundary and therefore
    /// carries a bi-synchronous converter FIFO.
    pub fn crosses_domain(&self) -> bool {
        self.kind != LinkKind::Intra
    }
}

/// The switch path of one traffic flow.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// The flow this route serves.
    pub flow: FlowId,
    /// Switches traversed, in order (at least one).
    pub switches: Vec<SwitchId>,
    /// Zero-load latency of the route in cycles (NI links + switches +
    /// links + converter crossings).
    pub latency_cycles: u32,
    /// Number of island-boundary crossings.
    pub crossings: u32,
}

/// Hand-constructs a [`Topology`] switch by switch, link by link.
///
/// The synthesis pipeline is the normal way to obtain a topology; this
/// builder exists for the cases that need *exact* structural control —
/// simulator edge-case fixtures (specific queue-sharing and clock-ratio
/// configurations that synthesized designs only reach probabilistically),
/// unit experiments, and importing externally designed topologies.
/// [`TopologyBuilder::build`] validates what the engine relies on: every
/// core attached to exactly one switch, every flow routed from its source
/// core's switch to its destination core's switch over opened links.
#[derive(Debug)]
pub struct TopologyBuilder {
    flows: Vec<(CoreId, CoreId)>,
    topo: Topology,
}

impl TopologyBuilder {
    /// Starts an empty topology for `spec` with `n_islands` real voltage
    /// islands clocked at `island_freq` (which must also carry the
    /// intermediate island's frequency as its last, `n_islands + 1`-th
    /// entry, even when no intermediate switches are added).
    ///
    /// # Panics
    ///
    /// Panics if `island_freq.len() != n_islands + 1`.
    pub fn new(
        spec: &SocSpec,
        n_islands: usize,
        island_freq: Vec<Frequency>,
        link_width_bits: usize,
    ) -> Self {
        TopologyBuilder {
            flows: spec.flows().iter().map(|f| (f.src, f.dst)).collect(),
            topo: Topology::new(spec, n_islands, island_freq, link_width_bits),
        }
    }

    /// Adds a switch on extended island `island_ext` with `cores` attached
    /// through NIs.
    ///
    /// # Panics
    ///
    /// Panics if `island_ext` is out of range (the intermediate island is
    /// the largest valid index) or a listed core is already attached.
    pub fn add_switch(
        &mut self,
        name: impl Into<String>,
        island_ext: usize,
        cores: Vec<CoreId>,
    ) -> SwitchId {
        assert!(
            island_ext <= self.topo.n_islands,
            "island_ext {island_ext} out of range"
        );
        for &c in &cores {
            assert_eq!(
                self.topo.switch_of_core[c.index()],
                SwitchId(usize::MAX),
                "core {c} already attached"
            );
        }
        self.topo.add_switch(Switch {
            name: name.into(),
            island_ext,
            cores,
        })
    }

    /// Opens a directed link `from → to`, classifying it from the endpoint
    /// islands (which determines whether the simulator charges the
    /// bi-synchronous crossing dwell).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unknown, `from == to`, or the link is
    /// already open.
    pub fn open_link(&mut self, from: SwitchId, to: SwitchId, capacity: Bandwidth) -> LinkId {
        assert_ne!(from, to, "self-links are not representable");
        let (fi, ti) = (
            self.topo.switches[from.index()].island_ext,
            self.topo.switches[to.index()].island_ext,
        );
        let mid = self.topo.n_islands;
        let kind = if fi == ti {
            LinkKind::Intra
        } else if fi == mid || ti == mid {
            LinkKind::Intermediate
        } else {
            LinkKind::InterDirect
        };
        self.topo.open_link(TopoLink {
            from,
            to,
            capacity,
            load: Bandwidth::from_mbps(0.0),
            kind,
            length_mm: 1.0,
        })
    }

    /// Routes `flow` over `switches`, accumulating its bandwidth onto each
    /// traversed link and deriving the crossing count and zero-load latency
    /// the way the synthesis allocator does, at the default 1-cycle switch
    /// and link delays.
    ///
    /// # Panics
    ///
    /// Panics if the route is empty, does not start (end) at the source
    /// (destination) core's switch, traverses an unopened link, or the flow
    /// is already routed.
    pub fn set_route(&mut self, spec: &SocSpec, flow: FlowId, switches: Vec<SwitchId>) {
        let (src, dst) = self.flows[flow.index()];
        assert!(!switches.is_empty(), "empty route for {flow}");
        assert!(
            self.topo.routes[flow.index()].is_none(),
            "{flow} already routed"
        );
        assert_eq!(
            switches[0],
            self.topo.switch_of_core[src.index()],
            "{flow}: route must start at the source core's switch"
        );
        assert_eq!(
            *switches.last().unwrap(),
            self.topo.switch_of_core[dst.index()],
            "{flow}: route must end at the destination core's switch"
        );
        let bw = spec.flow(flow).bandwidth;
        let mut crossings = 0u32;
        for w in switches.windows(2) {
            let link = self
                .topo
                .find_link(w[0], w[1])
                .unwrap_or_else(|| panic!("{flow}: no link {} → {}", w[0], w[1]));
            self.topo.add_load(link, bw);
            if self.topo.links[link.index()].crosses_domain() {
                crossings += 1;
            }
        }
        let latency_cycles = route_latency(switches.len(), crossings, &SynthesisConfig::default());
        self.topo.set_route(Route {
            flow,
            switches,
            latency_cycles,
            crossings,
        });
    }

    /// Finishes the topology.
    ///
    /// # Panics
    ///
    /// Panics if some core is unattached or some flow is unrouted — the
    /// structural invariants every consumer (metrics, realization, the
    /// simulator) assumes.
    pub fn build(self) -> Topology {
        for (c, &sw) in self.topo.switch_of_core.iter().enumerate() {
            assert_ne!(sw, SwitchId(usize::MAX), "core c{c} not attached");
        }
        for (f, r) in self.topo.routes.iter().enumerate() {
            assert!(r.is_some(), "flow f{f} not routed");
        }
        self.topo
    }
}

/// A complete synthesized topology for one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    n_islands: usize,
    switches: Vec<Switch>,
    links: Vec<TopoLink>,
    link_index: HashMap<(SwitchId, SwitchId), LinkId>,
    switch_of_core: Vec<SwitchId>,
    routes: Vec<Option<Route>>,
    island_freq: Vec<Frequency>,
    link_width_bits: usize,
    ni_length_mm: Vec<f64>,
}

impl Topology {
    /// Creates an empty topology skeleton.
    ///
    /// `island_freq` must hold `n_islands + 1` entries — the last one is the
    /// intermediate island's frequency.
    pub(crate) fn new(
        spec: &SocSpec,
        n_islands: usize,
        island_freq: Vec<Frequency>,
        link_width_bits: usize,
    ) -> Self {
        assert_eq!(island_freq.len(), n_islands + 1);
        Topology {
            n_islands,
            switches: Vec::new(),
            links: Vec::new(),
            link_index: HashMap::new(),
            switch_of_core: vec![SwitchId(usize::MAX); spec.core_count()],
            routes: vec![None; spec.flow_count()],
            island_freq,
            link_width_bits,
            ni_length_mm: vec![EST_NI_LINK_MM; spec.core_count()],
        }
    }

    pub(crate) fn add_switch(&mut self, switch: Switch) -> SwitchId {
        let id = SwitchId(self.switches.len());
        for &c in &switch.cores {
            self.switch_of_core[c.index()] = id;
        }
        self.switches.push(switch);
        id
    }

    pub(crate) fn open_link(&mut self, link: TopoLink) -> LinkId {
        debug_assert!(
            !self.link_index.contains_key(&(link.from, link.to)),
            "link already open"
        );
        let id = LinkId(self.links.len());
        self.link_index.insert((link.from, link.to), id);
        self.links.push(link);
        id
    }

    pub(crate) fn add_load(&mut self, link: LinkId, bw: Bandwidth) {
        self.links[link.0].load += bw;
    }

    pub(crate) fn set_route(&mut self, route: Route) {
        let idx = route.flow.index();
        self.routes[idx] = Some(route);
    }

    pub(crate) fn set_link_length(&mut self, link: LinkId, mm: f64) {
        self.links[link.0].length_mm = mm;
    }

    pub(crate) fn set_ni_length(&mut self, core: CoreId, mm: f64) {
        self.ni_length_mm[core.index()] = mm;
    }

    /// Number of real voltage islands (the intermediate island, if any, has
    /// extended index `island_count()`).
    pub fn island_count(&self) -> usize {
        self.n_islands
    }

    /// NoC clock frequency of extended island `island_ext`.
    pub fn island_frequency(&self, island_ext: usize) -> Frequency {
        self.island_freq[island_ext]
    }

    /// Data width of every link, bits: the width the topology was
    /// synthesized (or built) for, and the one a flit carries.
    pub fn link_width_bits(&self) -> usize {
        self.link_width_bits
    }

    /// All switches.
    pub fn switches(&self) -> &[Switch] {
        &self.switches
    }

    /// A switch by id.
    pub fn switch(&self, id: SwitchId) -> &Switch {
        &self.switches[id.0]
    }

    /// Iterates over switch ids.
    pub fn switch_ids(&self) -> impl Iterator<Item = SwitchId> + '_ {
        (0..self.switches.len()).map(SwitchId)
    }

    /// All links.
    pub fn links(&self) -> &[TopoLink] {
        &self.links
    }

    /// A link by id.
    pub fn link(&self, id: LinkId) -> &TopoLink {
        &self.links[id.0]
    }

    /// Iterates over link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(LinkId)
    }

    /// The open link `from -> to`, if any.
    pub fn find_link(&self, from: SwitchId, to: SwitchId) -> Option<LinkId> {
        self.link_index.get(&(from, to)).copied()
    }

    /// Length of the wire between a core's NI and its switch, mm: an
    /// estimate until floorplanning measures it, like
    /// [`TopoLink::length_mm`].
    pub fn ni_length_mm(&self, core: CoreId) -> f64 {
        self.ni_length_mm[core.index()]
    }

    /// The switch a core's NI attaches to.
    pub fn switch_of_core(&self, core: CoreId) -> SwitchId {
        let s = self.switch_of_core[core.index()];
        assert!(s.0 != usize::MAX, "core {core} not attached");
        s
    }

    /// The route of `flow`, if it was allocated.
    pub fn route(&self, flow: FlowId) -> Option<&Route> {
        self.routes[flow.index()].as_ref()
    }

    /// All allocated routes.
    pub fn routes(&self) -> impl Iterator<Item = &Route> + '_ {
        self.routes.iter().flatten()
    }

    /// Number of switches in the intermediate island.
    pub fn intermediate_switch_count(&self) -> usize {
        self.switches
            .iter()
            .filter(|s| s.island_ext == self.n_islands)
            .count()
    }

    /// `(inputs, outputs)` port usage of a switch: attached cores plus
    /// incident links.
    pub fn switch_ports(&self, id: SwitchId) -> (usize, usize) {
        let cores = self.switches[id.0].cores.len();
        let inputs = cores + self.links.iter().filter(|l| l.to == id).count();
        let outputs = cores + self.links.iter().filter(|l| l.from == id).count();
        (inputs, outputs)
    }

    /// Removes intermediate switches that ended up with no links, renumbering
    /// ids. Returns the number of switches removed.
    pub(crate) fn prune_unused_intermediate(&mut self) -> usize {
        let used: Vec<bool> = self
            .switch_ids()
            .map(|id| {
                let s = &self.switches[id.0];
                s.island_ext != self.n_islands
                    || self.links.iter().any(|l| l.from == id || l.to == id)
            })
            .collect();
        let removed = used.iter().filter(|&&u| !u).count();
        if removed == 0 {
            return 0;
        }
        let mut remap = vec![usize::MAX; self.switches.len()];
        let mut next = 0;
        for (i, &u) in used.iter().enumerate() {
            if u {
                remap[i] = next;
                next += 1;
            }
        }
        self.switches = self
            .switches
            .drain(..)
            .enumerate()
            .filter(|(i, _)| used[*i])
            .map(|(_, s)| s)
            .collect();
        for l in &mut self.links {
            l.from = SwitchId(remap[l.from.0]);
            l.to = SwitchId(remap[l.to.0]);
        }
        self.link_index = self
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| ((l.from, l.to), LinkId(i)))
            .collect();
        for s in &mut self.switch_of_core {
            if s.0 != usize::MAX {
                *s = SwitchId(remap[s.0]);
            }
        }
        for route in self.routes.iter_mut().flatten() {
            for s in &mut route.switches {
                *s = SwitchId(remap[s.0]);
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_noc_soc::{CoreKind, CoreSpec, TrafficFlow};

    fn tiny_spec() -> SocSpec {
        let mut s = SocSpec::new("t");
        let a = s.add_core(CoreSpec::new("a", CoreKind::Cpu, 1.0, 1.0, 100.0));
        let b = s.add_core(CoreSpec::new("b", CoreKind::Memory, 1.0, 1.0, 100.0));
        s.add_flow(TrafficFlow::new(a, b, 100.0, 10));
        s
    }

    fn freqs(n: usize) -> Vec<Frequency> {
        vec![Frequency::from_mhz(100.0); n + 1]
    }

    #[test]
    fn switches_attach_cores() {
        let spec = tiny_spec();
        let mut t = Topology::new(&spec, 2, freqs(2), 32);
        let s0 = t.add_switch(Switch {
            name: "sw0.0".into(),
            island_ext: 0,
            cores: vec![CoreId::from_index(0)],
        });
        let s1 = t.add_switch(Switch {
            name: "sw1.0".into(),
            island_ext: 1,
            cores: vec![CoreId::from_index(1)],
        });
        assert_eq!(t.switch_of_core(CoreId::from_index(0)), s0);
        assert_eq!(t.switch_of_core(CoreId::from_index(1)), s1);
        assert_eq!(t.switch_ports(s0), (1, 1));
    }

    #[test]
    fn links_and_ports_account() {
        let spec = tiny_spec();
        let mut t = Topology::new(&spec, 2, freqs(2), 32);
        let s0 = t.add_switch(Switch {
            name: "a".into(),
            island_ext: 0,
            cores: vec![CoreId::from_index(0)],
        });
        let s1 = t.add_switch(Switch {
            name: "b".into(),
            island_ext: 1,
            cores: vec![CoreId::from_index(1)],
        });
        let l = t.open_link(TopoLink {
            from: s0,
            to: s1,
            capacity: Bandwidth::from_mbps(400.0),
            load: Bandwidth::ZERO,
            kind: LinkKind::InterDirect,
            length_mm: 3.0,
        });
        t.add_load(l, Bandwidth::from_mbps(100.0));
        assert_eq!(t.find_link(s0, s1), Some(l));
        assert_eq!(t.find_link(s1, s0), None);
        assert_eq!(t.switch_ports(s0), (1, 2));
        assert_eq!(t.switch_ports(s1), (2, 1));
        assert!((t.link(l).load.mbps() - 100.0).abs() < 1e-9);
        assert!(t.link(l).crosses_domain());
    }

    #[test]
    fn builder_routes_read_the_allocator_s_zero_load_latency() {
        // NI links + switches + inter-switch links + 4-cycle converter
        // dwells: 3 cycles through one switch, 9 through two across an
        // island boundary, as synthesized routes of those shapes read.
        let spec = tiny_spec();
        let (a, b) = (CoreId::from_index(0), CoreId::from_index(1));
        let flow = FlowId::from_index(0);
        let mut one = TopologyBuilder::new(&spec, 1, freqs(1), 32);
        let s = one.add_switch("sw", 0, vec![a, b]);
        one.set_route(&spec, flow, vec![s]);
        assert_eq!(one.build().route(flow).unwrap().latency_cycles, 3);

        let mut two = TopologyBuilder::new(&spec, 2, freqs(2), 32);
        let s0 = two.add_switch("sw0", 0, vec![a]);
        let s1 = two.add_switch("sw1", 1, vec![b]);
        two.open_link(s0, s1, Bandwidth::from_mbps(400.0));
        two.set_route(&spec, flow, vec![s0, s1]);
        let route = two.build().route(flow).unwrap().clone();
        assert_eq!((route.crossings, route.latency_cycles), (1, 9));
    }

    #[test]
    fn pruning_removes_linkless_intermediate_switches() {
        let spec = tiny_spec();
        let mut t = Topology::new(&spec, 1, freqs(1), 32);
        let s0 = t.add_switch(Switch {
            name: "sw".into(),
            island_ext: 0,
            cores: vec![CoreId::from_index(0), CoreId::from_index(1)],
        });
        t.add_switch(Switch {
            name: "mid.0".into(),
            island_ext: 1,
            cores: vec![],
        });
        t.set_route(Route {
            flow: FlowId::from_index(0),
            switches: vec![s0],
            latency_cycles: 3,
            crossings: 0,
        });
        assert_eq!(t.intermediate_switch_count(), 1);
        assert_eq!(t.prune_unused_intermediate(), 1);
        assert_eq!(t.intermediate_switch_count(), 0);
        assert_eq!(t.switches().len(), 1);
        // Core mapping survived the renumbering.
        assert_eq!(t.switch_of_core(CoreId::from_index(0)), SwitchId(0));
    }
}
