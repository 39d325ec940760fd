//! Power / area / latency evaluation of a synthesized topology: the one
//! price list ([`price`]), which [`compute_metrics`], the T2 use-case
//! accounting and the simulator's measured power ([`traffic_power`]) each
//! call with their own loads.

use crate::config::SynthesisConfig;
use crate::topology::Topology;
use vi_noc_models::{
    Area, Bandwidth, BisyncFifoModel, LinkModel, NiModel, Power, SwitchModel, Technology,
};
use vi_noc_soc::{CoreId, SocSpec};

/// NoC dynamic power split by component class.
///
/// Figure 2 of the paper plots `switches + links + synchronizers` (§5: "The
/// power consumption values comprise the consumption on switches, links and
/// the synchronizers") — use [`PowerBreakdown::fig2_power`] for that series
/// and [`DesignMetrics::noc_dynamic_power`] for the NI-inclusive total.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Switch idle (clock/control) + datapath power.
    pub switches: Power,
    /// Wire power of the switch-to-switch links, plus, in the analytic
    /// metrics only, the NI↔switch wires ([`traffic_power`], and so the
    /// simulator's measured power, leaves those out).
    pub links: Power,
    /// Bi-synchronous voltage/frequency converter power.
    pub synchronizers: Power,
    /// Network-interface power.
    pub nis: Power,
}

impl PowerBreakdown {
    /// The paper's Figure-2 metric: switches + links + synchronizers.
    pub fn fig2_power(&self) -> Power {
        self.switches + self.links + self.synchronizers
    }

    /// Everything, NIs included.
    pub fn total(&self) -> Power {
        self.fig2_power() + self.nis
    }
}

/// Evaluated quality of one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignMetrics {
    /// Dynamic power by component class.
    pub power: PowerBreakdown,
    /// NoC leakage power (ungated).
    pub leakage: Power,
    /// NoC silicon area (switches + NIs + converters).
    pub area: Area,
    /// Mean zero-load latency over all flows, cycles.
    pub avg_latency_cycles: f64,
    /// Worst zero-load latency, cycles.
    pub max_latency_cycles: u32,
    /// Switch count (intermediate included).
    pub switch_count: usize,
    /// Directed link count.
    pub link_count: usize,
    /// Number of domain-crossing links (each carries a converter FIFO).
    pub crossing_count: usize,
}

impl DesignMetrics {
    /// Total NoC dynamic power (NIs included).
    pub fn noc_dynamic_power(&self) -> Power {
        self.power.total()
    }
}

/// The traffic a pricing charges to each part of a topology.
pub(crate) struct Loads {
    /// Bandwidth through each switch, by switch id.
    pub(crate) switches: Vec<Bandwidth>,
    /// Bandwidth on each switch-to-switch link, by link id.
    pub(crate) links: Vec<Bandwidth>,
    /// Bandwidth through each core's NI, by core id.
    pub(crate) nis: Vec<Bandwidth>,
}

/// Charges each flow's `flow_bw` to every switch and link of its route and
/// to the NIs of its two cores.
pub(crate) fn route_loads(spec: &SocSpec, topo: &Topology, flow_bw: &[Bandwidth]) -> Loads {
    let mut loads = Loads {
        switches: vec![Bandwidth::ZERO; topo.switches().len()],
        links: vec![Bandwidth::ZERO; topo.links().len()],
        nis: vec![Bandwidth::ZERO; spec.core_count()],
    };
    for route in topo.routes() {
        let bw = flow_bw[route.flow.index()];
        for &s in &route.switches {
            loads.switches[s.index()] += bw;
        }
        for pair in route.switches.windows(2) {
            if let Some(l) = topo.find_link(pair[0], pair[1]) {
                loads.links[l.index()] += bw;
            }
        }
        let f = spec.flow(route.flow);
        loads.nis[f.src.index()] += bw;
        loads.nis[f.dst.index()] += bw;
    }
    loads
}

/// Each core's requested NI bandwidth, in plus out, by core id.
pub(crate) fn ni_demands(spec: &SocSpec) -> Vec<Bandwidth> {
    spec.core_ids()
        .map(|id| {
            let (inb, outb) = spec.core_io_bandwidth(id);
            Bandwidth::from_bytes_per_s(inb.bytes_per_s() + outb.bytes_per_s())
        })
        .collect()
}

/// What [`price`] charges a topology.
pub(crate) struct Prices {
    /// Dynamic power of the powered parts.
    pub(crate) power: PowerBreakdown,
    /// Leakage of every part.
    pub(crate) leakage: Power,
    /// Area of every part.
    pub(crate) area: Area,
    /// Area by extended island: a switch and its NIs in the switch's
    /// island, a converter in its writer's.
    pub(crate) island_area: Vec<Area>,
}

/// The price list: every switch, switch-to-switch link, converter and NI of
/// `topo` charged `loads`, at the topology's width, clocks and wire lengths.
/// A part of an island that `powered` marks off (by extended island; `None`:
/// all on) burns no dynamic power, nor does a link with either end off.
/// `ni_wires` adds each NI's wire ([`Topology::ni_length_mm`]) to the links.
/// Each sum runs in one order: switches; links, each crossing's converter
/// right after its wire; NIs, each with its wire.
pub(crate) fn price(
    topo: &Topology,
    tech: &Technology,
    loads: &Loads,
    powered: Option<&[bool]>,
    ni_wires: bool,
) -> Prices {
    let width = topo.link_width_bits();
    let link_model = LinkModel::new(tech, width);
    let ni_model = NiModel::new(tech, width);
    let fifo_model = BisyncFifoModel::new(tech, width);
    let on = |island: usize| powered.is_none_or(|p| p[island]);
    let mut p = Prices {
        power: PowerBreakdown::default(),
        leakage: Power::ZERO,
        area: Area::ZERO,
        island_area: vec![Area::ZERO; topo.island_count() + 1],
    };

    // Switches: idle at the island clock plus the datapath for the load.
    for s in topo.switch_ids() {
        let island = topo.switch(s).island_ext;
        let (inp, outp) = topo.switch_ports(s);
        let model = SwitchModel::new(tech, inp.max(1), outp.max(1), width);
        if on(island) {
            p.power.switches += model.idle_power(topo.island_frequency(island))
                + model.traffic_power(loads.switches[s.index()]);
        }
        p.leakage += model.leakage_power();
        p.area += model.area();
        p.island_area[island] += model.area();
    }

    // Switch-to-switch links; a crossing also pays its converter FIFO.
    for (l, &load) in topo.links().iter().zip(&loads.links) {
        let from = topo.switch(l.from).island_ext;
        let to = topo.switch(l.to).island_ext;
        let live = on(from) && on(to);
        if live {
            p.power.links += link_model.traffic_power(l.length_mm, load);
        }
        if l.crosses_domain() {
            if live {
                let (fu, fv) = (topo.island_frequency(from), topo.island_frequency(to));
                p.power.synchronizers += fifo_model.power(fu, fv, load);
            }
            p.leakage += fifo_model.leakage_power();
            p.area += fifo_model.area();
            p.island_area[from] += fifo_model.area();
        }
    }

    // NIs, clocked at their switch's island, and their wires.
    for (c, &load) in loads.nis.iter().enumerate() {
        let core = CoreId::from_index(c);
        let island = topo.switch(topo.switch_of_core(core)).island_ext;
        if on(island) {
            p.power.nis += ni_model.power(topo.island_frequency(island), load);
            if ni_wires {
                p.power.links += link_model.traffic_power(topo.ni_length_mm(core), load);
            }
        }
        p.leakage += ni_model.leakage_power();
        p.area += ni_model.area();
        p.island_area[island] += ni_model.area();
    }
    p
}

/// Dynamic power of `topo` when flow `f` carries `flow_bw[f]`, charged to
/// every switch, link and converter of its route and to its two NIs, at
/// the topology's width, clocks and wire lengths. The NI↔switch wires are
/// not priced.
///
/// # Panics
///
/// Panics if `flow_bw` has fewer entries than `spec` has flows.
pub fn traffic_power(
    spec: &SocSpec,
    topo: &Topology,
    tech: &Technology,
    flow_bw: &[Bandwidth],
) -> PowerBreakdown {
    price(topo, tech, &route_loads(spec, topo, flow_bw), None, false).power
}

/// Computes the metrics of `topo` at the loads its synthesis allocated.
///
/// Every part is priced at the topology's width, clocks and wire lengths
/// (estimates during synthesis, realized Manhattan lengths after
/// floorplanning, NI wires included); `cfg` supplies only the technology.
pub fn compute_metrics(spec: &SocSpec, topo: &Topology, cfg: &SynthesisConfig) -> DesignMetrics {
    // Links carry the load their allocation summed (`TopoLink::load`), not
    // a per-route sum (`route_loads`): no link lookups per candidate.
    let mut switches = vec![Bandwidth::ZERO; topo.switches().len()];
    for route in topo.routes() {
        let bw = spec.flow(route.flow).bandwidth;
        for &s in &route.switches {
            switches[s.index()] += bw;
        }
    }
    let loads = Loads {
        switches,
        links: topo.links().iter().map(|l| l.load).collect(),
        nis: ni_demands(spec),
    };
    let prices = price(topo, &cfg.technology, &loads, None, true);

    // Zero-load latencies from the routes.
    let mut sum_lat = 0.0;
    let mut max_lat = 0;
    let mut n_routes = 0;
    for r in topo.routes() {
        sum_lat += r.latency_cycles as f64;
        max_lat = max_lat.max(r.latency_cycles);
        n_routes += 1;
    }

    DesignMetrics {
        power: prices.power,
        leakage: prices.leakage,
        area: prices.area,
        avg_latency_cycles: if n_routes > 0 {
            sum_lat / n_routes as f64
        } else {
            0.0
        },
        max_latency_cycles: max_lat,
        switch_count: topo.switches().len(),
        link_count: topo.links().len(),
        crossing_count: topo.links().iter().filter(|l| l.crosses_domain()).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::synthesize;
    use crate::TopologyBuilder;
    use vi_noc_models::Frequency;
    use vi_noc_soc::{benchmarks, partition, CoreKind, CoreSpec, FlowId, TrafficFlow};

    fn metrics_for(k: usize) -> DesignMetrics {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, k).unwrap();
        let cfg = SynthesisConfig::default();
        let space = synthesize(&soc, &vi, &cfg).expect("feasible");
        space.min_power_point().expect("points").metrics.clone()
    }

    #[test]
    fn routes_drive_switch_loads() {
        // One switch carries the one 100 MB/s route: it pays its idle power
        // plus the datapath power of that flow.
        let mut spec = SocSpec::new("t");
        let a = spec.add_core(CoreSpec::new("a", CoreKind::Cpu, 1.0, 1.0, 100.0));
        let b = spec.add_core(CoreSpec::new("b", CoreKind::Memory, 1.0, 1.0, 100.0));
        spec.add_flow(TrafficFlow::new(a, b, 100.0, 10));
        let f = Frequency::from_mhz(100.0);
        let mut builder = TopologyBuilder::new(&spec, 1, vec![f; 2], 32);
        let s = builder.add_switch("sw", 0, vec![a, b]);
        builder.set_route(&spec, FlowId::from_index(0), vec![s]);
        let cfg = SynthesisConfig::default();
        let m = compute_metrics(&spec, &builder.build(), &cfg);
        let model = SwitchModel::new(&cfg.technology, 2, 2, 32);
        let load = Bandwidth::from_mbps(100.0);
        assert!(m.power.switches > model.idle_power(f));
        assert_eq!(
            m.power.switches,
            model.idle_power(f) + model.traffic_power(load)
        );
    }

    #[test]
    fn one_island_has_no_synchronizer_power() {
        let m = metrics_for(1);
        assert_eq!(m.crossing_count, 0);
        assert!(m.power.synchronizers.mw() < 1e-12);
        assert!(m.power.switches.mw() > 0.0);
        assert!(m.power.links.mw() > 0.0);
        assert!(m.power.nis.mw() > 0.0);
    }

    #[test]
    fn multi_island_pays_for_crossings() {
        let m1 = metrics_for(1);
        let m6 = metrics_for(6);
        assert!(m6.crossing_count > 0);
        assert!(m6.power.synchronizers.mw() > 0.0);
        assert!(m6.avg_latency_cycles > m1.avg_latency_cycles);
    }

    #[test]
    fn fig2_power_excludes_nis() {
        let m = metrics_for(6);
        let fig2 = m.power.fig2_power().mw();
        let total = m.noc_dynamic_power().mw();
        assert!(
            (total - fig2 - m.power.nis.mw()).abs() < 1e-9,
            "total = fig2 + NIs"
        );
        assert!(fig2 < total);
    }

    #[test]
    fn power_magnitudes_match_paper_range() {
        // Figure 2's y-axis spans 20..100 mW for this SoC class.
        let m = metrics_for(1);
        let p = m.power.fig2_power().mw();
        assert!(
            p > 10.0 && p < 150.0,
            "1-island NoC power {p} mW far from the paper's range"
        );
    }

    #[test]
    fn area_is_small_versus_soc() {
        let soc = benchmarks::d26_mobile();
        let m = metrics_for(6);
        let frac = m.area.mm2() / soc.total_core_area().mm2();
        assert!(frac < 0.08, "NoC area fraction {frac} implausibly high");
        assert!(m.area.mm2() > 0.1, "NoC area implausibly low");
    }

    #[test]
    fn latency_starts_near_three_cycles() {
        let m = metrics_for(1);
        assert!(
            m.avg_latency_cycles >= 3.0 && m.avg_latency_cycles < 6.0,
            "1-island avg latency {} should sit near the paper's ~3.5",
            m.avg_latency_cycles
        );
    }
}
