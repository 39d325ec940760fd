//! Floorplan realization: placing the NoC and recomputing wire-accurate
//! metrics (the last step of the paper's flow).

use crate::config::SynthesisConfig;
use crate::design_space::DesignPoint;
use crate::metrics::{compute_metrics, DesignMetrics};
use crate::topology::{LinkId, Topology};
use vi_noc_floorplan::{
    floorplan, manhattan, place_attachments, Attachment, FloorplanConfig, Module, Net, Placement,
};
use vi_noc_models::LinkModel;
use vi_noc_soc::{SocSpec, ViAssignment};

/// A design point realized on a floorplan.
#[derive(Debug, Clone)]
pub struct RealizedDesign {
    /// Core placement (module index = core index).
    pub placement: Placement,
    /// Switch positions (indexed by switch id), mm.
    pub switch_positions: Vec<(f64, f64)>,
    /// The topology with realized link and NI wire lengths.
    pub topology: Topology,
    /// Metrics recomputed with Manhattan wire lengths.
    pub metrics: DesignMetrics,
    /// Links whose realized length misses timing at their clock —
    /// a real flow would pipeline them; reported for inspection.
    pub infeasible_links: Vec<LinkId>,
}

/// Places the cores with the island-cohesive annealing floorplanner, drops
/// switches at traffic-weighted centroids, records every measured wire (NI
/// wires included) on the topology, and recomputes the design metrics with
/// real lengths. `cfg` supplies only the technology.
pub fn realize_on_floorplan(
    spec: &SocSpec,
    vi: &ViAssignment,
    point: &DesignPoint,
    fp_cfg: &FloorplanConfig,
    cfg: &SynthesisConfig,
) -> RealizedDesign {
    // --- Core placement. ---------------------------------------------------
    let modules: Vec<Module> = spec
        .cores()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            Module::new(
                c.name.clone(),
                c.area.mm2(),
                vi.island_of(vi_noc_soc::CoreId::from_index(i)),
            )
        })
        .collect();
    let nets: Vec<Net> = spec
        .flows()
        .iter()
        .map(|f| Net::two_pin(f.src.index(), f.dst.index(), f.bandwidth.mbps()))
        .collect();
    let placement = floorplan(&modules, &nets, fp_cfg);

    // --- Switch insertion. ---------------------------------------------------
    let mut topology = point.topology.clone();
    // Pass 1: switches with attached cores sit at the bandwidth-weighted
    // centroid of their cores.
    let attachments: Vec<Attachment> = topology
        .switches()
        .iter()
        .map(|sw| {
            Attachment::new(
                sw.cores
                    .iter()
                    .map(|&c| {
                        let (inb, outb) = spec.core_io_bandwidth(c);
                        (c.index(), inb.mbps() + outb.mbps())
                    })
                    .collect(),
            )
        })
        .collect();
    let mut switch_positions = place_attachments(&placement, &attachments);
    // Pass 2: intermediate switches (no cores) move to the load-weighted
    // centroid of the switches they link to.
    for s in topology.switch_ids() {
        if !topology.switch(s).cores.is_empty() {
            continue;
        }
        let mut x = 0.0;
        let mut y = 0.0;
        let mut w = 0.0;
        for l in topology.links() {
            let (peer, load) = if l.from == s {
                (l.to, l.load.mbps())
            } else if l.to == s {
                (l.from, l.load.mbps())
            } else {
                continue;
            };
            let weight = load.max(1.0);
            x += switch_positions[peer.index()].0 * weight;
            y += switch_positions[peer.index()].1 * weight;
            w += weight;
        }
        if w > 0.0 {
            switch_positions[s.index()] = (x / w, y / w);
        }
    }

    // --- Wire lengths. -------------------------------------------------------
    let link_model = LinkModel::new(&cfg.technology, topology.link_width_bits());
    let mut infeasible_links = Vec::new();
    let link_ids: Vec<LinkId> = topology.link_ids().collect();
    for lid in link_ids {
        let l = topology.link(lid);
        let len = manhattan(
            switch_positions[l.from.index()],
            switch_positions[l.to.index()],
        );
        // The link is clocked by the slower of its two domains.
        let f_from = topology.island_frequency(topology.switch(l.from).island_ext);
        let f_to = topology.island_frequency(topology.switch(l.to).island_ext);
        let f = if f_from < f_to { f_from } else { f_to };
        if !link_model.is_feasible(len, f) {
            infeasible_links.push(lid);
        }
        topology.set_link_length(lid, len);
    }
    for c in spec.core_ids() {
        let s = switch_positions[topology.switch_of_core(c).index()];
        topology.set_ni_length(c, manhattan(placement.center(c.index()), s));
    }

    let metrics = compute_metrics(spec, &topology, cfg);
    RealizedDesign {
        placement,
        switch_positions,
        topology,
        metrics,
        infeasible_links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::synthesize;
    use vi_noc_soc::{benchmarks, partition};

    fn quick_fp() -> FloorplanConfig {
        FloorplanConfig {
            iterations: 4_000,
            ..FloorplanConfig::default()
        }
    }

    fn realized() -> (SocSpec, RealizedDesign) {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let cfg = SynthesisConfig::default();
        let space = synthesize(&soc, &vi, &cfg).unwrap();
        let point = space.min_power_point().unwrap();
        let r = realize_on_floorplan(&soc, &vi, point, &quick_fp(), &cfg);
        (soc, r)
    }

    #[test]
    fn all_components_are_placed() {
        let (soc, r) = realized();
        assert_eq!(r.placement.rect_count(), soc.core_count());
        assert_eq!(r.switch_positions.len(), r.topology.switches().len());
        assert!(r.placement.is_overlap_free());
        // Switches sit inside (or at the edge of) the die.
        let (dw, dh) = r.placement.die();
        for &(x, y) in &r.switch_positions {
            assert!(x >= -1e-9 && x <= dw + 1e-9);
            assert!(y >= -1e-9 && y <= dh + 1e-9);
        }
    }

    #[test]
    fn realized_lengths_replace_estimates() {
        let (_, r) = realized();
        // At least one link should have a length different from the three
        // estimation constants.
        let est = [1.5, 2.5, 3.5];
        assert!(r
            .topology
            .links()
            .iter()
            .any(|l| est.iter().all(|e| (l.length_mm - e).abs() > 1e-9)));
    }

    #[test]
    fn wire_accurate_metrics_are_computed() {
        let (_, r) = realized();
        assert!(r.metrics.power.links.mw() > 0.0);
        assert!(r.metrics.noc_dynamic_power().mw() > 0.0);
    }

    #[test]
    fn the_realized_topology_carries_its_measured_ni_wires() {
        // Synthesis prices each NI wire at the 0.8 mm estimate; the
        // floorplan records the measured lengths on the topology, so its
        // metrics are the topology's own.
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let cfg = SynthesisConfig::default();
        let space = synthesize(&soc, &vi, &cfg).unwrap();
        let point = space.min_power_point().unwrap();
        assert!(soc
            .core_ids()
            .all(|c| point.topology.ni_length_mm(c) == 0.8));
        let r = realize_on_floorplan(&soc, &vi, point, &quick_fp(), &cfg);
        assert_eq!(compute_metrics(&soc, &r.topology, &cfg), r.metrics);
        assert!(soc.core_ids().any(|c| r.topology.ni_length_mm(c) != 0.8));
    }

    #[test]
    fn few_or_no_infeasible_links() {
        let (_, r) = realized();
        // Mobile-SoC dies are small; unpipelined links at a few hundred MHz
        // should essentially always meet timing.
        assert!(
            r.infeasible_links.len() <= r.topology.links().len() / 4,
            "{} of {} links infeasible",
            r.infeasible_links.len(),
            r.topology.links().len()
        );
    }
}
