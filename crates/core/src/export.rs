//! Human-readable, Graphviz and machine-readable JSON exports of
//! synthesized topologies and design points (the DOT export backs the
//! Figure 4 reproduction; the JSON writers, built on [`crate::json`], back
//! the design points embedded in sweep checkpoints and scenario reports).

use crate::design_space::DesignPoint;
use crate::json::{self, Obj};
use crate::metrics::{DesignMetrics, PowerBreakdown};
use crate::topology::{LinkKind, Topology};
use std::fmt::Write as _;
use vi_noc_soc::{SocSpec, ViAssignment};

/// Renders the topology as a Graphviz `digraph`, clustered by voltage
/// island (cores as boxes, switches as circles, converter links dashed).
pub fn to_dot(spec: &SocSpec, vi: &ViAssignment, topo: &Topology) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "digraph noc {{");
    let _ = writeln!(s, "  rankdir=LR;");
    let _ = writeln!(s, "  node [fontsize=10];");
    let mid = vi.island_count();

    for isl in 0..=mid {
        let members: Vec<String> = topo
            .switch_ids()
            .filter(|&sw| topo.switch(sw).island_ext == isl)
            .map(|sw| format!("    \"{}\" [shape=circle];", topo.switch(sw).name))
            .collect();
        let cores: Vec<String> = if isl < mid {
            spec.core_ids()
                .filter(|&c| vi.island_of(c) == isl)
                .map(|c| format!("    \"{}\" [shape=box];", spec.core(c).name))
                .collect()
        } else {
            Vec::new()
        };
        if members.is_empty() && cores.is_empty() {
            continue;
        }
        let label = if isl == mid {
            "intermediate NoC VI (always on)".to_string()
        } else {
            format!(
                "VI {isl}{}",
                if vi.always_on_islands()[isl] {
                    " (always on)"
                } else {
                    ""
                }
            )
        };
        let _ = writeln!(s, "  subgraph cluster_{isl} {{");
        let _ = writeln!(s, "    label=\"{label}\";");
        for line in cores.iter().chain(members.iter()) {
            let _ = writeln!(s, "{line}");
        }
        let _ = writeln!(s, "  }}");
    }

    // NI links.
    for c in spec.core_ids() {
        let sw = topo.switch_of_core(c);
        let _ = writeln!(
            s,
            "  \"{}\" -> \"{}\" [dir=both, color=gray];",
            spec.core(c).name,
            topo.switch(sw).name
        );
    }
    // Switch links.
    for l in topo.links() {
        let style = if l.crosses_domain() {
            "style=dashed, label=\"bisync\""
        } else {
            ""
        };
        let _ = writeln!(
            s,
            "  \"{}\" -> \"{}\" [{}];",
            topo.switch(l.from).name,
            topo.switch(l.to).name,
            style
        );
    }
    let _ = writeln!(s, "}}");
    s
}

/// One-line-per-switch / per-link summary table of a topology.
pub fn topology_summary(spec: &SocSpec, vi: &ViAssignment, topo: &Topology) -> String {
    let mut s = String::new();
    let mid = vi.island_count();
    let _ = writeln!(
        s,
        "topology: {} switches ({} intermediate), {} links ({} crossings)",
        topo.switches().len(),
        topo.intermediate_switch_count(),
        topo.links().len(),
        topo.links().iter().filter(|l| l.crosses_domain()).count()
    );
    for sw in topo.switch_ids() {
        let info = topo.switch(sw);
        let (inp, outp) = topo.switch_ports(sw);
        let island = if info.island_ext == mid {
            "mid".to_string()
        } else {
            format!("VI{}", info.island_ext)
        };
        let cores: Vec<&str> = info
            .cores
            .iter()
            .map(|&c| spec.core(c).name.as_str())
            .collect();
        let _ = writeln!(
            s,
            "  {:8} [{island:>4}] {}x{} @ {:.0} MHz  cores: {}",
            info.name,
            inp,
            outp,
            topo.island_frequency(info.island_ext).mhz(),
            if cores.is_empty() {
                "-".to_string()
            } else {
                cores.join(", ")
            }
        );
    }
    for l in topo.links() {
        let _ = writeln!(
            s,
            "  link {} -> {}  load {:.0}/{:.0} MB/s{}",
            topo.switch(l.from).name,
            topo.switch(l.to).name,
            l.load.mbps(),
            l.capacity.mbps(),
            if l.crosses_domain() { "  [bisync]" } else { "" }
        );
    }
    s
}

/// Per-flow routing table (flow, path of switches, latency, crossings).
pub fn routes_table(spec: &SocSpec, topo: &Topology) -> String {
    let mut s = String::new();
    for route in topo.routes() {
        let f = spec.flow(route.flow);
        let path: Vec<&str> = route
            .switches
            .iter()
            .map(|&sw| topo.switch(sw).name.as_str())
            .collect();
        let _ = writeln!(
            s,
            "  {:>6} {:>10} -> {:<10} {:>6.0} MB/s  lat {:>2}/{:<3}  via {}",
            route.flow.to_string(),
            spec.core(f.src).name,
            spec.core(f.dst).name,
            f.bandwidth.mbps(),
            route.latency_cycles,
            f.max_latency_cycles,
            path.join(" -> ")
        );
    }
    s
}

// --- Machine-readable JSON -----------------------------------------------
//
// Written through `crate::json`, so the layout is byte-deterministic: two
// serializations of bit-identical values are bit-identical strings. The
// sharded sweep's "merge == unsharded run" guarantee rests on that.

fn link_kind_str(kind: LinkKind) -> &'static str {
    match kind {
        LinkKind::Intra => "intra",
        LinkKind::InterDirect => "inter_direct",
        LinkKind::Intermediate => "intermediate",
    }
}

/// Writes a topology as one compact JSON object: extended-island clocks,
/// switches (with attached core indices), links and routes.
fn write_topology(out: &mut String, topo: &Topology) {
    let n = topo.island_count();
    let mut o = Obj::new(out);
    o.num("island_count", n);
    json::array(o.key("island_freq_hz"), 0..=n, |out, i| {
        json::num(out, topo.island_frequency(i).hz())
    });
    json::array(o.key("switches"), topo.switches(), |out, sw| {
        let mut o = Obj::new(out);
        o.str("name", &sw.name).num("island", sw.island_ext);
        json::array(o.key("cores"), &sw.cores, |out, c| {
            json::num(out, c.index())
        });
        o.end();
    });
    json::array(o.key("links"), topo.links(), |out, l| {
        Obj::new(out)
            .num("from", l.from.index())
            .num("to", l.to.index())
            .str("kind", link_kind_str(l.kind))
            .num("capacity_bytes_per_s", l.capacity.bytes_per_s())
            .num("load_bytes_per_s", l.load.bytes_per_s())
            .num("length_mm", l.length_mm)
            .end();
    });
    json::array(o.key("routes"), topo.routes(), |out, r| {
        let mut o = Obj::new(out);
        o.num("flow", r.flow.index());
        json::array(o.key("switches"), &r.switches, |out, sw| {
            json::num(out, sw.index())
        });
        o.num("latency_cycles", r.latency_cycles)
            .num("crossings", r.crossings)
            .end();
    });
    o.end();
}

/// Writes a power breakdown in mW as one compact JSON object, with the
/// Figure-2 and NI-inclusive totals — the `"power_mw"` member of the
/// metrics and the report's measured power.
pub fn write_power(out: &mut String, p: &PowerBreakdown) {
    Obj::new(out)
        .num("switches", p.switches.mw())
        .num("links", p.links.mw())
        .num("synchronizers", p.synchronizers.mw())
        .num("nis", p.nis.mw())
        .num("fig2", p.fig2_power().mw())
        .num("total", p.total().mw())
        .end();
}

/// Writes design metrics as one compact JSON object (powers in mW, area
/// in mm²) — the `"metrics"` member of a design point, exposed so the
/// scenario report can serialize floorplan-realized metrics with the
/// identical layout.
pub fn write_metrics(out: &mut String, m: &DesignMetrics) {
    let mut o = Obj::new(out);
    write_power(o.key("power_mw"), &m.power);
    o.num("leakage_mw", m.leakage.mw())
        .num("area_mm2", m.area.mm2())
        .num("avg_latency_cycles", m.avg_latency_cycles)
        .num("max_latency_cycles", m.max_latency_cycles)
        .num("switch_count", m.switch_count)
        .num("link_count", m.link_count)
        .num("crossing_count", m.crossing_count)
        .end();
}

/// Writes one design point as a compact JSON object: sweep provenance,
/// metrics (powers in mW, area in mm²) and the full topology.
pub fn write_design_point(out: &mut String, p: &DesignPoint) {
    let mut o = Obj::new(out);
    o.num("sweep_index", p.sweep_index)
        .num("requested_intermediate", p.requested_intermediate);
    json::array(o.key("switch_counts"), &p.switch_counts, |out, &n| {
        json::num(out, n)
    });
    write_metrics(o.key("metrics"), &p.metrics);
    write_topology(o.key("topology"), &p.topology);
    o.end();
}

/// [`write_design_point`] into a fresh string.
pub fn design_point_json(p: &DesignPoint) -> String {
    let mut s = String::new();
    write_design_point(&mut s, p);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthesisConfig;
    use crate::synthesis::synthesize;
    use vi_noc_soc::{benchmarks, partition};

    fn design() -> (SocSpec, ViAssignment, Topology) {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        let topo = space.min_power_point().unwrap().topology.clone();
        (soc, vi, topo)
    }

    #[test]
    fn dot_export_is_wellformed() {
        let (soc, vi, topo) = design();
        let dot = to_dot(&soc, &vi, &topo);
        assert!(dot.starts_with("digraph noc {"));
        assert!(dot.trim_end().ends_with('}'));
        // Every switch and core appears.
        for sw in topo.switches() {
            assert!(dot.contains(&sw.name), "missing switch {}", sw.name);
        }
        for c in soc.cores() {
            assert!(dot.contains(&c.name), "missing core {}", c.name);
        }
        assert!(dot.matches("subgraph cluster_").count() >= 4);
    }

    #[test]
    fn summary_counts_match_topology() {
        let (soc, vi, topo) = design();
        let sum = topology_summary(&soc, &vi, &topo);
        assert!(sum.contains(&format!("{} switches", topo.switches().len())));
        assert!(sum.contains(&format!("{} links", topo.links().len())));
    }

    #[test]
    fn routes_table_lists_every_flow() {
        let (soc, _, topo) = design();
        let table = routes_table(&soc, &topo);
        assert_eq!(table.lines().count(), soc.flow_count());
    }

    #[test]
    fn design_point_json_covers_every_point_and_flow() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        for p in &space.points {
            let pj = design_point_json(p);
            assert!(pj.starts_with(&format!("{{\"sweep_index\":{},", p.sweep_index)));
            assert_eq!(pj.matches("\"sweep_index\":").count(), 1);
            // Every point serializes all of its routes.
            assert_eq!(pj.matches("\"flow\":").count(), soc.flow_count());
            assert_eq!(pj.matches("\"name\":").count(), p.topology.switches().len());
            // Serialization is deterministic.
            assert_eq!(pj, design_point_json(p));
        }
    }
}
