//! The result of running a [`crate::Scenario`]: chosen design, realized
//! metrics, simulation statistics, shutdown outcome, sweep frontier — with
//! a byte-deterministic JSON emission and a human-readable summary.

use vi_noc_core::json::{self, Obj};
use vi_noc_core::{write_design_point, write_metrics, write_power, DesignMetrics, DesignPoint};
use vi_noc_sim::{MeasuredPower, ShutdownOutcome, SimStats};

/// `format` tag of report files.
pub const REPORT_FORMAT: &str = "vi-noc-report-v1";

/// The simulation section of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated horizon, ns.
    pub horizon_ns: u64,
    /// Engine statistics (bit-identical to a hand-chained run).
    pub stats: SimStats,
    /// Observed activity priced with the synthesis power models (`None`
    /// for an empty horizon).
    pub measured: Option<MeasuredPower>,
}

/// The island-shutdown section of a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownReport {
    /// The island that was gated (resolved from the plan's choice).
    pub island: usize,
    /// What happened.
    pub outcome: ShutdownOutcome,
}

/// Everything a scenario run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The scenario's name (provenance).
    pub scenario: String,
    /// The spec the pipeline ran over.
    pub spec_name: String,
    /// Number of voltage islands.
    pub island_count: usize,
    /// Feasible design points explored by synthesis.
    pub explored_points: usize,
    /// The chosen (minimum-power) design point, estimated wire lengths.
    pub point: DesignPoint,
    /// The chosen point's metrics after floorplan realization.
    pub realized_metrics: DesignMetrics,
    /// Realized links that miss timing at their clock (would be pipelined).
    pub infeasible_links: usize,
    /// Simulation section, if the scenario declared one.
    pub sim: Option<SimReport>,
    /// Shutdown section, if the scenario declared one.
    pub shutdown: Option<ShutdownReport>,
    /// The sweep frontier as the exact frontier-file text
    /// (`vi-noc-sweep-frontier-v1`), if the scenario declared a grid —
    /// byte-identical to `sweep run --frontier` over the same grid.
    pub frontier: Option<String>,
    /// The dynamic-sweep result table as the exact table-file text
    /// (`vi-noc-dynsweep-v1`), if the scenario declared a `dyn_sweep`
    /// stage; this member is the table's only emission.
    pub dyn_sweep: Option<String>,
}

fn write_sim_stats(out: &mut String, stats: &SimStats) {
    let mut o = Obj::new(out);
    o.num("elapsed_ps", stats.elapsed_ps)
        .num("flits_in_flight", stats.flits_in_flight)
        .num("total_injected_packets", stats.total_injected_packets())
        .num("total_delivered_packets", stats.total_delivered_packets());
    json::array(o.key("flows"), &stats.flows, |out, f| {
        Obj::new(out)
            .num("injected", f.injected_packets)
            .num("delivered", f.delivered_packets)
            .num("total_latency_ps", f.total_latency_ps)
            .num("max_latency_ps", f.max_latency_ps)
            .end();
    });
    json::array(o.key("switch_flits"), &stats.switch_flits, |out, &n| {
        json::num(out, n)
    });
    o.end();
}

impl Report {
    /// Serializes the report byte-deterministically: fixed member order,
    /// one top-level member per line, shortest-round-trip numbers — the
    /// same discipline as [`vi_noc_core::write_design_point`] and the sweep
    /// checkpoint format, so two runs of a deterministic scenario emit
    /// bit-identical files (the CI `scenario-smoke` job `cmp`s one against
    /// a committed golden artifact).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let mut o = Obj::lines(&mut s);
        o.str("format", REPORT_FORMAT)
            .str("scenario", &self.scenario)
            .str("spec_name", &self.spec_name)
            .num("island_count", self.island_count)
            .num("explored_points", self.explored_points);
        write_design_point(o.key("point"), &self.point);
        let mut realized = Obj::new(o.key("realized"));
        write_metrics(realized.key("metrics"), &self.realized_metrics);
        realized
            .num("infeasible_links", self.infeasible_links)
            .end();
        if let Some(sim) = &self.sim {
            let mut so = Obj::new(o.key("sim"));
            so.num("horizon_ns", sim.horizon_ns);
            write_sim_stats(so.key("stats"), &sim.stats);
            if let Some(m) = &sim.measured {
                write_power(so.key("measured_power_mw"), m);
            }
            so.end();
        }
        if let Some(sd) = &self.shutdown {
            Obj::new(o.key("shutdown"))
                .num("island", sd.island)
                .num("survivors_before", sd.outcome.survivors_before)
                .num("survivors_after", sd.outcome.survivors_after)
                .num("total_delivered", sd.outcome.total_delivered)
                .bool("drained_cleanly", sd.outcome.drained_cleanly)
                .end();
        }
        // The frontier and the table are embedded verbatim (minus the
        // file's trailing newline), so their bytes inside a report equal
        // the standalone files'.
        if let Some(frontier) = &self.frontier {
            o.raw("frontier", frontier.trim_end_matches('\n'));
        }
        if let Some(table) = &self.dyn_sweep {
            o.raw("dyn_sweep", table.trim_end_matches('\n'));
        }
        o.end_line();
        s.push('\n');
        s
    }

    /// A terminal-friendly multi-line summary of the run.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "scenario '{}': {} @ {} islands",
            self.scenario, self.spec_name, self.island_count
        );
        let _ = writeln!(
            s,
            "  synthesis: {} feasible points; chosen: {} switches, {:.1} mW, \
             {:.2} cycles avg latency",
            self.explored_points,
            self.point.metrics.switch_count,
            self.point.metrics.noc_dynamic_power().mw(),
            self.point.metrics.avg_latency_cycles
        );
        let _ = writeln!(
            s,
            "  floorplan: {:.1} mW with Manhattan wires ({} link(s) need pipelining)",
            self.realized_metrics.noc_dynamic_power().mw(),
            self.infeasible_links
        );
        if let Some(sim) = &self.sim {
            let _ = writeln!(
                s,
                "  simulated {} ns: {} packets delivered, avg latency {:.1} ns",
                sim.horizon_ns,
                sim.stats.total_delivered_packets(),
                sim.stats.avg_latency_ps().unwrap_or(0.0) / 1e3
            );
            if let Some(m) = &sim.measured {
                let _ = writeln!(
                    s,
                    "  measured NoC power: {:.1} mW (analytic full-load: {:.1} mW)",
                    m.fig2_power().mw(),
                    self.realized_metrics.noc_dynamic_power().mw()
                );
            }
        }
        if let Some(sd) = &self.shutdown {
            let _ = writeln!(
                s,
                "  island {} gated: drained cleanly = {}, survivors delivered {} before / \
                 {} after the gate",
                sd.island,
                sd.outcome.drained_cleanly,
                sd.outcome.survivors_before,
                sd.outcome.survivors_after
            );
        }
        if let Some(frontier) = &self.frontier {
            let entries = frontier.matches("\"ordinal\":").count();
            let _ = writeln!(
                s,
                "  sweep frontier: {entries} undominated point(s) ({} bytes)",
                frontier.len()
            );
        }
        if let Some(table) = &self.dyn_sweep {
            let cells = table.matches("\"provenance\":").count();
            let _ = writeln!(s, "  dynamic sweep: {cells} cell(s) simulated");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{PartitionPlan, Scenario, SpecSource};
    use vi_noc_floorplan::FloorplanConfig;

    fn small_report() -> Report {
        let mut scenario = Scenario::new(
            "report test",
            SpecSource::Benchmark("d12".into()),
            PartitionPlan::Logical { islands: 4 },
        );
        scenario.floorplan = FloorplanConfig {
            iterations: 2_000,
            ..FloorplanConfig::default()
        };
        scenario.sim = Some(crate::scenario::SimPlan {
            horizon_ns: 20_000,
            ..crate::scenario::SimPlan::default()
        });
        scenario.shutdown = Some(crate::scenario::ShutdownPlan {
            stop_at_ns: 5_000,
            drain_ns: 2_000,
            post_gate_ns: 5_000,
            ..crate::scenario::ShutdownPlan::default()
        });
        scenario.run().unwrap()
    }

    #[test]
    fn json_emission_is_deterministic_and_parseable() {
        let report = small_report();
        let json = report.to_json();
        assert_eq!(json, report.to_json(), "deterministic");
        assert!(json.starts_with("{\"format\":\"vi-noc-report-v1\","));
        let doc = json::parse(&json).expect("report JSON parses");
        assert_eq!(
            doc.get("spec_name").and_then(|v| v.as_str()),
            Some("d12_auto")
        );
        assert!(doc.get("sim").is_some());
        assert!(doc.get("shutdown").is_some());
        assert!(doc.get("frontier").is_none(), "no sweep declared");
    }

    #[test]
    fn summary_mentions_every_section() {
        let report = small_report();
        let text = report.summary();
        assert!(text.contains("d12_auto"));
        assert!(text.contains("floorplan"));
        assert!(text.contains("simulated"));
        assert!(text.contains("gated"));
    }
}
