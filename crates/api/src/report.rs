//! The result of running a [`crate::Scenario`]: chosen design, realized
//! metrics, simulation statistics, shutdown outcome, sweep frontier — with
//! a byte-deterministic JSON emission and a human-readable summary.

use vi_noc_core::{
    design_point_json, json_number, json_string, metrics_json, DesignMetrics, DesignPoint,
};
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
    /// stage — byte-identical to the standalone `vi-noc dynsweep run`
    /// emission over the same scenario.
    pub dyn_sweep: Option<String>,
}

fn sim_stats_json(stats: &SimStats) -> String {
    let mut s = String::from("{");
    s.push_str(&format!(
        "\"elapsed_ps\":{},\"flits_in_flight\":{},\"total_injected_packets\":{},\
         \"total_delivered_packets\":{},\"flows\":[",
        stats.elapsed_ps,
        stats.flits_in_flight,
        stats.total_injected_packets(),
        stats.total_delivered_packets()
    ));
    for (i, f) in stats.flows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"injected\":{},\"delivered\":{},\"total_latency_ps\":{},\"max_latency_ps\":{}}}",
            f.injected_packets, f.delivered_packets, f.total_latency_ps, f.max_latency_ps
        ));
    }
    s.push_str("],\"switch_flits\":[");
    for (i, n) in stats.switch_flits.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&n.to_string());
    }
    s.push_str("]}");
    s
}

fn measured_json(m: &MeasuredPower) -> String {
    format!(
        "{{\"switches\":{},\"links\":{},\"synchronizers\":{},\"nis\":{},\"fig2\":{},\
         \"total\":{}}}",
        json_number(m.switches.mw()),
        json_number(m.links.mw()),
        json_number(m.synchronizers.mw()),
        json_number(m.nis.mw()),
        json_number(m.fig2_power().mw()),
        json_number(m.total().mw())
    )
}

impl Report {
    /// Serializes the report byte-deterministically: fixed member order,
    /// one top-level member per line, shortest-round-trip numbers — the
    /// same discipline as [`vi_noc_core::design_point_json`] and the sweep
    /// checkpoint format, so two runs of a deterministic scenario emit
    /// bit-identical files (the CI `scenario-smoke` job `cmp`s one against
    /// a committed golden artifact).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{{\"format\":{},", json_string(REPORT_FORMAT)));
        s.push_str(&format!("\n\"scenario\":{},", json_string(&self.scenario)));
        s.push_str(&format!(
            "\n\"spec_name\":{},",
            json_string(&self.spec_name)
        ));
        s.push_str(&format!("\n\"island_count\":{},", self.island_count));
        s.push_str(&format!("\n\"explored_points\":{},", self.explored_points));
        s.push_str(&format!("\n\"point\":{},", design_point_json(&self.point)));
        s.push_str(&format!(
            "\n\"realized\":{{\"metrics\":{},\"infeasible_links\":{}}}",
            metrics_json(&self.realized_metrics),
            self.infeasible_links
        ));
        if let Some(sim) = &self.sim {
            s.push_str(&format!(
                ",\n\"sim\":{{\"horizon_ns\":{},\"stats\":{}",
                sim.horizon_ns,
                sim_stats_json(&sim.stats)
            ));
            if let Some(m) = &sim.measured {
                s.push_str(&format!(",\"measured_power_mw\":{}", measured_json(m)));
            }
            s.push('}');
        }
        if let Some(sd) = &self.shutdown {
            s.push_str(&format!(
                ",\n\"shutdown\":{{\"island\":{},\"survivors_before\":{},\"survivors_after\":{},\
                 \"total_delivered\":{},\"drained_cleanly\":{}}}",
                sd.island,
                sd.outcome.survivors_before,
                sd.outcome.survivors_after,
                sd.outcome.total_delivered,
                sd.outcome.drained_cleanly
            ));
        }
        if let Some(frontier) = &self.frontier {
            // Embedded verbatim (minus the file's trailing newline), so the
            // frontier bytes inside a report equal the standalone file's.
            s.push_str(",\n\"frontier\":");
            s.push_str(frontier.trim_end_matches('\n'));
        }
        if let Some(table) = &self.dyn_sweep {
            // Same discipline as the frontier: the table bytes inside a
            // report equal the standalone file's.
            s.push_str(",\n\"dyn_sweep\":");
            s.push_str(table.trim_end_matches('\n'));
        }
        s.push_str("\n}\n");
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
        let doc = vi_noc_sweep::json::parse(&json).expect("report JSON parses");
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
