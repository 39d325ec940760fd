//! The result of running a [`crate::Scenario`]: chosen design, realized
//! metrics, simulation statistics, shutdown outcome, sweep frontier — with
//! a byte-deterministic JSON emission, and the one human-readable summary
//! of that emission ([`report_summary`]).

use vi_noc_core::json::{self, Obj, Value};
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
}

/// The terminal summary of a report file's text (a [`Report::to_json`]
/// emission): one line per section the file carries. Members are read
/// strictly, so a truncated or mistyped report fails on its first missing
/// member instead of printing placeholders. `vi-noc run` prints it for the
/// report it writes, `vi-noc report` for a report file.
///
/// # Errors
///
/// The text is not JSON, not a `vi-noc-report-v1` document, or lacks a
/// member of a section it carries; the message names the member's path.
pub fn report_summary(text: &str) -> Result<String, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("format").and_then(Value::as_str) {
        Some(REPORT_FORMAT) => {}
        Some(other) => return Err(format!("'{other}' is not '{REPORT_FORMAT}'")),
        None => return Err("not a vi-noc report file (no 'format' member)".to_string()),
    }
    let total_mw = |v: &Value, ctx: &str| v.member("power_mw", ctx)?.f64_member("total", ctx);
    let metrics = doc.member("point", "report")?.member("metrics", "point")?;
    let realized = doc.member("realized", "report")?;
    let realized_mw = total_mw(realized.member("metrics", "realized")?, "realized.metrics")?;
    let mut s = format!(
        "scenario '{}': {} @ {} islands\n  \
         synthesis: {} feasible point(s); chosen: {} switches, {:.1} mW, \
         {:.2} cycles avg zero-load latency\n  \
         floorplan: {realized_mw:.1} mW with Manhattan wires ({} link(s) need pipelining)\n",
        doc.str_member("scenario", "report")?,
        doc.str_member("spec_name", "report")?,
        doc.u64_member("island_count", "report")?,
        doc.u64_member("explored_points", "report")?,
        metrics.u64_member("switch_count", "point.metrics")?,
        total_mw(metrics, "point.metrics")?,
        metrics.f64_member("avg_latency_cycles", "point.metrics")?,
        realized.u64_member("infeasible_links", "realized")?
    );
    if let Some(sim) = doc.get("sim") {
        let stats = sim.member("stats", "sim")?;
        let delivered = stats.u64_member("total_delivered_packets", "sim.stats")?;
        let latency_ps = array(stats, "flows", "sim.stats")?
            .iter()
            .try_fold(0.0, |sum, f| {
                Ok::<_, String>(sum + f.f64_member("total_latency_ps", "sim.stats.flows")?)
            })?;
        s += &format!(
            "  simulated {} ns: {delivered} packets delivered, avg latency {:.1} ns\n",
            sim.u64_member("horizon_ns", "sim")?,
            latency_ps / delivered.max(1) as f64 / 1e3
        );
        if let Some(m) = sim.get("measured_power_mw") {
            s += &format!(
                "  measured NoC power: {:.1} mW (analytic full-load: {realized_mw:.1} mW)\n",
                m.f64_member("total", "sim.measured_power_mw")?
            );
        }
    }
    if let Some(sd) = doc.get("shutdown") {
        s += &format!(
            "  island {} gated: drained cleanly = {}, survivors delivered {} before / {} after \
             the gate\n",
            sd.u64_member("island", "shutdown")?,
            sd.bool_member("drained_cleanly", "shutdown")?,
            sd.u64_member("survivors_before", "shutdown")?,
            sd.u64_member("survivors_after", "shutdown")?
        );
    }
    if let Some(frontier) = doc.get("frontier") {
        let n = array(frontier, "frontier", "frontier")?.len();
        s += &format!("  sweep frontier: {n} undominated point(s)\n");
    }
    if let Some(table) = doc.get("dyn_sweep") {
        s += &format!(
            "  dynamic sweep: {} cell(s) simulated over {} frontier point(s)\n",
            array(table, "cells", "dyn_sweep")?.len(),
            array(table, "points", "dyn_sweep")?.len()
        );
    }
    Ok(s)
}

/// The array member `key` of `v`.
fn array<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a [Value], String> {
    v.member(key, ctx)?
        .as_arr()
        .ok_or_else(|| format!("{ctx}: '{key}' is not an array"))
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
        let text = report_summary(&report.to_json()).unwrap();
        assert!(text.contains("d12_auto"));
        assert!(text.contains("floorplan"));
        assert!(text.contains("simulated"));
        assert!(text.contains("measured NoC power"));
        assert!(text.contains("gated"));
    }
}
