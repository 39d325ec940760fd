//! The `vi-noc-dynsweep-v1` result-table format: a byte-deterministic
//! writer and a strict parser with pinned, path-contexted errors.
//!
//! The layout follows the sweep checkpoint convention — top-level members
//! one per line, array entries one per line, compact entries with fixed
//! key order and shortest-round-trip numbers — so `cmp` against a golden
//! file is a meaningful regression oracle.

use crate::axes::{Mode, SimAxes};
use vi_noc_core::json::{self, Obj, Value};
use vi_noc_sim::{CellShutdown, ShutdownScenario, TrafficKind};

/// `format` tag of dynamic-sweep result tables.
pub const TABLE_FORMAT: &str = "vi-noc-dynsweep-v1";

/// One row of the `points` table (a frontier design point).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedPoint {
    /// Global candidate ordinal in the sweep grid.
    pub ordinal: u64,
    /// Chain that produced the point.
    pub chain_id: u64,
    /// Zero-load dynamic power, mW.
    pub power_mw: f64,
    /// Zero-load average latency, cycles.
    pub latency_cycles: f64,
    /// Island-topology signature (16 hex digits).
    pub island_signature: u64,
    /// Flow-matrix fingerprint (16 hex digits).
    pub flow_fingerprint: u64,
}

/// Shutdown-phase stats of a gated cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedShutdown {
    /// `true` iff the island drained within budget and was gated.
    pub drained_cleanly: bool,
    /// Survivor packets delivered before the gate point.
    pub survivors_before: u64,
    /// Survivor packets delivered after the gate point.
    pub survivors_after: u64,
}

/// Measured statistics of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedStats {
    /// Packets injected over the run.
    pub injected: u64,
    /// Packets delivered over the run.
    pub delivered: u64,
    /// Mean packet latency, ps (0 when nothing was delivered).
    pub avg_latency_ps: f64,
    /// Measured NoC dynamic power (paper Figure-2 scope), mW.
    pub power_mw: f64,
    /// Shutdown-phase stats; present iff the cell is gated.
    pub shutdown: Option<ParsedShutdown>,
}

/// One cell of the result table.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedCell {
    /// Index into the `points` table.
    pub point: usize,
    /// The cell's load factor (an axis value).
    pub load: f64,
    /// The cell's traffic kind.
    pub traffic: TrafficKind,
    /// Index into the schedule axis.
    pub schedule: usize,
    /// The stats themselves.
    pub stats: ParsedStats,
}

/// A parsed and validated dynamic-sweep result table.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTable {
    /// Benchmark/spec name.
    pub spec_name: String,
    /// The sim-axis grid.
    pub axes: SimAxes,
    /// Frontier design points, in frontier order.
    pub points: Vec<ParsedPoint>,
    /// Cells in canonical order (point-major, then load, traffic,
    /// schedule).
    pub cells: Vec<ParsedCell>,
}

// ---------------------------------------------------------------- writer

/// Writer-side row of the `points` table.
#[derive(Debug, Clone)]
pub(crate) struct TablePoint {
    pub ordinal: u64,
    pub chain_id: u64,
    pub power_mw: f64,
    pub latency_cycles: f64,
    pub island_sig: u64,
    pub flow_fp: u64,
}

/// Writer-side cell stats.
#[derive(Debug, Clone)]
pub(crate) struct CellStats {
    pub injected: u64,
    pub delivered: u64,
    pub avg_latency_ps: f64,
    pub power_mw: f64,
    pub shutdown: Option<CellShutdown>,
}

/// Writer-side cell record.
#[derive(Debug, Clone)]
pub(crate) struct TableCellRec {
    pub point: usize,
    pub load: f64,
    pub traffic: TrafficKind,
    pub schedule: usize,
    pub stats: CellStats,
}

fn write_stats(out: &mut String, s: &CellStats) {
    let mut o = Obj::new(out);
    o.num("injected", s.injected)
        .num("delivered", s.delivered)
        .num("avg_latency_ps", s.avg_latency_ps)
        .num("power_mw", s.power_mw);
    if let Some(shut) = &s.shutdown {
        Obj::new(o.key("shutdown"))
            .bool("drained_cleanly", shut.drained_cleanly)
            .num("survivors_before", shut.survivors_before)
            .num("survivors_after", shut.survivors_after)
            .end();
    }
    o.end();
}

fn write_cell(out: &mut String, c: &TableCellRec) {
    let mut o = Obj::new(out);
    o.num("point", c.point)
        .num("load", c.load)
        .str("traffic", &c.traffic.to_string())
        .num("schedule", c.schedule)
        .str("provenance", "exact");
    write_stats(o.key("stats"), &c.stats);
    o.end();
}

fn write_point(out: &mut String, p: &TablePoint) {
    Obj::new(out)
        .num("ordinal", p.ordinal)
        .num("chain_id", p.chain_id)
        .num("power_mw", p.power_mw)
        .num("latency_cycles", p.latency_cycles)
        .str("island_signature", &format!("{:016x}", p.island_sig))
        .str("flow_fingerprint", &format!("{:016x}", p.flow_fp))
        .end();
}

/// Serializes one result table, byte-deterministically. Every table is
/// `"mode":"exact"` and every cell `"provenance":"exact"`: both members
/// stay so tables keep their bytes.
pub(crate) fn write_table(
    spec_name: &str,
    axes: &SimAxes,
    points: &[TablePoint],
    cells: &[TableCellRec],
) -> String {
    let mut s = String::new();
    let mut o = Obj::lines(&mut s);
    o.str("format", TABLE_FORMAT)
        .str("mode", &Mode::Exact.to_string())
        .str("spec_name", spec_name);
    axes.write(o.key("axes"));
    json::lines(o.key("points"), points, write_point);
    json::lines(o.key("cells"), cells, write_cell);
    o.end();
    s.push('\n');
    s
}

// ---------------------------------------------------------------- parser

fn hex16_field(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    let s = v.str_member(key, ctx)?;
    if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()) {
        u64::from_str_radix(s, 16)
            .map_err(|_| format!("{ctx}: '{key}' is not a 16-hex-digit string"))
    } else {
        Err(format!("{ctx}: '{key}' is not a 16-hex-digit string"))
    }
}

fn parse_schedule(v: &Value, ctx: &str) -> Result<Option<ShutdownScenario>, String> {
    match v {
        Value::Null => Ok(None),
        Value::Obj(_) => {
            v.check_members(&["island", "stop_at_ns", "drain_ns", "post_gate_ns"], ctx)?;
            Ok(Some(ShutdownScenario {
                island: v.usize_member("island", ctx)?,
                stop_at_ns: v.u64_member("stop_at_ns", ctx)?,
                drain_ns: v.u64_member("drain_ns", ctx)?,
                post_gate_ns: v.u64_member("post_gate_ns", ctx)?,
            }))
        }
        _ => Err(format!("{ctx}: schedule is not null or an object")),
    }
}

fn parse_axes(v: &Value) -> Result<SimAxes, String> {
    let ctx = "axes";
    v.check_members(&["loads", "traffic", "schedules", "horizon_ns"], ctx)?;
    let loads: Vec<f64> = match v.member("loads", ctx)? {
        Value::Arr(xs) => xs
            .iter()
            .map(|x| x.as_f64().filter(|l| l.is_finite() && *l > 0.0))
            .collect::<Option<_>>()
            .filter(|ls: &Vec<f64>| !ls.is_empty())
            .ok_or("axes: 'loads' must be a non-empty array of positive finite numbers")?,
        _ => {
            return Err(
                "axes: 'loads' must be a non-empty array of positive finite numbers".to_string(),
            )
        }
    };
    let traffic: Vec<TrafficKind> = match v.member("traffic", ctx)? {
        Value::Arr(xs) if !xs.is_empty() => xs
            .iter()
            .map(|x| {
                x.as_str()
                    .ok_or("axes: traffic kind is not a string".to_string())
                    .and_then(|s| s.parse::<TrafficKind>().map_err(|e| format!("axes: {e}")))
            })
            .collect::<Result<_, _>>()?,
        _ => return Err("axes: 'traffic' must be a non-empty array".to_string()),
    };
    let schedules: Vec<Option<ShutdownScenario>> = match v.member("schedules", ctx)? {
        Value::Arr(xs) if !xs.is_empty() => xs
            .iter()
            .map(|x| parse_schedule(x, "axes"))
            .collect::<Result<_, _>>()?,
        _ => return Err("axes: 'schedules' must be a non-empty array".to_string()),
    };
    let horizon_ns = v.u64_member("horizon_ns", ctx)?;
    if horizon_ns == 0 {
        return Err("axes: 'horizon_ns' must be positive".to_string());
    }
    let axes = SimAxes {
        loads,
        traffic,
        schedules,
        horizon_ns,
    };
    axes.check_distinct()?;
    Ok(axes)
}

fn parse_point(v: &Value, i: usize) -> Result<ParsedPoint, String> {
    let ctx = format!("points[{i}]");
    v.check_members(
        &[
            "ordinal",
            "chain_id",
            "power_mw",
            "latency_cycles",
            "island_signature",
            "flow_fingerprint",
        ],
        &ctx,
    )?;
    Ok(ParsedPoint {
        ordinal: v.u64_member("ordinal", &ctx)?,
        chain_id: v.u64_member("chain_id", &ctx)?,
        power_mw: v.f64_member("power_mw", &ctx)?,
        latency_cycles: v.f64_member("latency_cycles", &ctx)?,
        island_signature: hex16_field(v, "island_signature", &ctx)?,
        flow_fingerprint: hex16_field(v, "flow_fingerprint", &ctx)?,
    })
}

fn parse_stats(v: &Value, ctx: &str) -> Result<ParsedStats, String> {
    v.check_members(
        &[
            "injected",
            "delivered",
            "avg_latency_ps",
            "power_mw",
            "shutdown",
        ],
        ctx,
    )?;
    let shutdown = match v.get("shutdown") {
        None => None,
        Some(s) => {
            s.check_members(
                &["drained_cleanly", "survivors_before", "survivors_after"],
                ctx,
            )?;
            Some(ParsedShutdown {
                drained_cleanly: s.bool_member("drained_cleanly", ctx)?,
                survivors_before: s.u64_member("survivors_before", ctx)?,
                survivors_after: s.u64_member("survivors_after", ctx)?,
            })
        }
    };
    Ok(ParsedStats {
        injected: v.u64_member("injected", ctx)?,
        delivered: v.u64_member("delivered", ctx)?,
        avg_latency_ps: v.f64_member("avg_latency_ps", ctx)?,
        power_mw: v.f64_member("power_mw", ctx)?,
        shutdown,
    })
}

fn parse_cell(v: &Value, i: usize) -> Result<ParsedCell, String> {
    let ctx = format!("cells[{i}]");
    v.check_members(
        &[
            "point",
            "load",
            "traffic",
            "schedule",
            "provenance",
            "stats",
        ],
        &ctx,
    )?;
    if !matches!(v.member("provenance", &ctx)?, Value::Str(s) if s == "exact") {
        return Err(format!("{ctx}: provenance is not 'exact'"));
    }
    let traffic = v
        .str_member("traffic", &ctx)?
        .parse::<TrafficKind>()
        .map_err(|e| format!("{ctx}: {e}"))?;
    Ok(ParsedCell {
        point: v.usize_member("point", &ctx)?,
        load: v.f64_member("load", &ctx)?,
        traffic,
        schedule: v.usize_member("schedule", &ctx)?,
        stats: parse_stats(v.member("stats", &ctx)?, &ctx)?,
    })
}

/// Parses and validates one `vi-noc-dynsweep-v1` result table.
///
/// Structural checks (each failing with one pinned, path-contexted
/// message): the format and `exact` mode tags; axis well-formedness, with
/// no axis repeating a value; point rows with 16-hex feature signatures;
/// cells in canonical point-major order covering the full grid, each
/// citing in-range axes and `exact` provenance; shutdown stats present
/// exactly on gated cells.
///
/// # Errors
///
/// The first failing check.
pub fn parse_table(text: &str) -> Result<ParsedTable, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    doc.check_members(
        &["format", "mode", "spec_name", "axes", "points", "cells"],
        "table",
    )?;
    let format = doc.str_member("format", "table")?;
    if format != TABLE_FORMAT {
        return Err(format!("table: format '{format}' is not '{TABLE_FORMAT}'"));
    }
    doc.str_member("mode", "table")?
        .parse::<Mode>()
        .map_err(|e| format!("table: {e}"))?;
    let spec_name = doc.str_member("spec_name", "table")?.to_string();
    let axes = parse_axes(doc.member("axes", "table")?)?;

    let points: Vec<ParsedPoint> = match doc.member("points", "table")? {
        Value::Arr(xs) => xs
            .iter()
            .enumerate()
            .map(|(i, p)| parse_point(p, i))
            .collect::<Result<_, _>>()?,
        _ => return Err("table: 'points' is not an array".to_string()),
    };

    let cells: Vec<ParsedCell> = match doc.member("cells", "table")? {
        Value::Arr(xs) => xs
            .iter()
            .enumerate()
            .map(|(i, c)| parse_cell(c, i))
            .collect::<Result<_, _>>()?,
        _ => return Err("table: 'cells' is not an array".to_string()),
    };

    let expected = points.len() * axes.cells_per_point();
    if cells.len() != expected {
        return Err(format!(
            "table: {} cells do not cover the {expected}-cell grid",
            cells.len()
        ));
    }
    let per_point = axes.cells_per_point();
    for (i, cell) in cells.iter().enumerate() {
        let (p, rest) = (i / per_point, i % per_point);
        let (li, rest) = (
            rest / (axes.traffic.len() * axes.schedules.len()),
            rest % (axes.traffic.len() * axes.schedules.len()),
        );
        let (ti, si) = (rest / axes.schedules.len(), rest % axes.schedules.len());
        if cell.point != p
            || cell.load.to_bits() != axes.loads[li].to_bits()
            || cell.traffic != axes.traffic[ti]
            || cell.schedule != si
        {
            return Err(format!("cells[{i}]: cell is out of canonical order"));
        }
        let gated = axes.schedules[si].is_some();
        if gated && cell.stats.shutdown.is_none() {
            return Err(format!(
                "cells[{i}]: gated cell is missing 'shutdown' stats"
            ));
        }
        if !gated && cell.stats.shutdown.is_some() {
            return Err(format!(
                "cells[{i}]: free-running cell carries 'shutdown' stats"
            ));
        }
    }

    // Points indexed by cells must exist (canonical order already forces
    // `point == i / per_point < points.len()` via the coverage check).
    for (i, cell) in cells.iter().enumerate() {
        if cell.point >= points.len() {
            return Err(format!(
                "cells[{i}]: point {} is outside the {}-entry points table",
                cell.point,
                points.len()
            ));
        }
    }

    Ok(ParsedTable {
        spec_name,
        axes,
        points,
        cells,
    })
}
