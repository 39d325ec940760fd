//! The `vi-noc-dynsweep-v1` result-table format: a byte-deterministic
//! writer and a strict parser with pinned, path-contexted errors.
//!
//! The layout follows the sweep checkpoint convention — top-level members
//! one per line, array entries one per line, compact entries with fixed
//! key order and shortest-round-trip numbers — so `cmp` against a golden
//! file is a meaningful regression oracle.

use crate::axes::{Mode, SimAxes};
use std::fmt::Write as _;
use vi_noc_core::{json_number, json_string};
use vi_noc_sim::{CellShutdown, ShutdownScenario, TrafficKind};
use vi_noc_sweep::json::{self, Value};

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

fn stats_json(s: &CellStats) -> String {
    let mut out = format!(
        "{{\"injected\":{},\"delivered\":{},\"avg_latency_ps\":{},\"power_mw\":{}",
        s.injected,
        s.delivered,
        json_number(s.avg_latency_ps),
        json_number(s.power_mw)
    );
    if let Some(shut) = &s.shutdown {
        let _ = write!(
            out,
            ",\"shutdown\":{{\"drained_cleanly\":{},\"survivors_before\":{},\"survivors_after\":{}}}",
            shut.drained_cleanly, shut.survivors_before, shut.survivors_after
        );
    }
    out.push('}');
    out
}

fn cell_json(c: &TableCellRec) -> String {
    format!(
        "{{\"point\":{},\"load\":{},\"traffic\":\"{}\",\"schedule\":{},\
         \"provenance\":\"exact\",\"stats\":{}}}",
        c.point,
        json_number(c.load),
        c.traffic,
        c.schedule,
        stats_json(&c.stats)
    )
}

fn point_json(p: &TablePoint) -> String {
    format!(
        "{{\"ordinal\":{},\"chain_id\":{},\"power_mw\":{},\"latency_cycles\":{},\
         \"island_signature\":\"{:016x}\",\"flow_fingerprint\":\"{:016x}\"}}",
        p.ordinal,
        p.chain_id,
        json_number(p.power_mw),
        json_number(p.latency_cycles),
        p.island_sig,
        p.flow_fp
    )
}

fn write_lines(out: &mut String, entries: impl Iterator<Item = String>) {
    for (i, e) in entries.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&e);
    }
    out.push_str("\n]");
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
    let _ = write!(s, "{{\"format\":{},", json_string(TABLE_FORMAT));
    let _ = write!(s, "\n\"mode\":\"{}\",", Mode::Exact);
    let _ = write!(s, "\n\"spec_name\":{},", json_string(spec_name));
    let _ = write!(s, "\n\"axes\":{},", axes.to_json());
    s.push_str("\n\"points\":[");
    write_lines(&mut s, points.iter().map(point_json));
    s.push_str(",\n\"cells\":[");
    write_lines(&mut s, cells.iter().map(cell_json));
    s.push_str("}\n");
    s
}

// ---------------------------------------------------------------- parser

fn field<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing '{key}'"))
}

fn u64_field(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    field(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: '{key}' is not an unsigned integer"))
}

fn usize_field(v: &Value, key: &str, ctx: &str) -> Result<usize, String> {
    field(v, key, ctx)?
        .as_usize()
        .ok_or_else(|| format!("{ctx}: '{key}' is not an unsigned integer"))
}

fn f64_field(v: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    field(v, key, ctx)?
        .as_f64()
        .ok_or_else(|| format!("{ctx}: '{key}' is not a number"))
}

fn str_field<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<&'v str, String> {
    field(v, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: '{key}' is not a string"))
}

fn bool_field(v: &Value, key: &str, ctx: &str) -> Result<bool, String> {
    match field(v, key, ctx)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("{ctx}: '{key}' is not a boolean")),
    }
}

fn check_keys(v: &Value, allowed: &[&str], ctx: &str) -> Result<(), String> {
    let Value::Obj(members) = v else {
        return Err(format!("{ctx}: not an object"));
    };
    for (k, _) in members {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("{ctx}: unknown member '{k}'"));
        }
    }
    Ok(())
}

fn hex16_field(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    let s = str_field(v, key, ctx)?;
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
            check_keys(
                v,
                &["island", "stop_at_ns", "drain_ns", "post_gate_ns"],
                ctx,
            )?;
            Ok(Some(ShutdownScenario {
                island: usize_field(v, "island", ctx)?,
                stop_at_ns: u64_field(v, "stop_at_ns", ctx)?,
                drain_ns: u64_field(v, "drain_ns", ctx)?,
                post_gate_ns: u64_field(v, "post_gate_ns", ctx)?,
            }))
        }
        _ => Err(format!("{ctx}: schedule is not null or an object")),
    }
}

fn parse_axes(v: &Value) -> Result<SimAxes, String> {
    let ctx = "axes";
    check_keys(v, &["loads", "traffic", "schedules", "horizon_ns"], ctx)?;
    let loads: Vec<f64> = match field(v, "loads", ctx)? {
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
    let traffic: Vec<TrafficKind> = match field(v, "traffic", ctx)? {
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
    let schedules: Vec<Option<ShutdownScenario>> = match field(v, "schedules", ctx)? {
        Value::Arr(xs) if !xs.is_empty() => xs
            .iter()
            .map(|x| parse_schedule(x, "axes"))
            .collect::<Result<_, _>>()?,
        _ => return Err("axes: 'schedules' must be a non-empty array".to_string()),
    };
    let horizon_ns = u64_field(v, "horizon_ns", ctx)?;
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
    check_keys(
        v,
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
        ordinal: u64_field(v, "ordinal", &ctx)?,
        chain_id: u64_field(v, "chain_id", &ctx)?,
        power_mw: f64_field(v, "power_mw", &ctx)?,
        latency_cycles: f64_field(v, "latency_cycles", &ctx)?,
        island_signature: hex16_field(v, "island_signature", &ctx)?,
        flow_fingerprint: hex16_field(v, "flow_fingerprint", &ctx)?,
    })
}

fn parse_stats(v: &Value, ctx: &str) -> Result<ParsedStats, String> {
    check_keys(
        v,
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
            check_keys(
                s,
                &["drained_cleanly", "survivors_before", "survivors_after"],
                ctx,
            )?;
            Some(ParsedShutdown {
                drained_cleanly: bool_field(s, "drained_cleanly", ctx)?,
                survivors_before: u64_field(s, "survivors_before", ctx)?,
                survivors_after: u64_field(s, "survivors_after", ctx)?,
            })
        }
    };
    Ok(ParsedStats {
        injected: u64_field(v, "injected", ctx)?,
        delivered: u64_field(v, "delivered", ctx)?,
        avg_latency_ps: f64_field(v, "avg_latency_ps", ctx)?,
        power_mw: f64_field(v, "power_mw", ctx)?,
        shutdown,
    })
}

fn parse_cell(v: &Value, i: usize) -> Result<ParsedCell, String> {
    let ctx = format!("cells[{i}]");
    check_keys(
        v,
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
    if !matches!(field(v, "provenance", &ctx)?, Value::Str(s) if s == "exact") {
        return Err(format!("{ctx}: provenance is not 'exact'"));
    }
    let traffic = str_field(v, "traffic", &ctx)?
        .parse::<TrafficKind>()
        .map_err(|e| format!("{ctx}: {e}"))?;
    Ok(ParsedCell {
        point: usize_field(v, "point", &ctx)?,
        load: f64_field(v, "load", &ctx)?,
        traffic,
        schedule: usize_field(v, "schedule", &ctx)?,
        stats: parse_stats(field(v, "stats", &ctx)?, &ctx)?,
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
    check_keys(
        &doc,
        &["format", "mode", "spec_name", "axes", "points", "cells"],
        "table",
    )?;
    let format = str_field(&doc, "format", "table")?;
    if format != TABLE_FORMAT {
        return Err(format!("table: format '{format}' is not '{TABLE_FORMAT}'"));
    }
    str_field(&doc, "mode", "table")?
        .parse::<Mode>()
        .map_err(|e| format!("table: {e}"))?;
    let spec_name = str_field(&doc, "spec_name", "table")?.to_string();
    let axes = parse_axes(field(&doc, "axes", "table")?)?;

    let points: Vec<ParsedPoint> = match field(&doc, "points", "table")? {
        Value::Arr(xs) => xs
            .iter()
            .enumerate()
            .map(|(i, p)| parse_point(p, i))
            .collect::<Result<_, _>>()?,
        _ => return Err("table: 'points' is not an array".to_string()),
    };

    let cells: Vec<ParsedCell> = match field(&doc, "cells", "table")? {
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
