//! The `vi-noc-dynsweep-v1` result-table format: a byte-deterministic
//! writer. Nothing reads a table back; the report's `dyn_sweep` member is
//! its one emission, pinned by the `d26_dynamic_grid` golden.
//!
//! The layout follows the sweep checkpoint convention — top-level members
//! one per line, array entries one per line, compact entries with fixed
//! key order and shortest-round-trip numbers — so `cmp` against a golden
//! file is a meaningful regression oracle.

use crate::axes::{Mode, SimAxes};
use vi_noc_core::json::{self, Obj};
use vi_noc_sim::{CellShutdown, TrafficKind};

/// `format` tag of dynamic-sweep result tables.
const TABLE_FORMAT: &str = "vi-noc-dynsweep-v1";

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
