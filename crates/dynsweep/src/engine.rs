//! The dynamic-sweep engine: regenerate the frontier points, simulate
//! every cell of the grid, emit the result table.

use crate::axes::{Mode, SimAxes};
use crate::table::{write_table, CellStats, TableCellRec, TablePoint};
use rayon::prelude::*;
use vi_noc_core::json::Value;
use vi_noc_core::{flow_fingerprint, island_signature, DesignPoint, SynthesisConfig};
use vi_noc_sim::{measured_power, run_dynamic_cell, SimConfig, TrafficKind};
use vi_noc_soc::{SocSpec, ViAssignment};
use vi_noc_sweep::{entry_coords, regenerate_point, GridDescriptor, ParsedFrontier, SweepGrid};

/// Everything a dynamic sweep runs against. The grid must be the **full**
/// (unwindowed) grid of the scenario the frontier came from — refined
/// frontiers regenerate correctly against it because windowing never
/// renumbers chains.
pub struct DynSweepInput<'a> {
    /// The SoC being swept.
    pub spec: &'a SocSpec,
    /// Its voltage-island partition.
    pub vi: &'a ViAssignment,
    /// The synthesis config the sweep ran under (seed, α, technology).
    pub cfg: &'a SynthesisConfig,
    /// Base sim config; each cell overrides `load_factor` and `traffic`.
    pub sim: &'a SimConfig,
    /// The scenario's full sweep grid.
    pub grid: &'a SweepGrid,
    /// Partition tag of the scenario (e.g. `logical:6`) — part of the
    /// grid-descriptor cross-check.
    pub partition: &'a str,
    /// The parsed merged frontier whose points are swept.
    pub frontier: &'a ParsedFrontier,
}

/// Result of one dynamic sweep: the serialized table plus counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynSweepRun {
    /// The `vi-noc-dynsweep-v1` result table, byte-deterministic.
    pub table: String,
    /// Total cells in the grid.
    pub cells: usize,
    /// Cells simulated. Every cell is, so this always equals `cells`; it
    /// remains because the benchmark under `perfbench/` reports it as
    /// `dynsweep.simulated` and can go with that metric.
    pub simulated: usize,
}

/// Checks the frontier's embedded grid descriptor against the scenario's
/// grid, ignoring refinement windows (a refined frontier is a valid sweep
/// source for the full grid it was refined from).
fn check_grid(input: &DynSweepInput) -> Result<(), String> {
    let expect = GridDescriptor::for_grid(
        input.grid,
        input.spec.name(),
        input.partition,
        input.cfg.seed,
    );
    debug_assert!(expect.windows.is_empty(), "dynsweep grids are unwindowed");
    let actual = match &input.frontier.grid {
        Value::Obj(members) => Value::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "windows")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    if actual.to_json() != expect.to_json() {
        return Err("frontier grid does not match the scenario's grid".to_string());
    }
    Ok(())
}

/// Regenerates every frontier point and cross-checks its metrics bit-wise
/// against the entry's recorded key fields. Returns each point's table
/// row with the regenerated design.
fn regenerate_points(input: &DynSweepInput) -> Result<Vec<(TablePoint, DesignPoint)>, String> {
    let flow_fp = flow_fingerprint(input.spec);
    let make = |i: usize, value: &Value| -> Result<(TablePoint, DesignPoint), String> {
        let coords = entry_coords(value).map_err(|e| format!("frontier[{i}]: {e}"))?;
        let point = regenerate_point(
            input.spec,
            input.vi,
            input.grid,
            input.cfg,
            coords.chain_id,
            coords.ordinal,
        )
        .map_err(|e| format!("frontier[{i}]: {e}"))?;
        let power = point.metrics.noc_dynamic_power().mw();
        let latency = point.metrics.avg_latency_cycles;
        if power.to_bits() != coords.power_mw.to_bits()
            || latency.to_bits() != coords.latency_cycles.to_bits()
        {
            return Err(format!(
                "frontier[{i}]: regenerated point does not match the frontier entry — \
                 is this frontier from a different scenario?"
            ));
        }
        let row = TablePoint {
            ordinal: coords.ordinal,
            chain_id: coords.chain_id,
            power_mw: coords.power_mw,
            latency_cycles: coords.latency_cycles,
            island_sig: island_signature(&point.topology),
            flow_fp,
        };
        Ok((row, point))
    };
    let indexed: Vec<(usize, &Value)> = input
        .frontier
        .entries
        .iter()
        .enumerate()
        .map(|(i, (_, v))| (i, v))
        .collect();
    indexed.par_iter().map(|&(i, v)| make(i, v)).collect()
}

/// Simulates one cell and measures its stats.
fn simulate_cell(
    input: &DynSweepInput,
    axes: &SimAxes,
    design: &DesignPoint,
    load: f64,
    traffic: TrafficKind,
    schedule: usize,
) -> CellStats {
    let mut sc = input.sim.clone();
    sc.load_factor = load;
    sc.traffic = traffic;
    let outcome = run_dynamic_cell(
        input.spec,
        input.vi,
        &design.topology,
        &sc,
        axes.horizon_ns,
        axes.schedules[schedule].as_ref(),
    );
    let power_mw = measured_power(
        input.spec,
        &design.topology,
        input.cfg,
        &outcome.stats,
        sc.packet_bytes as f64,
    )
    .fig2_power()
    .mw();
    CellStats {
        injected: outcome.stats.total_injected_packets(),
        delivered: outcome.stats.total_delivered_packets(),
        avg_latency_ps: outcome.stats.avg_latency_ps().unwrap_or(0.0),
        power_mw,
        shutdown: outcome.shutdown,
    }
}

/// Runs the dynamic sweep: simulates every frontier point at every
/// (load, traffic, schedule) cell of `axes` — in one order-preserving
/// rayon fan-out, as wide as `rayon::current_num_threads()` — and
/// writes the table with the cells in canonical order (point-major, then
/// load, traffic, schedule). `mode` is always [`Mode::Exact`].
///
/// # Errors
///
/// Invalid axes, a frontier/grid mismatch, or a frontier entry that does
/// not regenerate to its recorded metrics.
pub fn run_dynsweep(
    input: &DynSweepInput,
    axes: &SimAxes,
    _mode: Mode,
) -> Result<DynSweepRun, String> {
    axes.validate(input.vi)?;
    check_grid(input)?;
    let (rows, designs): (Vec<TablePoint>, Vec<DesignPoint>) =
        regenerate_points(input)?.into_iter().unzip();

    let mut cells = Vec::with_capacity(designs.len() * axes.cells_per_point());
    for point in 0..designs.len() {
        for &load in &axes.loads {
            for &traffic in &axes.traffic {
                for schedule in 0..axes.schedules.len() {
                    cells.push((point, load, traffic, schedule));
                }
            }
        }
    }
    let simulate =
        |&(point, load, traffic, schedule): &(usize, f64, TrafficKind, usize)| TableCellRec {
            point,
            load,
            traffic,
            schedule,
            stats: simulate_cell(input, axes, &designs[point], load, traffic, schedule),
        };
    let recs: Vec<TableCellRec> = cells.par_iter().map(simulate).collect();

    Ok(DynSweepRun {
        table: write_table(input.spec.name(), axes, &rows, &recs),
        cells: recs.len(),
        simulated: recs.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_noc_soc::{benchmarks, partition};
    use vi_noc_sweep::{frontier_json, parse_frontier_file, run_shard, GridConfig, Shard};

    #[test]
    fn mismatched_frontier_is_refused() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let cfg = SynthesisConfig::default();
        let grid_cfg = GridConfig {
            max_boost: 1,
            freq_scales: vec![1.0],
            max_intermediate: 2,
        };
        let grid = SweepGrid::build(&soc, &vi, &cfg, &grid_cfg);
        let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:4", cfg.seed);
        let run = run_shard(&soc, &vi, &grid, Shard::full(), &cfg);
        let frontier = parse_frontier_file(&frontier_json(&desc, &run)).unwrap();
        let input = DynSweepInput {
            spec: &soc,
            vi: &vi,
            cfg: &cfg,
            sim: &SimConfig::default(),
            grid: &grid,
            partition: "logical:6", // wrong tag
            frontier: &frontier,
        };
        let axes = SimAxes {
            loads: vec![0.5, 0.9],
            traffic: vec![TrafficKind::Cbr],
            schedules: vec![None],
            horizon_ns: 4_000,
        };
        let err = run_dynsweep(&input, &axes, Mode::Exact).unwrap_err();
        assert_eq!(err, "frontier grid does not match the scenario's grid");
    }
}
