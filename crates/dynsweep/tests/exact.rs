//! Determinism suite for the dynsweep engine: on real and synthetic SoCs,
//! the table is byte-identical whether the cells run in the rayon fan-out
//! (`SynthesisConfig::parallel`) or one after another, covers every cell
//! of the grid, and parses back.

use vi_noc_core::SynthesisConfig;
use vi_noc_dynsweep::{parse_table, run_dynsweep, DynSweepInput, DynSweepRun, Mode, SimAxes};
use vi_noc_sim::{ShutdownScenario, SimConfig, TrafficKind};
use vi_noc_soc::{benchmarks, generate_synthetic, partition, SocSpec, SyntheticConfig};
use vi_noc_sweep::{
    frontier_json, parse_frontier_file, run_shard, GridConfig, GridDescriptor, Shard, SweepGrid,
};

/// A schedule gating the first shutdown-capable island, if any.
fn gating_schedule(vi: &vi_noc_soc::ViAssignment) -> Option<ShutdownScenario> {
    (0..vi.island_count())
        .find(|&i| vi.can_shutdown(i))
        .map(|island| ShutdownScenario {
            island,
            stop_at_ns: 2_000,
            drain_ns: 1_500,
            post_gate_ns: 3_000,
        })
}

/// Sweeps `spec` at `islands`, then runs the dynamic sweep over the
/// frontier with the given `parallel` setting.
fn sweep(spec: &SocSpec, islands: usize, axes: &SimAxes, parallel: bool) -> DynSweepRun {
    let vi = partition::logical_partition(spec, islands).unwrap();
    let cfg = SynthesisConfig {
        parallel,
        ..SynthesisConfig::default()
    };
    let grid_cfg = GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0],
        max_intermediate: 2,
    };
    let grid = SweepGrid::build(spec, &vi, &cfg, &grid_cfg);
    let tag = format!("logical:{islands}");
    let desc = GridDescriptor::for_grid(&grid, spec.name(), &tag, cfg.seed);
    let run = run_shard(spec, &vi, &grid, Shard::full(), &cfg);
    let frontier = parse_frontier_file(&frontier_json(&desc, &run)).unwrap();
    let input = DynSweepInput {
        spec,
        vi: &vi,
        cfg: &cfg,
        sim: &SimConfig::default(),
        grid: &grid,
        partition: &tag,
        frontier: &frontier,
    };
    run_dynsweep(&input, axes, Mode::Exact).unwrap()
}

/// The parallel and sequential tables are the same bytes, and cover the
/// grid.
fn assert_parallel_is_sequential(spec: SocSpec, islands: usize, axes: &SimAxes) {
    let par = sweep(&spec, islands, axes, true);
    let seq = sweep(&spec, islands, axes, false);
    assert_eq!(
        par.table.as_bytes(),
        seq.table.as_bytes(),
        "parallel and sequential tables differ for {}",
        spec.name()
    );
    let parsed = parse_table(&par.table).unwrap();
    assert_eq!(parsed.cells.len(), par.cells);
    assert_eq!(par.cells, parsed.points.len() * axes.cells_per_point());
    assert_eq!(par.simulated, par.cells);
}

#[test]
fn parallel_is_sequential_on_d12() {
    let axes = SimAxes {
        loads: vec![0.5, 0.9, 1.2],
        traffic: vec![TrafficKind::Cbr, TrafficKind::Poisson],
        schedules: vec![None],
        horizon_ns: 4_000,
    };
    assert_parallel_is_sequential(benchmarks::d12_auto(), 4, &axes);
}

#[test]
fn parallel_is_sequential_under_gating() {
    let spec = benchmarks::d12_auto();
    let vi = partition::logical_partition(&spec, 4).unwrap();
    let sched = gating_schedule(&vi).expect("d12 at 4 islands has a gateable island");
    let axes = SimAxes {
        loads: vec![0.7],
        traffic: vec![TrafficKind::Cbr],
        schedules: vec![None, Some(sched)],
        horizon_ns: 6_000,
    };
    assert_parallel_is_sequential(spec, 4, &axes);
}

#[test]
fn parallel_is_sequential_on_synthetic_socs() {
    for (n_cores, seed, islands) in [(8, 11, 2), (14, 7, 3)] {
        let spec = generate_synthetic(&SyntheticConfig {
            n_cores,
            seed,
            ..SyntheticConfig::default()
        });
        let axes = SimAxes {
            loads: vec![0.6, 1.1],
            traffic: vec![TrafficKind::Poisson],
            schedules: vec![None],
            horizon_ns: 4_000,
        };
        assert_parallel_is_sequential(spec, islands, &axes);
    }
}
