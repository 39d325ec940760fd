//! The redesign's acceptance criterion: a complete experiment driven
//! through the `Scenario` API produces outputs **bit-identical** to the
//! pre-redesign hand-chained pipeline on D26 — same design point, same
//! realized metrics, same `SimStats`, same shutdown outcome, and the same
//! frontier bytes the `sweep` CLI emits for the same grid.

use vi_noc_api::Scenario;
use vi_noc_core::{
    compute_metrics, realize_on_floorplan, scenario_power, standard_scenarios, synthesize,
    SynthesisConfig,
};
use vi_noc_floorplan::FloorplanConfig;
use vi_noc_sim::{
    measured_power, run_shutdown_scenario, ShutdownScenario, SimConfig, Simulator, TrafficKind,
};
use vi_noc_soc::{benchmarks, partition};
use vi_noc_sweep::{frontier_json, run_shard, GridConfig, GridDescriptor, Shard, SweepGrid};

#[test]
fn scenario_run_matches_the_hand_chained_pipeline_on_d26() {
    // The committed baseline scenario, exactly as the CLI runs it.
    let scenario =
        Scenario::from_json(include_str!("../../../scenarios/d26_baseline.json")).unwrap();
    let report = scenario.run().unwrap();

    // The pre-redesign flow, chained by hand (this is what
    // `examples/simulate.rs` did before the API existed).
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let cfg = SynthesisConfig::default();
    let space = synthesize(&soc, &vi, &cfg).unwrap();
    let point = space.min_power_point().unwrap();
    let realized = realize_on_floorplan(&soc, &vi, point, &FloorplanConfig::default(), &cfg);
    let sim_cfg = SimConfig {
        traffic: TrafficKind::Cbr,
        load_factor: 0.8,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&soc, &realized.topology, &sim_cfg);
    let stats = sim.run_for_ns(200_000);

    // Design space and chosen point: identical.
    assert_eq!(report.explored_points, space.points.len());
    assert_eq!(report.point, *point);
    assert_eq!(report.realized_metrics, realized.metrics);
    assert_eq!(report.infeasible_links, realized.infeasible_links.len());

    // Simulation statistics: bit-identical.
    let sim_report = report.sim.as_ref().expect("scenario declares a sim stage");
    assert_eq!(sim_report.stats, stats);

    // Shutdown outcome: identical to driving run_shutdown_scenario by hand
    // on the first gateable island.
    let island = (0..vi.island_count())
        .find(|&j| vi.can_shutdown(j))
        .unwrap();
    let outcome = run_shutdown_scenario(
        &soc,
        &vi,
        &realized.topology,
        &sim_cfg,
        &ShutdownScenario {
            island,
            ..ShutdownScenario::default()
        },
    );
    let shutdown = report.shutdown.as_ref().expect("scenario gates an island");
    assert_eq!(shutdown.island, island);
    assert_eq!(shutdown.outcome, outcome);

    // Frontier: byte-identical to the sweep subsystem's unsharded emission
    // over the same grid (what `sweep run --frontier` writes).
    let grid_cfg = GridConfig {
        max_boost: 0,
        freq_scales: vec![1.0],
        max_intermediate: 4,
    };
    let grid = SweepGrid::build(&soc, &vi, &cfg, &grid_cfg);
    let desc = GridDescriptor::for_grid(&grid, soc.name(), "logical:6", cfg.seed);
    let run = run_shard(&soc, &vi, &grid, Shard::full(), &cfg);
    let frontier = frontier_json(&desc, &run);
    assert_eq!(
        report.frontier.as_deref(),
        Some(frontier.as_str()),
        "scenario frontier bytes differ from the sweep CLI's"
    );
}

#[test]
fn the_simulator_takes_its_link_width_from_the_synthesized_topology() {
    // A 64-bit NoC carries a 64-byte packet in 8 flits. The width is a
    // synthesis fact only: a simulator that kept its own (32-bit) copy ran
    // 16-flit packets on islands clocked for 8, and saturated them.
    let scenario = Scenario::from_json(
        r#"{"name":"wide links","spec":{"benchmark":"d26"},
        "partition":{"kind":"logical","islands":6},
        "synthesis":{"link_width_bits":64},
        "floorplan":{"iterations":2000},
        "sim":{"traffic":"cbr","load_factor":0.8,"horizon_ns":50000}}"#,
    )
    .unwrap();
    let report = scenario.run().unwrap();

    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let cfg = SynthesisConfig {
        link_width_bits: 64,
        ..SynthesisConfig::default()
    };
    let space = synthesize(&soc, &vi, &cfg).unwrap();
    let topology = &space.min_power_point().unwrap().topology;
    assert_eq!(topology.link_width_bits(), 64);
    let sim_cfg = SimConfig {
        traffic: TrafficKind::Cbr,
        load_factor: 0.8,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&soc, topology, &sim_cfg);
    assert_eq!(sim.flits_per_packet(), 8);
    let stats = sim.run_for_ns(50_000);
    assert_eq!(report.sim.expect("a sim stage").stats, stats);
}

#[test]
fn every_price_is_taken_at_the_topology_s_width() {
    // d26's 64-bit min-power network priced under the default (32-bit)
    // config and under its own: each pricing path reads the width from the
    // topology, so the two agree. Before, each read the config's width and
    // the default config priced this network at 153.399 mW analytic and
    // 129.650 mW measured instead of 186.407 and 162.658.
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let wide = SynthesisConfig {
        link_width_bits: 64,
        ..SynthesisConfig::default()
    };
    let narrow = SynthesisConfig::default();
    let space = synthesize(&soc, &vi, &wide).unwrap();
    let point = space.min_power_point().unwrap();
    let topo = &point.topology;
    assert_eq!(topo.link_width_bits(), 64);

    assert_eq!(compute_metrics(&soc, topo, &narrow), point.metrics);
    assert_eq!(compute_metrics(&soc, topo, &wide), point.metrics);
    let fp = FloorplanConfig {
        iterations: 2_000,
        ..FloorplanConfig::default()
    };
    let realized = realize_on_floorplan(&soc, &vi, point, &fp, &narrow);
    let realized_wide = realize_on_floorplan(&soc, &vi, point, &fp, &wide);
    assert_eq!(realized.metrics, realized_wide.metrics);
    assert_eq!(realized.infeasible_links, realized_wide.infeasible_links);
    for sc in standard_scenarios(&soc) {
        let at = |cfg| scenario_power(&soc, &vi, topo, cfg, &sc);
        assert_eq!(at(&narrow), at(&wide), "{}", sc.name);
    }
    let sim_cfg = SimConfig::default();
    let stats = Simulator::new(&soc, topo, &sim_cfg).run_for_ns(20_000);
    let bytes = sim_cfg.packet_bytes as f64;
    assert_eq!(
        measured_power(&soc, topo, &narrow, &stats, bytes),
        measured_power(&soc, topo, &wide, &stats, bytes)
    );
}
