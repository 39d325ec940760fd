//! `Scenario::run` simulates the chosen design point while its floorplan
//! anneals, so the report's sim and shutdown sections come from the
//! point's topology rather than the realized one. These tests pin the
//! premise that makes that exact, and the error and stage behaviour the
//! overlap must keep.

use vi_noc_api::Scenario;
use vi_noc_core::{realize_on_floorplan, synthesize, SynthesisConfig, Topology};
use vi_noc_floorplan::FloorplanConfig;
use vi_noc_sim::{
    run_dynamic_cell, CellOutcome, ShutdownScenario, SimConfig, SimStats, Simulator, TrafficKind,
};
use vi_noc_soc::{benchmarks, partition, SocSpec, ViAssignment};

/// The engine never reads link lengths, the only thing
/// `realize_on_floorplan` changes: a free-running sim and a gated cell give
/// the same results on the chosen point's topology and on its realized
/// copy, for every bundled benchmark at two partitions.
#[test]
fn the_simulator_gives_equal_results_on_the_point_and_realized_topologies() {
    let cfg = SynthesisConfig::default();
    let fp = FloorplanConfig {
        iterations: 2_000,
        ..FloorplanConfig::default()
    };
    let sim_cfg = SimConfig {
        traffic: TrafficKind::Poisson,
        load_factor: 0.9,
        ..SimConfig::default()
    };
    for (soc, islands) in benchmarks::suite() {
        let partitions = [
            partition::logical_partition(&soc, islands).unwrap(),
            partition::communication_partition(&soc, islands - 1, 1).unwrap(),
        ];
        for vi in &partitions {
            let space = synthesize(&soc, vi, &cfg).unwrap();
            let point = space.min_power_point().unwrap();
            let realized = realize_on_floorplan(&soc, vi, point, &fp, &cfg);
            let case = format!("{} at {} islands", soc.name(), vi.island_count());
            assert!(
                point
                    .topology
                    .links()
                    .iter()
                    .zip(realized.topology.links())
                    .any(|(p, r)| p.length_mm != r.length_mm),
                "{case}: the floorplan changed no link length"
            );
            assert_eq!(
                simulate(&soc, vi, &point.topology, &sim_cfg),
                simulate(&soc, vi, &realized.topology, &sim_cfg),
                "{case}"
            );
        }
    }
}

/// A 6 µs free run and a gated cell on the first gateable island.
fn simulate(
    soc: &SocSpec,
    vi: &ViAssignment,
    topology: &Topology,
    sim_cfg: &SimConfig,
) -> (SimStats, CellOutcome) {
    let island = (0..vi.island_count())
        .find(|&j| vi.can_shutdown(j))
        .expect("a gateable island");
    let stats = Simulator::new(soc, topology, sim_cfg).run_for_ns(6_000);
    let schedule = ShutdownScenario {
        island,
        stop_at_ns: 3_000,
        drain_ns: 500,
        post_gate_ns: 2_000,
    };
    let cell = run_dynamic_cell(soc, vi, topology, sim_cfg, 0, Some(&schedule));
    assert!(cell.gated_outcome().is_some(), "island {island} must gate");
    (stats, cell)
}

#[test]
fn an_out_of_range_shutdown_island_fails_with_the_same_message() {
    // The island is resolved before the simulator and the floorplan fork,
    // so this is still the first error, and its text is unchanged.
    let text = r#"{"name":"oob","spec":{"benchmark":"d26"},
        "partition":{"kind":"logical","islands":6},
        "floorplan":{"iterations":2000},
        "sim":{"horizon_ns":2000},
        "shutdown":{"island":6}}"#;
    let err = Scenario::from_json(text).unwrap().run().unwrap_err();
    assert_eq!(
        err.to_string(),
        "scenario shutdown.island: island 6 out of range 0..6"
    );
}

#[test]
fn a_zero_horizon_sim_stage_prices_no_measured_power() {
    // An empty horizon delivers nothing, so there is no activity to price:
    // the report carries no measured power, and its JSON no member for it.
    let text = r#"{"name":"empty","spec":{"benchmark":"d12"},
        "partition":{"kind":"logical","islands":2},
        "floorplan":{"iterations":2000},
        "sim":{"horizon_ns":0}}"#;
    let report = Scenario::from_json(text).unwrap().run().unwrap();
    let sim = report
        .sim
        .as_ref()
        .expect("the scenario declares a sim stage");
    assert_eq!(sim.stats.total_delivered_packets(), 0);
    assert!(sim.measured.is_none());
    assert!(!report.to_json().contains("measured_power_mw"));
}
