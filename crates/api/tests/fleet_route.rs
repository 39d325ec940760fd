//! Scenario sweeps submitted as job payloads to a worker fleet must fold
//! the same frontier files, byte for byte, as the classic single-process
//! path — for the coarse grid and for the windowed refinement stage.

use std::sync::Arc;
use vi_noc_api::fleet::{job_payload, ScenarioJobResolver};
use vi_noc_api::{PartitionPlan, RefinePlan, Scenario, SpecSource};
use vi_noc_fleet::{
    spawn_local_workers, start_coordinator, FleetConfig, FleetHandle, JobResolver, WorkerOpts,
};
use vi_noc_sweep::{
    frontier_seeds, parse_frontier_file, windows_from_frontier, GridConfig, RefineParams,
};

fn base_scenario() -> Scenario {
    let mut s = Scenario::new(
        "fleet-route",
        SpecSource::Benchmark("d12".into()),
        PartitionPlan::Logical { islands: 4 },
    );
    s.synthesis.parallel = false;
    s.floorplan.iterations = 200;
    s.floorplan.restarts = 1;
    s.sweep = Some(GridConfig {
        max_boost: 1,
        freq_scales: vec![1.0, 1.1],
        max_intermediate: 2,
    });
    s
}

fn refined_scenario() -> Scenario {
    let mut s = base_scenario();
    s.refine = Some(RefinePlan {
        grid: GridConfig {
            max_boost: 1,
            freq_scales: vec![1.0, 1.05, 1.1],
            max_intermediate: 2,
        },
        params: RefineParams {
            boost_radius: 1,
            base_radius: 2,
            scale_window: 1.0,
        },
    });
    s
}

/// Runs `body` against a loopback coordinator with two local workers.
fn with_fleet<T>(body: impl FnOnce(&FleetHandle) -> T) -> T {
    let resolver: Arc<dyn JobResolver> = Arc::new(ScenarioJobResolver);
    let handle =
        start_coordinator("127.0.0.1:0", Arc::clone(&resolver), FleetConfig::default()).unwrap();
    let pool = spawn_local_workers(handle.addr(), resolver, 2, WorkerOpts::default());
    let out = body(&handle);
    handle.shutdown();
    for worker in pool {
        worker.join().unwrap().unwrap();
    }
    out
}

#[test]
fn a_fleet_routed_sweep_reproduces_the_direct_frontier_bytes() {
    let direct = base_scenario().run().unwrap().frontier.unwrap();
    let folded = with_fleet(|fleet| fleet.submit(&job_payload(&base_scenario(), None)).unwrap());
    assert_eq!(folded, direct);
}

#[test]
fn a_fleet_routed_refinement_reproduces_the_direct_frontier_bytes() {
    let scenario = refined_scenario();
    let direct = scenario.run().unwrap().frontier.unwrap();
    let plan = scenario.refine.clone().unwrap();
    let folded = with_fleet(|fleet| {
        // The coarse fleet frontier seeds the refined job's windows, as
        // `Scenario::run` derives them from its own coarse frontier.
        let coarse = fleet.submit(&job_payload(&scenario, None)).unwrap();
        let seeds = frontier_seeds(&parse_frontier_file(&coarse).unwrap()).unwrap();
        let windows = windows_from_frontier(&seeds, &plan.grid, &plan.params);
        fleet
            .submit(&job_payload(&scenario, Some(&windows)))
            .unwrap()
    });
    assert_eq!(folded, direct);
}

#[test]
fn job_payloads_resolve_and_malformed_ones_are_rejected() {
    let job = ScenarioJobResolver
        .resolve(&job_payload(&base_scenario(), None))
        .unwrap();
    assert_eq!(job.desc.spec_name, "d12_auto");
    assert_eq!(job.desc.partition, "logical:4");
    assert!(!job.prune);

    let err = ScenarioJobResolver
        .resolve("{\"bogus\":1}")
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err, "job payload: unknown member 'bogus'");

    let mut bare = base_scenario();
    bare.sweep = None;
    let err = ScenarioJobResolver
        .resolve(&job_payload(&bare, None))
        .map(|_| ())
        .unwrap_err();
    assert_eq!(err, "scenario 'fleet-route' declares no sweep grid");

    // Windows only make sense against a scenario with a refine stage.
    let with_windows = format!(
        "{{\"scenario\":{},\"windows\":[]}}",
        base_scenario().to_json().trim_end()
    );
    let err = ScenarioJobResolver
        .resolve(&with_windows)
        .map(|_| ())
        .unwrap_err();
    assert_eq!(
        err,
        "job payload: 'windows' given but the scenario declares no 'refine' stage"
    );
}
