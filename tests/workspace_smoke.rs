//! Workspace-level smoke test: the whole pipeline through the facade
//! crate, plus the one-thread/two-thread equivalence guarantee of the
//! staged synthesis driver.

use vi_noc::soc::{benchmarks, partition};
use vi_noc::synth::{synthesize, SynthesisConfig};

#[test]
fn quickstart_pipeline_produces_a_pareto_front() {
    let soc = benchmarks::d12_auto();
    let vi = partition::logical_partition(&soc, 4).expect("4 logical islands");
    let space = synthesize(&soc, &vi, &SynthesisConfig::default()).expect("feasible design space");
    assert_eq!(space.island_count, 4);
    assert!(!space.points.is_empty());
    let front = space.pareto_front();
    assert!(!front.is_empty(), "Pareto front must not be empty");
    for point in front {
        assert!(point.metrics.noc_dynamic_power().mw() > 0.0);
        assert_eq!(point.topology.routes().count(), soc.flow_count());
    }
}

#[test]
fn parallel_and_sequential_design_spaces_are_identical() {
    let soc = benchmarks::d12_auto();
    let vi = partition::logical_partition(&soc, 4).expect("4 logical islands");
    let at = |width| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build();
        let run = || synthesize(&soc, &vi, &SynthesisConfig::default());
        pool.unwrap().install(run).expect("feasible design space")
    };
    let (sequential, parallel) = (at(1), at(2));

    assert_eq!(sequential.spec_name, parallel.spec_name);
    assert_eq!(sequential.island_count, parallel.island_count);
    assert_eq!(sequential.points.len(), parallel.points.len());
    for (a, b) in sequential.points.iter().zip(&parallel.points) {
        assert_eq!(a.sweep_index, b.sweep_index);
        assert_eq!(a.requested_intermediate, b.requested_intermediate);
        assert_eq!(a.switch_counts, b.switch_counts);
        assert_eq!(a.topology, b.topology);
        assert_eq!(
            a.metrics.noc_dynamic_power().mw(),
            b.metrics.noc_dynamic_power().mw()
        );
        assert_eq!(a.metrics.avg_latency_cycles, b.metrics.avg_latency_cycles);
        assert_eq!(a.metrics.switch_count, b.metrics.switch_count);
    }
}
