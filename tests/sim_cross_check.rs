//! Cross-crate consistency: the simulator's measured behaviour must agree
//! with the synthesis-side analytic models.

use vi_noc::sim::{zero_load_latency_ps, SimConfig, Simulator, TrafficKind};
use vi_noc::soc::{benchmarks, partition};
use vi_noc::synth::{synthesize, SynthesisConfig};

#[test]
fn average_measured_latency_tracks_fig3_ordering() {
    // If the analytic Figure-3 says 6 islands is slower than 1 island, the
    // simulator must agree under light load.
    let soc = benchmarks::d12_auto();
    let measure = |k: usize| {
        let vi = partition::logical_partition(&soc, k).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        let topo = space.min_power_point().unwrap().topology.clone();
        let cfg = SimConfig {
            load_factor: 0.3,
            traffic: TrafficKind::Poisson,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&soc, &topo, &cfg);
        sim.run_for_ns(150_000).avg_latency_ps().expect("delivered")
    };
    let one = measure(1);
    let four = measure(4);
    assert!(
        four > one,
        "4-island measured latency {four} ps <= 1-island {one} ps"
    );
}

#[test]
fn zero_load_ps_accounts_for_slow_domains() {
    // A flow whose route stays in a slow island must have a longer
    // picosecond latency than an equal-hop route in a fast island.
    let soc = benchmarks::d26_mobile();
    let vi = partition::logical_partition(&soc, 6).unwrap();
    let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
    let topo = &space.min_power_point().unwrap().topology;
    let mut by_cycles: std::collections::HashMap<u32, Vec<u64>> = Default::default();
    for fid in soc.flow_ids() {
        let cycles = topo.route(fid).unwrap().latency_cycles;
        let ps = zero_load_latency_ps(&soc, topo, fid).unwrap();
        by_cycles.entry(cycles).or_default().push(ps);
    }
    // Among same-cycle-count routes, picosecond latencies differ when clock
    // domains differ — domains matter, not just hop counts.
    let spread = by_cycles
        .values()
        .filter(|v| v.len() > 1)
        .any(|v| v.iter().max() != v.iter().min());
    assert!(spread, "all equal-cycle routes have identical ps latency");
}
