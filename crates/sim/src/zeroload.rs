//! Analytic zero-load latency (the paper's Figure-3 metric).
//!
//! The measured counterpart — one probe flow active, every other flow
//! deactivated — is the sparsest workload the simulator runs, and the one
//! the event-batched engine accelerates the most (`tests/batching.rs`
//! pins it as `zero_load_probe_d26`): with a single packet in flight,
//! almost every cycle of every island is skippable.

use crate::network::SimNetwork;
use vi_noc_core::Topology;
use vi_noc_models::BisyncFifoModel;
use vi_noc_soc::{FlowId, SocSpec};

/// Zero-load latency of `flow` in cycles, as the paper counts it: one cycle
/// per link (NI links included), one per switch, plus the 4-cycle converter
/// dwell per island crossing.
///
/// This mirrors the synthesis-side latency model and is exposed here so the
/// simulator crate can cross-check measured latencies against it.
pub fn zero_load_cycles(topo: &Topology, flow: FlowId) -> Option<u32> {
    topo.route(flow).map(|r| r.latency_cycles)
}

/// Zero-load latency of `flow` in picoseconds, accounting for each hop's
/// own clock domain (slow islands tick slowly, so their "cycles" are long).
///
/// Matches the engine's timing model exactly: injection costs 2 cycles of
/// the first switch's domain (NI link + switch), each further hop costs 2
/// cycles of the downstream domain (+4 more if the hop crosses islands),
/// and ejection costs 1 cycle of the last domain (the final NI link).
pub fn zero_load_latency_ps(spec: &SocSpec, topo: &Topology, flow: FlowId) -> Option<u64> {
    let net = SimNetwork::build(spec, topo);
    let route = topo.route(flow)?;
    let mut ps: u64 = 0;
    let first = topo.switch(route.switches[0]).island_ext;
    ps += 2 * net.period_ps(first);
    for w in route.switches.windows(2) {
        let to = topo.switch(w[1]).island_ext;
        let from = topo.switch(w[0]).island_ext;
        let crossing = to != from;
        let dwell = if crossing {
            BisyncFifoModel::CROSSING_LATENCY_CYCLES as u64 * net.period_ps(to)
        } else {
            0
        };
        ps += 2 * net.period_ps(to) + dwell;
    }
    let last = topo.switch(*route.switches.last().unwrap()).island_ext;
    ps += net.period_ps(last);
    Some(ps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use crate::traffic::TrafficKind;
    use vi_noc_core::{synthesize, SynthesisConfig};
    use vi_noc_soc::{benchmarks, partition};

    #[test]
    fn cycles_match_core_model() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        let topo = &space.min_power_point().unwrap().topology;
        for fid in soc.flow_ids() {
            let c = zero_load_cycles(topo, fid).unwrap();
            assert!(c >= 3, "flow {fid} latency {c} below the 1-switch minimum");
        }
    }

    /// The headline cross-check: run ONE packet per flow through the engine
    /// with everything else silent and compare against the analytic number.
    #[test]
    fn measured_zero_load_matches_analytic() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        let topo = &space.min_power_point().unwrap().topology;

        for probe in soc.flow_ids() {
            // Single-flit packets, only `probe` active.
            let cfg = SimConfig {
                packet_bytes: 4,
                traffic: TrafficKind::Cbr,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(&soc, topo, &cfg);
            for fid in soc.flow_ids() {
                if fid != probe {
                    sim.deactivate_flow(fid);
                }
            }
            let stats = sim.run_for_ns(30_000);
            let measured = stats.flow(probe).avg_latency_ps();
            let Some(measured) = measured else {
                panic!("probe flow {probe} delivered nothing");
            };
            let analytic = zero_load_latency_ps(&soc, topo, probe).unwrap() as f64;
            // The engine quantizes to clock edges, so allow a few periods
            // of slack; zero-load must never beat the analytic bound.
            let slowest_period = (0..=vi.island_count())
                .map(|j| {
                    let f = topo.island_frequency(j);
                    1e12 / f.hz()
                })
                .fold(0.0f64, f64::max);
            assert!(
                measured + 1.0 >= analytic,
                "flow {probe}: measured {measured} ps beats analytic {analytic} ps"
            );
            assert!(
                measured <= analytic + 3.0 * slowest_period,
                "flow {probe}: measured {measured} ps far above analytic {analytic} ps"
            );
        }
    }
}
