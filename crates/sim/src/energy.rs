//! Measured energy accounting: prices the simulator's observed activity
//! with the synthesis flow's one price list ([`vi_noc_core::traffic_power`]),
//! giving a dynamic cross-check of the analytic power numbers behind
//! Figure 2. The result has the analytic [`PowerBreakdown`] type, so
//! reports serialize both with one writer ([`vi_noc_core::write_power`]).

use crate::stats::SimStats;
use vi_noc_core::{traffic_power, PowerBreakdown, SynthesisConfig, Topology};
use vi_noc_models::Bandwidth;
use vi_noc_soc::SocSpec;

/// Dynamic power derived from simulated activity: the analytic
/// [`PowerBreakdown`] split, with switch datapath, link, converter and NI
/// power priced from observed traffic instead of requested bandwidth.
pub type MeasuredPower = PowerBreakdown;

/// Prices a finished simulation run with [`vi_noc_core::traffic_power`]:
/// each flow's delivered bandwidth (delivered packets over elapsed time) is
/// charged to its route and its two NIs; `cfg` supplies only the
/// technology. The analytic [`vi_noc_core::DesignMetrics`] also price the
/// NI↔switch wires, which this leaves out, so measured link power stays
/// below the analytic one even at full CBR load (d26 at 6 islands, load
/// 1.0, 100 µs: 18.6 against 42.1 mW); the other classes agree up to
/// delivery losses.
///
/// # Panics
///
/// Panics if `stats` was not produced for `topo`'s flow set, or if
/// `stats.elapsed_ps` is zero.
pub fn measured_power(
    spec: &SocSpec,
    topo: &Topology,
    cfg: &SynthesisConfig,
    stats: &SimStats,
    packet_bytes: f64,
) -> MeasuredPower {
    assert!(stats.elapsed_ps > 0, "simulation has not run");
    assert_eq!(stats.flows.len(), spec.flow_count(), "stats/spec mismatch");
    let observed: Vec<Bandwidth> = spec
        .flow_ids()
        .map(|fid| {
            Bandwidth::from_bytes_per_s(stats.flow_throughput_bytes_per_s(fid, packet_bytes))
        })
        .collect();
    traffic_power(spec, topo, &cfg.technology, &observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use vi_noc_core::{compute_metrics, synthesize};
    use vi_noc_soc::{benchmarks, partition};

    fn design() -> (SocSpec, Topology, SynthesisConfig) {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let cfg = SynthesisConfig::default();
        let space = synthesize(&soc, &vi, &cfg).unwrap();
        (
            soc.clone(),
            space.min_power_point().unwrap().topology.clone(),
            cfg,
        )
    }

    #[test]
    fn measured_power_tracks_analytic_at_full_load() {
        let (soc, topo, cfg) = design();
        let sim_cfg = SimConfig {
            load_factor: 1.0,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&soc, &topo, &sim_cfg);
        let stats = sim.run_for_ns(150_000);
        let measured = measured_power(&soc, &topo, &cfg, &stats, 64.0);
        let analytic = compute_metrics(&soc, &topo, &cfg);
        // Delivered bandwidth can trail requested (saturated NIs), so the
        // measured dynamic power sits at or slightly below the analytic
        // value — never far off and never above by more than noise.
        let m = measured.fig2_power().mw();
        let a = analytic.power.fig2_power().mw();
        assert!(m <= a * 1.02, "measured {m} far above analytic {a}");
        assert!(m >= a * 0.7, "measured {m} far below analytic {a}");
    }

    #[test]
    fn idle_network_burns_only_clock_power() {
        let (soc, topo, cfg) = design();
        let mut sim = Simulator::new(&soc, &topo, &SimConfig::default());
        for fid in soc.flow_ids() {
            sim.deactivate_flow(fid);
        }
        let stats = sim.run_for_ns(20_000);
        let measured = measured_power(&soc, &topo, &cfg, &stats, 64.0);
        // No traffic: links and synchronizer *traffic* are zero; switches
        // and NIs keep their clock (idle) power only.
        assert!(measured.links.mw() < 1e-9);
        assert!(measured.switches.mw() > 0.0);
        let analytic = compute_metrics(&soc, &topo, &cfg);
        assert!(measured.fig2_power().mw() < analytic.power.fig2_power().mw());
    }

    #[test]
    fn lighter_load_burns_less() {
        let (soc, topo, cfg) = design();
        let run = |load: f64| {
            let sim_cfg = SimConfig {
                load_factor: load,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(&soc, &topo, &sim_cfg);
            let stats = sim.run_for_ns(100_000);
            measured_power(&soc, &topo, &cfg, &stats, 64.0)
                .fig2_power()
                .mw()
        };
        let light = run(0.3);
        let heavy = run(0.9);
        assert!(
            light < heavy,
            "30% load ({light} mW) should burn less than 90% ({heavy} mW)"
        );
    }
}
