//! Measured energy accounting: prices the simulator's observed activity
//! with the same component models the synthesis flow uses, giving a
//! dynamic cross-check of the analytic power numbers behind Figure 2. The
//! result has the analytic [`PowerBreakdown`] type, so reports serialize
//! both with one writer ([`vi_noc_core::write_power`]).

use crate::stats::SimStats;
use vi_noc_core::{PowerBreakdown, SynthesisConfig, Topology};
use vi_noc_models::{Bandwidth, BisyncFifoModel, LinkModel, NiModel, Power, SwitchModel};
use vi_noc_soc::SocSpec;

/// Dynamic power derived from simulated activity: the analytic
/// [`PowerBreakdown`] split, with switch datapath, link, converter and NI
/// power priced from observed traffic instead of requested bandwidth.
pub type MeasuredPower = PowerBreakdown;

/// Prices a finished simulation run.
///
/// Observed bandwidths are derived from delivered packets over elapsed
/// time, per flow, and attributed to every hop of the flow's route — the
/// same attribution the analytic [`vi_noc_core::DesignMetrics`] uses, so at
/// full CBR load the two agree up to delivery losses.
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
    let tech = &cfg.technology;
    let link_model = LinkModel::new(tech, cfg.link_width_bits);
    let ni_model = NiModel::new(tech, cfg.link_width_bits);
    let fifo_model = BisyncFifoModel::new(tech, cfg.link_width_bits);

    // Observed per-flow delivered bandwidth.
    let observed: Vec<Bandwidth> = spec
        .flow_ids()
        .map(|fid| {
            Bandwidth::from_bytes_per_s(stats.flow_throughput_bytes_per_s(fid, packet_bytes))
        })
        .collect();

    // Attribute to switches / links / crossings along each route.
    let n_switch = topo.switches().len();
    let mut switch_bw = vec![Bandwidth::ZERO; n_switch];
    let mut link_bw = vec![Bandwidth::ZERO; topo.links().len()];
    let mut ni_bw = vec![Bandwidth::ZERO; spec.core_count()];
    for route in topo.routes() {
        let bw = observed[route.flow.index()];
        for &s in &route.switches {
            switch_bw[s.index()] += bw;
        }
        for pair in route.switches.windows(2) {
            if let Some(l) = topo.find_link(pair[0], pair[1]) {
                link_bw[l.index()] += bw;
            }
        }
        let f = spec.flow(route.flow);
        ni_bw[f.src.index()] += bw;
        ni_bw[f.dst.index()] += bw;
    }

    let mut p = MeasuredPower {
        switches: Power::ZERO,
        links: Power::ZERO,
        synchronizers: Power::ZERO,
        nis: Power::ZERO,
    };
    for s in topo.switch_ids() {
        let sw = topo.switch(s);
        let (inp, outp) = topo.switch_ports(s);
        let model = SwitchModel::new(tech, inp.max(1), outp.max(1), cfg.link_width_bits);
        p.switches += model.idle_power(topo.island_frequency(sw.island_ext))
            + model.traffic_power(switch_bw[s.index()]);
    }
    for (i, l) in topo.links().iter().enumerate() {
        p.links += link_model.traffic_power(l.length_mm, link_bw[i]);
        if l.crosses_domain() {
            let fu = topo.island_frequency(topo.switch(l.from).island_ext);
            let fv = topo.island_frequency(topo.switch(l.to).island_ext);
            p.synchronizers += fifo_model.power(fu, fv, link_bw[i]);
        }
    }
    for c in spec.core_ids() {
        let isl = topo.switch(topo.switch_of_core(c)).island_ext;
        p.nis += ni_model.power(topo.island_frequency(isl), ni_bw[c.index()]);
    }
    p
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
        let analytic = compute_metrics(&soc, &topo, &cfg, None);
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
        let analytic = compute_metrics(&soc, &topo, &cfg, None);
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
