//! Usage scenarios and island power-gating analysis (experiment T2).
//!
//! The motivation of the whole paper: once the NoC supports it, shutting
//! down the islands that a use case leaves idle removes their leakage —
//! "even 25% or more reduction in overall system power" (§5, citing \[6\]).

use crate::config::SynthesisConfig;
use crate::metrics::{ni_demands, price, route_loads};
use crate::topology::Topology;
use vi_noc_models::{gated_island_leakage, island_leakage, Bandwidth, Power};
use vi_noc_soc::{CoreKind, SocSpec, ViAssignment};

/// A use case: which cores are actively working.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageScenario {
    /// Scenario name.
    pub name: String,
    /// `active[core] = true` if the core computes in this scenario.
    pub active: Vec<bool>,
}

impl UsageScenario {
    /// Builds a scenario from a predicate over core kinds/names.
    pub fn from_predicate(
        spec: &SocSpec,
        name: impl Into<String>,
        mut pred: impl FnMut(&vi_noc_soc::CoreSpec) -> bool,
    ) -> Self {
        UsageScenario {
            name: name.into(),
            active: spec
                .cores()
                .iter()
                .map(|c| pred(c) || c.always_on)
                .collect(),
        }
    }
}

/// Power accounting of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Islands that are power-gated in this scenario.
    pub islands_off: Vec<usize>,
    /// Dynamic power of the active cores.
    pub core_dynamic: Power,
    /// Core + NoC leakage after gating.
    pub leakage: Power,
    /// NoC dynamic power for the scenario's live traffic.
    pub noc_dynamic: Power,
    /// Total power had nothing been gated (all islands leak, same activity).
    pub total_ungated: Power,
}

impl ScenarioReport {
    /// Total scenario power with gating.
    pub fn total(&self) -> Power {
        self.core_dynamic + self.leakage + self.noc_dynamic
    }

    /// Fraction of total power saved by gating (0..1).
    pub fn savings_fraction(&self) -> f64 {
        if self.total_ungated.watts() <= 0.0 {
            return 0.0;
        }
        (self.total_ungated - self.total()).watts() / self.total_ungated.watts()
    }
}

/// The scenario set used by the T2 experiment: product use cases that leave
/// different island subsets idle.
pub fn standard_scenarios(spec: &SocSpec) -> Vec<UsageScenario> {
    use CoreKind::*;
    vec![
        UsageScenario::from_predicate(spec, "standby", |_| false),
        UsageScenario::from_predicate(spec, "audio_playback", |c| {
            matches!(c.kind, Audio | Dma | Peripheral) || c.name.contains("sram")
        }),
        UsageScenario::from_predicate(spec, "video_playback", |c| {
            matches!(c.kind, VideoDecoder | Display | Audio | Dma | Memory)
        }),
        UsageScenario::from_predicate(spec, "camera_capture", |c| {
            matches!(c.kind, Imaging | VideoEncoder | Display | Memory | Dma)
        }),
        UsageScenario::from_predicate(spec, "voice_call", |c| {
            matches!(c.kind, Modem | Audio | Security | Memory | Dsp)
        }),
        UsageScenario::from_predicate(spec, "full_load", |_| true),
    ]
}

/// Evaluates a scenario on a synthesized design.
///
/// An island is gated iff it may be shut down and none of its cores are
/// active. Gated islands keep only the sleep-transistor residual leakage;
/// their NoC elements burn nothing. Live NoC elements pay idle power plus
/// datapath power for the flows whose two endpoints are both active, at
/// the topology's width, clocks and wire lengths; `cfg` supplies only the
/// technology.
pub fn scenario_power(
    spec: &SocSpec,
    vi: &ViAssignment,
    topo: &Topology,
    cfg: &SynthesisConfig,
    scenario: &UsageScenario,
) -> ScenarioReport {
    assert_eq!(scenario.active.len(), spec.core_count());
    let n_isl = vi.island_count();
    let mid = n_isl;

    // Which islands stay powered?
    let mut island_on = vec![false; n_isl + 1];
    island_on[mid] = true; // the intermediate island is never gated
    for id in spec.core_ids() {
        if scenario.active[id.index()] || !vi.can_shutdown(vi.island_of(id)) {
            island_on[vi.island_of(id)] = true;
        }
    }
    let islands_off: Vec<usize> = (0..n_isl).filter(|&j| !island_on[j]).collect();

    // Core dynamic power: active cores only.
    let core_dynamic: Power = spec
        .cores()
        .iter()
        .enumerate()
        .filter(|(i, _)| scenario.active[*i])
        .map(|(_, c)| c.dyn_power)
        .sum();

    // NoC dynamic power of the powered parts: each flow whose two cores
    // are active loads its route, and an active core's NI its full demand.
    let tech = &cfg.technology;
    let active = &scenario.active;
    let live = |on: bool, bw: Bandwidth| if on { bw } else { Bandwidth::ZERO };
    let flow_bw: Vec<Bandwidth> = spec
        .flows()
        .iter()
        .map(|f| live(active[f.src.index()] && active[f.dst.index()], f.bandwidth))
        .collect();
    let mut loads = route_loads(spec, topo, &flow_bw);
    loads.nis = (ni_demands(spec).into_iter().zip(active))
        .map(|(bw, &on)| live(on, bw))
        .collect();
    let prices = price(topo, tech, &loads, Some(&island_on), false);
    let noc_dynamic = prices.power.total();

    // Leakage: per-island core area + the island's share of NoC area.
    let mut island_area = prices.island_area;
    for id in spec.core_ids() {
        island_area[vi.island_of(id)] += spec.core(id).area;
    }

    let mut leakage = Power::ZERO;
    let mut leakage_ungated = Power::ZERO;
    for (j, &a) in island_area.iter().enumerate() {
        leakage_ungated += island_leakage(tech, a);
        leakage += if island_on[j] {
            island_leakage(tech, a)
        } else {
            gated_island_leakage(tech, a)
        };
    }

    ScenarioReport {
        name: scenario.name.clone(),
        islands_off,
        core_dynamic,
        leakage,
        noc_dynamic,
        total_ungated: core_dynamic + leakage_ungated + noc_dynamic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesis::synthesize;
    use vi_noc_soc::{benchmarks, partition};

    fn design() -> (SocSpec, ViAssignment, Topology, SynthesisConfig) {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let cfg = SynthesisConfig::default();
        let space = synthesize(&soc, &vi, &cfg).unwrap();
        let topo = space.min_power_point().unwrap().topology.clone();
        (soc, vi, topo, cfg)
    }

    #[test]
    fn standby_gates_most_islands() {
        let (soc, vi, topo, cfg) = design();
        let scenarios = standard_scenarios(&soc);
        let standby = &scenarios[0];
        let r = scenario_power(&soc, &vi, &topo, &cfg, standby);
        assert!(
            !r.islands_off.is_empty(),
            "standby must gate at least one island"
        );
        // All gated islands are shutdown-capable.
        for &j in &r.islands_off {
            assert!(vi.can_shutdown(j));
        }
    }

    #[test]
    fn gating_saves_substantial_power_in_idle_scenarios() {
        let (soc, vi, topo, cfg) = design();
        for sc in standard_scenarios(&soc) {
            let r = scenario_power(&soc, &vi, &topo, &cfg, &sc);
            if sc.name == "standby" {
                assert!(
                    r.savings_fraction() > 0.15,
                    "standby saves {:.1}% — expected >15%",
                    r.savings_fraction() * 100.0
                );
            }
            if sc.name == "full_load" {
                assert!(r.islands_off.is_empty());
                assert!(r.savings_fraction().abs() < 1e-9);
            }
        }
    }

    #[test]
    fn savings_monotone_with_idleness() {
        let (soc, vi, topo, cfg) = design();
        let scenarios = standard_scenarios(&soc);
        let standby = scenario_power(&soc, &vi, &topo, &cfg, &scenarios[0]);
        let full = scenario_power(&soc, &vi, &topo, &cfg, &scenarios[5]);
        assert!(standby.total().mw() < full.total().mw());
        assert!(standby.islands_off.len() >= full.islands_off.len());
    }

    #[test]
    fn always_on_islands_never_gated() {
        let (soc, vi, topo, cfg) = design();
        for sc in standard_scenarios(&soc) {
            let r = scenario_power(&soc, &vi, &topo, &cfg, &sc);
            for &j in &r.islands_off {
                assert!(
                    vi.can_shutdown(j),
                    "{}: gated always-on island {j}",
                    sc.name
                );
            }
        }
    }

    #[test]
    fn standard_scenario_reports_are_pinned() {
        // Every field of T2's six reports on d26's 6-island min-power
        // point, as the per-scenario pricing loops computed them before
        // the price list replaced them: core dynamic, leakage, NoC dynamic
        // and ungated total, in watts. The sums run in another order now,
        // so the powers may move by a few ulps.
        let want: [(&str, &[usize], [f64; 4]); 6] = [
            (
                "standby",
                &[1, 2, 3, 4, 5],
                [
                    0.06,
                    0.02591994999999998,
                    0.039429750000000006,
                    0.22072329999999998,
                ],
            ),
            (
                "audio_playback",
                &[2, 3],
                [
                    0.11000000000000001,
                    0.08389406199999998,
                    0.07930238996,
                    0.31059593995999996,
                ],
            ),
            (
                "video_playback",
                &[2, 5],
                [
                    0.197,
                    0.08745095799999997,
                    0.08648543879999998,
                    0.40477898879999996,
                ],
            ),
            (
                "camera_capture",
                &[2, 5],
                [
                    0.223,
                    0.08745095799999997,
                    0.08728291359999996,
                    0.4315764635999999,
                ],
            ),
            (
                "voice_call",
                &[3],
                [
                    0.31600000000000006,
                    0.10044138999999996,
                    0.10027649680000003,
                    0.5375700468000001,
                ],
            ),
            (
                "full_load",
                &[],
                [
                    0.8130000000000002,
                    0.12129354999999996,
                    0.16608145595999996,
                    1.1003750059600002,
                ],
            ),
        ];
        let (soc, vi, topo, cfg) = design();
        let scenarios = standard_scenarios(&soc);
        assert_eq!(scenarios.len(), want.len());
        for (sc, (name, off, watts)) in scenarios.iter().zip(want) {
            let r = scenario_power(&soc, &vi, &topo, &cfg, sc);
            assert_eq!((r.name.as_str(), r.islands_off.as_slice()), (name, off));
            let got = [r.core_dynamic, r.leakage, r.noc_dynamic, r.total_ungated];
            for (got, want) in got.iter().zip(watts) {
                assert!(
                    (got.watts() - want).abs() <= 1e-12 * want,
                    "{name}: {got:?} vs {want}"
                );
            }
        }
    }

    #[test]
    fn report_totals_are_consistent() {
        let (soc, vi, topo, cfg) = design();
        let sc = &standard_scenarios(&soc)[2];
        let r = scenario_power(&soc, &vi, &topo, &cfg, sc);
        let total = r.core_dynamic + r.leakage + r.noc_dynamic;
        assert!((r.total().mw() - total.mw()).abs() < 1e-9);
        assert!(r.total() <= r.total_ungated + Power::from_mw(1e-9));
    }
}
