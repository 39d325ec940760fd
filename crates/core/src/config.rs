//! Synthesis configuration and the per-island frequency plan.

use vi_noc_models::{Frequency, SwitchModel, Technology};
use vi_noc_soc::{SocSpec, ViAssignment};

/// Tuning knobs of the synthesis algorithm.
///
/// The defaults reproduce the paper's setup: α = 0.6 VCG weighting, 32-bit
/// links, an optional intermediate NoC island, 1-cycle switch and link
/// traversal, the 4-cycle bi-synchronous crossing penalty (taken from
/// [`vi_noc_models::BisyncFifoModel`]), and cost weights that prefer
/// opening as few power-hungry resources as possible.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisConfig {
    /// VCG weight parameter α of Definition 1 (bandwidth vs latency).
    pub alpha: f64,
    /// NoC link data width in bits (fixed, as in the paper §4).
    pub link_width_bits: usize,
    /// Whether a separate always-on intermediate NoC island may be created
    /// (§3.2: "we take the availability of power and ground lines for the
    /// intermediate VI as an input").
    pub allow_intermediate_vi: bool,
    /// Largest number of switches explored in the intermediate island.
    pub max_intermediate_switches: usize,
    /// Switch traversal delay, in cycles.
    pub switch_delay_cycles: u32,
    /// Link traversal delay, in cycles.
    pub link_delay_cycles: u32,
    /// Weight of the power term in the link-opening cost (paper step 15).
    pub cost_power_weight: f64,
    /// Weight of the latency term in the link-opening cost.
    pub cost_latency_weight: f64,
    /// Weight of the port-scarcity term: opening one of a switch's last
    /// free ports is discouraged exponentially, so early (high-bandwidth)
    /// flows do not exhaust hub switches with direct links and strand later
    /// flows that would need the same ports for indirect routing.
    pub cost_port_scarcity: f64,
    /// Estimated intra-island link length before floorplanning, mm.
    pub est_intra_link_mm: f64,
    /// Estimated direct inter-island link length, mm.
    pub est_inter_link_mm: f64,
    /// Estimated island↔intermediate-island link length, mm.
    pub est_mid_link_mm: f64,
    /// Floor on any island's NoC frequency (clock networks below this are
    /// not practical).
    pub min_frequency: Frequency,
    /// Process technology models.
    pub technology: Technology,
    /// Seed for all randomized sub-steps (partitioning).
    pub seed: u64,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            alpha: 0.6,
            link_width_bits: 32,
            allow_intermediate_vi: true,
            max_intermediate_switches: 4,
            switch_delay_cycles: 1,
            link_delay_cycles: 1,
            cost_power_weight: 1.0,
            cost_latency_weight: 0.6,
            cost_port_scarcity: 6.0,
            est_intra_link_mm: 1.5,
            est_inter_link_mm: 2.2,
            est_mid_link_mm: 1.8,
            min_frequency: Frequency::from_mhz(50.0),
            technology: Technology::cmos_65nm(),
            seed: 0xD0C5,
        }
    }
}

impl SynthesisConfig {
    /// Link width in bytes.
    pub fn link_width_bytes(&self) -> f64 {
        self.link_width_bits as f64 / 8.0
    }
}

/// Step 1 of Algorithm 1: the NoC operating frequency of each island and the
/// resulting maximum switch size.
///
/// The frequency of an island is set by the NI link that must carry the
/// highest bandwidth to or from a core of the island (link bandwidth =
/// width × frequency). The intermediate island — if used — must keep up
/// with the fastest island it bridges, so it runs at the maximum island
/// frequency.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyPlan {
    island_freq: Vec<Frequency>,
    max_switch_size: Vec<usize>,
    intermediate_freq: Frequency,
    intermediate_max_size: usize,
}

impl FrequencyPlan {
    /// Computes the frequency plan for `spec` under `vi`.
    pub fn compute(spec: &SocSpec, vi: &ViAssignment, cfg: &SynthesisConfig) -> Self {
        let n_isl = vi.island_count();
        let mut island_freq = vec![cfg.min_frequency; n_isl];
        for id in spec.core_ids() {
            let (inb, outb) = spec.core_io_bandwidth(id);
            let demand = inb.bytes_per_s().max(outb.bytes_per_s());
            let f = Frequency::from_hz(demand / cfg.link_width_bytes());
            let isl = vi.island_of(id);
            if f > island_freq[isl] {
                island_freq[isl] = f;
            }
        }
        let max_switch_size = island_freq
            .iter()
            .map(|&f| SwitchModel::max_size_at(&cfg.technology, f))
            .collect();
        let intermediate_freq =
            island_freq
                .iter()
                .copied()
                .fold(cfg.min_frequency, |a, b| if b > a { b } else { a });
        let intermediate_max_size = SwitchModel::max_size_at(&cfg.technology, intermediate_freq);
        FrequencyPlan {
            island_freq,
            max_switch_size,
            intermediate_freq,
            intermediate_max_size,
        }
    }

    /// An alternative frequency plan with every island clock scaled up by
    /// `factor` (and the switch size budgets re-derived at the new clocks).
    ///
    /// This is the sweep grid's frequency-plan axis: overclocking an island
    /// raises its link capacities — high-bandwidth flows can share links
    /// that would saturate at the baseline clock, so fewer links open — at
    /// the price of higher idle/clock power and smaller feasible switches.
    /// Factors below 1.0 are rejected because the baseline clock of each
    /// island is exactly its peak NI bandwidth demand; any slower clock
    /// silently overloads that NI link.
    ///
    /// # Panics
    ///
    /// If `factor < 1.0` or is not finite.
    pub fn scaled(&self, factor: f64, cfg: &SynthesisConfig) -> Self {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "frequency scale factor must be finite and >= 1.0, got {factor}"
        );
        let island_freq: Vec<Frequency> = self.island_freq.iter().map(|&f| f * factor).collect();
        let max_switch_size = island_freq
            .iter()
            .map(|&f| SwitchModel::max_size_at(&cfg.technology, f))
            .collect();
        let intermediate_freq = self.intermediate_freq * factor;
        let intermediate_max_size = SwitchModel::max_size_at(&cfg.technology, intermediate_freq);
        FrequencyPlan {
            island_freq,
            max_switch_size,
            intermediate_freq,
            intermediate_max_size,
        }
    }

    /// Number of (real) islands covered by the plan.
    pub fn island_count(&self) -> usize {
        self.island_freq.len()
    }

    /// NoC frequency of `island`.
    pub fn frequency(&self, island: usize) -> Frequency {
        self.island_freq[island]
    }

    /// `max_sw_size_j` for `island`.
    pub fn max_switch_size(&self, island: usize) -> usize {
        self.max_switch_size[island]
    }

    /// Frequency of the intermediate NoC island.
    pub fn intermediate_frequency(&self) -> Frequency {
        self.intermediate_freq
    }

    /// Maximum switch size for an extended island index.
    pub fn max_switch_size_ext(&self, island_ext: usize) -> usize {
        if island_ext == self.island_freq.len() {
            self.intermediate_max_size
        } else {
            self.max_switch_size[island_ext]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_noc_soc::{benchmarks, partition};

    #[test]
    fn default_config_matches_paper_setup() {
        let cfg = SynthesisConfig::default();
        assert_eq!(cfg.link_width_bits, 32);
        assert_eq!(cfg.link_width_bytes(), 4.0);
        assert!(cfg.allow_intermediate_vi);
        assert!((cfg.alpha - 0.6).abs() < 1e-12);
    }

    #[test]
    fn hot_islands_run_faster() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let plan = FrequencyPlan::compute(&soc, &vi, &SynthesisConfig::default());
        // The memory island hosts the SDRAM hub — the design's hottest NI —
        // so it must be the fastest island (or tied).
        let mem_island = vi.island_of(soc.cores_of_kind(vi_noc_soc::CoreKind::Memory)[0]);
        for isl in 0..plan.island_count() {
            assert!(
                plan.frequency(mem_island) >= plan.frequency(isl) * 0.999,
                "island {isl} faster than the memory island"
            );
        }
        // Peripheral island idles far below the memory island.
        let periph_island = vi.island_of(soc.cores_of_kind(vi_noc_soc::CoreKind::Peripheral)[0]);
        assert!(plan.frequency(periph_island).mhz() < plan.frequency(mem_island).mhz() / 2.0);
    }

    #[test]
    fn single_island_uses_global_peak() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 1).unwrap();
        let cfg = SynthesisConfig::default();
        let plan = FrequencyPlan::compute(&soc, &vi, &cfg);
        // Hottest NI: the SDRAM hub. Recompute its demand independently.
        let sdram = soc
            .core_ids()
            .find(|&c| soc.core(c).name == "sdram")
            .unwrap();
        let (inb, outb) = soc.core_io_bandwidth(sdram);
        let expected_mhz = inb.mbps().max(outb.mbps()) / 4.0;
        assert!(
            (plan.frequency(0).mhz() - expected_mhz).abs() < 1.0,
            "got {} MHz, expected {expected_mhz}",
            plan.frequency(0).mhz()
        );
    }

    #[test]
    fn intermediate_tracks_fastest_island() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let plan = FrequencyPlan::compute(&soc, &vi, &SynthesisConfig::default());
        let fastest = (0..plan.island_count())
            .map(|i| plan.frequency(i))
            .fold(Frequency::ZERO, |a, b| if b > a { b } else { a });
        assert_eq!(plan.intermediate_frequency(), fastest);
    }

    #[test]
    fn slower_islands_allow_bigger_switches() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let plan = FrequencyPlan::compute(&soc, &vi, &SynthesisConfig::default());
        let mut fastest = 0;
        let mut slowest = 0;
        for i in 0..plan.island_count() {
            if plan.frequency(i) > plan.frequency(fastest) {
                fastest = i;
            }
            if plan.frequency(i) < plan.frequency(slowest) {
                slowest = i;
            }
        }
        assert!(plan.max_switch_size(slowest) >= plan.max_switch_size(fastest));
    }

    #[test]
    fn scaled_plan_raises_clocks_and_shrinks_switches() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let cfg = SynthesisConfig::default();
        let plan = FrequencyPlan::compute(&soc, &vi, &cfg);
        let up = plan.scaled(1.25, &cfg);
        for i in 0..plan.island_count() {
            assert!((up.frequency(i).mhz() - plan.frequency(i).mhz() * 1.25).abs() < 1e-9);
            assert!(up.max_switch_size(i) <= plan.max_switch_size(i));
        }
        assert!(
            (up.intermediate_frequency().mhz() - plan.intermediate_frequency().mhz() * 1.25).abs()
                < 1e-9
        );
        // Identity scale reproduces the plan exactly.
        assert_eq!(plan.scaled(1.0, &cfg), plan);
    }

    #[test]
    #[should_panic(expected = "frequency scale factor")]
    fn underclocking_is_rejected() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 2).unwrap();
        let cfg = SynthesisConfig::default();
        FrequencyPlan::compute(&soc, &vi, &cfg).scaled(0.9, &cfg);
    }

    #[test]
    fn frequency_floor_applies() {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 26).unwrap();
        let cfg = SynthesisConfig::default();
        let plan = FrequencyPlan::compute(&soc, &vi, &cfg);
        for i in 0..plan.island_count() {
            assert!(plan.frequency(i) >= cfg.min_frequency);
        }
    }
}
