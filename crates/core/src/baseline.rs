//! Baseline synthesizers the paper's evaluation compares against.

use crate::config::SynthesisConfig;
use crate::design_space::DesignSpace;
use crate::error::SynthesisError;
use crate::synthesis::synthesize;
use vi_noc_soc::{SocSpec, ViAssignment};

/// Result of the shutdown-oblivious baseline synthesis.
#[derive(Debug, Clone)]
pub struct ObliviousDesign {
    /// The explored design space (single logical island).
    pub space: DesignSpace,
}

/// Conventional application-specific NoC synthesis **without** voltage-island
/// support: all cores are treated as one synchronous domain, exactly like the
/// prior work \[12\]–\[15\] the paper positions against (and like the paper's own
/// 1-island reference point of Figures 2–3).
///
/// The resulting design cannot support gating any island — switches land
/// wherever traffic dictates — but its power/area are the reference that the
/// suite-wide overhead (T1: ≈3 % power, <0.5 % area) is measured from.
///
/// # Errors
///
/// Propagates [`SynthesisError`] from the underlying synthesis.
pub fn synthesize_oblivious(
    spec: &SocSpec,
    cfg: &SynthesisConfig,
) -> Result<ObliviousDesign, SynthesisError> {
    let single = ViAssignment::new(spec, 1, vec![0; spec.core_count()]);
    let space = synthesize(spec, &single, cfg)?;
    Ok(ObliviousDesign { space })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_noc_soc::{benchmarks, partition};

    #[test]
    fn oblivious_design_is_single_island() {
        let soc = benchmarks::d26_mobile();
        let d = synthesize_oblivious(&soc, &SynthesisConfig::default()).unwrap();
        assert_eq!(d.space.island_count, 1);
        let p = d.space.min_power_point().unwrap();
        assert_eq!(p.metrics.crossing_count, 0);
    }

    #[test]
    fn vi_support_costs_little_power() {
        // The headline claim (T1): VI-aware topology vs oblivious topology
        // differs by a few percent of *system* power, not a blowup.
        let soc = benchmarks::d26_mobile();
        let cfg = SynthesisConfig::default();
        let obl = synthesize_oblivious(&soc, &cfg).unwrap();
        let p_ref = obl
            .space
            .min_power_point()
            .unwrap()
            .metrics
            .noc_dynamic_power();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let space = synthesize(&soc, &vi, &cfg).unwrap();
        let p_vi = space.min_power_point().unwrap().metrics.noc_dynamic_power();
        let system = soc.total_core_dyn_power();
        let overhead = (p_vi.mw() - p_ref.mw()) / system.mw();
        assert!(
            overhead < 0.10,
            "VI overhead {:.1}% of system power is too large",
            overhead * 100.0
        );
    }
}
