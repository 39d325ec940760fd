//! Leakage and power-gating arithmetic.
//!
//! The motivation of the paper: leakage can be 40 %+ of total SoC power \[6\],
//! and gating idle voltage islands recovers most of it — *if* the NoC
//! topology permits the shutdown. These helpers compute island leakage and
//! the residual after gating, used by the `tab2_leakage` experiment.

use crate::technology::Technology;
use crate::units::{Area, Power};

/// Leakage summary of one shutdown scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageReport {
    /// Leakage with every island powered.
    pub all_on: Power,
    /// Leakage with the scenario's idle islands gated.
    pub gated: Power,
}

impl LeakageReport {
    /// Leakage power saved by gating.
    pub fn saved(&self) -> Power {
        self.all_on - self.gated
    }

    /// Fraction of leakage removed (0..1).
    pub fn savings_fraction(&self) -> f64 {
        if self.all_on.watts() <= 0.0 {
            return 0.0;
        }
        self.saved().watts() / self.all_on.watts()
    }
}

/// Leakage power of a block of silicon of `area` in technology `tech`.
pub fn island_leakage(tech: &Technology, area: Area) -> Power {
    Power::from_mw(area.mm2() * tech.leak_density_mw_per_mm2)
}

/// Leakage of the same block after power gating (sleep transistors leave a
/// small residual).
pub fn gated_island_leakage(tech: &Technology, area: Area) -> Power {
    island_leakage(tech, area) * tech.gating_residual
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gating_removes_most_leakage() {
        let t = Technology::cmos_65nm();
        let a = Area::from_mm2(10.0);
        let on = island_leakage(&t, a);
        let off = gated_island_leakage(&t, a);
        assert!(off.mw() < on.mw() * 0.1);
        assert!(off.mw() > 0.0, "residual is never exactly zero");
    }

    #[test]
    fn leakage_scales_with_area() {
        let t = Technology::cmos_65nm();
        let p1 = island_leakage(&t, Area::from_mm2(1.0));
        let p4 = island_leakage(&t, Area::from_mm2(4.0));
        assert!((p4.mw() / p1.mw() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn report_savings_fraction() {
        let r = LeakageReport {
            all_on: Power::from_mw(100.0),
            gated: Power::from_mw(30.0),
        };
        assert!((r.saved().mw() - 70.0).abs() < 1e-12);
        assert!((r.savings_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn zero_leakage_report_is_safe() {
        let r = LeakageReport {
            all_on: Power::ZERO,
            gated: Power::ZERO,
        };
        assert_eq!(r.savings_fraction(), 0.0);
    }
}
