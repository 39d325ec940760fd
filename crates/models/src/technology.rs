//! Process technology descriptor.

/// Electrical parameters of a CMOS process node, the single source of all
/// model constants in this crate.
///
/// The default constructor [`Technology::cmos_65nm`] matches the paper's
/// 65 nm evaluation node; the constants are calibrated so that component
/// powers/areas land in the ranges the paper reports (NoC dynamic power of a
/// 26-core SoC in the tens of mW, sub-mm² NoC area); ARCHITECTURE.md's
/// `vi-noc-models` row describes the substitution.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Feature size in nanometres (informational).
    pub node_nm: f64,
    /// Nominal supply voltage in volts.
    pub vdd_v: f64,
    /// Wire capacitance per bit per millimetre, in femtofarads.
    pub wire_cap_ff_per_mm: f64,
    /// Repeated-wire propagation delay, in picoseconds per millimetre.
    pub wire_delay_ps_per_mm: f64,
    /// Timing margin reserved on a link for flop setup/clock skew, in ns.
    pub link_setup_margin_ns: f64,
    /// Switch critical-path intercept, in ns (arbiter + FIFO overhead).
    pub switch_delay_base_ns: f64,
    /// Switch critical-path slope per port, in ns (arbitration trees and
    /// crossbar wires grow roughly linearly in radix at these sizes).
    pub switch_delay_per_port_ns: f64,
    /// Average signal activity factor (fraction of bits toggling per cycle).
    pub activity_factor: f64,
    /// Leakage power density of active logic, in mW per mm².
    pub leak_density_mw_per_mm2: f64,
    /// Fraction of leakage that survives power gating (sleep-transistor and
    /// retention overhead).
    pub gating_residual: f64,
    /// Energy of a voltage level-shifter per transported bit, in pJ.
    pub level_shift_energy_pj_per_bit: f64,
}

impl Technology {
    /// The 65 nm node used throughout the paper's evaluation.
    pub fn cmos_65nm() -> Self {
        Technology {
            node_nm: 65.0,
            vdd_v: 1.1,
            wire_cap_ff_per_mm: 210.0,
            wire_delay_ps_per_mm: 150.0,
            link_setup_margin_ns: 0.25,
            switch_delay_base_ns: 0.5,
            switch_delay_per_port_ns: 0.09,
            activity_factor: 0.5,
            leak_density_mw_per_mm2: 3.5,
            gating_residual: 0.04,
            level_shift_energy_pj_per_bit: 0.08,
        }
    }

    /// A 90 nm variant (higher voltage, slower wires, less leakage density)
    /// for cross-node sanity experiments.
    pub fn cmos_90nm() -> Self {
        Technology {
            node_nm: 90.0,
            vdd_v: 1.2,
            wire_cap_ff_per_mm: 230.0,
            wire_delay_ps_per_mm: 180.0,
            link_setup_margin_ns: 0.3,
            switch_delay_base_ns: 0.7,
            switch_delay_per_port_ns: 0.12,
            activity_factor: 0.5,
            leak_density_mw_per_mm2: 1.2,
            gating_residual: 0.05,
            level_shift_energy_pj_per_bit: 0.1,
        }
    }

    /// Dynamic switching energy of a capacitance `c_ff` femtofarads at this
    /// node's supply, in picojoules (E = C·V²; the ½ and activity are
    /// applied by callers where appropriate).
    pub fn switching_energy_pj(&self, c_ff: f64) -> f64 {
        c_ff * 1e-3 * self.vdd_v * self.vdd_v
    }
}

impl Default for Technology {
    fn default() -> Self {
        Technology::cmos_65nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_65nm() {
        let t = Technology::default();
        assert_eq!(t.node_nm, 65.0);
        assert_eq!(t, Technology::cmos_65nm());
    }

    #[test]
    fn switching_energy_scales_quadratically_with_vdd() {
        let mut t = Technology::cmos_65nm();
        let e1 = t.switching_energy_pj(100.0);
        t.vdd_v *= 2.0;
        let e2 = t.switching_energy_pj(100.0);
        assert!((e2 / e1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn older_node_leaks_less_per_area() {
        // 90 nm leaks less *per mm²* in these models (lower density,
        // bigger gates); the crossover to 65 nm leakage dominance comes
        // from shrinking area budgets, not density.
        assert!(
            Technology::cmos_90nm().leak_density_mw_per_mm2
                < Technology::cmos_65nm().leak_density_mw_per_mm2
        );
    }

    #[test]
    fn gating_residual_is_small_fraction() {
        let t = Technology::cmos_65nm();
        assert!(t.gating_residual > 0.0 && t.gating_residual < 0.2);
    }
}
