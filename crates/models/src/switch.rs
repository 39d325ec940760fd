//! Crossbar switch model.

use crate::technology::Technology;
use crate::units::{Area, Bandwidth, Frequency, Power};

/// Hard upper bound on switch radix considered by the synthesis flow.
///
/// Beyond this the crossbar/arbiter timing model is extrapolating too far to
/// be meaningful; the paper's benchmarks never approach it.
pub const MAX_RADIX: usize = 64;

/// Analytic model of a `inputs × outputs` wormhole switch with `width_bits`
/// flit width.
///
/// Captures the properties the synthesis algorithm consumes:
///
/// * [`SwitchModel::max_frequency`] — the critical path through arbitration
///   and the crossbar grows with the port count, so bigger switches clock
///   slower. Inverted by [`max_size_at`](SwitchModel::max_size_at) to get the
///   paper's `max_sw_size_j` per island.
/// * [`SwitchModel::idle_power`] — clock-tree + control dynamic power, paid
///   at the island frequency regardless of traffic.
/// * [`SwitchModel::traffic_power`] — datapath energy proportional to the
///   bandwidth actually routed through the switch.
/// * [`SwitchModel::area`] / [`SwitchModel::leakage_power`].
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchModel {
    tech: Technology,
    inputs: usize,
    outputs: usize,
    width_bits: usize,
}

impl SwitchModel {
    /// Creates a switch model.
    ///
    /// # Panics
    ///
    /// Panics if `inputs`, `outputs` or `width_bits` is zero, or the radix
    /// exceeds [`MAX_RADIX`].
    pub fn new(tech: &Technology, inputs: usize, outputs: usize, width_bits: usize) -> Self {
        assert!(inputs > 0 && outputs > 0, "switch needs ports");
        assert!(width_bits > 0, "flit width must be positive");
        assert!(
            inputs.max(outputs) <= MAX_RADIX,
            "switch radix {} exceeds MAX_RADIX {}",
            inputs.max(outputs),
            MAX_RADIX
        );
        SwitchModel {
            tech: tech.clone(),
            inputs,
            outputs,
            width_bits,
        }
    }

    /// Number of input ports.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of output ports.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Flit width in bits.
    pub fn width_bits(&self) -> usize {
        self.width_bits
    }

    /// Port count used by the timing model (`max(inputs, outputs)`).
    pub fn radix(&self) -> usize {
        self.inputs.max(self.outputs)
    }

    /// Critical-path delay in nanoseconds.
    fn critical_path_ns(tech: &Technology, radix: usize) -> f64 {
        tech.switch_delay_base_ns + tech.switch_delay_per_port_ns * radix.max(2) as f64
    }

    /// Maximum clock frequency this switch can run at.
    pub fn max_frequency(&self) -> Frequency {
        Frequency::from_hz(1e9 / Self::critical_path_ns(&self.tech, self.radix()))
    }

    /// The largest switch radix that still meets timing at `freq`
    /// (the paper's `max_sw_size_j`).
    ///
    /// Always at least 2 (a degenerate 1×1 "switch" is never useful) and at
    /// most [`MAX_RADIX`].
    pub fn max_size_at(tech: &Technology, freq: Frequency) -> usize {
        if freq.hz() <= 0.0 {
            return MAX_RADIX;
        }
        // Tiny relative slack: a switch running at exactly its own maximum
        // frequency must not be rejected by floating-point rounding.
        let budget_ns = 1e9 / freq.hz() * (1.0 + 1e-9);
        let mut size = 2;
        while size < MAX_RADIX && Self::critical_path_ns(tech, size + 1) <= budget_ns {
            size += 1;
        }
        size
    }

    /// Silicon area of buffers + crossbar + control.
    pub fn area(&self) -> Area {
        let w = self.width_bits as f64 / 32.0;
        let xbar = 0.0011 * self.inputs as f64 * self.outputs as f64 * w;
        let buffers = 0.0021 * (self.inputs + self.outputs) as f64 * w;
        let control = 0.004;
        Area::from_mm2(xbar + buffers + control)
    }

    /// Clock/control dynamic power at `freq` with no traffic.
    pub fn idle_power(&self, freq: Frequency) -> Power {
        let ports = (self.inputs + self.outputs) as f64;
        let w = self.width_bits as f64 / 32.0;
        // mW per MHz coefficients: clock tree + per-port buffer/control
        // toggling. Calibrated so a 26-core SoC's NoC lands in the paper's
        // 20-100 mW band and per-island frequency scaling is worth a
        // double-digit percentage (Figure 2's communication-partitioning dip).
        let mw = freq.mhz() * (0.002 + 0.0014 * ports * w);
        Power::from_mw(mw)
    }

    /// Datapath power for `bandwidth` bytes/s traversing the switch.
    ///
    /// Energy per bit grows mildly with port count (longer crossbar wires).
    pub fn traffic_power(&self, bandwidth: Bandwidth) -> Power {
        let e_bit_pj = 0.06 + 0.0015 * (self.inputs + self.outputs) as f64;
        Power::from_watts(
            bandwidth.bits_per_s() * e_bit_pj * 1e-12 * self.tech.activity_factor / 0.5,
        )
    }

    /// Leakage power (ungated).
    pub fn leakage_power(&self) -> Power {
        Power::from_mw(self.area().mm2() * self.tech.leak_density_mw_per_mm2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::cmos_65nm()
    }

    #[test]
    fn bigger_switches_clock_slower() {
        let t = tech();
        let small = SwitchModel::new(&t, 3, 3, 32);
        let big = SwitchModel::new(&t, 16, 16, 32);
        assert!(small.max_frequency().hz() > big.max_frequency().hz());
    }

    #[test]
    fn max_size_shrinks_with_frequency() {
        let t = tech();
        let slow = SwitchModel::max_size_at(&t, Frequency::from_mhz(200.0));
        let fast = SwitchModel::max_size_at(&t, Frequency::from_mhz(1100.0));
        assert!(slow >= fast, "slow {slow} >= fast {fast}");
        assert!(fast >= 2);
        assert!(slow <= MAX_RADIX);
    }

    #[test]
    fn max_size_is_consistent_with_max_frequency() {
        let t = tech();
        for radix in [2usize, 4, 8, 16] {
            let sw = SwitchModel::new(&t, radix, radix, 32);
            let f = sw.max_frequency();
            let allowed = SwitchModel::max_size_at(&t, f);
            assert!(
                allowed >= radix,
                "switch of radix {radix} must be allowed at its own f_max (got {allowed})"
            );
        }
    }

    #[test]
    fn zero_frequency_allows_max_radix() {
        assert_eq!(
            SwitchModel::max_size_at(&tech(), Frequency::ZERO),
            MAX_RADIX
        );
    }

    #[test]
    fn idle_power_scales_with_frequency_and_ports() {
        let t = tech();
        let sw = SwitchModel::new(&t, 5, 5, 32);
        let p1 = sw.idle_power(Frequency::from_mhz(200.0));
        let p2 = sw.idle_power(Frequency::from_mhz(400.0));
        assert!((p2.mw() / p1.mw() - 2.0).abs() < 1e-9, "linear in f");
        let big = SwitchModel::new(&t, 10, 10, 32);
        assert!(big.idle_power(Frequency::from_mhz(200.0)).mw() > p1.mw());
    }

    #[test]
    fn traffic_power_scales_with_bandwidth() {
        let t = tech();
        let sw = SwitchModel::new(&t, 4, 4, 32);
        let p1 = sw.traffic_power(Bandwidth::from_mbps(100.0));
        let p2 = sw.traffic_power(Bandwidth::from_mbps(300.0));
        assert!((p2.mw() / p1.mw() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_is_in_published_range() {
        // A mid-size switch at a typical SoC NoC frequency should burn a few
        // mW — the order of magnitude behind the paper's 20-100 mW NoC total.
        let t = tech();
        let sw = SwitchModel::new(&t, 6, 6, 32);
        let p = sw.idle_power(Frequency::from_mhz(400.0))
            + sw.traffic_power(Bandwidth::from_mbps(800.0))
            + sw.leakage_power();
        assert!(
            p.mw() > 1.0 && p.mw() < 15.0,
            "6x6@400MHz switch power {} mW outside plausible band",
            p.mw()
        );
        let a = sw.area().mm2();
        assert!(a > 0.01 && a < 0.2, "area {a} mm2 implausible");
    }

    #[test]
    fn wider_flits_cost_area_and_power() {
        let t = tech();
        let narrow = SwitchModel::new(&t, 4, 4, 32);
        let wide = SwitchModel::new(&t, 4, 4, 64);
        assert!(wide.area().mm2() > narrow.area().mm2());
        assert!(
            wide.idle_power(Frequency::from_mhz(400.0)).mw()
                > narrow.idle_power(Frequency::from_mhz(400.0)).mw()
        );
    }

    #[test]
    #[should_panic(expected = "switch needs ports")]
    fn rejects_portless_switch() {
        SwitchModel::new(&tech(), 0, 3, 32);
    }

    #[test]
    fn accessors_report_construction() {
        let sw = SwitchModel::new(&tech(), 3, 5, 32);
        assert_eq!(sw.inputs(), 3);
        assert_eq!(sw.outputs(), 5);
        assert_eq!(sw.width_bits(), 32);
        assert_eq!(sw.radix(), 5);
    }
}
