//! Point-to-point link (wire bundle) model.

use crate::technology::Technology;
use crate::units::{Bandwidth, Frequency, Power};

/// Analytic model of an unpipelined point-to-point NoC link of a given flit
/// width.
///
/// The paper uses *over-the-cell routed, unpipelined* links between switches
/// (§3.1), so a link is feasible only if its wire delay fits in the clock
/// period of the domain driving it — see [`LinkModel::max_length_mm`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    tech: Technology,
    width_bits: usize,
}

impl LinkModel {
    /// Creates a link model for `width_bits`-wide links.
    ///
    /// # Panics
    ///
    /// Panics if `width_bits` is zero.
    pub fn new(tech: &Technology, width_bits: usize) -> Self {
        assert!(width_bits > 0, "link width must be positive");
        LinkModel {
            tech: tech.clone(),
            width_bits,
        }
    }

    /// Flit width in bits.
    pub fn width_bits(&self) -> usize {
        self.width_bits
    }

    /// Peak bandwidth of the link at clock `freq` (width × frequency).
    pub fn capacity(&self, freq: Frequency) -> Bandwidth {
        Bandwidth::from_bytes_per_s(self.width_bits as f64 / 8.0 * freq.hz())
    }

    /// Longest unpipelined link that still meets timing at `freq`.
    pub fn max_length_mm(&self, freq: Frequency) -> f64 {
        let budget_ns = freq.period_ns() - self.tech.link_setup_margin_ns;
        (budget_ns.max(0.0)) * 1e3 / self.tech.wire_delay_ps_per_mm
    }

    /// Returns `true` if a `length_mm` link meets timing at `freq`.
    pub fn is_feasible(&self, length_mm: f64, freq: Frequency) -> bool {
        length_mm <= self.max_length_mm(freq)
    }

    /// Dynamic power of transporting `bandwidth` over a link of `length_mm`.
    ///
    /// `P = activity · C_wire(length) · V² · toggled bit rate`, i.e. power
    /// scales with the *used* bandwidth, not the link capacity.
    pub fn traffic_power(&self, length_mm: f64, bandwidth: Bandwidth) -> Power {
        let c_ff_per_bit = self.tech.wire_cap_ff_per_mm * length_mm;
        let e_bit_pj = self.tech.activity_factor * self.tech.switching_energy_pj(c_ff_per_bit);
        Power::from_watts(bandwidth.bits_per_s() * e_bit_pj * 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LinkModel {
        LinkModel::new(&Technology::cmos_65nm(), 32)
    }

    #[test]
    fn capacity_is_width_times_frequency() {
        let l = model();
        let cap = l.capacity(Frequency::from_mhz(500.0));
        // 32 bits = 4 bytes, 500 MHz -> 2 GB/s.
        assert!((cap.bytes_per_s() - 2e9).abs() < 1.0);
    }

    #[test]
    fn longer_wires_are_hungrier() {
        let l = model();
        let bw = Bandwidth::from_mbps(400.0);
        assert!(l.traffic_power(4.0, bw).mw() > l.traffic_power(1.0, bw).mw());
    }

    #[test]
    fn max_length_shrinks_with_frequency() {
        let l = model();
        let slow = l.max_length_mm(Frequency::from_mhz(200.0));
        let fast = l.max_length_mm(Frequency::from_mhz(1000.0));
        assert!(slow > fast);
        assert!(fast > 0.0, "1 GHz links must still span some distance");
    }

    #[test]
    fn feasibility_matches_max_length() {
        let l = model();
        let f = Frequency::from_mhz(500.0);
        let max = l.max_length_mm(f);
        assert!(l.is_feasible(max * 0.99, f));
        assert!(!l.is_feasible(max * 1.01, f));
    }

    #[test]
    fn power_scales_linearly_with_bandwidth() {
        let l = model();
        let p1 = l.traffic_power(2.0, Bandwidth::from_mbps(100.0));
        let p2 = l.traffic_power(2.0, Bandwidth::from_mbps(400.0));
        assert!((p2.mw() / p1.mw() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_sanity_millimetre_wire() {
        // ~0.1 pJ/bit/mm at 65 nm — a 400 MB/s flow on a 2 mm link is well
        // under a milliwatt-and-a-half.
        let l = model();
        let p = l.traffic_power(2.0, Bandwidth::from_mbps(400.0));
        assert!(p.mw() > 0.1 && p.mw() < 3.0, "got {} mW", p.mw());
    }

    #[test]
    fn zero_length_link_is_free() {
        let l = model();
        assert_eq!(l.traffic_power(0.0, Bandwidth::from_mbps(100.0)).mw(), 0.0);
    }
}
