//! Power, area and timing models of NoC components at 65 nm.
//!
//! The paper evaluates its synthesis flow with the ×pipesLite component
//! library (Stergiou et al., DATE 2005) characterized at 65 nm, extended with
//! models of bi-synchronous voltage/frequency converter FIFOs. That library
//! is not public, so this crate provides **calibrated analytic stand-ins**:
//! closed-form models whose absolute magnitudes land in the published ranges
//! and — more importantly — whose *monotonicities* match the real components:
//!
//! * switch power grows with frequency, port count and traffic load;
//! * the maximum feasible crossbar size shrinks as frequency rises
//!   (longer critical path through arbiter + crossbar);
//! * link power grows with wire length, toggled bandwidth and frequency;
//! * unpipelined links have a maximum length at a given frequency;
//! * island crossings pay a fixed 4-cycle bi-synchronous FIFO penalty and a
//!   per-bit voltage/level-conversion energy;
//! * leakage scales with silicon area and is almost entirely removed by
//!   power-gating an island.
//!
//! Every figure of the reproduction depends only on those shapes, not on
//! absolute femtojoules.
//!
//! # Example
//!
//! ```
//! use vi_noc_models::{Technology, SwitchModel, Frequency};
//!
//! let tech = Technology::cmos_65nm();
//! let sw = SwitchModel::new(&tech, 4, 4, 32);
//! let f = Frequency::from_mhz(500.0);
//! assert!(sw.max_frequency().hz() > f.hz());
//! let idle = sw.idle_power(f);
//! assert!(idle.mw() > 0.0);
//! ```

#![warn(missing_docs)]

mod bisync;
mod leakage;
mod link;
mod ni;
mod switch;
mod technology;
mod units;

pub use bisync::BisyncFifoModel;
pub use leakage::{gated_island_leakage, island_leakage, LeakageReport};
pub use link::LinkModel;
pub use ni::NiModel;
pub use switch::{SwitchModel, MAX_RADIX};
pub use technology::Technology;
pub use units::{Area, Bandwidth, Frequency, Power};
