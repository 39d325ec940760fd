//! Dynamic-sweep subsystem: simulation sweeps over frontier design points.
//!
//! The paper's dynamic results (power and latency under varying load
//! factors, traffic kinds, and shutdown schedules) need every surviving
//! frontier design point simulated against a multiplicative grid of sim
//! configs — `|frontier| × |loads| × |traffic| × |schedules|` cells. This
//! crate simulates every one of them; nothing is skipped or approximated.
//!
//! * [`SimAxes`] — the declarative sim grid: load factors × traffic kinds
//!   × shutdown schedules (plus the free-run horizon), with no axis
//!   repeating a value.
//! * [`run_dynsweep`] — the engine: the plain double loop over frontier
//!   points and cells, in one order-preserving rayon fan-out, so the
//!   emitted table is byte-identical for any thread count. Each point row
//!   records its island-topology signature and flow-matrix fingerprint
//!   ([`vi_noc_core::island_signature`] /
//!   [`vi_noc_core::flow_fingerprint`]), and the result is the
//!   byte-deterministic `vi-noc-dynsweep-v1` table.
//!
//! Frontier ingestion reuses the sweep crate's parsed frontier files;
//! design points are regenerated bit-exactly from their chain coordinates
//! via [`vi_noc_sweep::regenerate_point`] (there is no topology parser —
//! determinism *is* the deserializer).

#![warn(missing_docs)]

mod axes;
mod engine;
mod table;

pub use axes::{first_repeat, Mode, SimAxes};
pub use engine::{run_dynsweep, DynSweepInput, DynSweepRun};
