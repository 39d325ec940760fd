//! Flit-level NoC simulator with voltage-island shutdown scenarios and an
//! event-batched multi-clock engine.
//!
//! The paper evaluates its topologies with zero-load latency arithmetic;
//! this crate validates those numbers dynamically and demonstrates the
//! headline property — traffic between live islands is unaffected when
//! another island is power-gated:
//!
//! * [`SimNetwork`] — a flit-level, output-queued network instantiated from
//!   a synthesized [`vi_noc_core::Topology`]. Every voltage island ticks in
//!   its own clock domain (periods from the synthesis frequency plan);
//!   island-crossing links pay the 4-cycle bi-synchronous FIFO dwell, and
//!   a packet is as many flits as the topology's link width needs.
//! * [`Simulator`] — the multi-domain engine: CBR or Poisson traffic per
//!   flow, credit-style backpressure, per-flow latency/throughput stats and
//!   flit conservation accounting. By default it advances each island's
//!   clock event-to-event ([`SimConfig::batching`]), producing statistics
//!   bit-identical to cycle-by-cycle stepping at a fraction of the cost on
//!   long-horizon or lightly loaded runs.
//! * [`zero_load_latency_ps`] — the analytic expectation the engine is
//!   cross-checked against (and the basis of the Figure-3 reproduction).
//! * [`ShutdownScenario`] — drain-and-gate orchestration: stop flows
//!   touching an island, let them drain, gate the island, and verify the
//!   surviving traffic never stalls.
//!
//! # Example
//!
//! ```
//! use vi_noc_core::{synthesize, SynthesisConfig};
//! use vi_noc_soc::{benchmarks, partition};
//! use vi_noc_sim::{SimConfig, Simulator, TrafficKind};
//!
//! let soc = benchmarks::d12_auto();
//! let vi = partition::logical_partition(&soc, 4)?;
//! let space = synthesize(&soc, &vi, &SynthesisConfig::default())?;
//! let point = space.min_power_point().unwrap();
//!
//! let cfg = SimConfig { traffic: TrafficKind::Cbr, ..SimConfig::default() };
//! let mut sim = Simulator::new(&soc, &point.topology, &cfg);
//! let stats = sim.run_for_ns(20_000);
//! assert!(stats.total_delivered_packets() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod cell;
mod energy;
mod engine;
mod network;
mod shutdown;
mod stats;
mod traffic;
mod zeroload;

pub use cell::{run_dynamic_cell, CellOutcome, CellShutdown, DRAIN_POLLS};
pub use energy::{measured_power, MeasuredPower};
pub use engine::{SimConfig, Simulator};
pub use network::SimNetwork;
pub use shutdown::{run_shutdown_scenario, ShutdownOutcome, ShutdownScenario};
pub use stats::{FlowStats, SimStats};
pub use traffic::TrafficKind;
pub use zeroload::{zero_load_cycles, zero_load_latency_ps};
