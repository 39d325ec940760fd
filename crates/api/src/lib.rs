//! The unified scenario API: one typed entry point from SoC spec to
//! shutdown-aware simulation.
//!
//! The paper's flow is a single conceptual pipeline — VI-partitioned SoC
//! spec → topology synthesis → floorplan-aware realization → flit-level
//! simulation with island shutdown — and this crate exposes it as one
//! surface instead of seven crates of hand-chained calls:
//!
//! * [`Scenario`] — a complete experiment **as data**: spec (bundled
//!   benchmark or inline custom SoC), partition strategy, synthesis /
//!   floorplan / simulation configs, shutdown schedule, sweep grid.
//!   Parsed from JSON ([`Scenario::from_json`]), executed end to end
//!   ([`Scenario::run`]), re-emitted byte-deterministically
//!   ([`Scenario::to_json`]) — so new workloads need no Rust edits.
//!   `Scenario::run` is the one runner; a caller that wants one stage at a
//!   time chains the stage functions it calls, as the examples do.
//! * [`Report`] — everything a run produced, with a byte-deterministic
//!   JSON emission (`Report::to_json`) and a terminal summary.
//! * [`Error`] — the workspace-wide error type every stage fails through.
//! * [`cli`] — the implementation of the `vi-noc` binary (`run`,
//!   `report`, `sweep`, `fleet`, `dynsweep`).
//! * [`fleet`] — scenario documents as `vi-noc-fleet` job payloads: a
//!   scenario's sweep runs on a coordinator + worker fleet (the `fleet`
//!   CLI) with byte-identical frontier emission.
//!
//! Everything here composes the existing stage functions
//! (`vi_noc_core::synthesize`, `realize_on_floorplan`,
//! `vi_noc_sim::Simulator`, the `vi-noc-sweep` shard runner) without
//! reimplementing them, so a run's outputs — design spaces, `SimStats`,
//! frontier bytes — are bit-identical to hand-chained calls
//! (`crates/api/tests/byte_identity.rs` pins this on D26).

#![warn(missing_docs)]

pub mod cli;
mod error;
pub mod fleet;
mod ingest;
mod report;
mod scenario;

pub use error::Error;
pub use ingest::SCENARIO_FORMAT;
pub use report::{Report, ShutdownReport, SimReport, REPORT_FORMAT};
pub use scenario::{
    benchmark_by_name, DynSweepPlan, IslandChoice, PartitionPlan, RefinePlan, Scenario,
    ShutdownPlan, SimPlan, SpecSource,
};
