//! # vi-noc — NoC topology synthesis supporting shutdown of voltage islands
//!
//! Facade crate re-exporting the whole `vi-noc` workspace, a from-scratch
//! reproduction of *Seiculescu, Murali, Benini, De Micheli — "NoC Topology
//! Synthesis for Supporting Shutdown of Voltage Islands in SoCs", DAC 2009*.
//!
//! See the workspace `README.md` for an architecture overview; the
//! paper-vs-measured reproduction artifacts are regenerated by the
//! binaries of the `vi-noc-bench` crate.
//!
//! **The primary surface is the scenario API** (re-exported from the
//! [`api`] crate at the root of this facade): [`Scenario`] declares a
//! complete experiment — spec, partition, synthesis, floorplan,
//! simulation, shutdown schedule, sweep grid — as one data value (or one
//! JSON file), [`Scenario::run`] executes it, and [`Report`] carries the
//! results; every stage fails through the one workspace-wide [`Error`].
//! A caller that wants one stage at a time chains the stage functions
//! `Scenario::run` calls ([`synth::synthesize`],
//! [`synth::realize_on_floorplan`], [`sim::Simulator`]) itself, as the
//! examples do. The `vi-noc` binary (`src/bin/vi-noc.rs`) drives the same
//! API from the command line.
//!
//! The sub-crates remain re-exported under short module names:
//!
//! * [`api`] — the scenario API layer itself.
//! * [`graph`] — graph algorithms (min-cut partitioning, shortest paths).
//! * [`models`] — 65 nm power/area/timing models of NoC components.
//! * [`soc`] — SoC benchmark specs, traffic flows, VI partitioning.
//! * [`floorplan`] — slicing floorplanner with switch insertion.
//! * [`synth`] — the paper's VI-aware topology-synthesis algorithm.
//! * [`sweep`] — sharded, streaming design-space exploration with a merging
//!   Pareto fold (driven by `vi-noc sweep` over a scenario's grids).
//! * [`dynsweep`] — dynamic simulation sweeps over the frontier: every
//!   surviving design point simulated at every cell of a declarative sim
//!   grid, byte-identical for any thread count (a scenario's `dyn_sweep`
//!   member, run by `vi-noc run`).
//! * [`fleet`] — sweep-as-a-service: a coordinator leasing chain ranges to
//!   worker processes over local TCP, folding streamed frontier deltas into
//!   the exact unsharded frontier (driven by `vi-noc fleet`).
//! * [`sim`] — flit-level NoC simulator (event-batched multi-clock engine)
//!   with shutdown scenarios.

#![warn(missing_docs)]

// The README's Rust snippets are compiled and run as doctests of this
// facade, so the quickstart in the docs can never drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use vi_noc_api as api;
pub use vi_noc_core as synth;
pub use vi_noc_dynsweep as dynsweep;
pub use vi_noc_fleet as fleet;
pub use vi_noc_floorplan as floorplan;
pub use vi_noc_graph as graph;
pub use vi_noc_models as models;
pub use vi_noc_sim as sim;
pub use vi_noc_soc as soc;
pub use vi_noc_sweep as sweep;

pub use vi_noc_api::{
    Error, IslandChoice, PartitionPlan, Report, Scenario, ShutdownPlan, ShutdownReport, SimPlan,
    SimReport, SpecSource,
};
