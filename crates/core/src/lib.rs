//! VI-aware NoC topology synthesis — the primary contribution of
//! *Seiculescu et al., "NoC Topology Synthesis for Supporting Shutdown of
//! Voltage Islands in SoCs", DAC 2009*.
//!
//! Given a [`vi_noc_soc::SocSpec`] and a core→voltage-island assignment
//! ([`vi_noc_soc::ViAssignment`]), [`synthesize`] explores custom NoC
//! topologies that
//!
//! 1. connect every core only to switches **in its own island** (via NIs),
//! 2. route every inter-island flow either **directly** from a switch in the
//!    source island to a switch in the destination island, or through a
//!    switch in an optional always-on **intermediate NoC island**,
//! 3. meet every flow's bandwidth and zero-load latency constraint,
//!
//! so that power-gating any shutdown-capable island can never sever traffic
//! between the remaining islands. The returned [`DesignSpace`] holds every
//! feasible design point (switch counts per island, core→switch assignment,
//! links, routes, power/area/latency metrics) plus the Pareto front that the
//! paper's designer would pick from.
//!
//! The algorithm follows the paper's Algorithm 1: per-island operating
//! frequency and maximum switch size (step 1), minimum switch counts
//! (step 2), a sweep over switch counts using min-cut partitioning of the
//! island's VI communication graph (steps 4–11), a sweep over
//! intermediate-island switch counts with bandwidth-ordered min-cost path
//! allocation (steps 14–17), and floorplan-based wire power/delay
//! realization ([`realize_on_floorplan`]).
//!
//! The driver is staged: [`SweepPlan`] enumerates every candidate design
//! (switch-count vector × intermediate-switch count) up front,
//! [`evaluate_candidate`] evaluates one candidate as a pure function, and
//! [`synthesize`] fans the candidates out over rayon, as wide as
//! `rayon::current_num_threads()`. Every thread count returns the
//! identical design space.
//!
//! # Example
//!
//! ```
//! use vi_noc_core::{synthesize, SynthesisConfig};
//! use vi_noc_soc::{benchmarks, partition};
//!
//! let soc = benchmarks::d12_auto();
//! let vi = partition::logical_partition(&soc, 4)?;
//! let space = synthesize(&soc, &vi, &SynthesisConfig::default())?;
//! let best = space.min_power_point().expect("feasible design exists");
//! assert!(best.metrics.noc_dynamic_power().mw() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod assign;
mod baseline;
#[cfg(test)]
mod bellman_ford;
mod config;
mod design_space;
mod dijkstra;
mod error;
mod export;
mod features;
mod flows;
pub mod json;
mod metrics;
pub mod pareto;
mod paths;
mod power_gating;
mod realize;
mod synthesis;
mod topology;
mod vcg;
mod verify;

pub use assign::{base_schedule, island_switch_assignment, SwitchAssignment};
pub use baseline::{synthesize_oblivious, ObliviousDesign};
pub use config::SynthesisConfig;
pub use design_space::{DesignPoint, DesignSpace};
pub use error::SynthesisError;
pub use export::{
    design_point_json, routes_table, to_dot, topology_summary, write_design_point, write_metrics,
    write_power,
};
pub use features::{flow_fingerprint, fnv1a64, island_signature};
pub use flows::{inter_switch_flows, InterSwitchFlow};
pub use metrics::{compute_metrics, traffic_power, DesignMetrics, PowerBreakdown};
pub use pareto::{ParetoFold, ParetoKey};
pub use power_gating::{scenario_power, standard_scenarios, ScenarioReport, UsageScenario};
pub use realize::{realize_on_floorplan, RealizedDesign};
pub use synthesis::{
    evaluate_candidate, evaluate_candidate_chain, evaluate_candidate_chain_with_certificate,
    synthesize, CandidateOutcome, SlackCertificate, SweepCandidate, SweepPlan,
};
pub use topology::{
    LinkId, LinkKind, Route, Switch, SwitchId, TopoLink, Topology, TopologyBuilder,
};
pub use vcg::{build_vcg, Vcg};
pub use verify::{verify_design, verify_shutdown_safety, Violation};

/// Per-island frequency plan (step 1 of Algorithm 1).
pub use config::FrequencyPlan;
