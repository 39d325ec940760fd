//! SoC benchmark specifications for the `vi-noc` workspace.
//!
//! The paper evaluates on a proprietary 26-core mobile/multimedia SoC plus
//! "a variety of SoC benchmarks". None of those inputs are public, so this
//! crate reconstructs them: each benchmark is a [`SocSpec`] — a set of
//! [`CoreSpec`]s and point-to-point [`TrafficFlow`]s with bandwidth and
//! latency constraints — whose traffic *structure*
//! (hot CPU↔cache/memory flows, moderate media pipelines, light peripheral
//! traffic) matches the published descriptions.
//!
//! The crate also implements the two core→voltage-island assignment
//! strategies compared in the paper's Figures 2 and 3:
//!
//! * [`partition::logical_partition`] — groups cores by functionality
//!   (shared memories together in a never-shutdown island, CPUs with their
//!   caches, media pipeline together, …);
//! * [`partition::communication_partition`] — min-cut clustering of the core
//!   traffic graph, so heavily-communicating cores share an island.
//!
//! # Example
//!
//! ```
//! use vi_noc_soc::{benchmarks, partition};
//!
//! let soc = benchmarks::d26_mobile();
//! assert_eq!(soc.core_count(), 26);
//! let vi = partition::logical_partition(&soc, 4).unwrap();
//! assert_eq!(vi.island_count(), 4);
//! // The island holding the shared memories can never be shut down.
//! assert!(vi.always_on_islands().iter().any(|&a| a));
//! ```

#![warn(missing_docs)]

pub mod benchmarks;
mod core;
mod flow;
mod generator;
pub mod partition;
mod spec;

pub use crate::core::{CoreId, CoreKind, CoreSpec};
pub use flow::{FlowId, TrafficFlow};
pub use generator::{generate_synthetic, SyntheticConfig};
pub use partition::{PartitionError, ViAssignment};
pub use spec::{SocSpec, SpecError};
