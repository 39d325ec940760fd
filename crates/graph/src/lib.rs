//! Graph substrate for the `vi-noc` workspace.
//!
//! This crate provides the graph data structures and algorithms that the
//! NoC topology-synthesis flow of Seiculescu et al. (DAC 2009) relies on:
//!
//! * [`DiGraph`] — a directed multigraph with typed node/edge payloads, used
//!   for core communication graphs and switch-level connectivity graphs.
//! * [`SymGraph`] — an undirected weighted graph with vertex weights, the
//!   input representation for min-cut partitioning.
//! * [`dijkstra`] — shortest paths with caller-supplied edge costs and edge
//!   filters in reusable [`SearchScratch`] arenas (used by the min-cost
//!   path-allocation step); [`bellman_ford`] is its test oracle.
//! * [`partition_kway`] — k-way min-cut partitioning (multilevel recursive
//!   bisection with Fiduccia–Mattheyses-style refinement, plus a greedy
//!   agglomerative scheme for small graphs), the workhorse behind step 11 of
//!   the paper's Algorithm 1 ("perform k min-cut partitions of VCG").
//! * [`stoer_wagner`] — global min-cut, used as a test oracle.
//!
//! All randomized routines take explicit seeds and are fully deterministic.
//!
//! # Example
//!
//! ```
//! use vi_noc_graph::{SymGraph, PartitionConfig, partition_kway};
//!
//! // Two natural clusters: {0,1,2} and {3,4,5} joined by one light edge.
//! let mut g = SymGraph::new(6);
//! for &(u, v, w) in &[(0, 1, 10.0), (1, 2, 10.0), (0, 2, 10.0),
//!                     (3, 4, 10.0), (4, 5, 10.0), (3, 5, 10.0),
//!                     (2, 3, 1.0)] {
//!     g.add_edge(u, v, w);
//! }
//! let part = partition_kway(&g, 2, &PartitionConfig::default());
//! assert_eq!(part.k(), 2);
//! assert_eq!(part.cut_weight(&g), 1.0);
//! ```

#![warn(missing_docs)]

mod bellman_ford;
mod bisect;
mod coarsen;
mod digraph;
mod dijkstra;
mod fm;
mod ids;
mod kway;
mod mincut;
mod partition;
mod sym;

pub use bellman_ford::bellman_ford;
pub use digraph::DiGraph;
pub use dijkstra::{dijkstra, SearchScratch};
pub use ids::{EdgeId, NodeId};
pub use kway::{partition_kway, PartitionConfig};
pub use mincut::stoer_wagner;
pub use partition::Partition;
pub use sym::SymGraph;
