//! Sweep-as-a-service: a coordinator + worker fleet with leased shards
//! and streaming frontier folds.
//!
//! PR 6's sharded sweep splits a grid by *static* modulo striping: the
//! process count is fixed up front, every shard writes a checkpoint file,
//! and a final `merge` folds them. This crate makes the same exact sweep
//! *elastic*: a [`coordinator`] owns the grid, cuts it into contiguous
//! [`vi_noc_sweep::ChainRange`] leases, and hands them to however many
//! worker processes happen to connect — over a line-delimited JSON
//! [`protocol`] on local TCP sockets, std-only. Workers evaluate leases
//! with the sweep's one chain loop ([`vi_noc_sweep::run_deltas`])
//! and stream back disjoint checkpoint deltas; the coordinator folds each
//! delta the moment it arrives through the same
//! [`vi_noc_core::ParetoFold`] the unsharded run uses.
//!
//! **The headline invariant:** the fleet-produced frontier file — for any
//! worker count and any kill/re-lease schedule — is byte-identical to the
//! single-process `sweep run --frontier` emission. The argument stacks
//! four exactness properties:
//!
//! 1. Pareto survival is pairwise under a strict partial order, so folds
//!    compose in any order ([`vi_noc_core::pareto`]).
//! 2. Deltas are *disjoint* intervals of a lease, each folded exactly
//!    once: the [`lease::LeaseBook`] insists every delta starts at the
//!    range's acked watermark and rejects superseded lease ids, so a
//!    dead worker's replacement resumes `from` the watermark without
//!    double-folding or gapping (`crates/sweep/tests/range_delta.rs` and
//!    `crates/fleet/tests/fleet_exact.rs` pin this).
//! 3. Every writer on the path is a parse→write fixed point, so entry
//!    bytes survive the wire unchanged.
//! 4. A worker leaves out only entries that an entry it already had acked
//!    for the same job payload dominates. No entry of the final frontier
//!    is dominated by anything in the grid, so none is ever left out
//!    ([`worker`] has the argument).
//!
//! Worker crashes are handled twice over: a dropped connection —
//! including SIGKILL, which closes the socket — releases its leases
//! immediately, and a lease deadline catches workers that hang without
//! dying. Concurrent in-process submissions ([`FleetHandle::submit`])
//! share one coordinator and one worker pool.
//!
//! The fleet is driven from the CLI (`vi-noc fleet serve|work|run`, see
//! `vi-noc-api`); this crate stays ignorant of what a job payload means
//! via the [`lease::JobResolver`] trait.

#![warn(missing_docs)]

pub mod coordinator;
pub mod lease;
pub mod protocol;
pub mod worker;

pub use coordinator::{start_coordinator, FleetHandle};
pub use lease::{FleetConfig, FoldOutcome, JobResolver, LeaseBook, ResolvedJob};
pub use protocol::{
    grid_fingerprint, parse_message, write_delta, write_message, Delta, Lease, Message,
};
pub use worker::{run_worker, spawn_local_workers, WorkerOpts, WorkerStats};
