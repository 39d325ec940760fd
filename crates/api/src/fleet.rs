//! Scenario-level integration with the `vi-noc-fleet` crate: the job
//! payloads a coordinator hands to workers are scenario documents, so any
//! machine with the `vi-noc` binary can join a sweep with `vi-noc fleet
//! work --connect HOST:PORT` — no shard arithmetic, no files to ship.
//!
//! A payload is the scenario document itself ([`Scenario::to_json`]), and
//! a job sweeps the scenario's `sweep` grid. Both sides resolve the
//! payload independently and prove agreement through the grid
//! fingerprint; see [`vi_noc_fleet`] for the protocol.

use crate::scenario::Scenario;
use vi_noc_fleet::{JobResolver, ResolvedJob};
use vi_noc_sweep::{GridDescriptor, SweepGrid};

/// Resolves job payloads — scenario documents — into their sweep grids.
/// Stateless: hand one to [`vi_noc_fleet::start_coordinator`] and to every
/// [`vi_noc_fleet::run_worker`] (or to `spawn_local_workers`, for an
/// in-process fleet).
pub struct ScenarioJobResolver;

impl JobResolver for ScenarioJobResolver {
    fn resolve(&self, payload: &str) -> Result<ResolvedJob, String> {
        let scenario = Scenario::from_json(payload).map_err(|e| format!("job payload: {e}"))?;
        let spec = scenario.resolve_spec().map_err(|e| e.to_string())?;
        let vi = scenario
            .resolve_partition(&spec)
            .map_err(|e| e.to_string())?;
        let cfg = scenario.synthesis.clone();
        let grid_cfg = scenario
            .sweep
            .as_ref()
            .ok_or_else(|| format!("scenario '{}' declares no sweep grid", scenario.name))?;
        let grid = SweepGrid::build(&spec, &vi, &cfg, grid_cfg);
        let desc =
            GridDescriptor::for_grid(&grid, spec.name(), &scenario.partition.tag(), cfg.seed);
        Ok(ResolvedJob {
            spec,
            vi,
            cfg,
            grid,
            desc,
            prune: scenario.sweep_prune,
        })
    }
}

/// Builds the wire payload for a scenario's sweep: the scenario document.
/// Byte deterministic ([`Scenario::to_json`] is), so every resolver
/// fingerprints the same grid.
///
/// The second parameter is always `None`: no value of its type exists.
/// Windowed (refinement) payloads are gone; the parameter stays only
/// because the benchmark harness (`perfbench/`) still passes `None`, and
/// the next benchmark change deletes it.
pub fn job_payload(scenario: &Scenario, _windows: Option<std::convert::Infallible>) -> String {
    scenario.to_json()
}
