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
use std::sync::Arc;
use vi_noc_fleet::{
    spawn_local_workers, start_coordinator, FleetConfig, JobResolver, ResolvedJob, WorkerOpts,
};
use vi_noc_sweep::{GridDescriptor, SweepGrid};

/// Resolves job payloads — scenario documents — into their sweep grids.
/// Stateless: hand one to [`start_coordinator`] and to every
/// [`vi_noc_fleet::run_worker`].
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

/// Runs one job payload through an ephemeral in-process fleet — loopback
/// coordinator plus `workers` local worker threads — and returns the
/// folded frontier file. The emission is byte-identical to the unsharded
/// sweep of the same grid.
pub(crate) fn run_local_fleet(
    payload: &str,
    workers: usize,
    cfg: FleetConfig,
) -> Result<String, String> {
    let resolver: Arc<dyn JobResolver> = Arc::new(ScenarioJobResolver);
    let handle = start_coordinator("127.0.0.1:0", Arc::clone(&resolver), cfg)?;
    let pool = spawn_local_workers(handle.addr(), resolver, workers, WorkerOpts::default());
    let result = handle.submit(payload);
    handle.shutdown();
    for worker in pool {
        match worker.join() {
            Ok(Ok(_)) => {}
            // A worker failure only matters when the job failed with it —
            // a finished fold is already proven complete by the lease book.
            Ok(Err(e)) if result.is_err() => return Err(format!("worker failed: {e}")),
            Ok(Err(_)) => {}
            Err(_) => return Err("worker thread panicked".to_string()),
        }
    }
    result
}
