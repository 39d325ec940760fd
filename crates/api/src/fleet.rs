//! Scenario-level integration with the `vi-noc-fleet` crate: the job
//! payloads a coordinator hands to workers are scenario documents, so any
//! machine with the `vi-noc` binary can join a sweep with `vi-noc fleet
//! work --connect HOST:PORT` — no shard arithmetic, no files to ship.
//!
//! A payload is `{"scenario":<scenario doc>}` for the coarse grid, or
//! `{"scenario":<doc>,"windows":[..]}` for the refinement stage (the
//! windows were derived from the coarse frontier on the coordinator and
//! travel with the job, so workers never re-run the coarse sweep). Both
//! sides resolve the payload independently and prove agreement through the
//! grid fingerprint; see [`vi_noc_fleet`] for the protocol.

use crate::scenario::Scenario;
use std::sync::Arc;
use vi_noc_core::json::{self, Obj};
use vi_noc_fleet::{
    spawn_local_workers, start_coordinator, FleetConfig, JobResolver, ResolvedJob, WorkerOpts,
};
use vi_noc_sweep::{windows_from_value, write_window, GridDescriptor, RefineWindow, SweepGrid};

/// Resolves `{"scenario":..,"windows":[..]?}` job payloads into sweep
/// grids. Stateless: hand one to [`start_coordinator`] and to every
/// [`vi_noc_fleet::run_worker`].
pub struct ScenarioJobResolver;

impl JobResolver for ScenarioJobResolver {
    fn resolve(&self, payload: &str) -> Result<ResolvedJob, String> {
        let doc = json::parse(payload).map_err(|e| format!("job payload: {e}"))?;
        doc.check_members(&["scenario", "windows"], "job payload")?;
        let scenario = Scenario::from_json(&doc.member("scenario", "job payload")?.to_json())
            .map_err(|e| format!("job payload: {e}"))?;
        let windows = doc
            .get("windows")
            .map(|v| windows_from_value(v, "job payload"))
            .transpose()?;

        let spec = scenario.resolve_spec().map_err(|e| e.to_string())?;
        let vi = scenario
            .resolve_partition(&spec)
            .map_err(|e| e.to_string())?;
        let cfg = scenario.synthesis.clone();
        let grid = match windows {
            Some(ws) => {
                let plan = scenario.refine.as_ref().ok_or(
                    "job payload: 'windows' given but the scenario declares no 'refine' stage",
                )?;
                SweepGrid::build_windowed(&spec, &vi, &cfg, &plan.grid, ws)
            }
            None => {
                let grid_cfg = scenario.sweep.as_ref().ok_or_else(|| {
                    format!("scenario '{}' declares no sweep grid", scenario.name)
                })?;
                SweepGrid::build(&spec, &vi, &cfg, grid_cfg)
            }
        };
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

/// Builds the wire payload for a scenario's sweep: the coarse grid when
/// `windows` is `None`, the windowed refinement grid otherwise. Byte
/// deterministic ([`Scenario::to_json`] is), so every resolver
/// fingerprints the same grid.
pub fn job_payload(scenario: &Scenario, windows: Option<&[RefineWindow]>) -> String {
    let mut payload = String::new();
    let mut o = Obj::new(&mut payload);
    o.raw("scenario", scenario.to_json().trim_end());
    if let Some(ws) = windows {
        json::array(o.key("windows"), ws, write_window);
    }
    o.end();
    payload
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
