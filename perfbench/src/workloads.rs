//! The three workloads, each a closed loop of identical ops over inputs
//! generated from the workload seed.
//!
//! * `flow`, `dynsweep`: one op is scenario JSON text →
//!   [`Scenario::from_json`] → [`Scenario::run`] → [`Report::to_json`]. The
//!   traced op calls the same stages one by one (as
//!   `crates/api/tests/byte_identity.rs` does) with a span around each call,
//!   and must produce the same bytes.
//! * `fleet`: one op is [`FleetHandle::submit`] of a scenario's job payload
//!   to a loopback coordinator with local worker threads → folded frontier
//!   bytes, which must equal the direct in-process `run_shard` emission.

use crate::trace::{OpCtx, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use vi_noc_api::fleet::{job_payload, ScenarioJobResolver};
use vi_noc_api::{Report, Scenario, ShutdownReport, SimReport};
use vi_noc_core::{realize_on_floorplan, synthesize};
use vi_noc_dynsweep::{run_dynsweep, DynSweepInput, SimAxes};
use vi_noc_fleet::{
    spawn_local_workers, start_coordinator, FleetConfig, FleetHandle, JobResolver, ResolvedJob,
    WorkerOpts, WorkerStats,
};
use vi_noc_sim::{measured_power, run_shutdown_scenario, ShutdownScenario, Simulator};
use vi_noc_sweep::json::{self, Value};
use vi_noc_sweep::{
    frontier_json, frontier_seeds, parse_frontier_file, run_shard, run_shard_pruned,
    windows_from_frontier, GridDescriptor, Shard, SweepGrid,
};

/// Exact per-op work counters and modelled outputs, by metric name.
pub type Counters = BTreeMap<&'static str, f64>;

/// The workload seed whose generated scenario text is the committed file.
pub const DEFAULT_SEED: u64 = 0;

const BASELINE: &str = include_str!("../../scenarios/d26_baseline.json");
const BASELINE_GOLDEN: &str = include_str!("../../scenarios/golden/d26_baseline.report.json");
const DYNAMIC_GRID: &str = include_str!("../../scenarios/d26_dynamic_grid.json");
const DYNAMIC_GRID_GOLDEN: &str =
    include_str!("../../scenarios/golden/d26_dynamic_grid.report.json");
const OVERCLOCKED_FINE: &str = include_str!("../../scenarios/d26_overclocked_fine.json");

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["flow", "dynsweep", "fleet"];

/// The committed scenario text a workload starts from, and its golden
/// report when one is committed.
fn base_scenario(name: &str) -> Option<(&'static str, Option<&'static str>)> {
    match name {
        "flow" => Some((BASELINE, Some(BASELINE_GOLDEN))),
        "dynsweep" => Some((DYNAMIC_GRID, Some(DYNAMIC_GRID_GOLDEN))),
        "fleet" => Some((OVERCLOCKED_FINE, None)),
        _ => None,
    }
}

/// The scenario text the program sees for `seed`: the committed file for
/// [`DEFAULT_SEED`]; otherwise the same document with `synthesis.seed`,
/// `floorplan.seed` and — when a sim stage is declared — `sim.seed` set to
/// the seed (reduced below 2^53, the range JSON numbers hold exactly).
pub fn scenario_text(base: &str, seed: u64) -> String {
    if seed == DEFAULT_SEED {
        return base.to_string();
    }
    let mut doc = json::parse(base).expect("committed scenarios are valid JSON");
    let Value::Obj(members) = &mut doc else {
        panic!("committed scenarios are JSON objects");
    };
    let value = Value::Num((seed % (1u64 << 53)) as f64);
    for (stage, add_if_missing) in [("synthesis", true), ("floorplan", true), ("sim", false)] {
        match members.iter_mut().find(|(k, _)| k == stage) {
            Some((_, Value::Obj(fields))) => match fields.iter_mut().find(|(k, _)| k == "seed") {
                Some((_, v)) => *v = value.clone(),
                None => fields.push(("seed".to_string(), value.clone())),
            },
            Some(_) => panic!("committed scenario member '{stage}' is not an object"),
            None if add_if_missing => members.push((
                stage.to_string(),
                Value::Obj(vec![("seed".to_string(), value.clone())]),
            )),
            None => {}
        }
    }
    doc.to_json()
}

/// What every workload provides to the measuring loop.
pub trait Workload {
    /// One untraced op: its output bytes.
    fn op(&mut self) -> Result<String, String>;
    /// One traced op: its output bytes and exact counters.
    fn traced_op(&mut self, cx: &OpCtx) -> Result<(String, Counters), String>;
    /// The bytes every op must produce.
    fn expected(&self) -> &str;
    /// Wall ms of the op's work done directly in this process, bypassing
    /// the layer under test (the fleet's `run_shard` reference); `None`
    /// where the op has no such reference.
    fn direct_ms(&mut self) -> Result<Option<f64>, String> {
        Ok(None)
    }
    /// Stops everything the workload started; counters known only at the
    /// end (fleet leases and deltas per job).
    fn finish(self: Box<Self>) -> Result<Counters, String>;
}

/// Builds a workload: generates its input from `seed`, computes the
/// reference bytes and checks them against the committed golden. Returns
/// the workload and whether the reference matched (always `true` where no
/// golden applies).
pub fn setup(
    name: &str,
    seed: u64,
    workers: usize,
    tracer: &Arc<Tracer>,
) -> Result<(Box<dyn Workload>, bool), String> {
    let (base, golden) = base_scenario(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let text = scenario_text(base, seed);
    if name == "fleet" {
        let fleet = FleetWork::start(&text, workers, tracer)?;
        return Ok((Box::new(fleet), true));
    }
    let scratch = Tracer::new();
    let (expected, _) = scratch.op(0, "op", |cx| traced_scenario(&text, cx))?;
    let golden_ok = match golden {
        Some(g) if seed == DEFAULT_SEED => expected == g,
        _ => true,
    };
    Ok((Box::new(ScenarioWork { text, expected }), golden_ok))
}

// --- Scenario workloads ----------------------------------------------------

struct ScenarioWork {
    text: String,
    expected: String,
}

impl Workload for ScenarioWork {
    fn op(&mut self) -> Result<String, String> {
        let scenario = Scenario::from_json(&self.text).map_err(err)?;
        Ok(scenario.run().map_err(err)?.to_json())
    }

    fn traced_op(&mut self, cx: &OpCtx) -> Result<(String, Counters), String> {
        traced_scenario(&self.text, cx)
    }

    fn expected(&self) -> &str {
        &self.expected
    }

    fn finish(self: Box<Self>) -> Result<Counters, String> {
        Ok(Counters::new())
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// [`Scenario::run`] + [`Report::to_json`], stage by stage, with a span
/// around every call into a layer.
fn traced_scenario(text: &str, cx: &OpCtx) -> Result<(String, Counters), String> {
    let mut n = Counters::new();
    let scenario = cx
        .span("api.ingest", || Scenario::from_json(text))
        .map_err(err)?;
    if scenario.sweep_workers.is_some() {
        return Err("the traced op does not route sweeps through a fleet".to_string());
    }
    let (spec, vi) = cx
        .span("soc.resolve", || {
            let spec = scenario.resolve_spec()?;
            let vi = scenario.resolve_partition(&spec)?;
            Ok::<_, vi_noc_api::Error>((spec, vi))
        })
        .map_err(err)?;
    let cfg = &scenario.synthesis;
    let space = cx
        .span("synth.synthesize", || synthesize(&spec, &vi, cfg))
        .map_err(err)?;
    n.insert("synth.points", space.points.len() as f64);
    let point = space.min_power_point().ok_or("empty design space")?;
    let design = cx.span("floorplan.realize", || {
        realize_on_floorplan(&spec, &vi, point, &scenario.floorplan, cfg)
    });
    n.insert(
        "floorplan.moves",
        (scenario.floorplan.iterations * scenario.floorplan.restarts) as f64,
    );
    n.insert("noc_power_mw", design.metrics.noc_dynamic_power().mw());
    n.insert("noc_latency_cyc", design.metrics.avg_latency_cycles);

    let mut report = Report {
        scenario: scenario.name.clone(),
        spec_name: space.spec_name.clone(),
        island_count: vi.island_count(),
        explored_points: space.points.len(),
        point: point.clone(),
        realized_metrics: design.metrics.clone(),
        infeasible_links: design.infeasible_links.len(),
        sim: None,
        shutdown: None,
        frontier: None,
        dyn_sweep: None,
    };

    let sim_cfg = scenario
        .sim
        .as_ref()
        .map(|p| p.config.clone())
        .unwrap_or_default();
    if let Some(plan) = &scenario.sim {
        let mut sim = cx.span("sim.build", || {
            Simulator::new(&spec, &design.topology, &plan.config)
        });
        let stats = cx.span("sim.run", || sim.run_for_ns(plan.horizon_ns));
        n.insert("sim.ticks", sim.ticks_processed() as f64);
        n.insert("sim.packets", stats.total_delivered_packets() as f64);
        n.insert(
            "sim_latency_ns",
            stats.avg_latency_ps().unwrap_or(0.0) / 1e3,
        );
        let measured = (stats.elapsed_ps > 0).then(|| {
            cx.span("sim.power", || {
                measured_power(
                    &spec,
                    &design.topology,
                    cfg,
                    &stats,
                    plan.config.packet_bytes as f64,
                )
            })
        });
        report.sim = Some(SimReport {
            horizon_ns: plan.horizon_ns,
            stats,
            measured,
        });
    }
    if let Some(plan) = &scenario.shutdown {
        let island = Scenario::resolve_shutdown_island(plan, &vi).map_err(err)?;
        let run = ShutdownScenario {
            island,
            stop_at_ns: plan.stop_at_ns,
            drain_ns: plan.drain_ns,
            post_gate_ns: plan.post_gate_ns,
        };
        let outcome = cx.span("sim.shutdown", || {
            run_shutdown_scenario(&spec, &vi, &design.topology, &sim_cfg, &run)
        });
        n.insert("sim.shutdown_packets", outcome.total_delivered as f64);
        report.shutdown = Some(ShutdownReport { island, outcome });
    }

    if let Some(coarse_cfg) = &scenario.sweep {
        let tag = scenario.partition.tag();
        let sweep = |grid: &SweepGrid, n: &mut Counters| -> String {
            let desc = GridDescriptor::for_grid(grid, spec.name(), &tag, cfg.seed);
            let run = cx.span("sweep.run", || {
                if scenario.sweep_prune {
                    run_shard_pruned(&spec, &vi, grid, Shard::full(), cfg)
                } else {
                    run_shard(&spec, &vi, grid, Shard::full(), cfg)
                }
            });
            let s = run.stats;
            for (name, v) in [
                ("sweep.chains", s.chains),
                ("sweep.inactive_chains", s.inactive_chains),
                ("sweep.feasible", s.feasible),
                ("sweep.duplicates", s.duplicates),
                ("sweep.infeasible", s.infeasible),
            ] {
                *n.entry(name).or_insert(0.0) += v as f64;
            }
            n.insert("sweep.frontier_points", run.frontier.len() as f64);
            cx.span("sweep.emit", || frontier_json(&desc, &run))
        };
        let grid = cx.span("sweep.grid", || {
            SweepGrid::build(&spec, &vi, cfg, coarse_cfg)
        });
        let mut frontier = sweep(&grid, &mut n);
        if let Some(plan) = &scenario.refine {
            let windows = cx.span("sweep.refine", || {
                let parsed = parse_frontier_file(&frontier)?;
                let seeds = frontier_seeds(&parsed)?;
                Ok::<_, String>(windows_from_frontier(&seeds, &plan.grid, &plan.params))
            })?;
            if windows.is_empty() {
                return Err("no refinement window covers the fine grid".to_string());
            }
            let fine = cx.span("sweep.grid", || {
                SweepGrid::build_windowed(&spec, &vi, cfg, &plan.grid, windows)
            });
            frontier = sweep(&fine, &mut n);
        }
        if let Some(plan) = &scenario.dyn_sweep {
            let full_cfg = scenario.refine.as_ref().map_or(coarse_cfg, |r| &r.grid);
            let parsed = cx.span("sweep.refine", || parse_frontier_file(&frontier))?;
            let grid = cx.span("sweep.grid", || SweepGrid::build(&spec, &vi, cfg, full_cfg));
            let schedules = plan
                .schedules
                .iter()
                .map(|s| match s {
                    None => Ok(None),
                    Some(p) => Ok(Some(ShutdownScenario {
                        island: Scenario::resolve_shutdown_island(p, &vi).map_err(err)?,
                        stop_at_ns: p.stop_at_ns,
                        drain_ns: p.drain_ns,
                        post_gate_ns: p.post_gate_ns,
                    })),
                })
                .collect::<Result<Vec<_>, String>>()?;
            let axes = SimAxes {
                loads: plan.loads.clone(),
                traffic: plan.traffic.clone(),
                schedules,
                horizon_ns: plan.horizon_ns,
            };
            let input = DynSweepInput {
                spec: &spec,
                vi: &vi,
                cfg,
                sim: &sim_cfg,
                grid: &grid,
                partition: &tag,
                frontier: &parsed,
            };
            let run = cx.span("dynsweep.run", || run_dynsweep(&input, &axes, plan.mode))?;
            n.insert("dynsweep.cells", run.cells as f64);
            n.insert("dynsweep.simulated", run.simulated as f64);
            n.insert("dynsweep.table_bytes", run.table.len() as f64);
            report.dyn_sweep = Some(run.table);
        }
        report.frontier = Some(frontier);
    }

    let bytes = cx.span("api.emit", || report.to_json());
    n.insert("api.report_bytes", bytes.len() as f64);
    Ok((bytes, n))
}

// --- Fleet workload --------------------------------------------------------

/// The scenario resolver with a span around every call, on whichever
/// thread makes it (the submitting client, or a worker).
struct TracedResolver(Arc<Tracer>);

impl JobResolver for TracedResolver {
    fn resolve(&self, payload: &str) -> Result<ResolvedJob, String> {
        self.0
            .in_current_op("fleet.resolve", || ScenarioJobResolver.resolve(payload))
    }
}

struct FleetWork {
    handle: Option<FleetHandle>,
    pool: Vec<JoinHandle<Result<WorkerStats, String>>>,
    payload: String,
    expected: String,
    jobs: u64,
}

impl FleetWork {
    /// Computes the reference frontier directly, then starts a loopback
    /// coordinator plus `workers` local worker threads.
    fn start(text: &str, workers: usize, tracer: &Arc<Tracer>) -> Result<FleetWork, String> {
        let scenario = Scenario::from_json(text).map_err(err)?;
        let payload = job_payload(&scenario, None);
        let (_, expected) = direct_run(&payload)?;
        let resolver: Arc<dyn JobResolver> = Arc::new(TracedResolver(Arc::clone(tracer)));
        let handle =
            start_coordinator("127.0.0.1:0", Arc::clone(&resolver), FleetConfig::default())?;
        let pool = spawn_local_workers(handle.addr(), resolver, workers, WorkerOpts::default());
        Ok(FleetWork {
            handle: Some(handle),
            pool,
            payload,
            expected,
            jobs: 0,
        })
    }

    fn stop(&mut self) -> Result<WorkerStats, String> {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        let mut total = WorkerStats::default();
        for worker in self.pool.drain(..) {
            let stats = worker
                .join()
                .map_err(|_| "fleet worker panicked".to_string())??;
            total.leases += stats.leases;
            total.deltas += stats.deltas;
            total.abandoned += stats.abandoned;
        }
        Ok(total)
    }
}

/// The job's grid swept in this process with `run_shard` (or
/// `run_shard_pruned`), as the fleet's workers would: wall ms and frontier.
fn direct_run(payload: &str) -> Result<(f64, String), String> {
    let job = ScenarioJobResolver.resolve(payload)?;
    let start = Instant::now();
    let run = if job.prune {
        run_shard_pruned(&job.spec, &job.vi, &job.grid, Shard::full(), &job.cfg)
    } else {
        run_shard(&job.spec, &job.vi, &job.grid, Shard::full(), &job.cfg)
    };
    let bytes = frontier_json(&job.desc, &run);
    Ok((start.elapsed().as_secs_f64() * 1e3, bytes))
}

impl Workload for FleetWork {
    fn op(&mut self) -> Result<String, String> {
        let handle = self.handle.as_ref().ok_or("fleet already stopped")?;
        self.jobs += 1;
        handle.submit(&self.payload)
    }

    fn traced_op(&mut self, _cx: &OpCtx) -> Result<(String, Counters), String> {
        // The op's root span is the submit itself; the resolver adds the
        // `fleet.resolve` children from every thread that resolves the job.
        Ok((self.op()?, Counters::new()))
    }

    fn expected(&self) -> &str {
        &self.expected
    }

    fn direct_ms(&mut self) -> Result<Option<f64>, String> {
        let (ms, bytes) = direct_run(&self.payload)?;
        if bytes != self.expected {
            return Err("direct run_shard frontier changed between runs".to_string());
        }
        Ok(Some(ms))
    }

    fn finish(mut self: Box<Self>) -> Result<Counters, String> {
        let stats = self.stop()?;
        let jobs = self.jobs.max(1) as f64;
        Ok(Counters::from([
            ("fleet.leases_per_job", stats.leases as f64 / jobs),
            ("fleet.deltas_per_job", stats.deltas as f64 / jobs),
            ("fleet.abandoned", stats.abandoned as f64),
        ]))
    }
}

impl Drop for FleetWork {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_seed_keeps_the_committed_text() {
        for name in NAMES {
            let (base, _) = base_scenario(name).unwrap();
            assert_eq!(scenario_text(base, DEFAULT_SEED), base);
        }
    }

    #[test]
    fn other_seeds_rewrite_only_the_declared_seeds() {
        let flow = Scenario::from_json(&scenario_text(BASELINE, 7)).unwrap();
        let base = Scenario::from_json(BASELINE).unwrap();
        assert_eq!(flow.synthesis.seed, 7);
        assert_eq!(flow.floorplan.seed, 7);
        assert_eq!(flow.sim.as_ref().unwrap().config.seed, 7);
        assert_eq!(flow.sweep, base.sweep);
        assert_eq!(flow.shutdown, base.shutdown);

        // No sim stage is added where none is declared.
        let grid = Scenario::from_json(&scenario_text(DYNAMIC_GRID, 7)).unwrap();
        assert!(grid.sim.is_none());
        assert_eq!(
            grid.dyn_sweep,
            Scenario::from_json(DYNAMIC_GRID).unwrap().dyn_sweep
        );
    }
}
