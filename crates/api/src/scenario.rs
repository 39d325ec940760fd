//! The declarative experiment description: everything the paper's flow
//! needs — spec, partition, synthesis, floorplan, simulation, shutdown
//! schedule, sweep grid — as one data value.
//!
//! A [`Scenario`] is the unit of work of the `vi-noc` CLI: parsed from
//! JSON ([`Scenario::from_json`]), executed end to end ([`Scenario::run`]),
//! and re-emitted byte-deterministically ([`Scenario::to_json`]).
//! Programmatic callers that want one stage at a time chain the stage
//! functions `Scenario::run` calls (`synthesize`, `realize_on_floorplan`,
//! `Simulator::run_for_ns`, `run_shutdown_scenario`) themselves, as the
//! examples do.

use crate::error::Error;
use crate::report::{Report, ShutdownReport, SimReport};
use vi_noc_core::{realize_on_floorplan, synthesize, SynthesisConfig, Topology};
use vi_noc_dynsweep::{run_dynsweep, DynSweepInput, Mode, SimAxes};
use vi_noc_floorplan::FloorplanConfig;
use vi_noc_sim::{
    measured_power, run_dynamic_cell, ShutdownScenario, SimConfig, Simulator, TrafficKind,
    DRAIN_POLLS,
};
use vi_noc_soc::{benchmarks, partition, SocSpec, ViAssignment};
use vi_noc_sweep::{
    frontier_json, frontier_seeds, parse_frontier_file, run_shard, run_shard_pruned,
    validate_frontier_source, windows_from_frontier, GridConfig, GridDescriptor, RefineParams,
    Shard, SweepGrid,
};

/// Where the SoC spec comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecSource {
    /// One of the bundled benchmarks (`d12`, `d16`, `d20`, `d26`, `d36`).
    Benchmark(String),
    /// A complete inline spec (custom workloads need no Rust edits).
    Inline(SocSpec),
}

/// How cores are assigned to voltage islands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionPlan {
    /// Group by functionality ([`partition::logical_partition`]).
    Logical {
        /// Number of voltage islands.
        islands: usize,
    },
    /// Min-cut clustering of the traffic graph
    /// ([`partition::communication_partition`]).
    Communication {
        /// Number of voltage islands.
        islands: usize,
        /// Partitioner seed.
        seed: u64,
    },
}

impl PartitionPlan {
    /// The provenance tag recorded in sweep checkpoints, frontier files and
    /// dynsweep tables (`logical:6`, `comm:6:1`); `sweep refine` checks it
    /// against the coarse frontier it refines.
    pub fn tag(&self) -> String {
        match self {
            PartitionPlan::Logical { islands } => format!("logical:{islands}"),
            PartitionPlan::Communication { islands, seed } => format!("comm:{islands}:{seed}"),
        }
    }
}

/// The flit-level simulation stage of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPlan {
    /// Engine parameters.
    pub config: SimConfig,
    /// Simulated horizon, ns.
    pub horizon_ns: u64,
}

impl Default for SimPlan {
    fn default() -> Self {
        SimPlan {
            config: SimConfig::default(),
            horizon_ns: 200_000,
        }
    }
}

/// Which island a shutdown experiment gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IslandChoice {
    /// The first shutdown-capable island of the partition.
    Auto,
    /// An explicit island index (must be shutdown-capable).
    Index(usize),
}

/// The island-shutdown stage of a scenario (the paper's headline
/// experiment: gate an island mid-run, verify survivors keep flowing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownPlan {
    /// The island to gate.
    pub island: IslandChoice,
    /// Time to stop flows touching the island, ns.
    pub stop_at_ns: u64,
    /// Extra drain time before gating, ns.
    pub drain_ns: u64,
    /// Additional runtime after gating, ns.
    pub post_gate_ns: u64,
}

impl Default for ShutdownPlan {
    fn default() -> Self {
        let s = ShutdownScenario::default();
        ShutdownPlan {
            island: IslandChoice::Auto,
            stop_at_ns: s.stop_at_ns,
            drain_ns: s.drain_ns,
            post_gate_ns: s.post_gate_ns,
        }
    }
}

/// The coarse-to-fine refinement stage of a scenario's sweep: after the
/// coarse grid's frontier is folded, windows are placed around its
/// surviving points ([`vi_noc_sweep::windows_from_frontier`]) and the fine
/// grid is swept only inside them. The report's frontier becomes the
/// refined emission, whose descriptor records the windows; `vi-noc sweep
/// refine --scenario FILE` sweeps the same windows, shard by shard.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinePlan {
    /// The fine grid to restrict to windows around the coarse survivors.
    pub grid: GridConfig,
    /// How far each window extends around a surviving point.
    pub params: RefineParams,
}

/// The dynamic-sweep stage of a scenario (requires `sweep`): every design
/// point surviving on the sweep's merged frontier is simulated at every
/// cell of the declarative grid of sim configs `loads × traffic ×
/// schedules`, through [`vi_noc_dynsweep::run_dynsweep`]. No axis may
/// repeat a value.
#[derive(Debug, Clone, PartialEq)]
pub struct DynSweepPlan {
    /// Load-factor axis (each cell overrides the sim stage's load).
    pub loads: Vec<f64>,
    /// Traffic-kind axis.
    pub traffic: Vec<TrafficKind>,
    /// Shutdown-schedule axis; `None` entries are free-running cells.
    pub schedules: Vec<Option<ShutdownPlan>>,
    /// Simulated horizon of free-running cells, ns.
    pub horizon_ns: u64,
    /// The scenario's `"mode"` member. Always [`Mode::Exact`], the only
    /// mode (see [`Mode`] for why the member remains).
    pub mode: Mode,
}

/// A complete experiment, declared as data.
///
/// Build one programmatically, or parse it from JSON
/// ([`Scenario::from_json`]); [`Scenario::run`], the one runner, executes
/// every declared stage and returns the [`Report`] (a scenario without a
/// `sweep` grid has no sweep stage). It calls the hand-chained flow's
/// stages — `synthesize` → `realize_on_floorplan` → `Simulator` →
/// `run_shutdown_scenario` → sharded sweep — except that the `Simulator`
/// runs on the chosen point's topology beside the floorplan and the
/// shutdown. The engine never reads the link lengths the floorplan sets,
/// so the outputs (frontier bytes, `SimStats`) are bit-identical to
/// calling those stages directly, one after another.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Free-form experiment name (report provenance).
    pub name: String,
    /// The SoC under design.
    pub spec: SpecSource,
    /// Core → voltage-island assignment strategy.
    pub partition: PartitionPlan,
    /// Synthesis knobs (paper defaults unless overridden).
    pub synthesis: SynthesisConfig,
    /// Floorplan-realization knobs.
    pub floorplan: FloorplanConfig,
    /// Flit-level simulation stage, if any.
    pub sim: Option<SimPlan>,
    /// Island-shutdown experiment, if any.
    pub shutdown: Option<ShutdownPlan>,
    /// Design-space sweep grid, if any (runs unsharded; `vi-noc sweep run
    /// --scenario FILE --shard I/N` shards the same grid across processes).
    pub sweep: Option<GridConfig>,
    /// Skip boost chains whose slack certificate proves them dominated
    /// (`vi_noc_sweep::run_shard_pruned`). Exact: the emitted frontier is
    /// byte-identical either way.
    pub sweep_prune: bool,
    /// Always `None`: no value of this type exists. The member that routed
    /// the sweep through a loopback fleet is gone (ingestion rejects it as
    /// unknown); the field stays only because the benchmark harness
    /// (`perfbench/`) still reads `sweep_workers.is_some()`, and the next
    /// benchmark change deletes it.
    pub sweep_workers: Option<std::convert::Infallible>,
    /// Coarse-to-fine refinement of the sweep, if any (requires `sweep`).
    pub refine: Option<RefinePlan>,
    /// Dynamic simulation sweep over the frontier, if any (requires
    /// `sweep`; runs after refinement when both are declared).
    pub dyn_sweep: Option<DynSweepPlan>,
}

/// Looks up a bundled benchmark spec by its scenario name.
fn benchmark_by_name(name: &str) -> Option<SocSpec> {
    match name {
        "d12" => Some(benchmarks::d12_auto()),
        "d16" => Some(benchmarks::d16_settop()),
        "d20" => Some(benchmarks::d20_baseband()),
        "d26" => Some(benchmarks::d26_mobile()),
        "d36" => Some(benchmarks::d36_tablet()),
        _ => None,
    }
}

impl Scenario {
    /// A minimal scenario: named spec + partition, every stage at its
    /// defaults, no sim/shutdown/sweep.
    pub fn new(name: impl Into<String>, spec: SpecSource, partition: PartitionPlan) -> Self {
        Scenario {
            name: name.into(),
            spec,
            partition,
            synthesis: SynthesisConfig::default(),
            floorplan: FloorplanConfig::default(),
            sim: None,
            shutdown: None,
            sweep: None,
            sweep_prune: false,
            sweep_workers: None,
            refine: None,
            dyn_sweep: None,
        }
    }

    /// Resolves the spec source into a validated [`SocSpec`].
    ///
    /// # Errors
    ///
    /// Unknown benchmark names and invalid inline specs.
    pub fn resolve_spec(&self) -> Result<SocSpec, Error> {
        let spec = match &self.spec {
            SpecSource::Benchmark(name) => benchmark_by_name(name).ok_or_else(|| {
                Error::scenario(
                    "spec.benchmark",
                    format!("unknown benchmark '{name}' (expected d12|d16|d20|d26|d36)"),
                )
            })?,
            SpecSource::Inline(spec) => spec.clone(),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Resolves the partition plan against `spec`.
    ///
    /// # Errors
    ///
    /// Unrealizable island counts ([`vi_noc_soc::PartitionError`]).
    pub fn resolve_partition(&self, spec: &SocSpec) -> Result<ViAssignment, Error> {
        Ok(match self.partition {
            PartitionPlan::Logical { islands } => partition::logical_partition(spec, islands)?,
            PartitionPlan::Communication { islands, seed } => {
                partition::communication_partition(spec, islands, seed)?
            }
        })
    }

    /// Resolves a shutdown plan's island choice against `vi`.
    ///
    /// # Errors
    ///
    /// No gateable island exists (`Auto`), or the explicit island is out of
    /// range or always-on.
    pub fn resolve_shutdown_island(plan: &ShutdownPlan, vi: &ViAssignment) -> Result<usize, Error> {
        match plan.island {
            IslandChoice::Auto => (0..vi.island_count())
                .find(|&j| vi.can_shutdown(j))
                .ok_or_else(|| {
                    Error::scenario(
                        "shutdown.island",
                        "no island of this partition can shut down",
                    )
                }),
            IslandChoice::Index(j) if j >= vi.island_count() => Err(Error::scenario(
                "shutdown.island",
                format!("island {j} out of range 0..{}", vi.island_count()),
            )),
            IslandChoice::Index(j) if !vi.can_shutdown(j) => Err(Error::scenario(
                "shutdown.island",
                format!("island {j} is always-on and cannot be gated"),
            )),
            IslandChoice::Index(j) => Ok(j),
        }
    }

    /// Executes every declared stage: synthesis, floorplan realization,
    /// then — as declared — simulation, the shutdown experiment, and the
    /// design-space sweep. Returns the complete [`Report`].
    ///
    /// With more than one thread (`rayon::current_num_threads`), the
    /// simulation runs on a second thread while this one realizes the
    /// floorplan and then runs the shutdown experiment; with one, they run
    /// in that order on this thread. The report is the same either way.
    ///
    /// # Errors
    ///
    /// Any stage failure, through the unified [`Error`].
    pub fn run(&self) -> Result<Report, Error> {
        let spec = self.resolve_spec()?;
        let vi = self.resolve_partition(&spec)?;
        let space = synthesize(&spec, &vi, &self.synthesis)?;
        let point = space
            .min_power_point()
            .expect("synthesize never returns an empty space");

        // The shutdown experiment drives its own simulator; it reuses the
        // scenario's engine parameters when a sim stage is declared.
        let sim_cfg = self
            .sim
            .as_ref()
            .map(|p| p.config.clone())
            .unwrap_or_default();
        let shutdown = self
            .shutdown
            .as_ref()
            .map(|plan| Scenario::resolve_shutdown_island(plan, &vi).map(|island| (island, plan)))
            .transpose()?;

        // Neither simulator reads link lengths, the only thing the
        // floorplan changes, so both run on the chosen point's topology:
        // the sim on a second thread while this one realizes the floorplan
        // and then gates the island. Measured power is priced on the
        // realized topology once both are done.
        let ((design, shutdown), stats) = rayon::join(
            || {
                let design =
                    realize_on_floorplan(&spec, &vi, point, &self.floorplan, &self.synthesis);
                let shutdown = shutdown.map(|(island, plan)| {
                    shutdown_stage(&spec, &vi, &point.topology, &sim_cfg, island, plan)
                });
                (design, shutdown)
            },
            || {
                self.sim.as_ref().map(|plan| {
                    Simulator::new(&spec, &point.topology, &plan.config).run_for_ns(plan.horizon_ns)
                })
            },
        );
        let shutdown = shutdown.transpose()?;
        let sim = self.sim.as_ref().zip(stats).map(|(plan, stats)| {
            let measured = (stats.elapsed_ps > 0).then(|| {
                measured_power(
                    &spec,
                    &design.topology,
                    &self.synthesis,
                    &stats,
                    plan.config.packet_bytes as f64,
                )
            });
            SimReport {
                horizon_ns: plan.horizon_ns,
                stats,
                measured,
            }
        });
        let mut report = Report {
            scenario: self.name.clone(),
            spec_name: space.spec_name.clone(),
            island_count: vi.island_count(),
            explored_points: space.points.len(),
            point: point.clone(),
            realized_metrics: design.metrics,
            infeasible_links: design.infeasible_links.len(),
            sim,
            shutdown,
            frontier: None,
            dyn_sweep: None,
        };

        if let Some(coarse) = &self.sweep {
            let frontier = self.run_sweep(&spec, &vi, coarse)?;
            if let Some(plan) = &self.dyn_sweep {
                // Points are regenerated against the full grid the frontier
                // was swept on: windowing never renumbers chains.
                let grid_cfg = self.refine.as_ref().map_or(coarse, |r| &r.grid);
                report.dyn_sweep = Some(self.run_dyn_sweep(&spec, &vi, grid_cfg, plan, &frontier)?);
            }
            report.frontier = Some(frontier);
        } else if self.refine.is_some() {
            return Err(Error::scenario(
                "refine",
                "refinement needs a coarse 'sweep' grid to start from",
            ));
        } else if self.dyn_sweep.is_some() {
            return Err(Error::scenario(
                "dyn_sweep",
                "a dynamic sweep needs a 'sweep' grid whose frontier it sweeps",
            ));
        }
        Ok(report)
    }

    /// Runs the scenario's sweep grid unsharded — with slack-certificate
    /// pruning when `sweep_prune` is set — and, when a [`RefinePlan`] is
    /// declared, sweeps the fine grid [`Scenario::refine_grid`] derives
    /// from the coarse frontier. The returned frontier file is
    /// byte-identical to the `vi-noc sweep run` → `sweep refine` → `sweep
    /// merge` workflow over the same scenario, sharded or not.
    fn run_sweep(
        &self,
        spec: &SocSpec,
        vi: &ViAssignment,
        grid_cfg: &GridConfig,
    ) -> Result<String, Error> {
        let runner = if self.sweep_prune {
            run_shard_pruned
        } else {
            run_shard
        };
        let sweep = |grid: &SweepGrid| {
            let tag = self.partition.tag();
            let desc = GridDescriptor::for_grid(grid, spec.name(), &tag, self.synthesis.seed);
            let run = runner(spec, vi, grid, Shard::full(), &self.synthesis);
            frontier_json(&desc, &run)
        };
        let coarse_file = sweep(&SweepGrid::build(spec, vi, &self.synthesis, grid_cfg));
        let Some(plan) = &self.refine else {
            return Ok(coarse_file);
        };
        Ok(sweep(&self.refine_grid(spec, vi, plan, &coarse_file)?))
    }

    /// The refinement stage's grid: `plan`'s fine grid (the scenario's
    /// `refine` member), restricted to windows around the survivors of
    /// `coarse`, a frontier file swept over this scenario's spec, partition
    /// and seed. The one window derivation, shared by [`Scenario::run`] and
    /// `vi-noc sweep refine`, so both sweep the same windows.
    ///
    /// # Errors
    ///
    /// `coarse` does not parse or comes from another spec, partition or
    /// seed; no window covers the fine grid.
    pub(crate) fn refine_grid(
        &self,
        spec: &SocSpec,
        vi: &ViAssignment,
        plan: &RefinePlan,
        coarse: &str,
    ) -> Result<SweepGrid, Error> {
        let err = |e: String| Error::scenario("refine", format!("coarse frontier: {e}"));
        let parsed = parse_frontier_file(coarse).map_err(err)?;
        // Refining a frontier of a different spec, partition or seed would
        // window the fine grid around points of a different design space.
        let tag = self.partition.tag();
        validate_frontier_source(&parsed, spec.name(), &tag, self.synthesis.seed).map_err(err)?;
        let seeds = frontier_seeds(&parsed).map_err(err)?;
        let windows = windows_from_frontier(&seeds, &plan.grid, &plan.params);
        if windows.is_empty() {
            return Err(Error::scenario(
                "refine",
                "no refinement window covers the fine grid (empty coarse frontier, \
                 or every surviving scale is outside 'scale_window')",
            ));
        }
        let fine = SweepGrid::build_windowed(spec, vi, &self.synthesis, &plan.grid, windows);
        Ok(fine)
    }

    /// Runs `plan` over an emitted frontier file, whose points are
    /// regenerated against `grid_cfg`, the full grid the frontier was swept
    /// on. Returns the result table.
    fn run_dyn_sweep(
        &self,
        spec: &SocSpec,
        vi: &ViAssignment,
        grid_cfg: &GridConfig,
        plan: &DynSweepPlan,
        frontier_text: &str,
    ) -> Result<String, Error> {
        let parsed = parse_frontier_file(frontier_text)
            .map_err(|e| Error::scenario("dyn_sweep", format!("frontier: {e}")))?;
        let grid = SweepGrid::build(spec, vi, &self.synthesis, grid_cfg);
        let schedules: Vec<Option<ShutdownScenario>> = plan
            .schedules
            .iter()
            .map(|s| match s {
                None => Ok(None),
                Some(p) => Ok(Some(ShutdownScenario {
                    island: Scenario::resolve_shutdown_island(p, vi)?,
                    stop_at_ns: p.stop_at_ns,
                    drain_ns: p.drain_ns,
                    post_gate_ns: p.post_gate_ns,
                })),
            })
            .collect::<Result<_, Error>>()?;
        let axes = SimAxes {
            loads: plan.loads.clone(),
            traffic: plan.traffic.clone(),
            schedules,
            horizon_ns: plan.horizon_ns,
        };
        let sim = self
            .sim
            .as_ref()
            .map(|p| p.config.clone())
            .unwrap_or_default();
        let tag = self.partition.tag();
        let input = DynSweepInput {
            spec,
            vi,
            cfg: &self.synthesis,
            sim: &sim,
            grid: &grid,
            partition: &tag,
            frontier: &parsed,
        };
        run_dynsweep(&input, &axes, plan.mode)
            .map(|run| run.table)
            .map_err(|e| Error::scenario("dyn_sweep", e))
    }
}

/// The shutdown stage's body: gates the resolved `island` on `topology`
/// as `plan` schedules.
///
/// # Errors
///
/// The island does not drain within [`DRAIN_POLLS`] × `plan.drain_ns`.
fn shutdown_stage(
    spec: &SocSpec,
    vi: &ViAssignment,
    topology: &Topology,
    sim_cfg: &SimConfig,
    island: usize,
    plan: &ShutdownPlan,
) -> Result<ShutdownReport, Error> {
    let cell = run_dynamic_cell(
        spec,
        vi,
        topology,
        sim_cfg,
        0,
        Some(&ShutdownScenario {
            island,
            stop_at_ns: plan.stop_at_ns,
            drain_ns: plan.drain_ns,
            post_gate_ns: plan.post_gate_ns,
        }),
    );
    let outcome = cell.gated_outcome().ok_or_else(|| {
        Error::scenario(
            "shutdown",
            format!(
                "island {island} did not drain within {DRAIN_POLLS}x{} ns, \
                 so it cannot be gated",
                plan.drain_ns
            ),
        )
    })?;
    Ok(ShutdownReport { island, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_names_resolve() {
        for name in ["d12", "d16", "d20", "d26", "d36"] {
            assert!(benchmark_by_name(name).is_some(), "{name}");
        }
        assert!(benchmark_by_name("d99").is_none());
    }

    #[test]
    fn partition_tags_match_the_sweep_cli_format() {
        assert_eq!(PartitionPlan::Logical { islands: 6 }.tag(), "logical:6");
        assert_eq!(
            PartitionPlan::Communication {
                islands: 4,
                seed: 7
            }
            .tag(),
            "comm:4:7"
        );
    }

    #[test]
    fn unknown_benchmark_is_a_scenario_error() {
        let s = Scenario::new(
            "x",
            SpecSource::Benchmark("d99".into()),
            PartitionPlan::Logical { islands: 2 },
        );
        let err = s.resolve_spec().unwrap_err();
        assert!(err.to_string().contains("unknown benchmark"));
    }

    #[test]
    fn shutdown_island_resolution_rejects_always_on() {
        let spec = benchmark_by_name("d12").unwrap();
        let s = Scenario::new(
            "x",
            SpecSource::Benchmark("d12".into()),
            PartitionPlan::Logical { islands: 4 },
        );
        let vi = s.resolve_partition(&spec).unwrap();
        let auto = Scenario::resolve_shutdown_island(&ShutdownPlan::default(), &vi).unwrap();
        assert!(vi.can_shutdown(auto));
        let always_on = (0..vi.island_count())
            .find(|&j| !vi.can_shutdown(j))
            .unwrap();
        let plan = ShutdownPlan {
            island: IslandChoice::Index(always_on),
            ..ShutdownPlan::default()
        };
        assert!(Scenario::resolve_shutdown_island(&plan, &vi).is_err());
        let plan = ShutdownPlan {
            island: IslandChoice::Index(99),
            ..ShutdownPlan::default()
        };
        assert!(Scenario::resolve_shutdown_island(&plan, &vi).is_err());
    }

    #[test]
    fn dyn_sweep_rejects_auto_and_the_island_it_names_as_a_repeat() {
        // Ingestion sees two different plans; only the resolved schedules
        // show they gate the same island at the same times.
        let mut s = Scenario::new(
            "x",
            SpecSource::Benchmark("d12".into()),
            PartitionPlan::Logical { islands: 4 },
        );
        let vi = s.resolve_partition(&s.resolve_spec().unwrap()).unwrap();
        let auto = ShutdownPlan::default();
        let island = Scenario::resolve_shutdown_island(&auto, &vi).unwrap();
        s.floorplan.iterations = 2_000;
        s.sweep = Some(GridConfig {
            max_boost: 0,
            freq_scales: vec![1.0],
            max_intermediate: 0,
        });
        s.dyn_sweep = Some(DynSweepPlan {
            loads: vec![0.5],
            traffic: vec![TrafficKind::Cbr],
            schedules: vec![
                Some(auto.clone()),
                Some(ShutdownPlan {
                    island: IslandChoice::Index(island),
                    ..auto
                }),
            ],
            horizon_ns: 4_000,
            mode: Mode::Exact,
        });
        let back = Scenario::from_json(&s.to_json()).unwrap();
        let err = back.run().unwrap_err().to_string();
        assert!(err.contains("schedules[1] repeats schedules[0]"), "{err}");
    }

    #[test]
    fn a_refine_radius_of_2_pow_53_runs_and_its_report_reparses() {
        // The largest radius ingestion accepts saturates every window past
        // the fine axes; the frontier must still record integers its own
        // reader takes back, or the dynamic sweep cannot re-read it.
        let text = r#"{"format":"vi-noc-scenario-v1","name":"huge radius",
            "spec":{"benchmark":"d26"},
            "partition":{"kind":"logical","islands":6},
            "sweep":{"max_boost":1,"freq_scales":[1,1.1],"max_intermediate":2},
            "refine":{"grid":{"max_boost":1,"freq_scales":[1,1.05,1.1],"max_intermediate":3},
                "boost_radius":1,"base_radius":9007199254740992,"scale_window":0.05},
            "dyn_sweep":{"loads":[0.5],"traffic":["cbr"],"schedules":[null],
                "horizon_ns":2000,"mode":"exact"}}"#;
        let report = Scenario::from_json(text).unwrap().run().unwrap();
        vi_noc_core::json::parse(&report.to_json()).unwrap();
        parse_frontier_file(report.frontier.as_deref().unwrap()).unwrap();
    }

    #[test]
    fn an_island_that_cannot_drain_is_an_error_not_a_panic() {
        // At twice the spec's load the gated island's backlog needs far
        // more than 20 x 200 ns to flush.
        let text = r#"{"name":"u","spec":{"benchmark":"d12"},
            "partition":{"kind":"logical","islands":4},
            "floorplan":{"iterations":2000},
            "sim":{"load_factor":2,"horizon_ns":5000},
            "shutdown":{"stop_at_ns":5000,"drain_ns":200,"post_gate_ns":1000}}"#;
        let run = std::panic::catch_unwind(|| Scenario::from_json(text).unwrap().run());
        let err = run.expect("no panic").unwrap_err().to_string();
        assert!(
            err.contains("shutdown") && err.contains("island 1") && err.contains("20x200 ns"),
            "{err}"
        );
    }
}
