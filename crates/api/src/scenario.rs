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
use vi_noc_core::{json, realize_on_floorplan, synthesize, SynthesisConfig, Topology};
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

impl ShutdownPlan {
    /// The simulator's schedule for this plan under `vi`, its island choice
    /// resolved by [`Scenario::resolve_shutdown_island`].
    fn schedule(&self, vi: &ViAssignment) -> Result<ShutdownScenario, Error> {
        Ok(ShutdownScenario {
            island: Scenario::resolve_shutdown_island(self, vi)?,
            stop_at_ns: self.stop_at_ns,
            drain_ns: self.drain_ns,
            post_gate_ns: self.post_gate_ns,
        })
    }
}

/// The coarse-to-fine refinement stage of a scenario's sweep: after the
/// coarse grid's frontier is folded, windows are placed around its
/// surviving points ([`vi_noc_sweep::windows_from_frontier`]) and the fine
/// grid is swept only inside them. The report's frontier becomes the
/// refined emission, whose descriptor records the windows; `vi-noc sweep
/// refine --scenario FILE` sweeps the same windows, shard by shard.
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// Resolves the partition plan against `spec`, and checks that under
    /// it the `sweep` and `refine` grids number their candidates within
    /// 2^53, the largest ordinal a frontier file or checkpoint records.
    /// Every entry point that sweeps resolves the partition first.
    ///
    /// # Errors
    ///
    /// Unrealizable island counts ([`vi_noc_soc::PartitionError`]), and
    /// grids too large to number.
    pub fn resolve_partition(&self, spec: &SocSpec) -> Result<ViAssignment, Error> {
        let vi = match self.partition {
            PartitionPlan::Logical { islands } => partition::logical_partition(spec, islands)?,
            PartitionPlan::Communication { islands, seed } => {
                partition::communication_partition(spec, islands, seed)?
            }
        };
        if let Some(grid) = &self.sweep {
            check_ordinals(grid, &vi, "sweep")?;
        }
        if let Some(plan) = &self.refine {
            check_ordinals(&plan.grid, &vi, "refine.grid")?;
        }
        Ok(vi)
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
    /// A simulated stage that would generate more than 2^24 packets, and any
    /// stage failure, through the unified [`Error`].
    pub fn run(&self) -> Result<Report, Error> {
        let spec = self.resolve_spec()?;
        self.check_stage_budgets(&spec)?;
        let vi = self.resolve_partition(&spec)?;
        let space = synthesize(&spec, &vi, &self.synthesis)?;
        let point = space
            .min_power_point()
            .expect("synthesize never returns an empty space");

        let sim_cfg = self.sim_config();
        let shutdown = self
            .shutdown
            .as_ref()
            .map(|p| p.schedule(&vi))
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
                let shutdown =
                    shutdown.map(|run| shutdown_stage(&spec, &vi, &point.topology, &sim_cfg, &run));
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

    /// Rejects each simulated stage that would generate more than
    /// [`MAX_STAGE_PACKETS`] packets of `spec`'s traffic, or whose span in
    /// picoseconds does not fit a `u64`: the `sim` stage over its horizon,
    /// the `shutdown` stage over its longest timeline at the sim's load,
    /// and the worst `dyn_sweep` cell. An overloaded NI stages every packet
    /// it cannot inject, so such a stage would exhaust memory, or run for
    /// as long as it has packets to generate.
    fn check_stage_budgets(&self, spec: &SocSpec) -> Result<(), Error> {
        let sim = self.sim_config();
        let bytes_per_s: f64 = spec
            .flow_ids()
            .map(|f| spec.flow(f).bandwidth.bytes_per_s())
            .sum();
        let check = |stage: &str, span_ns: Option<u64>, load: f64| {
            let span_ps = span_ns
                .and_then(|ns| ns.checked_mul(1_000))
                .ok_or_else(|| {
                    Error::scenario(
                        stage,
                        "the simulated span does not fit a u64 of picoseconds",
                    )
                })?;
            let packets = bytes_per_s * load * (span_ps as f64 * 1e-12) / sim.packet_bytes as f64;
            if packets > MAX_STAGE_PACKETS as f64 {
                return Err(Error::scenario(
                    stage,
                    format!(
                        "would generate about {packets:.3e} packets, more than the \
                         {MAX_STAGE_PACKETS} one stage may: shorten it, or lower its load, \
                         or raise sim.packet_bytes"
                    ),
                ));
            }
            Ok(())
        };
        if let Some(plan) = &self.sim {
            check("sim", Some(plan.horizon_ns), sim.load_factor)?;
        }
        if let Some(plan) = &self.shutdown {
            check("shutdown", shutdown_span_ns(plan), sim.load_factor)?;
        }
        if let Some(plan) = &self.dyn_sweep {
            let span = plan.schedules.iter().try_fold(0, |max: u64, s| {
                Some(max.max(s.as_ref().map_or(Some(plan.horizon_ns), shutdown_span_ns)?))
            });
            let load = plan.loads.iter().copied().fold(0.0, f64::max);
            check("dyn_sweep", span, load)?;
        }
        Ok(())
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
            .map(|s| s.as_ref().map(|p| p.schedule(vi)).transpose())
            .collect::<Result<_, Error>>()?;
        let axes = SimAxes {
            loads: plan.loads.clone(),
            traffic: plan.traffic.clone(),
            schedules,
            horizon_ns: plan.horizon_ns,
        };
        let sim = self.sim_config();
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

    /// The engine parameters of every simulated stage: the `sim` stage's,
    /// or the defaults when none is declared (the shutdown experiment and
    /// the dynamic sweep drive their own simulators either way).
    fn sim_config(&self) -> SimConfig {
        self.sim
            .as_ref()
            .map(|p| p.config.clone())
            .unwrap_or_default()
    }
}

/// The most packets one simulated stage may generate. Each packet an
/// overloaded NI cannot inject stays staged (8 bytes), so this bounds a
/// stage's backlog to 128 MiB; the largest committed stage
/// (`d26_saturated`'s shutdown) generates about 137k.
const MAX_STAGE_PACKETS: u64 = 1 << 24;

/// The longest a shutdown timeline runs, ns: to `stop_at_ns`, then
/// [`DRAIN_POLLS`] drain polls, then `post_gate_ns`. `None` past `u64`.
fn shutdown_span_ns(plan: &ShutdownPlan) -> Option<u64> {
    plan.drain_ns
        .checked_mul(DRAIN_POLLS)?
        .checked_add(plan.stop_at_ns)?
        .checked_add(plan.post_gate_ns)
}

/// Rejects a grid whose candidate ordinals could pass 2^53 under `vi`.
/// Every ordinal is below `|freq_scales| × (largest island's core count) ×
/// (max_boost + 1)^islands × (max_intermediate + 1)`: a chain per scale,
/// base sweep index and boost code, a candidate per intermediate count.
fn check_ordinals(grid: &GridConfig, vi: &ViAssignment, ctx: &str) -> Result<(), Error> {
    let largest = (0..vi.island_count()).map(|j| vi.island_size(j)).max();
    let bound = u32::try_from(vi.island_count())
        .ok()
        .and_then(|n| (grid.max_boost as u64).checked_add(1)?.checked_pow(n))
        .and_then(|codes| codes.checked_mul(grid.freq_scales.len() as u64))
        .and_then(|x| x.checked_mul(largest.unwrap_or(1) as u64))
        .and_then(|x| x.checked_mul((grid.max_intermediate as u64).checked_add(1)?));
    match bound {
        Some(n) if n <= json::MAX_EXACT_INT => Ok(()),
        _ => Err(Error::scenario(
            ctx,
            format!(
                "a max_boost of {} over {} islands numbers candidates past 2^53, the most \
                 a frontier file can record",
                grid.max_boost,
                vi.island_count()
            ),
        )),
    }
}

/// The shutdown stage's body: gates `run.island` on `topology` as `run`
/// schedules.
///
/// # Errors
///
/// The island does not drain within [`DRAIN_POLLS`] × `run.drain_ns`.
fn shutdown_stage(
    spec: &SocSpec,
    vi: &ViAssignment,
    topology: &Topology,
    sim_cfg: &SimConfig,
    run: &ShutdownScenario,
) -> Result<ShutdownReport, Error> {
    let cell = run_dynamic_cell(spec, vi, topology, sim_cfg, 0, Some(run));
    let outcome = cell.gated_outcome().ok_or_else(|| {
        Error::scenario(
            "shutdown",
            format!(
                "island {} did not drain within {DRAIN_POLLS}x{} ns, so it cannot be gated",
                run.island, run.drain_ns
            ),
        )
    })?;
    Ok(ShutdownReport {
        island: run.island,
        outcome,
    })
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
    fn a_stage_past_the_packet_budget_is_an_error() {
        // d26's flows sum to 1.403e10 B/s, so 200 us at load 16 in 1-byte
        // packets is ~44.9M packets; a drain of 2^53 ns (20 polls of it
        // overflow a u64 of ns) or of 10^15 ns (a u64 of ps) or a horizon
        // of 2^53 ns would keep the survivors injecting for that long.
        let stages = [
            (
                "sim",
                r#""sim":{"traffic":"cbr","load_factor":16,"packet_bytes":1,"horizon_ns":200000}"#,
                "would generate",
            ),
            (
                "shutdown",
                r#""shutdown":{"drain_ns":9007199254740992}"#,
                "fit a u64",
            ),
            (
                "shutdown",
                r#""shutdown":{"drain_ns":1000000000000000}"#,
                "fit a u64",
            ),
            (
                "dyn_sweep",
                r#""sweep":{"max_boost":0,"freq_scales":[1],"max_intermediate":0},
                "dyn_sweep":{"loads":[0.5],"traffic":["cbr"],"schedules":[null],
                    "horizon_ns":9007199254740992,"mode":"exact"}"#,
                "would generate",
            ),
        ];
        for (stage, member, why) in stages {
            let text = format!(
                r#"{{"name":"x","spec":{{"benchmark":"d26"}},
                "partition":{{"kind":"logical","islands":6}},{member}}}"#
            );
            let scenario = Scenario::from_json(&text).unwrap();
            let run = std::panic::catch_unwind(|| scenario.run());
            let err = run.expect("no panic").unwrap_err().to_string();
            assert!(
                err.starts_with(&format!("scenario {stage}: ")) && err.contains(why),
                "{err}"
            );
        }
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
