//! The typestate pipeline: spec → synthesize → floorplan → simulate.
//!
//! Each stage is a distinct type, so the compiler enforces the paper's
//! flow — you cannot simulate a design that has not been realized on a
//! floorplan, or realize one that has not been synthesized:
//!
//! ```
//! use vi_noc_api::Scenario;
//! use vi_noc_core::SynthesisConfig;
//! use vi_noc_floorplan::FloorplanConfig;
//! use vi_noc_sim::SimConfig;
//! use vi_noc_soc::{benchmarks, partition};
//!
//! let soc = benchmarks::d12_auto();
//! let vi = partition::logical_partition(&soc, 4)?;
//! let fp = FloorplanConfig { iterations: 2_000, ..FloorplanConfig::default() };
//! let simulated = Scenario::for_spec(soc, vi)
//!     .synthesize(&SynthesisConfig::default())?
//!     .floorplan(&fp)
//!     .simulate(&SimConfig::default(), 20_000);
//! assert!(simulated.stats().total_delivered_packets() > 0);
//! # Ok::<(), vi_noc_api::Error>(())
//! ```
//!
//! Every stage calls exactly the public function the hand-chained flow
//! would (`synthesize`, `realize_on_floorplan`, `Simulator::run_for_ns`,
//! `run_dynamic_cell`, the driver under `run_shutdown_scenario`), so
//! pipeline outputs are bit-identical to chaining those calls yourself —
//! pinned by `crates/api/tests/byte_identity.rs`.
//!
//! The sim and shutdown stage bodies ([`run_sim`], [`shutdown_stage`])
//! take the topology to simulate as an argument. The typestate methods
//! pass the floorplan-realized one; [`Scenario::run`] passes the chosen
//! point's, so it can run them while the floorplan anneals. Both give the
//! same results because the engine never reads link lengths, the only
//! thing realization changes (`crates/api/tests/stage_overlap.rs`).

use crate::error::Error;
use crate::report::{Report, ShutdownReport, SimReport};
use crate::scenario::{Scenario, ShutdownPlan};
use vi_noc_core::{
    realize_on_floorplan, synthesize, DesignPoint, DesignSpace, RealizedDesign, SynthesisConfig,
    Topology,
};
use vi_noc_floorplan::FloorplanConfig;
use vi_noc_sim::{
    measured_power, run_dynamic_cell, MeasuredPower, ShutdownScenario, SimConfig, SimStats,
    Simulator, DRAIN_POLLS,
};
use vi_noc_soc::{SocSpec, ViAssignment};

/// A staged pipeline run. `S` is the stage marker: [`Specified`] →
/// [`Synthesized`] → [`Realized`] → [`Simulated`].
#[derive(Debug, Clone)]
pub struct Pipeline<S> {
    spec: SocSpec,
    vi: ViAssignment,
    cfg: SynthesisConfig,
    stage: S,
}

/// Stage 0: a validated-spec + island-assignment pair, nothing synthesized.
#[derive(Debug, Clone)]
pub struct Specified(());

/// Stage 1: the explored design space (analytic wire-length estimates).
#[derive(Debug, Clone)]
pub struct Synthesized {
    space: DesignSpace,
}

/// Stage 2: the chosen point realized on a floorplan (measured wires).
#[derive(Debug, Clone)]
pub struct Realized {
    space: DesignSpace,
    design: RealizedDesign,
}

/// Stage 3: flit-level simulation statistics over the realized design.
#[derive(Debug, Clone)]
pub struct Simulated {
    space: DesignSpace,
    design: RealizedDesign,
    horizon_ns: u64,
    stats: SimStats,
    measured: Option<MeasuredPower>,
}

impl<S> Pipeline<S> {
    /// The SoC spec this pipeline runs over.
    pub fn spec(&self) -> &SocSpec {
        &self.spec
    }

    /// The core → voltage-island assignment.
    pub fn vi(&self) -> &ViAssignment {
        &self.vi
    }
}

impl Pipeline<Specified> {
    pub(crate) fn new(spec: SocSpec, vi: ViAssignment) -> Self {
        Pipeline {
            spec,
            vi,
            cfg: SynthesisConfig::default(),
            stage: Specified(()),
        }
    }

    /// Runs the paper's Algorithm 1 and advances to [`Synthesized`].
    ///
    /// # Errors
    ///
    /// Invalid specs and infeasible design spaces, via the unified
    /// [`Error`].
    pub fn synthesize(self, cfg: &SynthesisConfig) -> Result<Pipeline<Synthesized>, Error> {
        let space = synthesize(&self.spec, &self.vi, cfg)?;
        Ok(Pipeline {
            spec: self.spec,
            vi: self.vi,
            cfg: cfg.clone(),
            stage: Synthesized { space },
        })
    }
}

impl Pipeline<Synthesized> {
    /// The explored design space.
    pub fn space(&self) -> &DesignSpace {
        &self.stage.space
    }

    /// Realizes the minimum-power design point on a floorplan and advances
    /// to [`Realized`].
    pub fn floorplan(self, fp_cfg: &FloorplanConfig) -> Pipeline<Realized> {
        let design = self.realize(fp_cfg);
        self.with_design(design)
    }

    /// The chosen (minimum-power) design point.
    pub(crate) fn chosen_point(&self) -> &DesignPoint {
        min_power_point(&self.stage.space)
    }

    /// The floorplan stage's body: realizes the chosen point without
    /// consuming the stage, so the point can be simulated meanwhile.
    pub(crate) fn realize(&self, fp_cfg: &FloorplanConfig) -> RealizedDesign {
        realize_on_floorplan(&self.spec, &self.vi, self.chosen_point(), fp_cfg, &self.cfg)
    }

    /// Advances to [`Realized`] with a design [`Pipeline::realize`] made.
    pub(crate) fn with_design(self, design: RealizedDesign) -> Pipeline<Realized> {
        Pipeline {
            spec: self.spec,
            vi: self.vi,
            cfg: self.cfg,
            stage: Realized {
                design,
                space: self.stage.space,
            },
        }
    }
}

/// Shared by the post-floorplan stages.
macro_rules! realized_accessors {
    ($stage:ty) => {
        impl Pipeline<$stage> {
            /// The explored design space.
            pub fn space(&self) -> &DesignSpace {
                &self.stage.space
            }

            /// The chosen (minimum-power) design point.
            pub fn chosen_point(&self) -> &DesignPoint {
                min_power_point(&self.stage.space)
            }

            /// The floorplan-realized design.
            pub fn design(&self) -> &RealizedDesign {
                &self.stage.design
            }

            /// Runs the island-shutdown experiment on the realized
            /// topology with engine parameters `sim_cfg`.
            ///
            /// # Errors
            ///
            /// Unresolvable island choices (out of range, always-on, or no
            /// gateable island for `Auto`), and an island that does not
            /// drain within the drain budget.
            pub fn run_shutdown(
                &self,
                sim_cfg: &SimConfig,
                plan: &ShutdownPlan,
            ) -> Result<ShutdownReport, Error> {
                let island = Scenario::resolve_shutdown_island(plan, &self.vi)?;
                shutdown_stage(
                    &self.spec,
                    &self.vi,
                    &self.stage.design.topology,
                    sim_cfg,
                    island,
                    plan,
                )
            }
        }
    };
}

realized_accessors!(Realized);
realized_accessors!(Simulated);

impl Pipeline<Realized> {
    /// Simulates `horizon_ns` of traffic over the realized design and
    /// advances to [`Simulated`]. Observed activity is priced with the
    /// synthesis power models when the horizon is non-empty.
    pub fn simulate(self, sim_cfg: &SimConfig, horizon_ns: u64) -> Pipeline<Simulated> {
        let stats = run_sim(&self.spec, &self.stage.design.topology, sim_cfg, horizon_ns);
        self.with_sim_stats(sim_cfg, horizon_ns, stats)
    }

    /// Advances to [`Simulated`] with `stats` from [`run_sim`], priced on
    /// the realized topology (the only step that reads link lengths).
    pub(crate) fn with_sim_stats(
        self,
        sim_cfg: &SimConfig,
        horizon_ns: u64,
        stats: SimStats,
    ) -> Pipeline<Simulated> {
        let measured = (stats.elapsed_ps > 0).then(|| {
            measured_power(
                &self.spec,
                &self.stage.design.topology,
                &self.cfg,
                &stats,
                sim_cfg.packet_bytes as f64,
            )
        });
        Pipeline {
            spec: self.spec,
            vi: self.vi,
            cfg: self.cfg,
            stage: Simulated {
                space: self.stage.space,
                design: self.stage.design,
                horizon_ns,
                stats,
                measured,
            },
        }
    }

    /// Freezes this stage into a [`Report`] (no sim/shutdown/frontier
    /// sections; [`Scenario::run`] fills those in as declared).
    pub fn into_report(self, scenario_name: &str) -> Report {
        report_base(
            scenario_name,
            &self.vi,
            &self.stage.space,
            self.stage.design,
        )
    }
}

impl Pipeline<Simulated> {
    /// The simulation statistics (bit-identical to driving
    /// [`Simulator::run_for_ns`] by hand).
    pub fn stats(&self) -> &SimStats {
        &self.stage.stats
    }

    /// Observed activity priced with the synthesis power models (`None`
    /// for an empty horizon).
    pub fn measured(&self) -> Option<&MeasuredPower> {
        self.stage.measured.as_ref()
    }

    /// Freezes this stage into a [`Report`] with the sim section filled.
    pub fn into_report(self, scenario_name: &str) -> Report {
        let sim = SimReport {
            horizon_ns: self.stage.horizon_ns,
            stats: self.stage.stats,
            measured: self.stage.measured,
        };
        let mut report = report_base(
            scenario_name,
            &self.vi,
            &self.stage.space,
            self.stage.design,
        );
        report.sim = Some(sim);
        report
    }
}

/// The sim stage's body: `horizon_ns` of traffic on `topology`, either the
/// chosen point's or its realized copy (the engine never reads link
/// lengths).
pub(crate) fn run_sim(
    spec: &SocSpec,
    topology: &Topology,
    sim_cfg: &SimConfig,
    horizon_ns: u64,
) -> SimStats {
    Simulator::new(spec, topology, sim_cfg).run_for_ns(horizon_ns)
}

/// The shutdown stage's body: gates the resolved `island` on `topology`
/// (the chosen point's or its realized copy) as `plan` schedules.
///
/// # Errors
///
/// The island does not drain within [`DRAIN_POLLS`] × `plan.drain_ns`.
pub(crate) fn shutdown_stage(
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

/// The space's minimum-power point. (The space is non-empty by
/// construction — `synthesize` fails rather than return an empty space.)
fn min_power_point(space: &DesignSpace) -> &DesignPoint {
    space
        .min_power_point()
        .expect("synthesize never returns an empty space")
}

fn report_base(
    scenario_name: &str,
    vi: &ViAssignment,
    space: &DesignSpace,
    design: RealizedDesign,
) -> Report {
    Report {
        scenario: scenario_name.to_string(),
        spec_name: space.spec_name.clone(),
        island_count: vi.island_count(),
        explored_points: space.points.len(),
        point: min_power_point(space).clone(),
        realized_metrics: design.metrics.clone(),
        infeasible_links: design.infeasible_links.len(),
        sim: None,
        shutdown: None,
        frontier: None,
        dyn_sweep: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_noc_soc::{benchmarks, partition};

    fn quick_fp() -> FloorplanConfig {
        FloorplanConfig {
            iterations: 2_000,
            ..FloorplanConfig::default()
        }
    }

    #[test]
    fn stages_chain_and_accessors_expose_results() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let synthd = Scenario::for_spec(soc, vi)
            .synthesize(&SynthesisConfig::default())
            .unwrap();
        assert!(!synthd.space().points.is_empty());
        let realized = synthd.floorplan(&quick_fp());
        assert!(realized.design().metrics.noc_dynamic_power().mw() > 0.0);
        let simulated = realized.simulate(&SimConfig::default(), 20_000);
        assert!(simulated.stats().total_delivered_packets() > 0);
        assert!(simulated.measured().is_some());
        let report = simulated.into_report("pipeline test");
        assert_eq!(report.spec_name, "d12_auto");
        assert!(report.sim.is_some());
    }

    #[test]
    fn empty_horizon_skips_power_pricing() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 2).unwrap();
        let simulated = Scenario::for_spec(soc, vi)
            .synthesize(&SynthesisConfig::default())
            .unwrap()
            .floorplan(&quick_fp())
            .simulate(&SimConfig::default(), 0);
        assert!(simulated.measured().is_none());
        assert_eq!(simulated.stats().total_delivered_packets(), 0);
    }

    #[test]
    fn shutdown_runs_from_the_realized_stage() {
        let soc = benchmarks::d12_auto();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        let realized = Scenario::for_spec(soc, vi)
            .synthesize(&SynthesisConfig::default())
            .unwrap()
            .floorplan(&quick_fp());
        let report = realized
            .run_shutdown(&SimConfig::default(), &ShutdownPlan::default())
            .unwrap();
        assert!(report.outcome.drained_cleanly);
        assert!(realized.vi().can_shutdown(report.island));
    }
}
