//! Island shutdown scenarios: drain, gate, and verify surviving traffic.

use crate::cell::{run_dynamic_cell, DRAIN_POLLS};
use crate::engine::SimConfig;
use vi_noc_core::Topology;
use vi_noc_soc::{SocSpec, ViAssignment};

/// A shutdown experiment: gate `island` partway through a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownScenario {
    /// The (real) island to power-gate.
    pub island: usize,
    /// Time to stop flows touching the island, ns.
    pub stop_at_ns: u64,
    /// Extra drain time before gating, ns.
    pub drain_ns: u64,
    /// Additional runtime after gating, ns.
    pub post_gate_ns: u64,
}

impl Default for ShutdownScenario {
    fn default() -> Self {
        ShutdownScenario {
            island: 0,
            stop_at_ns: 30_000,
            drain_ns: 10_000,
            post_gate_ns: 60_000,
        }
    }
}

/// Outcome of a shutdown scenario run.
///
/// Compares exactly (`PartialEq`), so the batching equivalence suite can
/// assert that event-batched and cycle-stepped scenario runs agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShutdownOutcome {
    /// Packets delivered by surviving flows before the gate.
    pub survivors_before: u64,
    /// Packets delivered by surviving flows after the gate.
    pub survivors_after: u64,
    /// Packets delivered in total.
    pub total_delivered: u64,
    /// `true` if the gated island's switches were empty at gating time.
    pub drained_cleanly: bool,
}

/// Runs the scenario: all flows run normally until `stop_at_ns`; flows
/// terminating in the gated island are then deactivated; after the drain
/// the island is power-gated (panics if flits remain — which would indicate
/// a shutdown-unsafe topology); surviving flows keep running to the end.
///
/// A wrapper around [`run_dynamic_cell`], the one stop/drain/gate driver,
/// for callers that treat an island that does not drain as a bug. Callers
/// that must survive one (the `vi-noc` pipeline, dynamic sweeps) call
/// [`run_dynamic_cell`] directly.
///
/// # Panics
///
/// Panics if `scenario.island` cannot be shut down under `vi` (always-on),
/// or if the island does not drain within [`DRAIN_POLLS`] polls of
/// `drain_ns` — foreign traffic routed through the gated island (the very
/// failure mode the synthesis prevents), or a backlog too large for the
/// drain budget.
pub fn run_shutdown_scenario(
    spec: &SocSpec,
    vi: &ViAssignment,
    topo: &Topology,
    cfg: &SimConfig,
    scenario: &ShutdownScenario,
) -> ShutdownOutcome {
    run_dynamic_cell(spec, vi, topo, cfg, 0, Some(scenario))
        .gated_outcome()
        .unwrap_or_else(|| {
            panic!(
                "island {} failed to drain after {DRAIN_POLLS}x{} ns — traffic is stuck there",
                scenario.island, scenario.drain_ns
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_noc_core::{synthesize, SynthesisConfig};
    use vi_noc_soc::{benchmarks, partition};

    fn design(k: usize) -> (SocSpec, ViAssignment, Topology) {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, k).unwrap();
        let space = synthesize(&soc, &vi, &SynthesisConfig::default()).unwrap();
        let topo = space.min_power_point().unwrap().topology.clone();
        (soc, vi, topo)
    }

    #[test]
    fn surviving_traffic_continues_after_gating() {
        let (soc, vi, topo) = design(6);
        // Gate a shutdown-capable island that is not the memory island.
        let island = (0..vi.island_count())
            .find(|&j| vi.can_shutdown(j))
            .expect("some island can shut down");
        let outcome = run_shutdown_scenario(
            &soc,
            &vi,
            &topo,
            &SimConfig::default(),
            &ShutdownScenario {
                island,
                ..ShutdownScenario::default()
            },
        );
        assert!(outcome.drained_cleanly);
        assert!(
            outcome.survivors_after > 0,
            "surviving flows must keep delivering after the gate"
        );
        // Post-gate phase is 2x the pre-gate phase: survivors should deliver
        // at least as many packets after as before.
        assert!(
            outcome.survivors_after >= outcome.survivors_before,
            "throughput collapsed after gating: {} then {}",
            outcome.survivors_before,
            outcome.survivors_after
        );
    }

    #[test]
    fn every_gateable_island_can_be_gated() {
        let (soc, vi, topo) = design(6);
        for island in 0..vi.island_count() {
            if !vi.can_shutdown(island) {
                continue;
            }
            let outcome = run_shutdown_scenario(
                &soc,
                &vi,
                &topo,
                &SimConfig::default(),
                &ShutdownScenario {
                    island,
                    stop_at_ns: 15_000,
                    drain_ns: 8_000,
                    post_gate_ns: 20_000,
                },
            );
            assert!(outcome.drained_cleanly, "island {island}");
        }
    }

    #[test]
    #[should_panic(expected = "always-on")]
    fn gating_always_on_island_is_rejected() {
        let (soc, vi, topo) = design(6);
        let always_on = (0..vi.island_count())
            .find(|&j| !vi.can_shutdown(j))
            .expect("memory island is always-on");
        run_shutdown_scenario(
            &soc,
            &vi,
            &topo,
            &SimConfig::default(),
            &ShutdownScenario {
                island: always_on,
                ..ShutdownScenario::default()
            },
        );
    }
}
