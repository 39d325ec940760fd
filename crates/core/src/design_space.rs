//! Design points and the explored design space.

use crate::metrics::DesignMetrics;
use crate::pareto::{self, ParetoKey};
use crate::topology::Topology;

/// One feasible design produced by the synthesis sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Sweep index `i` of Algorithm 1 (1 = minimum switch counts).
    pub sweep_index: usize,
    /// Number of intermediate-island switches requested (the topology may
    /// hold fewer after pruning).
    pub requested_intermediate: usize,
    /// Per-island switch counts actually instantiated.
    pub switch_counts: Vec<usize>,
    /// The synthesized topology.
    pub topology: Topology,
    /// Evaluated metrics (with estimated wire lengths; see
    /// [`crate::realize_on_floorplan`] for floorplan-accurate numbers).
    pub metrics: DesignMetrics,
}

impl DesignPoint {
    /// The point's Pareto dominance key: total power and mean latency, with
    /// `ordinal` as the stable exploration index used for tie-breaking.
    pub fn pareto_key(&self, ordinal: u64) -> ParetoKey {
        ParetoKey {
            power_mw: self.metrics.noc_dynamic_power().mw(),
            latency_cycles: self.metrics.avg_latency_cycles,
            ordinal,
        }
    }
}

/// All design points found by [`crate::synthesize`], in exploration order.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Benchmark name the space was synthesized for.
    pub spec_name: String,
    /// Number of (real) voltage islands.
    pub island_count: usize,
    /// Feasible design points.
    pub points: Vec<DesignPoint>,
}

impl DesignSpace {
    /// The dominance key of every point, in exploration order (the key's
    /// ordinal is the point's index in [`DesignSpace::points`]).
    pub fn pareto_keys(&self) -> Vec<ParetoKey> {
        self.points
            .iter()
            .enumerate()
            .map(|(i, p)| p.pareto_key(i as u64))
            .collect()
    }

    /// The design point with the lowest total NoC dynamic power.
    pub fn min_power_point(&self) -> Option<&DesignPoint> {
        pareto::argmin(&self.points, |p| p.metrics.noc_dynamic_power().mw())
            .map(|i| &self.points[i])
    }

    /// The power/latency Pareto front (lower is better on both axes),
    /// ordered by increasing power.
    ///
    /// This is the paper's §3.2 deliverable: "several design points that
    /// meet the application constraints … the designer can then choose the
    /// best design point from the trade-off curves obtained". Dominance is
    /// the shared [`crate::pareto`] relation, so this front is bit-identical
    /// to what the streaming sharded sweep (`vi-noc-sweep`) folds from the
    /// same outcomes.
    pub fn pareto_front(&self) -> Vec<&DesignPoint> {
        pareto::front_of(&self.pareto_keys())
            .into_iter()
            .map(|i| &self.points[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthesisConfig;
    use crate::synthesis::synthesize;
    use vi_noc_soc::{benchmarks, partition};

    fn space() -> DesignSpace {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 4).unwrap();
        synthesize(&soc, &vi, &SynthesisConfig::default()).expect("feasible")
    }

    #[test]
    fn exploration_yields_multiple_points() {
        let s = space();
        assert!(
            s.points.len() >= 3,
            "expected several design points, got {}",
            s.points.len()
        );
        assert_eq!(s.island_count, 4);
        assert_eq!(s.spec_name, "d26_mobile");
    }

    #[test]
    fn extrema_are_consistent() {
        let s = space();
        let min_p = s.min_power_point().unwrap();
        for p in &s.points {
            assert!(min_p.metrics.noc_dynamic_power() <= p.metrics.noc_dynamic_power());
        }
    }

    #[test]
    fn pareto_front_is_monotone() {
        let s = space();
        let front = s.pareto_front();
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].metrics.noc_dynamic_power() <= w[1].metrics.noc_dynamic_power());
            assert!(w[0].metrics.avg_latency_cycles > w[1].metrics.avg_latency_cycles);
        }
        // The front contains the extrema.
        let min_p = s.min_power_point().unwrap().metrics.noc_dynamic_power();
        assert!((front[0].metrics.noc_dynamic_power().mw() - min_p.mw()).abs() < 1e-9);
    }

    #[test]
    fn points_carry_their_sweep_provenance() {
        let s = space();
        for p in &s.points {
            assert!(p.sweep_index >= 1);
            assert_eq!(p.switch_counts.len(), 4);
            let total: usize = p.switch_counts.iter().sum();
            assert!(total >= 4, "at least one switch per island");
        }
    }
}
