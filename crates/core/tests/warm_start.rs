//! Warm-start equivalence: the sweep driver shares allocation contexts per
//! sweep index and warm-starts consecutive intermediate-count candidates
//! (see `crates/core/src/paths.rs`), which must be an *exact* optimization.
//! These tests pin the contract: the warm-started sweep — on one thread
//! and on two — produces the same `DesignSpace`, point for point and bit
//! for bit, as the cold per-candidate evaluation.

use proptest::prelude::*;
use vi_noc_core::{
    evaluate_candidate, synthesize, CandidateOutcome, DesignPoint, DesignSpace, SweepPlan,
    SynthesisConfig,
};
use vi_noc_soc::{benchmarks, partition, SocSpec, ViAssignment};

/// Reference implementation: evaluate every candidate cold (fresh context,
/// no warm start, no Duplicate short-circuit) and fold the outcomes exactly
/// like `synthesize` does.
fn cold_space(spec: &SocSpec, vi: &ViAssignment, cfg: &SynthesisConfig) -> Option<DesignSpace> {
    let sweep = SweepPlan::build(spec, vi, cfg);
    let mut points = Vec::new();
    for candidate in sweep.candidates() {
        if let CandidateOutcome::Feasible(p) = evaluate_candidate(spec, vi, &sweep, candidate, cfg)
        {
            points.push(*p);
        }
    }
    if points.is_empty() {
        return None;
    }
    Some(DesignSpace {
        spec_name: spec.name().to_string(),
        island_count: vi.island_count(),
        points,
    })
}

fn assert_points_identical(label: &str, a: &[DesignPoint], b: &[DesignPoint]) {
    assert_eq!(a.len(), b.len(), "{label}: point count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.sweep_index, y.sweep_index, "{label}");
        assert_eq!(
            x.requested_intermediate, y.requested_intermediate,
            "{label}"
        );
        assert_eq!(x.switch_counts, y.switch_counts, "{label}");
        assert_eq!(x.topology, y.topology, "{label}");
        // Metrics are a pure function of the topology; bit-compare the
        // headline numbers anyway to catch any accidental state leak.
        assert_eq!(
            x.metrics.noc_dynamic_power().mw(),
            y.metrics.noc_dynamic_power().mw(),
            "{label}"
        );
        assert_eq!(
            x.metrics.avg_latency_cycles, y.metrics.avg_latency_cycles,
            "{label}"
        );
    }
}

fn check_equivalence(label: &str, spec: &SocSpec, vi: &ViAssignment) {
    let cfg = SynthesisConfig::default();
    let warm_at = |width| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build();
        pool.unwrap().install(|| synthesize(spec, vi, &cfg)).ok()
    };
    let cold = cold_space(spec, vi, &cfg);
    let warm_seq = warm_at(1);
    let warm_par = warm_at(2);
    match (&cold, &warm_seq, &warm_par) {
        (Some(c), Some(s), Some(p)) => {
            assert_points_identical(&format!("{label} warm-seq vs cold"), &s.points, &c.points);
            assert_points_identical(&format!("{label} warm-par vs cold"), &p.points, &c.points);
        }
        (None, None, None) => {}
        _ => panic!(
            "{label}: feasibility disagrees (cold={}, seq={}, par={})",
            cold.is_some(),
            warm_seq.is_some(),
            warm_par.is_some()
        ),
    }
}

/// Golden: the full D26 sweep at every island count of the paper's x-axis.
#[test]
fn d26_full_sweep_is_warm_cold_identical() {
    let soc = benchmarks::d26_mobile();
    for k in [1usize, 2, 4, 6, 7, 26] {
        let vi = partition::logical_partition(&soc, k).unwrap();
        check_equivalence(&format!("d26@{k}"), &soc, &vi);
    }
}

/// Golden: the whole benchmark suite at its natural island counts.
#[test]
fn suite_at_natural_island_counts_is_warm_cold_identical() {
    for (soc, k) in benchmarks::suite() {
        let vi = partition::logical_partition(&soc, k).unwrap();
        check_equivalence(soc.name(), &soc, &vi);
    }
}

/// Golden: communication-based partitioning exercises different island
/// shapes (and more reserve retries) than the logical partition.
#[test]
fn communication_partitions_are_warm_cold_identical() {
    let soc = benchmarks::d26_mobile();
    for k in [2usize, 4, 6] {
        let vi = partition::communication_partition(&soc, k, 1).unwrap();
        check_equivalence(&format!("d26-comm@{k}"), &soc, &vi);
    }
}

/// Golden: the D36 communication partitions at 6–7 islands are the known
/// port-reserve-retry-heavy designs (sweep index 1 succeeds only via the
/// retry for every k_mid >= 1; see `paths::tests::
/// warm_started_retry_matches_cold_retry`), so this pins the warm-started
/// retry — seeded from the previous candidate's retry at a different
/// reserve — against the cold per-candidate evaluation, design space for
/// design space.
#[test]
fn retry_heavy_d36_partitions_are_warm_cold_identical() {
    let soc = benchmarks::d36_tablet();
    for k in [6usize, 7] {
        let vi = partition::communication_partition(&soc, k, 1).unwrap();
        check_equivalence(&format!("d36-comm@{k}"), &soc, &vi);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: warm == cold at widths 1 and 2 on random synthetic SoCs and
    /// island counts (including infeasible-heavy corners).
    #[test]
    fn random_socs_are_warm_cold_identical(
        n_cores in 6usize..18,
        seed in 0u64..64,
        k in 1usize..6,
    ) {
        let spec = vi_noc_soc::generate_synthetic(&vi_noc_soc::SyntheticConfig {
            n_cores,
            seed,
            ..vi_noc_soc::SyntheticConfig::default()
        });
        let Ok(vi) = partition::communication_partition(&spec, k.min(spec.core_count()), seed)
        else {
            return Ok(());
        };
        check_equivalence(&format!("synthetic n={n_cores} seed={seed} k={k}"), &spec, &vi);
    }
}
