//! Core-to-switch assignment by min-cut partitioning (Algorithm 1,
//! steps 4–11).

use crate::config::{FrequencyPlan, SynthesisConfig};
use crate::vcg::Vcg;
use vi_noc_graph::{partition_kway, PartitionConfig};
use vi_noc_soc::CoreId;

/// Core→switch grouping of every island for one sweep index.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchAssignment {
    /// `groups[island][switch]` is the list of cores behind that switch.
    pub groups: Vec<Vec<Vec<CoreId>>>,
}

impl SwitchAssignment {
    /// Switch count of `island`.
    pub fn switch_count(&self, island: usize) -> usize {
        self.groups[island].len()
    }

    /// Per-island switch counts.
    pub fn counts(&self) -> Vec<usize> {
        self.groups.iter().map(Vec::len).collect()
    }
}

/// The paper's minimum switch count for island `j`:
/// `min_sw_j = ceil(|V_j| / max_sw_size_j)` (step 2).
pub(crate) fn min_switches(vcg_len: usize, max_sw_size: usize) -> usize {
    vcg_len.div_ceil(max_sw_size.max(1)).max(1)
}

/// Computes the per-island switch counts for sweep index `i` (1-based):
/// `k_j = min(min_sw_j + i - 1, |V_j|)` — i.e. `i = 1` uses the minimum
/// switch count and each increment adds one switch per island until the
/// island saturates at one switch per core (steps 4–10; the paper's index
/// arithmetic is off by one from its prose, we follow the prose).
///
/// # Panics
///
/// If `i` is 0 (sweep indices are 1-based).
pub(crate) fn switch_counts_for_sweep(vcgs: &[Vcg], plan: &FrequencyPlan, i: usize) -> Vec<usize> {
    assert!(i >= 1, "sweep index is 1-based");
    vcgs.iter()
        .map(|vcg| {
            let min_sw = min_switches(vcg.len(), plan.max_switch_size(vcg.island));
            (min_sw + i - 1).min(vcg.len())
        })
        .collect()
}

/// The base switch-count schedule under `plan`, shared by
/// [`crate::SweepPlan::build`] and the `vi-noc-sweep` grids: the count
/// vectors of sweep indices 1, 2, … up to the first that repeats its
/// predecessor (counts grow monotonically, so every later one would too).
pub fn base_schedule(vcgs: &[Vcg], plan: &FrequencyPlan) -> Vec<Vec<usize>> {
    let max_sweep = vcgs.iter().map(Vcg::len).max().unwrap_or(1);
    let mut base: Vec<Vec<usize>> = Vec::new();
    for i in 1..=max_sweep {
        let counts = switch_counts_for_sweep(vcgs, plan, i);
        if base.last() == Some(&counts) {
            break;
        }
        base.push(counts);
    }
    base
}

/// Performs the `k_j` min-cut partitions of each island's VCG, yielding the
/// core→switch grouping (step 11: cores in a partition share a switch).
pub fn island_switch_assignment(
    vcgs: &[Vcg],
    plan: &FrequencyPlan,
    counts: &[usize],
    cfg: &SynthesisConfig,
) -> SwitchAssignment {
    assert_eq!(vcgs.len(), counts.len());
    let groups = vcgs
        .iter()
        .zip(counts)
        .map(|(vcg, &k)| island_partition(vcg, plan, k, cfg))
        .collect();
    SwitchAssignment { groups }
}

/// One island's min-cut partition into `k` switches: the cores behind each
/// non-empty part. A pure function of the VCG, the island's switch size
/// budget, the seed and `k` clamped to `1..=|V_j|` (as the partitioner
/// clamps it), which is what lets [`crate::PlanTable`] memoize it.
pub(crate) fn island_partition(
    vcg: &Vcg,
    plan: &FrequencyPlan,
    k: usize,
    cfg: &SynthesisConfig,
) -> Vec<Vec<CoreId>> {
    let pcfg = PartitionConfig {
        seed: cfg.seed ^ (vcg.island as u64).wrapping_mul(0x9E37),
        max_part_weight: Some(plan.max_switch_size(vcg.island) as f64),
        ..PartitionConfig::default()
    };
    partition_kway(&vcg.graph, k, &pcfg)
        .parts()
        .into_iter()
        .filter(|p| !p.is_empty())
        .map(|part| part.into_iter().map(|v| vcg.cores[v]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vcg::build_vcg;
    use vi_noc_soc::{benchmarks, partition};

    fn setup() -> (Vec<Vcg>, FrequencyPlan, SynthesisConfig) {
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let cfg = SynthesisConfig::default();
        let plan = FrequencyPlan::compute(&soc, &vi, &cfg);
        let vcgs: Vec<Vcg> = (0..6).map(|j| build_vcg(&soc, &vi, j, &cfg)).collect();
        (vcgs, plan, cfg)
    }

    #[test]
    fn min_switches_formula() {
        assert_eq!(min_switches(10, 4), 3);
        assert_eq!(min_switches(8, 4), 2);
        assert_eq!(min_switches(1, 4), 1);
        assert_eq!(min_switches(5, 100), 1);
    }

    #[test]
    fn sweep_counts_grow_then_saturate() {
        let (vcgs, plan, _) = setup();
        let c1 = switch_counts_for_sweep(&vcgs, &plan, 1);
        let c2 = switch_counts_for_sweep(&vcgs, &plan, 2);
        let huge = switch_counts_for_sweep(&vcgs, &plan, 100);
        for j in 0..vcgs.len() {
            assert!(c2[j] >= c1[j]);
            assert_eq!(huge[j], vcgs[j].len(), "saturates at one switch per core");
        }
    }

    #[test]
    fn the_base_schedule_ends_before_its_first_repeat() {
        let (vcgs, plan, _) = setup();
        let base = base_schedule(&vcgs, &plan);
        for (i, counts) in base.iter().enumerate() {
            assert_eq!(*counts, switch_counts_for_sweep(&vcgs, &plan, i + 1));
        }
        let next = switch_counts_for_sweep(&vcgs, &plan, base.len() + 1);
        assert_eq!(
            base.last(),
            Some(&next),
            "sweep index {} repeats",
            base.len() + 1
        );
        assert!(base.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn assignment_covers_every_core_once() {
        let (vcgs, plan, cfg) = setup();
        let counts = switch_counts_for_sweep(&vcgs, &plan, 2);
        let asg = island_switch_assignment(&vcgs, &plan, &counts, &cfg);
        let mut seen = std::collections::HashSet::new();
        for island in &asg.groups {
            for group in island {
                assert!(!group.is_empty(), "no empty switch groups");
                for &c in group {
                    assert!(seen.insert(c), "core {c} assigned twice");
                }
            }
        }
        assert_eq!(seen.len(), 26);
    }

    #[test]
    fn requested_counts_are_honored() {
        let (vcgs, plan, cfg) = setup();
        let counts = switch_counts_for_sweep(&vcgs, &plan, 1);
        let asg = island_switch_assignment(&vcgs, &plan, &counts, &cfg);
        assert_eq!(asg.counts(), counts);
    }

    #[test]
    fn heavily_communicating_cores_share_a_switch() {
        // In the CPU island, arm0 and icache0 exchange 2000 MB/s: with two
        // switches they must not be separated.
        let soc = benchmarks::d26_mobile();
        let vi = partition::logical_partition(&soc, 6).unwrap();
        let cfg = SynthesisConfig::default();
        let plan = FrequencyPlan::compute(&soc, &vi, &cfg);
        let cpu = soc.cores_of_kind(vi_noc_soc::CoreKind::Cpu)[0];
        let island = vi.island_of(cpu);
        let vcg = build_vcg(&soc, &vi, island, &cfg);
        let counts: Vec<usize> = vec![2];
        let asg = island_switch_assignment(&[vcg], &plan, &counts, &cfg);
        // Find arm0 and icache0 groups.
        let arm0 = soc
            .core_ids()
            .find(|&c| soc.core(c).name == "arm0")
            .unwrap();
        let ic0 = soc
            .core_ids()
            .find(|&c| soc.core(c).name == "icache0")
            .unwrap();
        let group_of = |c| {
            asg.groups[0]
                .iter()
                .position(|g| g.contains(&c))
                .expect("assigned")
        };
        assert_eq!(group_of(arm0), group_of(ic0));
    }
}
