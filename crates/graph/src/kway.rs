//! k-way min-cut partitioning.
//!
//! This is the routine behind step 11 of the paper's Algorithm 1: *"Perform k
//! min-cut partitions of VCG(V, E, j)"* — cores that communicate heavily (or
//! have tight latency constraints, via the VCG edge weights) end up in the
//! same part and therefore share a switch.
//!
//! Two strategies are combined:
//!
//! * **Greedy agglomerative clustering** for small graphs (the common case —
//!   a voltage island rarely holds more than a couple dozen cores): start
//!   from singletons, repeatedly merge the pair of clusters with the heaviest
//!   inter-cluster weight, then polish with greedy k-way refinement.
//! * **Multilevel recursive bisection** ([`crate::bisect`]) for larger
//!   graphs, with k-way refinement at the end.
//!
//! Both are deterministic for a fixed [`PartitionConfig::seed`].

use crate::bisect::{bisect, BisectConfig, PASSES};
use crate::fm::refine_kway;
use crate::partition::Partition;
use crate::sym::SymGraph;

/// Parameters for [`partition_kway`].
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Allowed relative imbalance (0.15 = a part may exceed the average
    /// weight by 15 %).
    pub epsilon: f64,
    /// RNG seed for all randomized sub-steps.
    pub seed: u64,
    /// Optional hard-ish cap on part weight (e.g. the maximum switch size of
    /// the island). Best-effort: the cap is relaxed if it would make the
    /// requested part count infeasible — the synthesis flow re-checks switch
    /// size constraints downstream (paper §4).
    pub max_part_weight: Option<f64>,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            epsilon: 0.2,
            seed: 0x5EED,
            max_part_weight: None,
        }
    }
}

/// Graphs with at most this many vertices use agglomerative clustering
/// instead of recursive bisection.
const AGGLOMERATIVE_BELOW: usize = 20;

impl PartitionConfig {
    /// Effective per-part weight cap for a `k`-way partition of `g`.
    fn cap(&self, g: &SymGraph, k: usize) -> f64 {
        let total = g.total_vertex_weight();
        let max_vw = (0..g.len()).map(|v| g.vertex_weight(v)).fold(0.0, f64::max);
        let balance_cap = (1.0 + self.epsilon) * total / k as f64;
        let requested = self
            .max_part_weight
            .unwrap_or(f64::INFINITY)
            .min(balance_cap);
        // Feasibility floor: a perfectly balanced partition may still need
        // one part of ceil-average weight.
        let floor = total / k as f64 + max_vw / 2.0;
        requested.max(floor).max(max_vw)
    }
}

/// Partitions `g` into `k` non-empty parts minimizing the cut weight.
///
/// `k` is clamped to `1..=n`; `k = 1` returns the trivial partition and
/// `k = n` the discrete one. The result always has exactly
/// `min(k, n)` non-empty parts.
///
/// # Example
///
/// ```
/// use vi_noc_graph::{SymGraph, PartitionConfig, partition_kway};
///
/// let mut g = SymGraph::new(4);
/// g.add_edge(0, 1, 9.0);
/// g.add_edge(2, 3, 9.0);
/// g.add_edge(1, 2, 1.0);
/// let p = partition_kway(&g, 2, &PartitionConfig::default());
/// assert_eq!(p.cut_weight(&g), 1.0);
/// assert_eq!(p.part_of(0), p.part_of(1));
/// assert_eq!(p.part_of(2), p.part_of(3));
/// ```
pub fn partition_kway(g: &SymGraph, k: usize, cfg: &PartitionConfig) -> Partition {
    let n = g.len();
    if n == 0 {
        return Partition::new(k.max(1), Vec::new());
    }
    let k = k.clamp(1, n);
    if k == 1 {
        return Partition::trivial(n);
    }
    if k == n {
        return Partition::discrete(n);
    }

    let cap = cfg.cap(g, k);
    let mut assignment = if n <= AGGLOMERATIVE_BELOW {
        greedy_agglomerative(g, k, cfg).assignment().to_vec()
    } else {
        let mut assignment = vec![0usize; n];
        let all: Vec<usize> = (0..n).collect();
        recursive_bisect(g, &all, k, 0, cfg, &mut assignment, &mut 0);
        assignment
    };

    refine_kway(g, &mut assignment, k, &vec![cap; k], PASSES);
    enforce_cap(g, &mut assignment, k, cap);
    refine_kway(g, &mut assignment, k, &vec![cap; k], PASSES);
    fix_empty_parts(g, &mut assignment, k);
    Partition::new(k, assignment)
}

/// Repairs parts that exceed `cap` by relocating their least-attached
/// vertices into the lightest part that can accept them (even at negative
/// cut gain). Best-effort: stops when no receiving part has room, which can
/// only happen if `cap · k < total` (the caller's cap() floor prevents it
/// for unit weights).
fn enforce_cap(g: &SymGraph, assignment: &mut [usize], k: usize, cap: f64) {
    let mut weight = vec![0.0f64; k];
    for (v, &p) in assignment.iter().enumerate() {
        weight[p] += g.vertex_weight(v);
    }
    loop {
        let Some(over) = (0..k)
            .filter(|&p| weight[p] > cap + 1e-9)
            .max_by(|&a, &b| weight[a].total_cmp(&weight[b]))
        else {
            return;
        };
        // Least-attached vertex of the overweight part.
        let Some(v) = (0..assignment.len())
            .filter(|&v| assignment[v] == over)
            .min_by(|&a, &b| {
                let attach = |v: usize| {
                    g.neighbors(v)
                        .iter()
                        .filter(|(u, _)| assignment[*u] == over)
                        .map(|(_, w)| *w)
                        .sum::<f64>()
                };
                attach(a).total_cmp(&attach(b)).then(a.cmp(&b))
            })
        else {
            return;
        };
        // Receiving part: the one the vertex attaches to most among those
        // with room; fall back to the lightest part with room.
        let vw = g.vertex_weight(v);
        let mut conn = vec![0.0f64; k];
        for &(u, w) in g.neighbors(v) {
            conn[assignment[u]] += w;
        }
        let dest = (0..k)
            .filter(|&p| p != over && weight[p] + vw <= cap + 1e-9)
            .max_by(|&a, &b| {
                conn[a]
                    .total_cmp(&conn[b])
                    .then(weight[b].total_cmp(&weight[a]))
            });
        let Some(dest) = dest else {
            return; // nowhere to put it; leave as-is
        };
        assignment[v] = dest;
        weight[over] -= vw;
        weight[dest] += vw;
    }
}

/// Recursive bisection helper: partitions the sub-vertex-set `vertices` into
/// `k` parts labelled starting at `*next_label`.
fn recursive_bisect(
    g: &SymGraph,
    vertices: &[usize],
    k: usize,
    depth: usize,
    cfg: &PartitionConfig,
    assignment: &mut [usize],
    next_label: &mut usize,
) {
    if k == 1 || vertices.len() <= 1 {
        let label = *next_label;
        *next_label += 1;
        for &v in vertices {
            assignment[v] = label;
        }
        return;
    }
    let (sub, map) = g.induced(vertices);
    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    let total = sub.total_vertex_weight();
    let bcfg = BisectConfig {
        target0: total * k0 as f64 / k as f64,
        epsilon: cfg.epsilon / 2.0,
        seed: cfg
            .seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(depth as u64 * 7919 + vertices.len() as u64),
    };
    let mut side = bisect(&sub, &bcfg);

    // Each side must be able to host its share of parts.
    rebalance_counts(&sub, &mut side, k0, k1);

    let side0: Vec<usize> = map
        .iter()
        .zip(&side)
        .filter(|(_, s)| **s == 0)
        .map(|(&v, _)| v)
        .collect();
    let side1: Vec<usize> = map
        .iter()
        .zip(&side)
        .filter(|(_, s)| **s == 1)
        .map(|(&v, _)| v)
        .collect();
    recursive_bisect(g, &side0, k0, depth + 1, cfg, assignment, next_label);
    recursive_bisect(g, &side1, k1, depth + 1, cfg, assignment, next_label);
}

/// Ensures side 0 holds at least `k0` vertices and side 1 at least `k1`,
/// moving the least-connected vertices across if necessary.
fn rebalance_counts(g: &SymGraph, side: &mut [usize], k0: usize, k1: usize) {
    let n = side.len();
    debug_assert!(k0 + k1 <= n);
    loop {
        let c0 = side.iter().filter(|&&s| s == 0).count();
        let c1 = n - c0;
        let (needy, donor) = if c0 < k0 {
            (0, 1)
        } else if c1 < k1 {
            (1, 0)
        } else {
            break;
        };
        // Move the donor vertex with the least attachment to its own side.
        let v = (0..n)
            .filter(|&v| side[v] == donor)
            .min_by(|&a, &b| {
                let attach = |v: usize| {
                    g.neighbors(v)
                        .iter()
                        .filter(|(u, _)| side[*u] == donor)
                        .map(|(_, w)| *w)
                        .sum::<f64>()
                };
                attach(a).total_cmp(&attach(b)).then(a.cmp(&b))
            })
            .expect("donor side non-empty");
        side[v] = needy;
    }
}

/// Moves one vertex into each empty part (from the currently largest part,
/// choosing the vertex with the least connectivity to its own part) so the
/// partition ends with exactly `k` non-empty parts.
fn fix_empty_parts(g: &SymGraph, assignment: &mut [usize], k: usize) {
    loop {
        let mut count = vec![0usize; k];
        for &p in assignment.iter() {
            count[p] += 1;
        }
        let Some(empty) = count.iter().position(|&c| c == 0) else {
            return;
        };
        let donor = count
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(p, _)| p)
            .expect("k >= 1");
        let v = (0..assignment.len())
            .filter(|&v| assignment[v] == donor)
            .min_by(|&a, &b| {
                let attach = |v: usize| {
                    g.neighbors(v)
                        .iter()
                        .filter(|(u, _)| assignment[*u] == donor)
                        .map(|(_, w)| *w)
                        .sum::<f64>()
                };
                attach(a).total_cmp(&attach(b)).then(a.cmp(&b))
            })
            .expect("donor part non-empty");
        assignment[v] = empty;
    }
}

/// Greedy agglomerative k-way clustering.
///
/// Starts from singletons and repeatedly merges the cluster pair with the
/// heaviest inter-cluster weight, preferring merges that respect the
/// effective part-weight cap; once only `k` clusters remain, returns the
/// (compacted) partition. Used directly for small graphs and as a fallback.
pub fn greedy_agglomerative(g: &SymGraph, k: usize, cfg: &PartitionConfig) -> Partition {
    let n = g.len();
    if n == 0 {
        return Partition::new(k.max(1), Vec::new());
    }
    let k = k.clamp(1, n);
    let cap = cfg.cap(g, k);

    // cluster_of[v]: current cluster id (cluster ids are vertex indices of
    // their lowest member).
    let mut cluster_of: Vec<usize> = (0..n).collect();
    let mut weight: Vec<f64> = (0..n).map(|v| g.vertex_weight(v)).collect();
    let mut alive: Vec<bool> = vec![true; n];
    let mut n_clusters = n;

    // Inter-cluster weights, dense (n is small on this path).
    let mut w = vec![vec![0.0f64; n]; n];
    #[allow(clippy::needless_range_loop)] // symmetric fill of w[u][v]/w[v][u]
    for u in 0..n {
        for &(v, ew) in g.neighbors(u) {
            if u < v {
                w[u][v] += ew;
                w[v][u] += ew;
            }
        }
    }

    while n_clusters > k {
        // Best pair respecting the cap; fall back to best pair overall; fall
        // back to merging the two lightest clusters (disconnected graphs).
        let mut best: Option<(usize, usize, f64, bool)> = None;
        for a in 0..n {
            if !alive[a] {
                continue;
            }
            for b in (a + 1)..n {
                if !alive[b] || w[a][b] <= 0.0 {
                    continue;
                }
                let fits = weight[a] + weight[b] <= cap;
                let cand = (a, b, w[a][b], fits);
                best = match best {
                    None => Some(cand),
                    Some((pa, pb, pw, pfits)) => {
                        // Prefer cap-respecting merges, then heavier weight,
                        // then lower indices for determinism.
                        let better = (fits, w[a][b]) > (pfits, pw);
                        if better {
                            Some(cand)
                        } else {
                            Some((pa, pb, pw, pfits))
                        }
                    }
                };
            }
        }
        let (a, b) = match best {
            Some((a, b, _, _)) => (a, b),
            None => {
                // No inter-cluster edges left: merge the two lightest.
                let mut ids: Vec<usize> = (0..n).filter(|&c| alive[c]).collect();
                ids.sort_by(|&x, &y| weight[x].total_cmp(&weight[y]).then(x.cmp(&y)));
                (ids[0].min(ids[1]), ids[0].max(ids[1]))
            }
        };

        // Merge b into a.
        alive[b] = false;
        weight[a] += weight[b];
        for c in 0..n {
            if alive[c] && c != a {
                w[a][c] += w[b][c];
                w[c][a] = w[a][c];
            }
            w[b][c] = 0.0;
            w[c][b] = 0.0;
        }
        for cv in cluster_of.iter_mut() {
            if *cv == b {
                *cv = a;
            }
        }
        n_clusters -= 1;
    }

    Partition::new(n, cluster_of).compacted()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clusters(sizes: &[usize], intra: f64, bridge: f64) -> SymGraph {
        let n: usize = sizes.iter().sum();
        let mut g = SymGraph::new(n);
        let mut base = 0;
        let mut firsts = Vec::new();
        for &s in sizes {
            firsts.push(base);
            for i in 0..s {
                for j in (i + 1)..s {
                    g.add_edge(base + i, base + j, intra);
                }
            }
            base += s;
        }
        for pair in firsts.windows(2) {
            g.add_edge(pair[0], pair[1], bridge);
        }
        g
    }

    #[test]
    fn three_way_partition_finds_clusters() {
        let g = clusters(&[5, 5, 5], 10.0, 1.0);
        let p = partition_kway(&g, 3, &PartitionConfig::default());
        assert_eq!(p.nonempty_part_count(), 3);
        assert_eq!(p.cut_weight(&g), 2.0);
        // Intra-cluster vertices share parts.
        for c in 0..3 {
            let base = c * 5;
            for i in 1..5 {
                assert_eq!(p.part_of(base), p.part_of(base + i));
            }
        }
    }

    #[test]
    fn k_equals_one_and_n_are_degenerate() {
        let g = clusters(&[3, 3], 5.0, 1.0);
        assert_eq!(partition_kway(&g, 1, &PartitionConfig::default()).k(), 1);
        let d = partition_kway(&g, 6, &PartitionConfig::default());
        assert_eq!(d.nonempty_part_count(), 6);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let g = SymGraph::new(3);
        let p = partition_kway(&g, 10, &PartitionConfig::default());
        assert_eq!(p.nonempty_part_count(), 3);
    }

    #[test]
    fn all_parts_nonempty_even_on_awkward_graphs() {
        // Star graph: hub 0 connected to 9 leaves; ask for 4 parts.
        let mut g = SymGraph::new(10);
        for i in 1..10 {
            g.add_edge(0, i, 1.0);
        }
        let p = partition_kway(&g, 4, &PartitionConfig::default());
        assert_eq!(p.nonempty_part_count(), 4);
    }

    #[test]
    fn respects_part_weight_cap_when_feasible() {
        let g = clusters(&[4, 4, 4], 10.0, 1.0);
        let cfg = PartitionConfig {
            max_part_weight: Some(4.0),
            ..PartitionConfig::default()
        };
        let p = partition_kway(&g, 3, &cfg);
        let weights = p.part_weights(&g);
        for w in weights {
            assert!(w <= 4.0 + 1e-9, "part over cap: {w}");
        }
    }

    #[test]
    fn agglomerative_matches_structure() {
        let g = clusters(&[4, 4], 8.0, 0.5);
        let p = greedy_agglomerative(&g, 2, &PartitionConfig::default());
        assert_eq!(p.nonempty_part_count(), 2);
        assert_eq!(p.cut_weight(&g), 0.5);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = clusters(&[6, 6, 6, 6], 4.0, 1.5);
        let a = partition_kway(&g, 4, &PartitionConfig::default());
        let b = partition_kway(&g, 4, &PartitionConfig::default());
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn large_graph_uses_recursive_bisection() {
        let g = clusters(&[16, 16, 16, 16], 5.0, 1.0);
        let p = partition_kway(&g, 4, &PartitionConfig::default());
        assert_eq!(p.nonempty_part_count(), 4);
        // Natural cut = 3 bridges.
        assert!(
            p.cut_weight(&g) <= 5.0 * 4.0,
            "cut {} too large",
            p.cut_weight(&g)
        );
        let im = p.imbalance(&g);
        assert!(im <= 1.5, "imbalance too high: {im}");
    }

    #[test]
    fn empty_graph_partition() {
        let g = SymGraph::new(0);
        let p = partition_kway(&g, 3, &PartitionConfig::default());
        assert!(p.is_empty());
    }
}
