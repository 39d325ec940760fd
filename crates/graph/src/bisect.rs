//! Multilevel weighted bisection.

use crate::coarsen::coarsen;
use crate::fm::refine_bisection;
use crate::sym::SymGraph;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters for [`bisect`].
#[derive(Debug, Clone)]
pub struct BisectConfig {
    /// Target vertex weight of side 0 (side 1 gets the remainder).
    pub target0: f64,
    /// Allowed relative overflow of either side beyond its target
    /// (e.g. `0.1` = 10 %).
    pub epsilon: f64,
    /// RNG seed (initial-solution tie-breaking, coarsening order).
    pub seed: u64,
}

impl Default for BisectConfig {
    fn default() -> Self {
        BisectConfig {
            target0: 0.0, // resolved to half the total weight when 0
            epsilon: 0.15,
            seed: 0xB15EC7,
        }
    }
}

/// FM refinement passes per level, here and in k-way refinement.
pub(crate) const PASSES: usize = 8;
/// Below this vertex count the graph is partitioned directly.
const COARSEN_BELOW: usize = 24;
/// Number of random initial solutions tried at the coarsest level.
const RESTARTS: usize = 4;

fn cut_of(g: &SymGraph, side: &[usize]) -> f64 {
    let mut cut = 0.0;
    for u in 0..g.len() {
        for &(v, w) in g.neighbors(u) {
            if u < v && side[u] != side[v] {
                cut += w;
            }
        }
    }
    cut
}

/// Greedy growth initial bisection: grow side 0 from `seed_vertex` by
/// repeatedly absorbing the unassigned vertex with the strongest connection
/// to side 0 until its weight reaches `target0`.
fn grow_initial(g: &SymGraph, seed_vertex: usize, target0: f64) -> Vec<usize> {
    let n = g.len();
    let mut side = vec![1usize; n];
    let mut conn = vec![0.0f64; n];
    let mut w0 = 0.0;

    let mut current = seed_vertex;
    loop {
        side[current] = 0;
        w0 += g.vertex_weight(current);
        if w0 >= target0 {
            break;
        }
        for &(v, w) in g.neighbors(current) {
            if side[v] == 1 {
                conn[v] += w;
            }
        }
        // Next: strongest-connected unassigned vertex; fall back to the
        // lowest-index unassigned vertex for disconnected graphs.
        let mut best: Option<(usize, f64)> = None;
        for v in 0..n {
            if side[v] == 1 {
                match best {
                    Some((_, bw)) if conn[v] <= bw => {}
                    _ => best = Some((v, conn[v])),
                }
            }
        }
        match best {
            Some((v, _)) => current = v,
            None => break,
        }
    }
    side
}

/// Bisects `g` into sides `{0, 1}` minimizing cut weight subject to the
/// weight targets in `cfg`.
///
/// Uses multilevel coarsening (heavy-edge matching) with FM refinement at
/// every level; at the coarsest level several greedy-growth initial solutions
/// are tried and the best kept. Deterministic for a fixed seed.
///
/// Returns the side assignment (`side[v] ∈ {0, 1}`). For graphs with fewer
/// than two vertices, everything is side 0.
pub fn bisect(g: &SymGraph, cfg: &BisectConfig) -> Vec<usize> {
    let n = g.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![0];
    }
    let total = g.total_vertex_weight();
    let target0 = if cfg.target0 > 0.0 {
        cfg.target0
    } else {
        total / 2.0
    };
    let target1 = total - target0;
    let slack = cfg.epsilon * total;
    let max_w = [target0 + slack, target1 + slack];
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    bisect_recursive(g, target0, max_w, &mut rng, 0)
}

fn bisect_recursive(
    g: &SymGraph,
    target0: f64,
    max_w: [f64; 2],
    rng: &mut StdRng,
    depth: usize,
) -> Vec<usize> {
    let n = g.len();
    // Coarsen while the graph is large and still shrinking.
    if n > COARSEN_BELOW && depth < 24 {
        let coarse = coarsen(g, rng);
        if coarse.graph.len() < n {
            let coarse_side = bisect_recursive(&coarse.graph, target0, max_w, rng, depth + 1);
            let mut side = coarse.project(&coarse_side);
            refine_bisection(g, &mut side, max_w, PASSES);
            return side;
        }
    }

    // Coarsest level: several greedy-growth starts + FM, keep the best.
    let mut best_side: Option<Vec<usize>> = None;
    let mut best_cut = f64::INFINITY;
    for r in 0..RESTARTS {
        let seed_vertex = if r == 0 {
            // Deterministic first try: highest-degree vertex.
            (0..n)
                .max_by(|&a, &b| g.degree_weight(a).total_cmp(&g.degree_weight(b)))
                .unwrap_or(0)
        } else {
            rng.random_range(0..n)
        };
        let mut side = grow_initial(g, seed_vertex, target0);
        // Guarantee both sides non-empty.
        if side.iter().all(|&s| s == 0) {
            side[n - 1] = 1;
        }
        if side.iter().all(|&s| s == 1) {
            side[0] = 0;
        }
        refine_bisection(g, &mut side, max_w, PASSES);
        let cut = cut_of(g, &side);
        if cut < best_cut {
            best_cut = cut;
            best_side = Some(side);
        }
    }
    best_side.expect("RESTARTS >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_clusters(heavy: f64, bridge: f64) -> SymGraph {
        let mut g = SymGraph::new(10);
        for c in 0..2 {
            let base = c * 5;
            for i in 0..5 {
                for j in (i + 1)..5 {
                    g.add_edge(base + i, base + j, heavy);
                }
            }
        }
        g.add_edge(4, 5, bridge);
        g
    }

    #[test]
    fn finds_natural_cut() {
        let g = two_clusters(10.0, 1.0);
        let side = bisect(&g, &BisectConfig::default());
        assert_eq!(cut_of(&g, &side), 1.0);
        // Each cluster entirely on one side.
        assert!(side[..5].iter().all(|&s| s == side[0]));
        assert!(side[5..].iter().all(|&s| s == side[5]));
        assert_ne!(side[0], side[5]);
    }

    #[test]
    fn handles_tiny_graphs() {
        assert!(bisect(&SymGraph::new(0), &BisectConfig::default()).is_empty());
        assert_eq!(bisect(&SymGraph::new(1), &BisectConfig::default()), vec![0]);
        let g = SymGraph::new(2);
        let side = bisect(&g, &BisectConfig::default());
        assert_ne!(side[0], side[1]);
    }

    #[test]
    fn respects_asymmetric_targets() {
        // 12 unit vertices in a ring; ask for a 3/9 split.
        let mut g = SymGraph::new(12);
        for i in 0..12 {
            g.add_edge(i, (i + 1) % 12, 1.0);
        }
        let cfg = BisectConfig {
            target0: 3.0,
            epsilon: 0.05,
            ..BisectConfig::default()
        };
        let side = bisect(&g, &cfg);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!(
            (2..=4).contains(&w0),
            "side 0 should hold ~3 vertices, got {w0}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = two_clusters(5.0, 2.0);
        let a = bisect(&g, &BisectConfig::default());
        let b = bisect(&g, &BisectConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn works_on_disconnected_graphs() {
        let mut g = SymGraph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        // 4, 5 isolated.
        let side = bisect(&g, &BisectConfig::default());
        assert_eq!(side.len(), 6);
        assert!(side.contains(&0) && side.contains(&1));
    }

    #[test]
    fn large_graph_goes_through_multilevel_path() {
        // A 64-vertex graph of 4 clusters of 16, chained lightly: the natural
        // bisection has cut 1.0 between cluster pairs {0,1} and {2,3}.
        let mut g = SymGraph::new(64);
        for c in 0..4 {
            let base = c * 16;
            for i in 0..16 {
                for j in (i + 1)..16 {
                    g.add_edge(base + i, base + j, 5.0);
                }
            }
        }
        g.add_edge(15, 16, 3.0);
        g.add_edge(31, 32, 1.0);
        g.add_edge(47, 48, 3.0);
        let side = bisect(&g, &BisectConfig::default());
        let cut = cut_of(&g, &side);
        assert!(
            cut <= 3.0,
            "multilevel bisection should find cut<=3, got {cut}"
        );
    }
}
