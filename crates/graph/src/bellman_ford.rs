//! Bellman–Ford shortest paths (reference implementation).
//!
//! Used as a cross-check oracle for [`crate::dijkstra`] in the unit and
//! property tests: a simple O(V·E) single-source computation.

use crate::digraph::DiGraph;
use crate::ids::{EdgeId, NodeId};

/// Computes shortest distances from `source` by Bellman–Ford relaxation.
///
/// Returns `dist` indexed by node index; unreachable nodes hold
/// `f64::INFINITY`.
///
/// # Errors
///
/// Returns `Err(())`-like `None` if a negative cycle reachable from `source`
/// exists (expressed as `None` since callers in this workspace only use
/// non-negative costs and treat it as a logic error).
pub fn bellman_ford<N, E>(
    g: &DiGraph<N, E>,
    source: NodeId,
    cost: impl Fn(EdgeId, &E) -> f64,
) -> Option<Vec<f64>> {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[source.index()] = 0.0;

    for _ in 0..n.saturating_sub(1) {
        let mut changed = false;
        for e in g.edge_ids() {
            let (u, v) = g.endpoints(e);
            let du = dist[u.index()];
            if du.is_finite() {
                let nd = du + cost(e, g.edge(e));
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Negative-cycle detection pass.
    for e in g.edge_ids() {
        let (u, v) = g.endpoints(e);
        let du = dist[u.index()];
        if du.is_finite() && du + cost(e, g.edge(e)) < dist[v.index()] - 1e-12 {
            return None;
        }
    }
    Some(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{dijkstra, SearchScratch};

    #[test]
    fn matches_dijkstra_on_simple_graph() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let n: Vec<_> = (0..5).map(|_| g.add_node(())).collect();
        let edges = [
            (0, 1, 2.0),
            (0, 2, 4.0),
            (1, 2, 1.0),
            (1, 3, 7.0),
            (2, 4, 3.0),
            (3, 4, 1.0),
            (4, 3, 2.0),
        ];
        for &(u, v, w) in &edges {
            g.add_edge(n[u], n[v], w);
        }
        let bf = bellman_ford(&g, n[0], |_, w| *w).unwrap();
        let mut dj = SearchScratch::new();
        dijkstra(&g, n[0], None, |_, w| *w, |_, _| true, &mut dj);
        for i in 0..5 {
            let d = dj.distance(n[i]).unwrap_or(f64::INFINITY);
            assert!((bf[i] - d).abs() < 1e-9, "node {i}: bf={} dj={}", bf[i], d);
        }
    }

    #[test]
    fn detects_negative_cycle() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(b, a, -2.0);
        assert!(bellman_ford(&g, a, |_, w| *w).is_none());
    }

    #[test]
    fn handles_unreachable_nodes() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let _b = g.add_node(());
        let dist = bellman_ford(&g, a, |_, w| *w).unwrap();
        assert_eq!(dist[0], 0.0);
        assert!(dist[1].is_infinite());
    }
}
