//! Bellman–Ford shortest paths, the test oracle of [`crate::dijkstra`] and
//! of the path allocator's search: a plain O(V·E) relaxation over an
//! explicit edge list.

/// Shortest distances from `source` over the directed `edges` `(from, to,
/// weight)` of an `n`-node graph, indexed by node; unreachable nodes hold
/// `f64::INFINITY`. `None` when a negative cycle is reachable from
/// `source`.
pub(crate) fn bellman_ford(
    n: usize,
    source: usize,
    edges: &[(usize, usize, f64)],
) -> Option<Vec<f64>> {
    let mut dist = vec![f64::INFINITY; n];
    dist[source] = 0.0;
    for _ in 0..n.saturating_sub(1) {
        let mut changed = false;
        for &(u, v, w) in edges {
            if dist[u].is_finite() && dist[u] + w < dist[v] {
                dist[v] = dist[u] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // One more pass improves a distance only around a negative cycle.
    edges
        .iter()
        .all(|&(u, v, w)| !(dist[u].is_finite() && dist[u] + w < dist[v] - 1e-12))
        .then_some(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{dijkstra, SearchScratch};

    #[test]
    fn matches_dijkstra_on_simple_graph() {
        let edges = [
            (0, 1, 2.0),
            (0, 2, 4.0),
            (1, 2, 1.0),
            (1, 3, 7.0),
            (2, 4, 3.0),
            (3, 4, 1.0),
            (4, 3, 2.0),
        ];
        let bf = bellman_ford(5, 0, &edges).unwrap();
        let mut dj = SearchScratch::default();
        for (goal, &bfi) in bf.iter().enumerate() {
            let d = dijkstra(&mut dj, 5, 0, goal, |u, out| {
                for &(_, v, w) in edges.iter().filter(|e| e.0 == u) {
                    out.relax(v, w);
                }
            })
            .unwrap_or(f64::INFINITY);
            assert!((bfi - d).abs() < 1e-9, "node {goal}: bf={bfi} dj={d}");
        }
    }

    #[test]
    fn detects_negative_cycle() {
        assert!(bellman_ford(2, 0, &[(0, 1, 1.0), (1, 0, -2.0)]).is_none());
    }

    #[test]
    fn handles_unreachable_nodes() {
        let dist = bellman_ford(2, 0, &[]).unwrap();
        assert_eq!(dist[0], 0.0);
        assert!(dist[1].is_infinite());
    }
}
