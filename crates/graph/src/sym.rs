//! Undirected weighted graph with vertex weights — the partitioning substrate.

/// An undirected graph with `f64` edge weights and vertex weights, stored as
/// symmetric adjacency lists.
///
/// This is the input representation for min-cut partitioning. Directed
/// communication graphs are symmetrized into a `SymGraph` by accumulating the
/// weights of both directions onto a single undirected edge (the cut metric
/// of the paper's VCG does not distinguish direction).
///
/// Adding an edge that already exists accumulates its weight. Self-loops are
/// ignored (they can never contribute to a cut).
///
/// # Example
///
/// ```
/// use vi_noc_graph::SymGraph;
///
/// let mut g = SymGraph::new(3);
/// g.add_edge(0, 1, 2.0);
/// g.add_edge(1, 0, 3.0); // accumulates onto the same undirected edge
/// assert_eq!(g.edge_weight(0, 1), 5.0);
/// assert_eq!(g.edge_weight(1, 2), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SymGraph {
    adj: Vec<Vec<(usize, f64)>>,
    vwt: Vec<f64>,
}

impl SymGraph {
    /// Creates a graph with `n` vertices (unit vertex weights) and no edges.
    pub fn new(n: usize) -> Self {
        SymGraph {
            adj: vec![Vec::new(); n],
            vwt: vec![1.0; n],
        }
    }

    /// Creates a graph whose vertex weights are given by `weights`.
    ///
    /// # Panics
    ///
    /// Panics if any weight is not strictly positive.
    pub fn with_vertex_weights(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| *w > 0.0),
            "vertex weights must be positive"
        );
        SymGraph {
            adj: vec![Vec::new(); weights.len()],
            vwt: weights,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds (or accumulates onto) the undirected edge `{u, v}` with weight `w`.
    ///
    /// Self-loops (`u == v`) are silently ignored. Zero or negative weights
    /// are rejected.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range, or `w <= 0`.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) {
        assert!(u < self.len() && v < self.len(), "vertex out of range");
        assert!(w > 0.0, "edge weight must be positive (got {w})");
        if u == v {
            return;
        }
        Self::bump(&mut self.adj, u, v, w);
        Self::bump(&mut self.adj, v, u, w);
    }

    fn bump(adj: &mut [Vec<(usize, f64)>], from: usize, to: usize, w: f64) {
        if let Some(entry) = adj[from].iter_mut().find(|(n, _)| *n == to) {
            entry.1 += w;
        } else {
            adj[from].push((to, w));
        }
    }

    /// Weight of edge `{u, v}`, `0.0` if absent.
    pub fn edge_weight(&self, u: usize, v: usize) -> f64 {
        self.adj[u]
            .iter()
            .find(|(n, _)| *n == v)
            .map(|(_, w)| *w)
            .unwrap_or(0.0)
    }

    /// Neighbors of `u` with edge weights.
    pub fn neighbors(&self, u: usize) -> &[(usize, f64)] {
        &self.adj[u]
    }

    /// Number of distinct undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Sum of all undirected edge weights.
    pub fn total_edge_weight(&self) -> f64 {
        self.adj
            .iter()
            .flat_map(|l| l.iter().map(|(_, w)| *w))
            .sum::<f64>()
            / 2.0
    }

    /// Sum of edge weights incident to `u`.
    pub fn degree_weight(&self, u: usize) -> f64 {
        self.adj[u].iter().map(|(_, w)| *w).sum()
    }

    /// Vertex weight of `u`.
    pub fn vertex_weight(&self, u: usize) -> f64 {
        self.vwt[u]
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> f64 {
        self.vwt.iter().sum()
    }

    /// Builds the subgraph induced by `vertices`.
    ///
    /// Returns the subgraph and the mapping `sub index -> original index`.
    pub fn induced(&self, vertices: &[usize]) -> (SymGraph, Vec<usize>) {
        let mut back = vec![usize::MAX; self.len()];
        for (si, &v) in vertices.iter().enumerate() {
            back[v] = si;
        }
        let mut sub = SymGraph::with_vertex_weights(
            vertices.iter().map(|&v| self.vwt[v]).collect::<Vec<_>>(),
        );
        for (si, &v) in vertices.iter().enumerate() {
            for &(nbr, w) in &self.adj[v] {
                let sj = back[nbr];
                if sj != usize::MAX && si < sj {
                    sub.add_edge(si, sj, w);
                }
            }
        }
        (sub, vertices.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_accumulate_and_are_symmetric() {
        let mut g = SymGraph::new(3);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 0, 3.0);
        assert_eq!(g.edge_weight(0, 1), 5.0);
        assert_eq!(g.edge_weight(1, 0), 5.0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.total_edge_weight(), 5.0);
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = SymGraph::new(2);
        g.add_edge(0, 0, 4.0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree_weight(0), 0.0);
    }

    #[test]
    fn vertex_weights_default_to_one() {
        let g = SymGraph::new(4);
        assert_eq!(g.total_vertex_weight(), 4.0);
        assert_eq!(g.vertex_weight(2), 1.0);
    }

    #[test]
    fn custom_vertex_weights() {
        let g = SymGraph::with_vertex_weights(vec![1.0, 2.0, 3.0]);
        assert_eq!(g.total_vertex_weight(), 6.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_edge_weight() {
        let mut g = SymGraph::new(2);
        g.add_edge(0, 1, 0.0);
    }

    #[test]
    fn degree_weight_sums_incident_edges() {
        let mut g = SymGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 2, 2.5);
        assert_eq!(g.degree_weight(0), 3.5);
        assert_eq!(g.degree_weight(1), 1.0);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let mut g = SymGraph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 3.0);
        let (sub, map) = g.induced(&[1, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(sub.edge_weight(0, 1), 2.0);
        assert_eq!(map, vec![1, 2]);
    }
}
