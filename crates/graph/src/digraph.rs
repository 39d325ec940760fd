//! Directed multigraph with typed node and edge payloads.

use crate::ids::{EdgeId, NodeId};

#[derive(Debug, Clone)]
struct NodeEntry<N> {
    payload: N,
    out: Vec<EdgeId>,
}

#[derive(Debug, Clone)]
struct EdgeEntry<E> {
    src: NodeId,
    dst: NodeId,
    payload: E,
}

/// A directed multigraph with payloads of type `N` on nodes and `E` on edges.
///
/// Nodes and edges are stored in insertion order and addressed through the
/// dense [`NodeId`]/[`EdgeId`] newtypes. Removal is intentionally not
/// supported: the synthesis flow only ever grows graphs, and stable dense ids
/// keep side tables (distances, partitions, loads) trivially indexable.
///
/// # Example
///
/// ```
/// use vi_noc_graph::DiGraph;
///
/// let mut g: DiGraph<&str, f64> = DiGraph::new();
/// let a = g.add_node("producer");
/// let b = g.add_node("consumer");
/// let e = g.add_edge(a, b, 400.0);
/// assert_eq!(g.endpoints(e), (a, b));
/// assert_eq!(*g.edge(e), 400.0);
/// ```
#[derive(Debug, Clone)]
pub struct DiGraph<N, E> {
    nodes: Vec<NodeEntry<N>>,
    edges: Vec<EdgeEntry<E>>,
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Creates an empty graph with capacity reserved for `nodes`/`edges`.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a node carrying `payload` and returns its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeEntry {
            payload,
            out: Vec::new(),
        });
        id
    }

    /// Adds a directed edge `src -> dst` carrying `payload` and returns its id.
    ///
    /// Parallel edges and self-loops are permitted (the synthesis flow never
    /// creates self-loops, but the data structure does not forbid them).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a node of this graph.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, payload: E) -> EdgeId {
        assert!(src.index() < self.nodes.len(), "src node out of range");
        assert!(dst.index() < self.nodes.len(), "dst node out of range");
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(EdgeEntry { src, dst, payload });
        self.nodes[src.index()].out.push(id);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrows the payload of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: NodeId) -> &N {
        &self.nodes[node.index()].payload
    }

    /// Borrows the payload of `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn edge(&self, edge: EdgeId) -> &E {
        &self.edges[edge.index()].payload
    }

    /// Returns the `(source, destination)` pair of `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[edge.index()];
        (e.src, e.dst)
    }

    /// Returns the source node of `edge`.
    pub fn source(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.index()].src
    }

    /// Returns the destination node of `edge`.
    pub fn target(&self, edge: EdgeId) -> NodeId {
        self.edges[edge.index()].dst
    }

    /// Iterates over all edge ids in insertion order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from_index)
    }

    /// Iterates over the ids of edges leaving `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.nodes[node.index()].out.iter().copied()
    }

    /// Returns the first edge `src -> dst` if one exists.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_edges(src).find(|&e| self.target(e) == dst)
    }

    /// Returns `true` if an edge `src -> dst` exists.
    pub fn contains_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.find_edge(src, dst).is_some()
    }
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (DiGraph<u32, f64>, [NodeId; 3]) {
        let mut g = DiGraph::new();
        let a = g.add_node(0);
        let b = g.add_node(1);
        let c = g.add_node(2);
        g.add_edge(a, b, 1.0);
        g.add_edge(b, c, 2.0);
        g.add_edge(c, a, 3.0);
        (g, [a, b, c])
    }

    #[test]
    fn counts_track_insertions() {
        let (g, _) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.is_empty());
        assert!(DiGraph::<u8, u8>::new().is_empty());
    }

    #[test]
    fn payloads_are_addressable_and_mutable() {
        let (g, [a, _, _]) = triangle();
        assert_eq!(*g.node(a), 0);
        let e = g.find_edge(a, NodeId::from_index(1)).unwrap();
        assert_eq!(*g.edge(e), 1.0);
    }

    #[test]
    fn adjacency_is_consistent() {
        let (g, [a, b, c]) = triangle();
        let heads: Vec<NodeId> = g.out_edges(a).map(|e| g.target(e)).collect();
        assert_eq!(heads, vec![b]);
        let e = g.find_edge(b, c).unwrap();
        assert_eq!(g.endpoints(e), (b, c));
        assert_eq!(g.source(e), b);
        assert_eq!(g.target(e), c);
    }

    #[test]
    fn find_edge_distinguishes_direction() {
        let (g, [a, b, _]) = triangle();
        assert!(g.contains_edge(a, b));
        assert!(!g.contains_edge(b, a));
    }

    #[test]
    fn parallel_edges_are_allowed() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "dst node out of range")]
    fn add_edge_validates_endpoints() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId::from_index(5), ());
    }

    #[test]
    fn iterators_cover_all_ids() {
        let (g, _) = triangle();
        assert_eq!(g.edge_ids().count(), 3);
    }
}
