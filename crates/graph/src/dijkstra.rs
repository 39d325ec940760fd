//! Dijkstra shortest paths with caller-supplied edge costs and filters.
//!
//! The path-allocation step of the synthesis algorithm (paper §4, step 15)
//! searches minimum-cost routes over a switch-level graph whose edge costs
//! depend on dynamic state (open-a-new-link vs. reuse, remaining capacity).
//! The functions here therefore take the cost as a closure evaluated per edge
//! and an optional edge-admissibility filter, rather than a static weight.

use crate::digraph::DiGraph;
use crate::ids::{EdgeId, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Max-heap entry ordered so the smallest cost pops first.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap and we want minimum cost first.
        other
            .cost
            .total_cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable arenas for [`dijkstra`].
///
/// A single Dijkstra run needs distance/predecessor/settled arrays plus a
/// binary heap. Callers that run many searches over graphs of similar size
/// (the path allocator runs one per flow per candidate) can keep one
/// `SearchScratch` alive and [`reset`](SearchScratch::reset) it between
/// searches, so the hot loop performs no heap allocation once the arenas
/// have grown to the working size.
#[derive(Debug)]
pub struct SearchScratch {
    source: NodeId,
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, EdgeId)>>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
}

impl Default for SearchScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SearchScratch {
    /// Creates empty arenas; they grow on first use.
    pub fn new() -> Self {
        SearchScratch {
            source: NodeId::from_index(0),
            dist: Vec::new(),
            prev: Vec::new(),
            settled: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Clears the arenas and sizes them for an `n`-node graph.
    ///
    /// Called by [`dijkstra`]; only needed directly when
    /// inspecting a scratch before any search has run.
    pub fn reset(&mut self, n: usize) {
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.prev.clear();
        self.prev.resize(n, None);
        self.settled.clear();
        self.settled.resize(n, false);
        self.heap.clear();
    }

    /// The source node of the last search.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Shortest distance to `node` found by the last search, or `None` if
    /// unreachable — including when no search has run yet or `node` lies
    /// outside the last-searched graph (the arenas are sized per search,
    /// and one scratch may be reused across graphs of different sizes).
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        let d = *self.dist.get(node.index())?;
        if d.is_finite() {
            Some(d)
        } else {
            None
        }
    }

    /// Writes the edge sequence of the last search's path `source -> node`
    /// into `out` (cleared first). Returns `false` (leaving `out` empty) if
    /// `node` is unreachable.
    pub fn path_edges_into(&self, node: NodeId, out: &mut Vec<EdgeId>) -> bool {
        out.clear();
        if self.distance(node).is_none() {
            return false;
        }
        let mut cur = node;
        while let Some((p, e)) = self.prev[cur.index()] {
            out.push(e);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        out.reverse();
        true
    }
}

/// Computes shortest paths from `source` with per-edge costs given by
/// `cost`, relaxing only the edges for which `admit` returns `true`.
///
/// The filter is how the synthesis flow enforces the shutdown-legality rule:
/// candidate links that would route a flow through a third voltage island are
/// simply not admitted into the search. Costs must be non-negative; this is
/// checked with a debug assertion. Stops early once `goal` (if provided) is
/// settled.
///
/// The search runs inside caller-owned [`SearchScratch`] arenas: the scratch
/// is [`reset`](SearchScratch::reset) at entry and holds the result
/// afterwards (query it via [`SearchScratch::distance`] /
/// [`SearchScratch::path_edges_into`]). Repeated searches reuse the same
/// memory, which is what the per-flow path allocation hot loop needs.
///
/// # Example
///
/// ```
/// use vi_noc_graph::{dijkstra, DiGraph, SearchScratch};
///
/// let mut g: DiGraph<(), f64> = DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let c = g.add_node(());
/// let ab = g.add_edge(a, b, 1.0);
/// let bc = g.add_edge(b, c, 1.0);
/// g.add_edge(a, c, 5.0);
/// let mut scratch = SearchScratch::new();
/// dijkstra(&g, a, Some(c), |_, w| *w, |_, _| true, &mut scratch);
/// assert_eq!(scratch.distance(c), Some(2.0));
/// let mut path = Vec::new();
/// assert!(scratch.path_edges_into(c, &mut path));
/// assert_eq!(path, vec![ab, bc]);
/// ```
pub fn dijkstra<N, E>(
    g: &DiGraph<N, E>,
    source: NodeId,
    goal: Option<NodeId>,
    cost: impl Fn(EdgeId, &E) -> f64,
    admit: impl Fn(EdgeId, &E) -> bool,
    scratch: &mut SearchScratch,
) {
    scratch.reset(g.node_count());
    scratch.source = source;
    scratch.dist[source.index()] = 0.0;
    scratch.heap.push(HeapEntry {
        cost: 0.0,
        node: source,
    });

    while let Some(HeapEntry { cost: d, node: u }) = scratch.heap.pop() {
        if scratch.settled[u.index()] {
            continue;
        }
        scratch.settled[u.index()] = true;
        if goal == Some(u) {
            break;
        }
        for e in g.out_edges(u) {
            let payload = g.edge(e);
            if !admit(e, payload) {
                continue;
            }
            let w = cost(e, payload);
            debug_assert!(w >= 0.0, "dijkstra requires non-negative edge costs");
            let v = g.target(e);
            let nd = d + w;
            if nd < scratch.dist[v.index()] {
                scratch.dist[v.index()] = nd;
                scratch.prev[v.index()] = Some((u, e));
                scratch.heap.push(HeapEntry { cost: nd, node: v });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<(), f64>, [NodeId; 4]) {
        // a -> b -> d (cost 1+1), a -> c -> d (cost 3+3)
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(b, d, 1.0);
        g.add_edge(a, c, 3.0);
        g.add_edge(c, d, 3.0);
        (g, [a, b, c, d])
    }

    /// An unfiltered search with the edge weights as costs, in a fresh
    /// scratch.
    fn search(g: &DiGraph<(), f64>, source: NodeId, goal: Option<NodeId>) -> SearchScratch {
        let mut scratch = SearchScratch::new();
        dijkstra(g, source, goal, |_, w| *w, |_, _| true, &mut scratch);
        scratch
    }

    /// Node sequence of the last search's path `source -> node`
    /// (inclusive), or `None` if unreachable.
    fn path_nodes(
        g: &DiGraph<(), f64>,
        scratch: &SearchScratch,
        node: NodeId,
    ) -> Option<Vec<NodeId>> {
        let mut edges = Vec::new();
        if !scratch.path_edges_into(node, &mut edges) {
            return None;
        }
        let mut nodes = vec![scratch.source()];
        nodes.extend(edges.iter().map(|&e| g.target(e)));
        Some(nodes)
    }

    #[test]
    fn picks_cheapest_route() {
        let (g, [a, b, _, d]) = diamond();
        let t = search(&g, a, None);
        assert_eq!(t.distance(d), Some(2.0));
        assert_eq!(path_nodes(&g, &t, d).unwrap(), vec![a, b, d]);
        let mut edges = Vec::new();
        assert!(t.path_edges_into(d, &mut edges));
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn source_has_zero_distance_and_empty_path() {
        let (g, [a, ..]) = diamond();
        let t = search(&g, a, None);
        assert_eq!(t.distance(a), Some(0.0));
        assert_eq!(path_nodes(&g, &t, a).unwrap(), vec![a]);
        let mut edges = vec![EdgeId::from_index(0)];
        assert!(t.path_edges_into(a, &mut edges));
        assert!(edges.is_empty());
        assert_eq!(t.source(), a);
    }

    #[test]
    fn unreachable_is_none() {
        let (g, [a, ..]) = diamond();
        // d has no outgoing edges, so nothing is reachable from it but itself.
        let d = NodeId::from_index(3);
        let t = search(&g, d, None);
        assert_eq!(t.distance(a), None);
        assert!(path_nodes(&g, &t, a).is_none());
    }

    #[test]
    fn filter_blocks_edges() {
        let (g, [a, _, c, d]) = diamond();
        // Forbid the cheap b-route; the path must go through c.
        let mut t = SearchScratch::new();
        dijkstra(&g, a, Some(d), |_, w| *w, |_, w| *w >= 3.0, &mut t);
        assert_eq!(t.distance(d), Some(6.0));
        assert_eq!(path_nodes(&g, &t, d).unwrap(), vec![a, c, d]);
    }

    #[test]
    fn early_exit_still_settles_goal() {
        let (g, [a, _, _, d]) = diamond();
        let t = search(&g, a, Some(d));
        assert_eq!(t.distance(d), Some(2.0));
    }

    #[test]
    fn dynamic_cost_closure_is_respected() {
        let (g, [a, _, _, d]) = diamond();
        // Invert preference: make the nominally cheap edges expensive.
        let mut t = SearchScratch::new();
        let cost = |_, w: &f64| if *w < 2.0 { 10.0 } else { *w };
        dijkstra(&g, a, None, cost, |_, _| true, &mut t);
        assert_eq!(t.distance(d), Some(6.0));
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let (g, [a, b, c, d]) = diamond();
        let mut scratch = SearchScratch::new();
        let (mut edges, mut fresh_edges) = (Vec::new(), Vec::new());
        for goal in [b, c, d] {
            dijkstra(&g, a, Some(goal), |_, w| *w, |_, _| true, &mut scratch);
            let fresh = search(&g, a, Some(goal));
            assert_eq!(scratch.distance(goal), fresh.distance(goal));
            assert!(scratch.path_edges_into(goal, &mut edges));
            assert!(fresh.path_edges_into(goal, &mut fresh_edges));
            assert_eq!(edges, fresh_edges);
        }
        assert_eq!(scratch.source(), a);
    }

    #[test]
    fn scratch_reports_unreachable() {
        let (g, [a, ..]) = diamond();
        let d = NodeId::from_index(3);
        let mut scratch = SearchScratch::new();
        // First a search where everything is reachable, then one where
        // nothing is: stale state must not leak through the reset.
        dijkstra(&g, a, None, |_, w| *w, |_, _| true, &mut scratch);
        dijkstra(&g, d, None, |_, w| *w, |_, _| true, &mut scratch);
        assert_eq!(scratch.distance(a), None);
        let mut edges = vec![EdgeId::from_index(0)];
        assert!(!scratch.path_edges_into(a, &mut edges));
        assert!(edges.is_empty(), "failed extraction must clear the buffer");
        assert_eq!(scratch.distance(d), Some(0.0));
    }

    #[test]
    fn scratch_accessors_are_total() {
        // A fresh scratch and out-of-range node ids answer "unreachable"
        // instead of panicking.
        let scratch = SearchScratch::new();
        assert_eq!(scratch.distance(NodeId::from_index(0)), None);
        let mut edges = Vec::new();
        assert!(!scratch.path_edges_into(NodeId::from_index(5), &mut edges));
        let (g, [a, ..]) = diamond();
        let scratch = search(&g, a, None);
        assert_eq!(scratch.distance(NodeId::from_index(99)), None);
        assert!(!scratch.path_edges_into(NodeId::from_index(99), &mut edges));
    }

    #[test]
    fn ties_are_deterministic() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(a, c, 1.0);
        g.add_edge(b, d, 1.0);
        g.add_edge(c, d, 1.0);
        let p1 = path_nodes(&g, &search(&g, a, None), d).unwrap();
        let p2 = path_nodes(&g, &search(&g, a, None), d).unwrap();
        assert_eq!(p1, p2);
    }
}
