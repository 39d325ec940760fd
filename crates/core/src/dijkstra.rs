//! Dijkstra shortest paths over an implicit graph, stopped at a goal.
//!
//! The path allocator (paper §4, steps 14–17) searches a candidate switch
//! graph it never materializes: it walks a switch's legal out-edges island
//! block by island block and prices each from the current allocation
//! state. [`dijkstra`] therefore takes the out-edges as a closure that
//! offers each through [`OutEdges::relax`], and runs in caller-owned
//! [`SearchScratch`] arenas, so the thousands of searches of one sweep
//! chain allocate nothing once the arenas have grown.
//!
//! The tie rule is part of the contract, because the allocator's output —
//! and so every frontier byte — depends on it: the heap pops the smaller
//! distance first, then the smaller node, and a relaxation only takes a
//! strictly smaller distance, so of two equal-cost routes the one found
//! first wins.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Max-heap entry ordered so the smallest cost pops first, ties to the
/// smaller node.
#[derive(Debug, PartialEq)]
struct HeapEntry {
    cost: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap.
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

/// Marks a node without a predecessor: the source, or one not reached.
const NO_PREV: usize = usize::MAX;

/// Reusable arenas for [`dijkstra`]; after a search they hold its result.
#[derive(Debug, Default)]
pub(crate) struct SearchScratch {
    dist: Vec<f64>,
    /// Predecessor of every reached node but the source, [`NO_PREV`]
    /// otherwise.
    prev: Vec<usize>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
}

impl SearchScratch {
    /// Shortest distance to `node` found by the last search, or `None` if
    /// it was not reached — also when no search has run yet or `node` lies
    /// outside the last-searched graph.
    pub(crate) fn distance(&self, node: usize) -> Option<f64> {
        self.dist.get(node).copied().filter(|d| d.is_finite())
    }

    /// The node before `node` on the last search's path to it, or `None`
    /// for the source, a node not reached and one outside the graph.
    pub(crate) fn predecessor(&self, node: usize) -> Option<usize> {
        self.prev.get(node).copied().filter(|&p| p != NO_PREV)
    }
}

/// The out-edges of the node [`dijkstra`] is expanding, as its `expand`
/// closure offers them.
pub(crate) struct OutEdges<'a> {
    scratch: &'a mut SearchScratch,
    from: usize,
    dist: f64,
}

impl OutEdges<'_> {
    /// `true` when `node`'s distance is final. With non-negative weights
    /// no edge into it can improve it, so its edges need not be priced;
    /// skipping them also keeps a negative weight from re-pointing a
    /// settled node's predecessor.
    #[inline]
    pub(crate) fn settled(&self, node: usize) -> bool {
        self.scratch.settled[node]
    }

    /// Offers the edge into `node` at weight `w`.
    #[inline]
    pub(crate) fn relax(&mut self, node: usize, w: f64) {
        let nd = self.dist + w;
        let s = &mut *self.scratch;
        if nd < s.dist[node] {
            s.dist[node] = nd;
            s.prev[node] = self.from;
            s.heap.push(HeapEntry { cost: nd, node });
        }
    }
}

/// Runs Dijkstra from `src` over nodes `0..n` until `goal` settles and
/// returns its distance, or `None` when no path reaches it. `expand(u,
/// edges)` offers the out-edges of each settled node `u` but the goal
/// through `edges`; weights must be non-negative for the distances to be
/// shortest. The result stays in `scratch` until its next search.
pub(crate) fn dijkstra(
    scratch: &mut SearchScratch,
    n: usize,
    src: usize,
    goal: usize,
    mut expand: impl FnMut(usize, &mut OutEdges<'_>),
) -> Option<f64> {
    scratch.dist.clear();
    scratch.dist.resize(n, f64::INFINITY);
    scratch.prev.clear();
    scratch.prev.resize(n, NO_PREV);
    scratch.settled.clear();
    scratch.settled.resize(n, false);
    scratch.heap.clear();
    scratch.dist[src] = 0.0;
    scratch.heap.push(HeapEntry {
        cost: 0.0,
        node: src,
    });

    while let Some(HeapEntry { cost: d, node: u }) = scratch.heap.pop() {
        if scratch.settled[u] {
            continue;
        }
        scratch.settled[u] = true;
        if u == goal {
            break;
        }
        expand(
            u,
            &mut OutEdges {
                scratch: &mut *scratch,
                from: u,
                dist: d,
            },
        );
    }
    scratch.distance(goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bellman_ford::bellman_ford;
    use proptest::prelude::*;

    const A: usize = 0;
    const B: usize = 1;
    const C: usize = 2;
    const D: usize = 3;
    /// `A -> B -> D` at 1 + 1 and `A -> C -> D` at 3 + 3.
    const DIAMOND: [(usize, usize, f64); 4] = [(A, B, 1.0), (B, D, 1.0), (A, C, 3.0), (C, D, 3.0)];

    /// A search over an explicit edge list on nodes `A..=D`, relaxing the
    /// admitted edges at `cost(weight)`.
    fn search_with(
        scratch: &mut SearchScratch,
        edges: &[(usize, usize, f64)],
        src: usize,
        goal: usize,
        cost: impl Fn(f64) -> f64,
        admit: impl Fn(f64) -> bool,
    ) -> Option<f64> {
        dijkstra(scratch, 4, src, goal, |u, out| {
            for &(_, v, w) in edges.iter().filter(|e| e.0 == u && admit(e.2)) {
                out.relax(v, cost(w));
            }
        })
    }

    /// An unfiltered search with the edge weights as costs, in a fresh
    /// scratch.
    fn search(edges: &[(usize, usize, f64)], src: usize, goal: usize) -> SearchScratch {
        let mut scratch = SearchScratch::default();
        search_with(&mut scratch, edges, src, goal, |w| w, |_| true);
        scratch
    }

    /// Node sequence of the last search's path to `node` (inclusive), or
    /// `None` if it was not reached.
    fn path_nodes(scratch: &SearchScratch, node: usize) -> Option<Vec<usize>> {
        scratch.distance(node)?;
        let mut nodes = vec![node];
        while let Some(p) = scratch.predecessor(*nodes.last().unwrap()) {
            nodes.push(p);
        }
        nodes.reverse();
        Some(nodes)
    }

    #[test]
    fn picks_cheapest_route() {
        let t = search(&DIAMOND, A, D);
        assert_eq!(t.distance(D), Some(2.0));
        assert_eq!(path_nodes(&t, D).unwrap(), vec![A, B, D]);
    }

    #[test]
    fn source_has_zero_distance_and_empty_path() {
        let t = search(&DIAMOND, A, A);
        assert_eq!(t.distance(A), Some(0.0));
        assert_eq!(t.predecessor(A), None);
        assert_eq!(path_nodes(&t, A).unwrap(), vec![A]);
        // The source never gains a predecessor, also when it is not the goal.
        let t = search(&DIAMOND, A, D);
        assert_eq!(t.predecessor(A), None);
    }

    #[test]
    fn unreachable_is_none() {
        // D has no outgoing edges, so nothing is reachable from it but itself.
        let mut t = SearchScratch::default();
        assert_eq!(search_with(&mut t, &DIAMOND, D, A, |w| w, |_| true), None);
        assert_eq!(t.distance(A), None);
        assert!(path_nodes(&t, A).is_none());
    }

    #[test]
    fn filter_blocks_edges() {
        // Forbid the cheap B-route; the path must go through C.
        let mut t = SearchScratch::default();
        let d = search_with(&mut t, &DIAMOND, A, D, |w| w, |w| w >= 3.0);
        assert_eq!(d, Some(6.0));
        assert_eq!(path_nodes(&t, D).unwrap(), vec![A, C, D]);
    }

    #[test]
    fn early_exit_still_settles_goal() {
        // The goal settles at 2 before C (tentatively 3) is expanded, and
        // the goal itself is never expanded.
        let mut t = SearchScratch::default();
        let mut expanded = Vec::new();
        let d = dijkstra(&mut t, 4, A, D, |u, out| {
            expanded.push(u);
            for &(_, v, w) in DIAMOND.iter().filter(|e| e.0 == u) {
                out.relax(v, w);
            }
        });
        assert_eq!(d, Some(2.0));
        assert_eq!(t.distance(D), Some(2.0));
        assert_eq!(expanded, vec![A, B]);
        assert_eq!(t.distance(C), Some(3.0));
    }

    #[test]
    fn dynamic_cost_closure_is_respected() {
        // Invert preference: make the nominally cheap edges expensive.
        let mut t = SearchScratch::default();
        let cost = |w: f64| if w < 2.0 { 10.0 } else { w };
        assert_eq!(
            search_with(&mut t, &DIAMOND, A, D, cost, |_| true),
            Some(6.0)
        );
        assert_eq!(path_nodes(&t, D).unwrap(), vec![A, C, D]);
        // A cost read from state the caller changes between searches.
        let mut toll = 0.0;
        for want in [2.0, 6.0] {
            let d = dijkstra(&mut t, 4, A, D, |u, out| {
                for &(_, v, w) in DIAMOND.iter().filter(|e| e.0 == u) {
                    out.relax(v, if v == B { w + toll } else { w });
                }
            });
            assert_eq!(d, Some(want));
            toll = 100.0;
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let mut scratch = SearchScratch::default();
        for goal in [B, C, D] {
            search_with(&mut scratch, &DIAMOND, A, goal, |w| w, |_| true);
            let fresh = search(&DIAMOND, A, goal);
            assert_eq!(scratch.distance(goal), fresh.distance(goal));
            assert_eq!(path_nodes(&scratch, goal), path_nodes(&fresh, goal));
        }
    }

    #[test]
    fn scratch_reports_unreachable() {
        let mut scratch = SearchScratch::default();
        // First a search where everything is reachable, then one where
        // nothing is: stale state must not leak through the reset.
        search_with(&mut scratch, &DIAMOND, A, D, |w| w, |_| true);
        search_with(&mut scratch, &DIAMOND, D, A, |w| w, |_| true);
        assert_eq!(scratch.distance(A), None);
        assert_eq!(scratch.predecessor(B), None);
        assert!(path_nodes(&scratch, A).is_none());
        assert_eq!(scratch.distance(D), Some(0.0));
    }

    #[test]
    fn scratch_accessors_are_total() {
        // A fresh scratch and out-of-range nodes answer "not reached"
        // instead of panicking.
        let scratch = SearchScratch::default();
        assert_eq!(scratch.distance(0), None);
        assert_eq!(scratch.predecessor(5), None);
        let scratch = search(&DIAMOND, A, D);
        assert_eq!(scratch.distance(99), None);
        assert_eq!(scratch.predecessor(99), None);
    }

    #[test]
    fn ties_are_deterministic() {
        // Two routes at 2: the smaller node pops first and a relaxation
        // needs a strictly smaller distance, so D keeps B as predecessor
        // whatever order the edges are offered in.
        let forward = [(A, B, 1.0), (A, C, 1.0), (B, D, 1.0), (C, D, 1.0)];
        let mut backward = forward;
        backward.reverse();
        for edges in [forward, backward] {
            let t = search(&edges, A, D);
            assert_eq!(t.distance(D), Some(2.0));
            assert_eq!(path_nodes(&t, D).unwrap(), vec![A, B, D]);
        }
    }

    /// Strategy: a random directed graph as (n, edges) with n in 2..=12 and
    /// weights in 0.1..100.0.
    fn arb_digraph() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
        (2usize..=12).prop_flat_map(|n| {
            let edges = proptest::collection::vec(
                (0..n, 0..n, 0.1f64..100.0).prop_filter("no self loop", |(u, v, _)| u != v),
                0..40,
            );
            (Just(n), edges)
        })
    }

    /// Searches from node 0 to `goal` over `edges` in `scratch`.
    fn search_to(
        scratch: &mut SearchScratch,
        n: usize,
        edges: &[(usize, usize, f64)],
        goal: usize,
    ) -> Option<f64> {
        dijkstra(scratch, n, 0, goal, |u, out| {
            for &(_, v, w) in edges.iter().filter(|e| e.0 == u) {
                out.relax(v, w);
            }
        })
    }

    proptest! {
        /// Dijkstra and Bellman–Ford agree on non-negative-weight graphs,
        /// for every goal, in one reused scratch.
        #[test]
        fn dijkstra_matches_bellman_ford((n, edges) in arb_digraph()) {
            let bf = bellman_ford(n, 0, &edges).expect("non-negative weights");
            let mut scratch = SearchScratch::default();
            for (goal, &bfi) in bf.iter().enumerate() {
                let d = search_to(&mut scratch, n, &edges, goal).unwrap_or(f64::INFINITY);
                prop_assert!((bfi - d).abs() < 1e-6 || (bfi.is_infinite() && d.is_infinite()),
                    "node {goal}: bellman-ford {bfi} vs dijkstra {d}");
            }
        }

        /// The reconstructed path is a real walk from the source, and each
        /// step adds exactly the cheapest edge between its two nodes.
        #[test]
        fn dijkstra_paths_are_walks((n, edges) in arb_digraph()) {
            let mut scratch = SearchScratch::default();
            for goal in 0..n {
                if search_to(&mut scratch, n, &edges, goal).is_none() {
                    continue;
                }
                let path = path_nodes(&scratch, goal).unwrap();
                prop_assert_eq!(path[0], 0);
                prop_assert_eq!(*path.last().unwrap(), goal);
                for pair in path.windows(2) {
                    let w = edges
                        .iter()
                        .filter(|e| (e.0, e.1) == (pair[0], pair[1]))
                        .map(|e| e.2)
                        .reduce(f64::min);
                    prop_assert!(w.is_some(), "path step {}->{} is not an edge", pair[0], pair[1]);
                    let (du, dv) = (scratch.distance(pair[0]), scratch.distance(pair[1]));
                    prop_assert_eq!(dv, du.map(|d| d + w.unwrap()));
                }
            }
        }
    }
}
