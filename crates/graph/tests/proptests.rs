//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use vi_noc_graph::{
    bellman_ford, dijkstra, partition_kway, stoer_wagner, DiGraph, NodeId, PartitionConfig,
    SearchScratch, SymGraph,
};

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

/// Strategy: a random undirected weighted graph.
fn arb_symgraph() -> impl Strategy<Value = SymGraph> {
    arb_digraph().prop_map(|(n, edges)| {
        let mut g = SymGraph::new(n);
        for (u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    })
}

fn build_digraph(n: usize, edges: &[(usize, usize, f64)]) -> DiGraph<(), f64> {
    let mut g = DiGraph::new();
    let ids: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
    for &(u, v, w) in edges {
        g.add_edge(ids[u], ids[v], w);
    }
    g
}

proptest! {
    /// Dijkstra and Bellman–Ford agree on non-negative-weight graphs.
    #[test]
    fn dijkstra_matches_bellman_ford((n, edges) in arb_digraph()) {
        let g = build_digraph(n, &edges);
        let src = NodeId::from_index(0);
        let bf = bellman_ford(&g, src, |_, w| *w).expect("non-negative weights");
        let mut dj = SearchScratch::new();
        dijkstra(&g, src, None, |_, w| *w, |_, _| true, &mut dj);
        for (i, &bfi) in bf.iter().enumerate() {
            let node = NodeId::from_index(i);
            let d = dj.distance(node).unwrap_or(f64::INFINITY);
            prop_assert!((bfi - d).abs() < 1e-6 || (bfi.is_infinite() && d.is_infinite()),
                "node {i}: bellman-ford {bfi} vs dijkstra {d}");
        }
    }

    /// Shortest-path distances are monotone along the reconstructed path and
    /// the path is a real walk in the graph.
    #[test]
    fn dijkstra_paths_are_walks((n, edges) in arb_digraph()) {
        let g = build_digraph(n, &edges);
        let src = NodeId::from_index(0);
        let mut tree = SearchScratch::new();
        dijkstra(&g, src, None, |_, w| *w, |_, _| true, &mut tree);
        let mut edges = Vec::new();
        for i in 0..n {
            let node = NodeId::from_index(i);
            if tree.path_edges_into(node, &mut edges) {
                // The node sequence: the source, then each edge's target.
                let mut path = vec![src];
                for &e in &edges {
                    let (from, to) = g.endpoints(e);
                    prop_assert_eq!(from, *path.last().unwrap(),
                        "path edge {} does not continue the walk", e.index());
                    path.push(to);
                }
                prop_assert_eq!(*path.last().unwrap(), node);
                for pair in path.windows(2) {
                    prop_assert!(g.contains_edge(pair[0], pair[1]),
                        "path step {}->{} is not an edge", pair[0], pair[1]);
                }
                let mut prev = -1.0;
                for &p in &path {
                    let d = tree.distance(p).unwrap();
                    prop_assert!(d >= prev - 1e-9);
                    prev = d;
                }
            }
        }
    }

    /// k-way partition invariants: every vertex assigned, exactly min(k, n)
    /// non-empty parts, and the cut never exceeds the total edge weight.
    #[test]
    fn partition_invariants(g in arb_symgraph(), k in 1usize..=6) {
        let cfg = PartitionConfig::default();
        let p = partition_kway(&g, k, &cfg);
        let expect_parts = k.min(g.len());
        prop_assert_eq!(p.len(), g.len());
        prop_assert_eq!(p.nonempty_part_count(), expect_parts);
        prop_assert!(p.cut_weight(&g) <= g.total_edge_weight() + 1e-9);
        for v in 0..g.len() {
            prop_assert!(p.part_of(v) < p.k());
        }
    }

    /// A 2-way partition's cut weight is lower-bounded by the global min cut.
    #[test]
    fn bisection_bounded_by_stoer_wagner(g in arb_symgraph()) {
        let p = partition_kway(&g, 2, &PartitionConfig::default());
        let (min_cut, _) = stoer_wagner(&g);
        // The heuristic is balanced so it may exceed the (unbalanced) global
        // min cut, but never undershoot it.
        prop_assert!(p.cut_weight(&g) >= min_cut - 1e-9,
            "bisection cut {} below global min cut {}", p.cut_weight(&g), min_cut);
    }

    /// Partitioning is deterministic for a fixed seed.
    #[test]
    fn partition_deterministic(g in arb_symgraph(), k in 1usize..=5, seed in 0u64..1000) {
        let cfg = PartitionConfig { seed, ..PartitionConfig::default() };
        let a = partition_kway(&g, k, &cfg);
        let b = partition_kway(&g, k, &cfg);
        prop_assert_eq!(a.assignment(), b.assignment());
    }

    /// Stoer–Wagner returns a cut consistent with its reported weight.
    #[test]
    fn stoer_wagner_weight_is_consistent(g in arb_symgraph()) {
        let (cut, side) = stoer_wagner(&g);
        let mut recomputed = 0.0;
        for u in 0..g.len() {
            for &(v, w) in g.neighbors(u) {
                if u < v && side[u] != side[v] {
                    recomputed += w;
                }
            }
        }
        prop_assert!((cut - recomputed).abs() < 1e-6,
            "reported {cut} vs recomputed {recomputed}");
        prop_assert!(side.iter().any(|&s| s));
        prop_assert!(side.iter().any(|&s| !s));
    }
}
