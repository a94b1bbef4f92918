//! Canonical codes are bit-identical to the allocating canonicaliser
//! they replaced, not merely permutation-invariant.
//!
//! Topology ids are interned in (pair key, code) order, so a consistent
//! but *different* encoding — one that every invariance test accepts —
//! would still renumber every `TopologyId` and change every catalog
//! digest. `reference` below is that earlier `refine` + `Search`, kept
//! verbatim (one `Vec` per row, per placed node, per candidate list and
//! per refinement round); `ts_graph::canonical_code` must return exactly
//! its words on random labelled multigraphs, on generated shapes with
//! non-trivial automorphisms, and on every topology of a generated
//! catalog.

use proptest::prelude::*;
use topology_search::prelude::*;
use ts_graph::{canonical_code, CanonicalCode, LGraph};

/// The allocating canonicaliser, verbatim apart from its entry point's
/// name.
mod reference {
    use ts_graph::{CanonicalCode, LGraph};
    use ts_storage::cast;

    /// Compute the canonical code of `g`.
    pub fn canonical_code(g: &LGraph) -> CanonicalCode {
        let n = g.node_count();
        if n == 0 {
            return CanonicalCode(Vec::new());
        }
        let colors = refine(g);
        let mut search = Search {
            g,
            colors: &colors,
            perm: Vec::with_capacity(n),
            used: vec![false; n],
            code: Vec::new(),
            best: None,
        };
        search.run();
        CanonicalCode(search.best.expect("non-empty graph yields a code"))
    }

    /// 1-WL colour refinement with deterministic colour ranks.
    fn refine(g: &LGraph) -> Vec<u32> {
        let n = g.node_count();
        // Initial colours: rank of node label.
        let mut sorted_labels: Vec<u16> = g.labels.clone();
        sorted_labels.sort_unstable();
        sorted_labels.dedup();
        let mut colors: Vec<u32> = g
            .labels
            .iter()
            .map(|l| cast::to_u32(sorted_labels.binary_search(l).expect("label present")))
            .collect();

        // Precompute neighbourhoods once.
        let neigh: Vec<Vec<(u16, u8)>> = (0..n).map(|v| g.neighbors(cast::to_u8(v))).collect();

        loop {
            // Signature per node: (current colour, sorted (elabel, neighbour colour)).
            let mut sigs: Vec<(u32, Vec<(u16, u32)>)> = Vec::with_capacity(n);
            for v in 0..n {
                let mut ns: Vec<(u16, u32)> =
                    neigh[v].iter().map(|&(el, w)| (el, colors[w as usize])).collect();
                ns.sort_unstable();
                sigs.push((colors[v], ns));
            }
            let mut distinct: Vec<&(u32, Vec<(u16, u32)>)> = sigs.iter().collect();
            distinct.sort();
            distinct.dedup();
            let new_colors: Vec<u32> = sigs
                .iter()
                .map(|s| cast::to_u32(distinct.binary_search(&s).expect("sig present")))
                .collect();
            if new_colors == colors {
                return colors;
            }
            colors = new_colors;
        }
    }

    /// Backtracking minimal-code search.
    struct Search<'a> {
        g: &'a LGraph,
        colors: &'a [u32],
        perm: Vec<u8>,
        used: Vec<bool>,
        code: Vec<u32>,
        best: Option<Vec<u32>>,
    }

    impl Search<'_> {
        fn run(&mut self) {
            self.step(true);
        }

        /// `tight` — the current partial code equals the best code's prefix
        /// of the same length. Only then may a row that compares greater
        /// than best's corresponding segment be pruned; once the partial
        /// code is strictly smaller ("free"), every completion must be
        /// explored because it beats the current best regardless of later
        /// rows. (All complete codes have equal length: each label, slot
        /// separator, row marker and edge label appears exactly once.)
        fn step(&mut self, tight: bool) {
            let n = self.g.node_count();
            if self.perm.len() == n {
                match &self.best {
                    Some(b) if self.code.as_slice() >= b.as_slice() => {}
                    _ => self.best = Some(self.code.clone()),
                }
                return;
            }
            // Candidates: unused nodes in the minimal remaining colour class.
            let cmin = (0..n)
                .filter(|&v| !self.used[v])
                .map(|v| self.colors[v])
                .min()
                .expect("unused node exists");
            let candidates: Vec<usize> =
                (0..n).filter(|&v| !self.used[v] && self.colors[v] == cmin).collect();

            for v in candidates {
                let row = self.row_for(cast::to_u8(v));
                let mut child_tight = false;
                if let Some(best) = &self.best {
                    if tight {
                        let start = self.code.len();
                        let end = (start + row.len()).min(best.len());
                        match row.as_slice().cmp(&best[start..end]) {
                            std::cmp::Ordering::Greater => continue, // prune
                            std::cmp::Ordering::Equal => child_tight = true,
                            std::cmp::Ordering::Less => child_tight = false,
                        }
                    }
                }
                let mark = self.code.len();
                self.code.extend_from_slice(&row);
                self.used[v] = true;
                self.perm.push(cast::to_u8(v));

                self.step(child_tight);

                self.perm.pop();
                self.used[v] = false;
                self.code.truncate(mark);
            }
        }

        /// Encoding row for placing node `v` at the next position: its label,
        /// then for every already-placed node the sorted edge labels between
        /// them. Token space: 0 = slot separator, 1 = row end, labels ≥ 2.
        fn row_for(&self, v: u8) -> Vec<u32> {
            let mut row = Vec::with_capacity(2 + self.perm.len());
            row.push(u32::from(self.g.labels[v as usize]) + 2);
            for &p in &self.perm {
                let mut labels: Vec<u32> = self
                    .g
                    .edges
                    .iter()
                    .filter(|&&(a, b, _)| (a == p && b == v) || (a == v && b == p))
                    .map(|&(_, _, l)| u32::from(l) + 2)
                    .collect();
                labels.sort_unstable();
                row.push(0);
                row.extend(labels);
            }
            row.push(1);
            row
        }
    }
}

/// `g`'s code equals the reference's, and so does the code of `g` with
/// its nodes renumbered by `perm`.
fn assert_matches_reference(g: &LGraph, perm: &[u8]) {
    let want = reference::canonical_code(g);
    assert_eq!(canonical_code(g), want, "graph {g}");
    assert_eq!(canonical_code(&g.permuted(perm)), want, "graph {g} permuted {perm:?}");
}

/// Random labelled multigraph: 2–10 nodes over three node labels, up to
/// 3n edges over three edge labels, so node pairs often carry several
/// edges with different labels.
fn arb_multigraph() -> impl Strategy<Value = LGraph> {
    (2usize..11).prop_flat_map(|n| {
        let end = u8::try_from(n).unwrap();
        let labels = proptest::collection::vec(0u16..3, n);
        let edges = proptest::collection::vec((0..end, 0..end, 0u16..3), 0..3 * n);
        (labels, edges).prop_map(|(labels, edges)| {
            let mut g = LGraph { labels, edges: Vec::new() };
            for (u, v, l) in edges {
                if u != v {
                    g.add_edge(u, v, l);
                }
            }
            g.normalize();
            g
        })
    })
}

/// A shape with non-trivial automorphisms, where the search has to
/// backtrack: `k` parallel paths of `len` edges between two endpoints,
/// a 4-cycle, or K₂,₃. Node labels come from `nl` and edge labels from
/// `el` (cycled), so some draws keep every symmetry and others break a
/// few.
fn symmetric_shape(kind: u8, k: usize, len: usize, nl: &[u16], el: &[u16]) -> LGraph {
    let mut g = LGraph::new();
    let node_label = |i: usize| nl[i % nl.len()];
    let edge_label = |i: usize| el[i % el.len()];
    match kind {
        0 => {
            let (s, t) = (g.add_node(node_label(0)), g.add_node(node_label(1)));
            for _ in 0..k {
                let mut prev = s;
                for step in 1..len {
                    let mid = g.add_node(node_label(1 + step));
                    g.add_edge(prev, mid, edge_label(step - 1));
                    prev = mid;
                }
                g.add_edge(prev, t, edge_label(len - 1));
            }
        }
        1 => {
            let nodes: Vec<u8> = (0..4).map(|i| g.add_node(node_label(i))).collect();
            for i in 0..4 {
                g.add_edge(nodes[i], nodes[(i + 1) % 4], edge_label(i));
            }
        }
        _ => {
            let left: Vec<u8> = (0..2).map(|i| g.add_node(node_label(i))).collect();
            let right: Vec<u8> = (0..3).map(|i| g.add_node(node_label(2 + i))).collect();
            for (i, &a) in left.iter().enumerate() {
                for (j, &b) in right.iter().enumerate() {
                    g.add_edge(a, b, edge_label(i * 3 + j));
                }
            }
        }
    }
    g.normalize();
    g
}

fn arb_perm(n: usize) -> impl Strategy<Value = Vec<u8>> {
    Just((0..u8::try_from(n).unwrap()).collect::<Vec<u8>>()).prop_shuffle()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codes_equal_the_reference_on_random_multigraphs(
        (g, perm) in arb_multigraph().prop_flat_map(|g| {
            let n = g.node_count();
            (Just(g), arb_perm(n))
        })
    ) {
        assert_matches_reference(&g, &perm);
    }

    #[test]
    fn codes_equal_the_reference_on_symmetric_shapes(
        (g, perm) in (
            0u8..3,
            2usize..5,
            2usize..4,
            proptest::collection::vec(0u16..2, 1..4),
            proptest::collection::vec(0u16..2, 1..3),
        )
            .prop_flat_map(|(kind, k, len, nl, el)| {
                let g = symmetric_shape(kind, k, len, &nl, &el);
                let n = g.node_count();
                (Just(g), arb_perm(n))
            })
    ) {
        assert_matches_reference(&g, &perm);
    }
}

#[test]
fn the_empty_graph_codes_as_before() {
    assert_eq!(canonical_code(&LGraph::new()), reference::canonical_code(&LGraph::new()));
    assert_eq!(canonical_code(&LGraph::new()), CanonicalCode(Vec::new()));
}

#[test]
fn edges_in_insertion_order_code_as_before() {
    // `add_edge` appends; only `normalize` sorts. Unsorted edges with a
    // multi-edge whose labels arrive descending must code as they did.
    let mut g = LGraph::new();
    let (p, u, d) = (g.add_node(0), g.add_node(2), g.add_node(1));
    g.add_edge(d, p, 5);
    g.add_edge(p, d, 3);
    g.add_edge(u, p, 1);
    g.add_edge(d, u, 2);
    assert!(!g.edges.is_sorted());
    assert_eq!(canonical_code(&g), reference::canonical_code(&g));
    let mut normalized = g.clone();
    normalized.normalize();
    assert_eq!(canonical_code(&g), canonical_code(&normalized));
}

#[test]
fn every_topology_of_a_generated_catalog_codes_as_before() {
    let biozon = biozon::generate(&biozon::BiozonConfig::small(1));
    let graph = graph::DataGraph::from_db(&biozon.db).expect("generator is consistent");
    let schema = graph::SchemaGraph::from_db(&biozon.db);
    let mut es_pairs = ts_core::compute::default_es_pairs(&biozon.db, &schema, 3);
    let ids = &biozon.ids;
    es_pairs.extend([EsPair::new(ids.protein, ids.protein), EsPair::new(ids.dna, ids.dna)]);
    let opts = ComputeOptions { es_pairs: Some(es_pairs), ..ComputeOptions::with_l(3) };
    let (catalog, _) = compute_catalog(&biozon.db, &graph, &schema, &opts);
    assert!(catalog.topology_count() > 100, "{} topologies", catalog.topology_count());
    for m in catalog.metas() {
        assert_eq!(reference::canonical_code(&m.graph), m.code, "topology {}", m.id);
        assert_eq!(canonical_code(&m.graph), m.code, "topology {}", m.id);
    }
}
