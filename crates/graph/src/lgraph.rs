//! Small labeled undirected multigraphs.
//!
//! Topology graphs are unions of a handful of paths, so they are tiny
//! (≤ ~2 + (l−1)·s nodes). [`LGraph`] stores them densely: node labels are
//! entity-set ids, edge labels are relationship-set ids. Multi-edges with
//! different labels between the same node pair are allowed (two entity
//! sets can be connected by several relationship sets).

use std::fmt;

use ts_storage::cast;

/// A small labeled undirected multigraph.
///
/// Node indices are `u8` — topology graphs never approach 256 nodes; the
/// compute pipeline enforces this.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LGraph {
    /// Node labels (entity-set / type ids).
    pub labels: Vec<u16>,
    /// Edges `(u, v, label)` with `u <= v` normalized; sorted, deduped.
    pub edges: Vec<(u8, u8, u16)>,
}

impl LGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with `label`; returns its index.
    pub fn add_node(&mut self, label: u16) -> u8 {
        assert!(self.labels.len() < u8::MAX as usize, "topology graph too large");
        self.labels.push(label);
        cast::to_u8(self.labels.len() - 1)
    }

    /// Add an undirected edge; endpoint order is normalized. Duplicate
    /// `(u, v, label)` triples are ignored (parallel identical
    /// relationships collapse at the schema level).
    pub fn add_edge(&mut self, u: u8, v: u8, label: u16) {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        assert!((b as usize) < self.labels.len(), "edge endpoint out of range");
        let e = (a, b, label);
        if !self.edges.contains(&e) {
            self.edges.push(e);
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Degree of node `v` (parallel edges counted separately).
    pub fn degree(&self, v: u8) -> usize {
        self.edges.iter().filter(|&&(a, b, _)| a == v || b == v).count()
    }

    /// Labeled neighbourhood of `v`: `(edge label, neighbour index)` pairs.
    pub fn neighbors(&self, v: u8) -> Vec<(u16, u8)> {
        let mut out = Vec::new();
        for &(a, b, l) in &self.edges {
            if a == v {
                out.push((l, b));
            } else if b == v {
                out.push((l, a));
            }
        }
        out
    }

    /// Normalize edge order (sorted). Called before hashing/compare.
    pub fn normalize(&mut self) {
        self.edges.sort_unstable();
        self.edges.dedup();
    }

    /// Apply a node permutation: node `i` of the result is node `perm[i]`
    /// of `self`. Used by property tests and the canonicalizer.
    pub fn permuted(&self, perm: &[u8]) -> LGraph {
        assert_eq!(perm.len(), self.labels.len());
        let mut inv = vec![0u8; perm.len()];
        for (new, &old) in perm.iter().enumerate() {
            inv[old as usize] = cast::to_u8(new);
        }
        let mut g = LGraph {
            labels: perm.iter().map(|&old| self.labels[old as usize]).collect(),
            edges: self
                .edges
                .iter()
                .map(|&(u, v, l)| {
                    let (a, b) = (inv[u as usize], inv[v as usize]);
                    if a <= b {
                        (a, b, l)
                    } else {
                        (b, a, l)
                    }
                })
                .collect(),
        };
        g.normalize();
        g
    }

    /// True if the graph is connected (empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u8];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for (_, w) in self.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }
}

impl fmt::Display for LGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LGraph(n={}, e={:?})", self.node_count(), self.edges)
    }
}

/// Builds the union of instance paths into an [`LGraph`], identifying
/// nodes by an external key (the data-graph node id), as required by
/// Definition 2: paths that share an intermediate entity must share the
/// node in the union graph (this is exactly what distinguishes T3 from T4
/// in Fig. 5 of the paper).
#[derive(Debug, Clone, Default)]
pub struct InstanceGraphBuilder {
    graph: LGraph,
    /// key (external node id) → local index, small linear map.
    keys: Vec<(u32, u8)>,
}

impl InstanceGraphBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an external node, creating it with `label` on first sight.
    pub fn node(&mut self, key: u32, label: u16) -> u8 {
        if let Some(&(_, idx)) = self.keys.iter().find(|(k, _)| *k == key) {
            return idx;
        }
        let idx = self.graph.add_node(label);
        self.keys.push((key, idx));
        idx
    }

    /// Add an edge between two external nodes.
    pub fn edge(&mut self, ukey: u32, ulabel: u16, vkey: u32, vlabel: u16, elabel: u16) {
        let u = self.node(ukey, ulabel);
        let v = self.node(vkey, vlabel);
        self.graph.add_edge(u, v, elabel);
    }

    /// Finish: normalized union graph.
    pub fn build(mut self) -> LGraph {
        self.graph.normalize();
        self.graph
    }

    /// Drop all nodes and edges, keeping buffer capacity — the reusable
    /// form of the builder: the Definition-2 product builds one union
    /// per representative combination, and a cleared builder makes that
    /// allocation-free once its buffers are warm.
    pub fn clear(&mut self) {
        self.graph.labels.clear();
        self.graph.edges.clear();
        self.keys.clear();
    }

    /// Normalize and borrow the built union without consuming the
    /// builder. Callers clone only the unions they decide to keep (the
    /// memoized-canonicalization path discards almost all of them).
    pub fn finish_ref(&mut self) -> &LGraph {
        self.graph.normalize();
        &self.graph
    }

    /// Local index of an already-interned key, if present.
    pub fn lookup(&self, key: u32) -> Option<u8> {
        self.keys.iter().find(|(k, _)| *k == key).map(|&(_, i)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Protein=0, DNA=1, Unigene=2; encodes=0, uni_encodes=1, uni_contains=2.
    fn path_graph(labels: &[u16], rels: &[u16]) -> LGraph {
        let mut g = LGraph::new();
        let nodes: Vec<u8> = labels.iter().map(|&l| g.add_node(l)).collect();
        for (i, &r) in rels.iter().enumerate() {
            g.add_edge(nodes[i], nodes[i + 1], r);
        }
        g.normalize();
        g
    }

    #[test]
    fn add_and_query() {
        let g = path_graph(&[0, 2, 1], &[1, 2]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(0), vec![(1, 1)]);
        assert!(g.is_connected());
    }

    #[test]
    fn duplicate_edges_collapse_but_multilabels_survive() {
        let mut g = LGraph::new();
        let a = g.add_node(0);
        let b = g.add_node(1);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 0); // same undirected edge
        g.add_edge(a, b, 7); // different label: a real multi-edge
        g.normalize();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(a), 2);
    }

    #[test]
    fn permuted_preserves_structure() {
        let g = path_graph(&[0, 2, 1], &[1, 2]);
        let p = g.permuted(&[2, 0, 1]);
        assert_eq!(p.labels, vec![1, 0, 2]);
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.edge_count(), 2);
        // degree multiset preserved
        let mut d1: Vec<usize> = (0..3u8).map(|v| g.degree(v)).collect();
        let mut d2: Vec<usize> = (0..3u8).map(|v| p.degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    fn disconnected_detected() {
        let mut g = LGraph::new();
        g.add_node(0);
        g.add_node(1);
        assert!(!g.is_connected());
        assert!(LGraph::new().is_connected());
    }

    #[test]
    fn builder_shares_nodes_across_paths() {
        // Paths p78-u103-d215 and p78-u103-p34-d215 share u103 (paper's
        // l2 and l6 sharing the entity u103 -> topology T3 not T4).
        let mut b = InstanceGraphBuilder::new();
        b.edge(78, 0, 103, 2, 1); // p78 -uni_encodes- u103
        b.edge(103, 2, 215, 1, 2); // u103 -uni_contains- d215
        b.edge(103, 2, 34, 0, 1); // u103 -uni_encodes- p34
        b.edge(34, 0, 215, 1, 0); // p34 -encodes- d215
        let g = b.build();
        assert_eq!(g.node_count(), 4); // p78, u103, d215, p34 (u103 shared)
        assert_eq!(g.edge_count(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn builder_distinct_keys_make_distinct_nodes() {
        // Same label sequence but distinct unigene entities -> 5 nodes (T4 shape).
        let mut b = InstanceGraphBuilder::new();
        b.edge(78, 0, 103, 2, 1);
        b.edge(103, 2, 215, 1, 2);
        b.edge(78, 0, 150, 2, 1); // different unigene
        b.edge(150, 2, 215, 1, 2);
        let g = b.build();
        assert_eq!(g.node_count(), 4); // p78, u103, u150, d215
        assert_eq!(g.edge_count(), 4);
        assert_eq!(b_lookup_count(&g), 2);
    }

    fn b_lookup_count(g: &LGraph) -> usize {
        g.labels.iter().filter(|&&l| l == 2).count()
    }
}
