//! Simple-path enumeration: `PS(a, b, l)` from §2.1 of the paper.
//!
//! "A path is a sequence of consecutive edges ... A simple path is a path
//! such that no node is traversed more than once. All paths mentioned in
//! this paper are simple paths." Enumeration is a DFS over the data graph
//! that steps a [`WalkAutomaton`] along every edge: a partial path is
//! extended along an edge only if its label walk stays a prefix of some
//! schema walk to the target entity set within the length limit. This
//! visits exactly the prefixes of label walks the schema admits — the
//! same work the paper's per-schema-path SQL queries do (§4.1), fused
//! into one traversal — and, like those queries, every emitted path
//! arrives knowing its schema walk, hence its Definition-1 class.
//!
//! The offline build enumerates millions of paths, so results stream into
//! a [`PathSink`]: either a plain `Vec<Path>` (one allocation pair per
//! path — fine for online per-pair work) or a CSR-style [`PathArena`]
//! (two shared buffers plus an offset table, with borrowing [`PathRef`]
//! views — the allocation-lean form the catalog build uses).

use crate::data_graph::{DataGraph, NodeId};
use crate::schema_graph::{SchemaGraph, WalkAutomaton};
use ts_storage::cast;
use ts_storage::FastMap;

/// An owned instance-level simple path. `nodes.len() == rels.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// Data-graph nodes along the path.
    pub nodes: Vec<NodeId>,
    /// Relationship-set ids along the path.
    pub rels: Vec<u16>,
}

impl Path {
    /// Path length in edges.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// True for a degenerate zero-edge path (never produced by the
    /// enumerator, but kept total for callers constructing paths).
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Borrowing view of this path.
    pub fn as_ref(&self) -> PathRef<'_> {
        PathRef { nodes: &self.nodes, rels: &self.rels }
    }

    /// `(first, last)` node.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        self.as_ref().endpoints()
    }

    /// Label signature identifying the path's isomorphism class.
    pub fn sig(&self, g: &DataGraph) -> PathSig {
        self.as_ref().sig(g)
    }

    /// The path with nodes and rels reversed.
    pub fn reversed(&self) -> Path {
        let mut nodes = self.nodes.clone();
        let mut rels = self.rels.clone();
        nodes.reverse();
        rels.reverse();
        Path { nodes, rels }
    }
}

/// A borrowed view of a simple path — the arena's element type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathRef<'a> {
    /// Data-graph nodes along the path.
    pub nodes: &'a [NodeId],
    /// Relationship-set ids along the path.
    pub rels: &'a [u16],
}

impl PathRef<'_> {
    /// Path length in edges.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// True for a degenerate zero-edge path.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// `(first, last)` node.
    #[expect(
        clippy::expect_used,
        reason = "a path view holds one node more than it has edges: Path and PathStore both store nodes = rels + 1"
    )]
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (*self.nodes.first().expect("path has nodes"), *self.nodes.last().expect("path has nodes"))
    }

    /// Label signature identifying the path's isomorphism class.
    ///
    /// A path's labeled graph is determined by its alternating
    /// type/relationship label sequence, up to reversal; the signature is
    /// the lexicographic minimum of the sequence and its reverse, so two
    /// paths are isomorphic iff their signatures are equal (Definition 1's
    /// equivalence classes reduce to signature equality for paths). Built
    /// in one pass: the forward sequence is materialized once and compared
    /// against its own mirror in place — no clone-and-reverse round-trip.
    pub fn sig(&self, g: &DataGraph) -> PathSig {
        let mut fwd = Vec::new();
        self.sig_into(g, &mut fwd);
        PathSig(fwd)
    }

    /// Fill `buf` with the path's normalized signature sequence — the
    /// scratch form of [`PathRef::sig`], allocation-free once the buffer
    /// is warm.
    pub fn sig_into(&self, g: &DataGraph, buf: &mut Vec<u16>) {
        buf.clear();
        self.sig_extend(g, buf);
    }

    /// Append the path's normalized signature sequence to `arena`
    /// (normalizing only the appended tail) — the flat-arena form used
    /// when many paths' signatures share one buffer. This is the single
    /// definition of the signature encoding; both scratch forms go
    /// through it. Returns true when the signature is the path read
    /// backwards (see [`PathSig::normalize_slice`]).
    pub fn sig_extend(&self, g: &DataGraph, arena: &mut Vec<u16>) -> bool {
        let start = arena.len();
        arena.reserve(self.nodes.len() + self.rels.len());
        for i in 0..self.rels.len() {
            arena.push(g.node_type(self.nodes[i]));
            arena.push(self.rels[i]);
        }
        #[expect(clippy::expect_used, reason = "Path is only constructed with at least one node")]
        let last = *self.nodes.last().expect("path has nodes");
        arena.push(g.node_type(last));
        PathSig::normalize_slice(&mut arena[start..])
    }

    /// An owning copy.
    pub fn to_path(&self) -> Path {
        Path { nodes: self.nodes.to_vec(), rels: self.rels.to_vec() }
    }
}

/// Reversal-normalized label signature of a path (its equivalence class).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathSig(pub Vec<u16>);

impl PathSig {
    /// Normalize an interleaved `type, rel, type, …, type` sequence into
    /// a signature: the lexicographic minimum of the sequence and its
    /// reverse, decided by an in-place mirror comparison (the sequence is
    /// reversed only when the reverse actually wins).
    pub fn from_interleaved(mut seq: Vec<u16>) -> PathSig {
        Self::normalize_slice(&mut seq);
        PathSig(seq)
    }

    /// In-place normalization of an interleaved sequence: reverse it iff
    /// the reverse is lexicographically smaller (mirror comparison, no
    /// copy). After this, the slice *is* signature bytes — comparing or
    /// hashing it is comparing or hashing the signature. Returns true iff
    /// it reversed the sequence (never for a palindrome): with the
    /// signature, that bit gives back the sequence as it was.
    pub fn normalize_slice(seq: &mut [u16]) -> bool {
        let n = seq.len();
        for i in 0..n {
            match seq[i].cmp(&seq[n - 1 - i]) {
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Greater => {
                    seq.reverse();
                    return true;
                }
                std::cmp::Ordering::Equal => {}
            }
        }
        // palindromic: forward == reverse
        false
    }

    /// Number of edges in paths of this class.
    pub fn len(&self) -> usize {
        self.0.len() / 2
    }

    /// True only for the degenerate empty signature.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Receives each accepted path of a DFS enumeration as borrowed slices.
///
/// The two standard sinks: `Vec<Path>` copies every path into owned
/// vectors (the seed behaviour); [`PathArena`] appends into shared
/// buffers without per-path allocation. Both drop the walk id; the
/// offline build's sink files each path under its walk's class.
pub trait PathSink {
    /// Called once per accepted path; `nodes.len() == rels.len() + 1`.
    /// `walk` indexes [`WalkAutomaton::accepted_walks`]: the schema walk whose
    /// type and relationship labels the path carries.
    fn accept(&mut self, nodes: &[NodeId], rels: &[u16], walk: u32);
}

impl PathSink for Vec<Path> {
    fn accept(&mut self, nodes: &[NodeId], rels: &[u16], _walk: u32) {
        self.push(Path { nodes: nodes.to_vec(), rels: rels.to_vec() });
    }
}

/// CSR-style path store: one shared `nodes` buffer, one shared `rels`
/// buffer, and an offset table. Path `i` has `nodes[off[i]..off[i+1]]`;
/// because every path has exactly one more node than relationships, the
/// `rels` range is derived from the same table (`off[i] - i`) — a single
/// offset column covers both buffers.
#[derive(Debug, Clone)]
pub struct PathArena {
    nodes: Vec<NodeId>,
    rels: Vec<u16>,
    /// Node-buffer start offset per path, plus one trailing end offset.
    off: Vec<u32>,
}

impl Default for PathArena {
    fn default() -> Self {
        PathArena { nodes: Vec::new(), rels: Vec::new(), off: vec![0] }
    }
}

impl PathArena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored paths.
    pub fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// True when no paths are stored.
    pub fn is_empty(&self) -> bool {
        self.off.len() == 1
    }

    /// Total node slots in the backing buffer (capacity diagnostics).
    pub fn node_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Drop all paths, keeping the buffer capacity for reuse.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.rels.clear();
        self.off.truncate(1);
    }

    /// Append a path (two `memcpy`s, no per-path allocation once the
    /// buffers are warm).
    pub fn push(&mut self, nodes: &[NodeId], rels: &[u16]) {
        debug_assert_eq!(nodes.len(), rels.len() + 1, "path shape");
        self.nodes.extend_from_slice(nodes);
        self.rels.extend_from_slice(rels);
        self.off.push(cast::to_u32(self.nodes.len()));
    }

    /// Borrowing view of path `i`.
    pub fn get(&self, i: usize) -> PathRef<'_> {
        let (ns, ne) = (self.off[i] as usize, self.off[i + 1] as usize);
        PathRef { nodes: &self.nodes[ns..ne], rels: &self.rels[ns - i..ne - (i + 1)] }
    }

    /// Iterate over all stored paths.
    pub fn iter(&self) -> impl Iterator<Item = PathRef<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl PathSink for PathArena {
    fn accept(&mut self, nodes: &[NodeId], rels: &[u16], _walk: u32) {
        self.push(nodes, rels);
    }
}

/// Stream all simple paths from `a` that follow a walk of `auto`
/// (length 1..=l, ending in its target entity set) into `sink`, each
/// with its walk id. A `Vec<Path>` sink collects them as owned paths.
pub fn paths_from_into<S: PathSink>(g: &DataGraph, auto: &WalkAutomaton, a: NodeId, sink: &mut S) {
    let mut nodes = Vec::with_capacity(8);
    nodes.push(a);
    let mut rels: Vec<u16> = Vec::with_capacity(8);
    dfs(g, auto, WalkAutomaton::START, &mut nodes, &mut rels, sink);
}

fn dfs<S: PathSink>(
    g: &DataGraph,
    auto: &WalkAutomaton,
    state: u32,
    nodes: &mut Vec<NodeId>,
    rels: &mut Vec<u16>,
    sink: &mut S,
) {
    if let Some(walk) = auto.accepts(state) {
        sink.accept(nodes, rels, walk);
    }
    if !auto.is_open(state) {
        return;
    }
    #[expect(
        clippy::expect_used,
        reason = "the dfs entry point seeds nodes with the start node before the first recursive call"
    )]
    let cur = *nodes.last().expect("path non-empty");
    for &(rid, next) in g.neighbors(cur) {
        let Some(child) = auto.step(state, rid) else { continue };
        // Simplicity check: the path stack is at most l+1 nodes, so a
        // linear scan beats any hash set.
        if nodes.contains(&next) {
            continue;
        }
        nodes.push(next);
        rels.push(rid);
        dfs(g, auto, child, nodes, rels, sink);
        nodes.pop();
        rels.pop();
    }
}

/// The `l`-path sets for every connected pair `(a, b)` with
/// `type(a) = from_es`, `type(b) = to_es`: the union of `PS(a,b,l)` over
/// all pairs, grouped by pair. Backed by a [`PathArena`]; the map holds
/// arena indices, not owned paths.
#[derive(Debug, Clone, Default)]
pub struct PairPaths {
    /// The shared path store.
    pub arena: PathArena,
    /// `(a, b)` → arena indices of the paths from a to b. For
    /// `from_es == to_es`, keys are normalized to `a < b` and each path
    /// is stored oriented a→b. Consumers never iterate this map raw —
    /// [`PairPaths::sorted_pairs`] is the deterministic order.
    pub map: FastMap<(NodeId, NodeId), Vec<u32>>,
}

impl PairPaths {
    /// Number of connected pairs.
    pub fn pair_count(&self) -> usize {
        self.map.len()
    }

    /// Total number of paths.
    pub fn path_count(&self) -> usize {
        self.arena.len()
    }

    /// Pairs in deterministic order (sorted by node ids).
    pub fn sorted_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut keys: Vec<_> = self.map.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Borrowing views of the paths of one pair (empty if unconnected).
    pub fn paths(&self, a: NodeId, b: NodeId) -> Vec<PathRef<'_>> {
        self.map
            .get(&(a, b))
            .map(|idxs| idxs.iter().map(|&i| self.arena.get(i as usize)).collect())
            .unwrap_or_default()
    }

    /// All paths of all pairs, as borrowing views.
    pub fn all_paths(&self) -> impl Iterator<Item = PathRef<'_>> {
        self.arena.iter()
    }
}

/// Sink that files each accepted path under its endpoint pair, skipping
/// the duplicate b→a discovery of same-type pairs.
struct PairSink {
    arena: PathArena,
    map: FastMap<(NodeId, NodeId), Vec<u32>>,
    same_type: bool,
}

impl PathSink for PairSink {
    fn accept(&mut self, nodes: &[NodeId], rels: &[u16], _walk: u32) {
        #[expect(
            clippy::expect_used,
            reason = "sinks only receive non-empty node lists — accept fires after the dfs seeded its start node"
        )]
        let (s, e) = (nodes[0], *nodes.last().expect("path has nodes"));
        if self.same_type && s > e {
            // Each undirected pair is discovered from both endpoints;
            // keep the a < b orientation only.
            return;
        }
        let idx = cast::to_u32(self.arena.len());
        self.arena.push(nodes, rels);
        self.map.entry((s, e)).or_default().push(idx);
    }
}

/// Enumerate the path sets between two entity sets.
pub fn enumerate_pair_paths(
    g: &DataGraph,
    schema: &SchemaGraph,
    from_es: u16,
    to_es: u16,
    l: usize,
) -> PairPaths {
    let auto = WalkAutomaton::new(schema, from_es, to_es, l);
    let mut sink =
        PairSink { arena: PathArena::new(), map: FastMap::default(), same_type: from_es == to_es };
    for &a in g.nodes_of_type(from_es) {
        paths_from_into(g, &auto, a, &mut sink);
    }
    PairPaths { arena: sink.arena, map: sink.map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure3;

    #[test]
    fn ps_78_215_3_matches_paper() {
        // §2.2 Example: PS(78, 215, 3) = { l2, l3, l6 }.
        let (db, g, schema) = figure3();
        let _ = db;
        let p78 = g.node(0, 78).unwrap();
        let d215 = g.node(2, 215).unwrap();
        let pp = enumerate_pair_paths(&g, &schema, 0, 2, 3);
        let paths = pp.paths(p78, d215);
        assert_eq!(paths.len(), 3);
        // Two of them share a signature (P-U-D via u103 and via u150), one
        // is the length-3 P-U-P-D path.
        let mut sigs: Vec<PathSig> = paths.iter().map(|p| p.sig(&g)).collect();
        sigs.sort();
        sigs.dedup();
        assert_eq!(sigs.len(), 2);
    }

    #[test]
    fn ps_44_742_3_has_two_isomorphic_paths() {
        // §2.2 Example: PS(44, 742, 3) = { l4, l5 }, both isomorphic.
        let (_db, g, schema) = figure3();
        let p44 = g.node(0, 44).unwrap();
        let d742 = g.node(2, 742).unwrap();
        let pp = enumerate_pair_paths(&g, &schema, 0, 2, 3);
        let paths = pp.paths(p44, d742);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].sig(&g), paths[1].sig(&g));
    }

    #[test]
    fn pair_32_214_has_direct_encode() {
        let (_db, g, schema) = figure3();
        let p32 = g.node(0, 32).unwrap();
        let d214 = g.node(2, 214).unwrap();
        let pp = enumerate_pair_paths(&g, &schema, 0, 2, 3);
        let paths = pp.paths(p32, d214);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 1);
    }

    #[test]
    fn signature_reversal_invariance() {
        let (_db, g, schema) = figure3();
        let pp = enumerate_pair_paths(&g, &schema, 0, 2, 3);
        for p in pp.all_paths() {
            assert_eq!(p.sig(&g), p.to_path().reversed().sig(&g));
        }
    }

    #[test]
    fn palindromic_signatures_survive_normalization() {
        // A sequence equal to its own reverse must pass through unchanged.
        let seq = vec![3u16, 7, 1, 7, 3];
        assert_eq!(PathSig::from_interleaved(seq.clone()).0, seq);
        // And the reverse of a non-palindrome maps to the same signature.
        let fwd = vec![0u16, 5, 2, 6, 1];
        let mut rev = fwd.clone();
        rev.reverse();
        assert_eq!(PathSig::from_interleaved(fwd.clone()), PathSig::from_interleaved(rev));
        assert_eq!(PathSig::from_interleaved(fwd.clone()).0, fwd);
    }

    #[test]
    fn paths_are_simple() {
        let (_db, g, schema) = figure3();
        let pp = enumerate_pair_paths(&g, &schema, 0, 2, 4);
        for p in pp.all_paths() {
            let mut ns = p.nodes.to_vec();
            ns.sort_unstable();
            ns.dedup();
            assert_eq!(ns.len(), p.nodes.len(), "path revisits a node: {p:?}");
        }
    }

    #[test]
    fn same_type_pairs_normalized() {
        // Protein–Protein pairs through shared unigenes/DNAs.
        let (_db, g, schema) = figure3();
        let pp = enumerate_pair_paths(&g, &schema, 0, 0, 2);
        for &(a, b) in pp.map.keys() {
            assert!(a < b);
        }
        // p78 and p34 share u103: a P-U-P path must exist.
        let p78 = g.node(0, 78).unwrap();
        let p34 = g.node(0, 34).unwrap();
        let key = (p78.min(p34), p78.max(p34));
        assert!(pp.map.contains_key(&key));
    }

    #[test]
    fn length_limit_respected() {
        let (_db, g, schema) = figure3();
        for l in 1..=4 {
            let pp = enumerate_pair_paths(&g, &schema, 0, 2, l);
            for p in pp.all_paths() {
                assert!(p.len() <= l);
            }
        }
    }

    #[test]
    fn longer_limit_never_loses_paths() {
        let (_db, g, schema) = figure3();
        let pp3 = enumerate_pair_paths(&g, &schema, 0, 2, 3);
        let pp4 = enumerate_pair_paths(&g, &schema, 0, 2, 4);
        assert!(pp4.path_count() >= pp3.path_count());
        for (&pair, idxs) in &pp3.map {
            let sup: Vec<Path> = pp4.paths(pair.0, pair.1).iter().map(PathRef::to_path).collect();
            for &i in idxs {
                assert!(sup.contains(&pp3.arena.get(i as usize).to_path()));
            }
        }
    }

    #[test]
    fn arena_roundtrip_preserves_paths() {
        let (_db, g, schema) = figure3();
        let auto = WalkAutomaton::new(&schema, 0, 2, 3);
        for &a in g.nodes_of_type(0) {
            let mut owned: Vec<Path> = Vec::new();
            paths_from_into(&g, &auto, a, &mut owned);
            let mut arena = PathArena::new();
            paths_from_into(&g, &auto, a, &mut arena);
            assert_eq!(arena.len(), owned.len());
            for (i, p) in owned.iter().enumerate() {
                assert_eq!(arena.get(i), p.as_ref());
            }
        }
    }

    #[test]
    fn arena_clear_keeps_capacity() {
        let mut arena = PathArena::new();
        arena.push(&[1, 2, 3], &[7, 8]);
        arena.push(&[4, 5], &[9]);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(1).endpoints(), (4, 5));
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.node_slots(), 0);
        arena.push(&[6, 7], &[1]);
        assert_eq!(arena.get(0).rels, &[1]);
    }
}
