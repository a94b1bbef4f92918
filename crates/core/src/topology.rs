//! Definitions 1 and 2: path equivalence classes and `l-Top(a,b)`.
//!
//! Given the path set `PS(a,b,l)` of a pair:
//!
//! 1. group paths into **equivalence classes** by their label signature
//!    (for paths, labeled-graph isomorphism is exactly signature
//!    equality up to reversal — [`ts_graph::PathSig`]);
//! 2. for every choice of one **representative per class**, union the
//!    representatives into an instance graph (shared intermediate
//!    entities become shared nodes — this is what distinguishes T3 from
//!    T4 in Fig. 5) and take its canonical code;
//! 3. the set of distinct codes is `l-Top(a,b)`.
//!
//! The representative product can explode for pairs connected by weak
//! relationships (§6.2.3 reports up to 5000 paths per class and >1 day of
//! precompute at l=4). [`TopOptions`] bounds both the representatives
//! considered per class and the total product; truncation is *counted and
//! reported*, never silent.
//!
//! Canonicalization is the expensive step — a nauty-style backtracking
//! search per union graph — and across a database most unions are
//! structurally identical (every pair connected by a single P-U-D path
//! builds the same labeled graph). [`CanonMemo`] caches codes keyed by
//! the built union graph, so the backtracking search runs once per
//! distinct structure instead of once per pair.
//!
//! Two forms of the Definition-2 computation exist:
//!
//! * [`pair_topologies`] — the self-contained per-call form (owned
//!   [`PathSig`] classes), used by the online SQL method and tests;
//! * [`pair_topologies_into`] — the offline worker-loop form: classes
//!   come back as ids interned in a [`SigInterner`] (each signature is
//!   hashed once, with the hash cached alongside the id), every grouping
//!   decision is made by **sorting signature bytes**, never by map
//!   iteration order, and all intermediate state lives in a reusable
//!   [`TopScratch`] + [`PairTops`] pair, so a warm worker computes a
//!   pair without allocating anything it doesn't keep.

use std::hash::BuildHasher;

use ts_graph::{
    canonical_code, CanonicalCode, DataGraph, InstanceGraphBuilder, LGraph, PathRef, PathSig,
};
use ts_storage::cast;
use ts_storage::{fast_hash_u16s, FastBuildHasher, FastMap};

/// Guard rails for the Definition-2 representative product.
#[derive(Debug, Clone, Copy)]
pub struct TopOptions {
    /// Maximum representatives considered per equivalence class.
    pub max_reps_per_class: usize,
    /// Maximum number of representative combinations unioned per pair.
    pub max_product: usize,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions { max_reps_per_class: 32, max_product: 4096 }
    }
}

/// Memo table for [`ts_graph::canonical_code`] over Definition-2 union
/// graphs, generic over the map hasher (the determinism guard rebuilds
/// the catalog under randomly-seeded SipHash; production uses the
/// [`CanonMemo`] alias on the fast hasher).
///
/// Keyed by the built [`LGraph`] itself (labels + normalized edge list).
/// Union graphs are constructed by relabeling data-graph entities to
/// local indices in path-visit order, so two pairs whose chosen
/// representatives have the same label sequences and the same sharing
/// pattern — i.e. the same topology, the overwhelmingly common case —
/// produce byte-identical graphs and share one backtracking run.
/// Structurally distinct builds of isomorphic graphs each run the search
/// once and converge to equal codes, so memoization never changes
/// results, only skips repeated work.
///
/// Single-path unions are memoized by signature instead, through one of
/// two disjoint stores: [`CanonMemoH::code_of_path`] keys by the owned
/// signature (the per-call API), [`CanonMemoH::code_of_path_id`] keys by
/// a [`SigInterner`] id — a plain vector index, no hashing at all. A
/// given memo must stick to one of the two (worker memos use ids, shared
/// online memos use signatures); mixing them would only split hit
/// counts, never change codes.
#[expect(
    clippy::disallowed_types,
    reason = "hasher-generic base type — every instantiation below is HashMap<_, _, S> with S supplied by the caller"
)]
#[derive(Debug, Clone, Default)]
pub struct CanonMemoH<S> {
    /// Union-graph memo keyed by the graph's hash (hash-keyed-candidates
    /// pattern: each probe hashes the graph exactly once; identity is a
    /// full struct compare within the bucket, so a collision costs a
    /// compare, never correctness).
    map: std::collections::HashMap<u64, Vec<(LGraph, CanonicalCode)>, S>,
    /// The hasher used for the graph keys above.
    build: S,
    /// Single-path unions keyed by the path's signature. The canonical
    /// code is orientation-invariant, so the signature (itself reversal-
    /// normalized) determines it exactly — this catches the reversed-
    /// orientation builds the byte-wise graph key cannot.
    path_codes: std::collections::HashMap<PathSig, CanonicalCode, S>,
    /// Single-path unions keyed by interned signature id (dense).
    path_codes_by_id: Vec<Option<CanonicalCode>>,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that ran the backtracking search.
    pub misses: u64,
}

/// [`CanonMemoH`] on the fast hasher — the production memo.
pub type CanonMemo = CanonMemoH<FastBuildHasher>;

impl<S: BuildHasher + Default> CanonMemoH<S> {
    /// Empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonical code of `union`, computed at most once per distinct
    /// (byte-wise) graph.
    pub fn code_of(&mut self, union: &LGraph) -> CanonicalCode {
        self.code_of_ref(union).clone()
    }

    /// Borrowing form of [`CanonMemoH::code_of`]: hot callers compare
    /// the code against what they already kept and clone only the
    /// keepers. The union graph is hashed exactly once per probe.
    pub fn code_of_ref(&mut self, union: &LGraph) -> &CanonicalCode {
        let h = self.build.hash_one(union);
        let bucket = self.map.entry(h).or_default();
        if let Some(i) = bucket.iter().position(|(g, _)| g == union) {
            self.hits += 1;
            return &bucket[i].1;
        }
        self.misses += 1;
        let code = canonical_code(union);
        let i = bucket.len();
        bucket.push((union.clone(), code));
        &bucket[i].1
    }

    /// Canonical code of a single-path union with signature `sig`.
    pub fn code_of_path(&mut self, sig: &PathSig, union: &LGraph) -> CanonicalCode {
        if let Some(code) = self.path_codes.get(sig) {
            self.hits += 1;
            return code.clone();
        }
        self.misses += 1;
        let code = canonical_code(union);
        self.path_codes.insert(sig.clone(), code.clone());
        code
    }

    /// Canonical code of a single-path union whose signature was
    /// interned as `sig_id` — a vector probe, no hashing. Only valid
    /// with ids from one consistent [`SigInterner`] per memo.
    pub fn code_of_path_id(&mut self, sig_id: u32, union: &LGraph) -> CanonicalCode {
        let i = sig_id as usize;
        if i >= self.path_codes_by_id.len() {
            self.path_codes_by_id.resize(i + 1, None);
        }
        if let Some(code) = &self.path_codes_by_id[i] {
            self.hits += 1;
            return code.clone();
        }
        self.misses += 1;
        let code = canonical_code(union);
        self.path_codes_by_id[i] = Some(code.clone());
        code
    }

    /// Number of distinct structures memoized.
    pub fn len(&self) -> usize {
        self.map.values().map(Vec::len).sum::<usize>()
            + self.path_codes.len()
            + self.path_codes_by_id.iter().filter(|c| c.is_some()).count()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Hash-consing interner for path signatures with the hash cached
/// alongside the interned value.
///
/// Each *probe* hashes the signature bytes exactly once (counted in
/// [`SigInterner::hashes`] — the build-level budget the bench records as
/// `sig_hash_once`), and the hash of every interned signature is kept in
/// the table, so downstream interners (the catalog's, at merge time)
/// re-intern worker signatures **without ever re-hashing them**.
/// Identity is decided by full byte comparison; the hash only buckets,
/// so a collision costs a compare, never correctness.
#[derive(Debug, Clone, Default)]
pub struct SigInterner {
    by_hash: FastMap<u64, Vec<u32>>,
    sigs: Vec<(PathSig, u64)>,
    /// Full-signature hash computations performed by this interner.
    pub hashes: u64,
}

impl SigInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a normalized signature byte sequence, returning its id.
    /// The sequence is copied into an owned [`PathSig`] only on first
    /// sight.
    pub fn intern_seq(&mut self, seq: &[u16]) -> u32 {
        self.hashes += 1;
        let h = fast_hash_u16s(seq);
        let ids = self.by_hash.entry(h).or_default();
        for &id in ids.iter() {
            if self.sigs[id as usize].0 .0 == seq {
                return id;
            }
        }
        let id = cast::to_u32(self.sigs.len());
        ids.push(id);
        self.sigs.push((PathSig(seq.to_vec()), h));
        id
    }

    /// Signature by id.
    pub fn sig(&self, id: u32) -> &PathSig {
        &self.sigs[id as usize].0
    }

    /// Cached hash of an interned signature.
    pub fn hash_of(&self, id: u32) -> u64 {
        self.sigs[id as usize].1
    }

    /// Number of distinct signatures interned.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Consume the interner into its `(signature, cached hash)` table,
    /// indexed by id — what the merge phase hands to the catalog.
    pub fn into_table(self) -> Vec<(PathSig, u64)> {
        self.sigs
    }
}

/// The topologies of one entity pair.
#[derive(Debug, Clone)]
pub struct PairTopologies {
    /// Distinct union graphs with their canonical codes, sorted by code.
    pub unions: Vec<(LGraph, CanonicalCode)>,
    /// The pair's path equivalence classes (sorted signatures).
    pub classes: Vec<PathSig>,
    /// True if any guard rail truncated the product.
    pub truncated: bool,
}

impl PairTopologies {
    /// Number of path equivalence classes (`s` in Definition 2).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }
}

/// The worker-loop form of [`PairTopologies`]: classes as interned
/// signature ids. One instance per worker, reused for every pair — the
/// worker drains `unions` into its flat result arena after each pair,
/// keeping the capacity.
#[derive(Debug, Clone, Default)]
pub struct PairTops {
    /// Distinct union graphs with their canonical codes, sorted by code.
    pub unions: Vec<(LGraph, CanonicalCode)>,
    /// Interned ids of the pair's path equivalence classes, in sorted
    /// signature order.
    pub class_ids: Vec<u32>,
    /// True if any guard rail truncated the product.
    pub truncated: bool,
}

/// Reusable buffers for grouping a pair's paths into classes and running
/// the representative product. All grouping is **sort-based** over
/// signature bytes: class order, representative order, and union
/// emission order are structural properties of the input, with no map
/// iteration anywhere — swapping hashers cannot reorder anything.
#[derive(Debug, Clone, Default)]
pub struct TopScratch {
    /// Flat arena of the pair's normalized signature sequences.
    sig_bytes: Vec<u16>,
    /// End offsets into `sig_bytes`, one per path (entry 0 = 0).
    sig_off: Vec<u32>,
    /// Path indices sorted by signature bytes (ties by index).
    order: Vec<u32>,
    /// Class boundaries: `(start, end)` ranges into `order`.
    class_ranges: Vec<(u32, u32)>,
    /// Odometer state of the representative product.
    idx: Vec<usize>,
    /// Reusable union-graph builder.
    builder: InstanceGraphBuilder,
}

impl TopScratch {
    /// Fresh scratch (buffers grow to steady state within a few pairs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Signature byte slice of path `i`.
    fn sig_of(&self, i: u32) -> &[u16] {
        &self.sig_bytes[self.sig_off[i as usize] as usize..self.sig_off[i as usize + 1] as usize]
    }
}

/// Group `paths` into equivalence classes by signature: fill the scratch
/// arena with each path's normalized signature bytes, sort path indices
/// by those bytes, and record class ranges. Classes come out in
/// ascending signature order, paths within a class in input order.
fn group_classes(g: &DataGraph, paths: &[PathRef<'_>], s: &mut TopScratch) {
    s.sig_bytes.clear();
    s.sig_off.clear();
    s.sig_off.push(0);
    for p in paths {
        p.sig_extend(g, &mut s.sig_bytes);
        s.sig_off.push(cast::to_u32(s.sig_bytes.len()));
    }
    let TopScratch { sig_bytes, sig_off, order, class_ranges, .. } = s;
    let sig_of =
        |i: u32| &sig_bytes[sig_off[i as usize] as usize..sig_off[i as usize + 1] as usize];
    order.clear();
    order.extend(0..cast::to_u32(paths.len()));
    order.sort_unstable_by(|&a, &b| sig_of(a).cmp(sig_of(b)).then(a.cmp(&b)));
    class_ranges.clear();
    let mut i = 0;
    while i < order.len() {
        let mut j = i + 1;
        while j < order.len() && sig_of(order[j]) == sig_of(order[i]) {
            j += 1;
        }
        class_ranges.push((cast::to_u32(i), cast::to_u32(j)));
        i = j;
    }
}

/// Add one path's edges to a union builder.
fn add_path_edges(g: &DataGraph, p: PathRef<'_>, b: &mut InstanceGraphBuilder) {
    for i in 0..p.rels.len() {
        let (u, v) = (p.nodes[i], p.nodes[i + 1]);
        b.edge(u, g.node_type(u), v, g.node_type(v), p.rels[i]);
    }
}

/// Build the union graph of one path into the reusable builder `b`
/// (cleared first); the kept graph is cloned out so `b`'s buffers stay
/// warm for the next pair.
fn single_path_union(g: &DataGraph, p: PathRef<'_>, b: &mut InstanceGraphBuilder) -> LGraph {
    b.clear();
    add_path_edges(g, p, b);
    b.finish_ref().clone()
}

/// Run the capped representative product over the classes recorded in
/// `s` (by [`group_classes`]), appending this pair's distinct unions —
/// sorted by canonical code — to `out`. Returns the truncation flag.
///
/// Dedup is a linear scan of the pair's distinct-so-far slice (first
/// odometer occurrence kept, as before): pairs have a handful of
/// distinct codes, and it keeps determinism structural where the old
/// code went through a per-pair hash map.
fn product_unions<S: BuildHasher + Default>(
    g: &DataGraph,
    paths: &[PathRef<'_>],
    opts: TopOptions,
    memo: &mut CanonMemoH<S>,
    s: &mut TopScratch,
    out: &mut Vec<(LGraph, CanonicalCode)>,
) -> bool {
    if s.class_ranges.is_empty() {
        return false;
    }
    let base = out.len();
    let mut truncated = false;
    for &(lo, hi) in &s.class_ranges {
        if (hi - lo) as usize > opts.max_reps_per_class {
            truncated = true;
        }
    }
    s.idx.clear();
    s.idx.resize(s.class_ranges.len(), 0);
    let mut produced = 0usize;
    'outer: loop {
        if produced >= opts.max_product {
            truncated = true;
            break;
        }
        produced += 1;

        s.builder.clear();
        for (c, &(lo, _)) in s.class_ranges.iter().enumerate() {
            let p = paths[s.order[lo as usize + s.idx[c]] as usize];
            add_path_edges(g, p, &mut s.builder);
        }
        let union = s.builder.finish_ref();
        let code = memo.code_of_ref(union);
        if !out[base..].iter().any(|(_, c)| c == code) {
            out.push((union.clone(), code.clone()));
        }

        // Advance the odometer.
        let mut c = 0;
        loop {
            if c == s.class_ranges.len() {
                break 'outer;
            }
            s.idx[c] += 1;
            let (lo, hi) = s.class_ranges[c];
            let reps = ((hi - lo) as usize).min(opts.max_reps_per_class);
            if s.idx[c] < reps {
                break;
            }
            s.idx[c] = 0;
            c += 1;
        }
    }
    out[base..].sort_by(|a, b| a.1.cmp(&b.1));
    truncated
}

/// Group paths into equivalence classes by signature (Definition 1).
///
/// Returns classes sorted by signature (paths within a class in input
/// order) — the order is produced by sorting signature bytes, so it is
/// deterministic by construction.
pub fn path_classes<'p>(g: &DataGraph, paths: &[PathRef<'p>]) -> Vec<(PathSig, Vec<PathRef<'p>>)> {
    let mut s = TopScratch::new();
    group_classes(g, paths, &mut s);
    s.class_ranges
        .iter()
        .map(|&(lo, hi)| {
            let sig = PathSig(s.sig_of(s.order[lo as usize]).to_vec());
            let ps = s.order[lo as usize..hi as usize].iter().map(|&i| paths[i as usize]).collect();
            (sig, ps)
        })
        .collect()
}

/// Compute `l-Top(a,b)` from the pair's path set (Definition 2),
/// canonicalizing through `memo` — the self-contained per-call form.
pub fn pair_topologies<S: BuildHasher + Default>(
    g: &DataGraph,
    paths: &[PathRef<'_>],
    opts: TopOptions,
    memo: &mut CanonMemoH<S>,
) -> PairTopologies {
    // Fast path for the dominant case: a pair connected by exactly one
    // instance path has exactly one class and one union — the path
    // itself. Skips the grouping sort, the odometer, and the dedup scan.
    if let [p] = paths {
        let sig = p.sig(g);
        let mut b = InstanceGraphBuilder::new();
        add_path_edges(g, *p, &mut b);
        let union = b.build(); // consuming: the builder is per-call here
        let code = memo.code_of_path(&sig, &union);
        return PairTopologies {
            unions: vec![(union, code)],
            classes: vec![sig],
            truncated: false,
        };
    }

    let mut s = TopScratch::new();
    group_classes(g, paths, &mut s);
    let classes: Vec<PathSig> = s
        .class_ranges
        .iter()
        .map(|&(lo, _)| PathSig(s.sig_of(s.order[lo as usize]).to_vec()))
        .collect();
    let mut unions = Vec::new();
    let truncated = product_unions(g, paths, opts, memo, &mut s, &mut unions);
    PairTopologies { unions, classes, truncated }
}

/// The worker-loop form of [`pair_topologies`]: signatures are interned
/// (hashed once each, hash cached), classes come back as ids, and all
/// intermediate state lives in caller-owned reusable buffers. A warm
/// worker allocates only what it keeps: the pair's distinct union graphs
/// and their codes.
pub fn pair_topologies_into<S: BuildHasher + Default>(
    g: &DataGraph,
    paths: &[PathRef<'_>],
    opts: TopOptions,
    memo: &mut CanonMemoH<S>,
    sigs: &mut SigInterner,
    scratch: &mut TopScratch,
    out: &mut PairTops,
) {
    out.unions.clear();
    out.class_ids.clear();
    out.truncated = false;
    if paths.is_empty() {
        return;
    }
    if let [p] = paths {
        p.sig_into(g, &mut scratch.sig_bytes);
        let id = sigs.intern_seq(&scratch.sig_bytes);
        let union = single_path_union(g, *p, &mut scratch.builder);
        let code = memo.code_of_path_id(id, &union);
        out.unions.push((union, code));
        out.class_ids.push(id);
        return;
    }
    group_classes(g, paths, scratch);
    for &(lo, _) in &scratch.class_ranges {
        out.class_ids.push(sigs.intern_seq(scratch.sig_of(scratch.order[lo as usize])));
    }
    out.truncated = product_unions(g, paths, opts, memo, scratch, &mut out.unions);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_graph::fixtures::{figure3, DNA, PROTEIN};
    use ts_graph::paths::enumerate_pair_paths;

    fn tops_of(
        g: &DataGraph,
        pp: &ts_graph::PairPaths,
        a: u32,
        b: u32,
        opts: TopOptions,
    ) -> PairTopologies {
        pair_topologies(g, &pp.paths(a, b), opts, &mut CanonMemo::new())
    }

    #[test]
    fn l_top_78_215_is_t3_and_t4() {
        // Paper §2.2: 3-Top(78,215) = { T3, T4 } — two topologies, because
        // the two representatives of the P-U-D class interact differently
        // with the P-U-P-D path (u103 shared vs u150 distinct).
        let (_db, g, schema) = figure3();
        let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
        let p78 = g.node(PROTEIN, 78).unwrap();
        let d215 = g.node(DNA, 215).unwrap();
        let t = tops_of(&g, &pp, p78, d215, TopOptions::default());
        assert_eq!(t.class_count(), 2);
        assert_eq!(t.unions.len(), 2, "expected T3 and T4");
        assert!(!t.truncated);
        // T3 has 4 nodes (shared unigene), T4 has 5.
        let mut node_counts: Vec<usize> = t.unions.iter().map(|(g, _)| g.node_count()).collect();
        node_counts.sort_unstable();
        assert_eq!(node_counts, vec![4, 5]);
    }

    #[test]
    fn l_top_44_742_is_t2_only() {
        // Both paths are isomorphic (one class), so the topology is the
        // single P-U-D path shape T2 — not the double-path T5.
        let (_db, g, schema) = figure3();
        let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
        let p44 = g.node(PROTEIN, 44).unwrap();
        let d742 = g.node(DNA, 742).unwrap();
        let t = tops_of(&g, &pp, p44, d742, TopOptions::default());
        assert_eq!(t.class_count(), 1);
        assert_eq!(t.unions.len(), 1);
        assert_eq!(t.unions[0].0.node_count(), 3); // P-U-D path
    }

    #[test]
    fn l_top_32_214_is_t1() {
        let (_db, g, schema) = figure3();
        let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
        let p32 = g.node(PROTEIN, 32).unwrap();
        let d214 = g.node(DNA, 214).unwrap();
        let t = tops_of(&g, &pp, p32, d214, TopOptions::default());
        assert_eq!(t.class_count(), 1);
        assert_eq!(t.unions.len(), 1);
        assert_eq!(t.unions[0].0.node_count(), 2); // P -encodes- D
        assert_eq!(t.unions[0].0.edge_count(), 1);
    }

    #[test]
    fn empty_paths_empty_topologies() {
        let (_db, g, _schema) = figure3();
        let t = pair_topologies(&g, &[], TopOptions::default(), &mut CanonMemo::new());
        assert!(t.unions.is_empty());
        assert_eq!(t.class_count(), 0);
        assert!(!t.truncated);
    }

    #[test]
    fn truncation_is_reported() {
        let (_db, g, schema) = figure3();
        let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
        let p78 = g.node(PROTEIN, 78).unwrap();
        let d215 = g.node(DNA, 215).unwrap();
        let t = tops_of(&g, &pp, p78, d215, TopOptions { max_reps_per_class: 1, max_product: 1 });
        assert!(t.truncated);
        assert!(t.unions.len() <= 1);
    }

    #[test]
    fn classes_sorted_and_deterministic() {
        let (_db, g, schema) = figure3();
        let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
        let p78 = g.node(PROTEIN, 78).unwrap();
        let d215 = g.node(DNA, 215).unwrap();
        let t1 = tops_of(&g, &pp, p78, d215, TopOptions::default());
        let t2 = tops_of(&g, &pp, p78, d215, TopOptions::default());
        assert_eq!(t1.classes, t2.classes);
        let codes1: Vec<_> = t1.unions.iter().map(|(_, c)| c.clone()).collect();
        let codes2: Vec<_> = t2.unions.iter().map(|(_, c)| c.clone()).collect();
        assert_eq!(codes1, codes2);
        let mut sorted = t1.classes.clone();
        sorted.sort();
        assert_eq!(sorted, t1.classes);
    }

    #[test]
    fn memo_hits_do_not_change_codes() {
        // Running every pair through one shared memo must give the same
        // codes as a fresh memo per pair (i.e. no memoization at all).
        let (_db, g, schema) = figure3();
        let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
        let mut shared = CanonMemo::new();
        for (a, b) in pp.sorted_pairs() {
            let with_shared =
                pair_topologies(&g, &pp.paths(a, b), TopOptions::default(), &mut shared);
            let fresh = tops_of(&g, &pp, a, b, TopOptions::default());
            let c1: Vec<_> = with_shared.unions.iter().map(|(_, c)| c.clone()).collect();
            let c2: Vec<_> = fresh.unions.iter().map(|(_, c)| c.clone()).collect();
            assert_eq!(c1, c2);
        }
        assert!(shared.hits > 0, "figure-3 pairs share topology structures");
        assert_eq!(shared.len() as u64, shared.misses);
    }

    #[test]
    fn worker_form_matches_per_call_form() {
        // pair_topologies_into (interned sigs, reusable scratch, by-id
        // memo) must agree with pair_topologies on every figure-3 pair,
        // while reusing one PairTops and one TopScratch throughout.
        let (_db, g, schema) = figure3();
        let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
        let mut memo = CanonMemo::new();
        let mut sigs = SigInterner::new();
        let mut scratch = TopScratch::new();
        let mut out = PairTops::default();
        for (a, b) in pp.sorted_pairs() {
            let paths = pp.paths(a, b);
            pair_topologies_into(
                &g,
                &paths,
                TopOptions::default(),
                &mut memo,
                &mut sigs,
                &mut scratch,
                &mut out,
            );
            let reference = tops_of(&g, &pp, a, b, TopOptions::default());
            assert_eq!(out.truncated, reference.truncated);
            assert_eq!(out.unions, reference.unions, "pair ({a},{b})");
            let class_sigs: Vec<PathSig> =
                out.class_ids.iter().map(|&id| sigs.sig(id).clone()).collect();
            assert_eq!(class_sigs, reference.classes, "pair ({a},{b})");
        }
        assert!(!sigs.is_empty());
        // Hash budget: one signature hash per (pair, class) probe, never
        // per path and never per map operation downstream.
        let class_instances: u64 = pp
            .sorted_pairs()
            .iter()
            .map(|&(a, b)| path_classes(&g, &pp.paths(a, b)).len() as u64)
            .sum();
        assert_eq!(sigs.hashes, class_instances);
    }

    #[test]
    fn sig_interner_dedups_and_caches_hashes() {
        let mut i = SigInterner::new();
        let a = i.intern_seq(&[0, 1, 2, 1, 0]);
        let b = i.intern_seq(&[3, 7, 4]);
        let a2 = i.intern_seq(&[0, 1, 2, 1, 0]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.hashes, 3, "every probe hashes exactly once");
        assert_eq!(i.sig(a).0, vec![0, 1, 2, 1, 0]);
        assert_eq!(i.hash_of(a), ts_storage::fast_hash_u16s(&[0, 1, 2, 1, 0]));
        let table = i.into_table();
        assert_eq!(table.len(), 2);
        assert_eq!(table[b as usize].0 .0, vec![3, 7, 4]);
    }
}
