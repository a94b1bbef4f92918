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
//! builds the same labeled graph). [`CanonMemo`] maps every union it has
//! seen to a **topology slot** — one canonical code, one representative
//! graph — so the backtracking search runs once per distinct structure
//! instead of once per pair, and a pair's result is a few `u32` slot ids.
//!
//! One Definition-2 computation serves two callers:
//!
//! * the offline worker loop appends each pair's slot ids and class ids
//!   (signatures interned in the memo's [`SigInterner`], each hashed
//!   once, the hash cached alongside the id) to its flat buffers. Every
//!   grouping decision is made by **sorting signature bytes**, never by
//!   map iteration order; intermediate state lives in one reusable
//!   scratch per worker; and a single-path pair whose signature already
//!   has a slot from an earlier pair builds no union at all;
//! * [`pair_topologies`] — the self-contained per-call form (owned
//!   [`PathSig`] classes, owned unions), used by the online SQL method
//!   and tests — runs the same function and copies each slot's graph
//!   and code out.

use std::hash::BuildHasher;
use std::time::Duration;

use ts_graph::{
    canonical_code, CanonicalCode, DataGraph, InstanceGraphBuilder, LGraph, PathRef, PathSig,
};
use ts_storage::cast;
use ts_storage::{fast_hash_u16s, FastBuildHasher, FastMap};

use crate::compute::clock;

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

/// The `(e1, e2)` entity ids of the pair a union came from.
pub(crate) type PairKey = (i64, i64);

/// Key of a slot no pair has offered a graph to yet: every pair's key is
/// `<=` it.
const NO_KEY: PairKey = (i64::MAX, i64::MAX);

/// The key [`pair_topologies`] offers with: `<=` every slot's key, so
/// each slot it returns holds this call's graph.
const PER_CALL_KEY: PairKey = (i64::MIN, i64::MIN);

/// Unset entry of [`CanonMemoH`]'s signature map.
const NO_SLOT: u32 = u32::MAX;

/// One topology as a memo knows it: a canonical code and the union graph
/// that represents it.
///
/// The representative is the first odometer occurrence in the least-keyed
/// pair that produced the code, whatever order the pairs arrive in: each
/// pair offers its first occurrence of the slot, and the slot takes it
/// when the pair's key is `<=` the one it holds. Keys are unique per
/// worker pair and a pair offers a slot at most once, so for the offline
/// build this means "strictly smaller". The merge resolves a slot at its
/// least-keyed pair, so the graph the catalog keeps is that pair's — the
/// one a merge interning pair by pair in key order would have kept.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    pub(crate) code: CanonicalCode,
    pub(crate) graph: LGraph,
    key: PairKey,
}

/// Memo table for [`ts_graph::canonical_code`] over Definition-2 union
/// graphs, generic over the map hasher (the determinism guard rebuilds
/// the catalog under randomly-seeded SipHash; production uses the
/// [`CanonMemo`] alias on the fast hasher).
///
/// A union is looked up by the built [`LGraph`] itself (labels +
/// normalized edge list) when its pair has several paths. Union graphs
/// are constructed by relabeling data-graph entities to local indices in
/// path-visit order, so two pairs whose chosen representatives have the
/// same label sequences and the same sharing pattern — the same topology,
/// the overwhelmingly common case — produce byte-identical graphs and
/// share one backtracking run. A single-path union is looked up by its
/// signature id in the memo's own [`SigInterner`] — a vector index, no
/// hashing — which also catches the reversed-orientation builds the
/// byte-wise key cannot (the code is orientation-invariant).
///
/// A miss runs the search and then finds or creates the [`Slot`] by
/// code, so isomorphic unions with different bytes share a slot, exactly
/// as they share a code.
#[expect(
    clippy::disallowed_types,
    reason = "hasher-generic base type — every instantiation below is HashMap<_, _, S> with S supplied by the caller"
)]
#[derive(Debug, Clone, Default)]
pub struct CanonMemoH<S> {
    /// Multi-path unions keyed by the graph's hash (hash-keyed-candidates
    /// pattern: each probe hashes the graph exactly once; identity is a
    /// full struct compare within the bucket, so a collision costs a
    /// compare, never correctness).
    unions: std::collections::HashMap<u64, Vec<(LGraph, u32)>, S>,
    /// The hasher used for the graph keys above.
    build: S,
    /// Single-path unions: slot by signature id ([`NO_SLOT`] = unseen).
    by_sig: Vec<u32>,
    /// Slot by canonical code.
    by_code: std::collections::HashMap<CanonicalCode, u32, S>,
    slots: Vec<Slot>,
    /// The interner whose ids key `by_sig` and name a pair's classes.
    sigs: SigInterner,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that ran the backtracking search.
    pub misses: u64,
    /// Time spent in those searches.
    pub(crate) canon_time: Duration,
}

/// [`CanonMemoH`] on the fast hasher — the production memo.
pub type CanonMemo = CanonMemoH<FastBuildHasher>;

impl<S: BuildHasher + Default> CanonMemoH<S> {
    /// Empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Full-signature hash computations performed by the memo's
    /// interner: one per (pair, class).
    pub(crate) fn sig_hashes(&self) -> u64 {
        self.sigs.hashes
    }

    /// Consume the memo into what the merge reads: the slots, and the
    /// `(signature, cached hash)` table indexed by signature id.
    pub(crate) fn into_parts(self) -> (Vec<Slot>, Vec<(PathSig, u64)>) {
        (self.slots, self.sigs.into_table())
    }

    /// A memo miss: run the backtracking search on `union`, timed.
    fn canonicalize(&mut self, union: &LGraph) -> CanonicalCode {
        self.misses += 1;
        let t = clock();
        let code = canonical_code(union);
        self.canon_time += t.elapsed();
        code
    }

    /// The slot of `code`, created without a graph on first sight.
    fn slot_of_code(&mut self, code: CanonicalCode) -> u32 {
        if let Some(&slot) = self.by_code.get(&code) {
            return slot;
        }
        let slot = cast::to_u32(self.slots.len());
        self.by_code.insert(code.clone(), slot);
        self.slots.push(Slot { code, graph: LGraph::new(), key: NO_KEY });
        slot
    }

    /// The slot of a multi-path union, by its bytes.
    fn slot_of_union(&mut self, union: &LGraph) -> u32 {
        let h = self.build.hash_one(union);
        let seen = self.unions.get(&h).and_then(|c| c.iter().find(|(g, _)| g == union));
        if let Some(&(_, slot)) = seen {
            self.hits += 1;
            return slot;
        }
        let code = self.canonicalize(union);
        let slot = self.slot_of_code(code);
        self.unions.entry(h).or_default().push((union.clone(), slot));
        slot
    }

    /// The slot of the single-path union with signature id `sig`, offered
    /// by pair `key`. `union` builds the graph; it is not called when an
    /// earlier-keyed pair already supplied the slot's representative.
    fn slot_of_path<'g>(
        &mut self,
        sig: u32,
        key: PairKey,
        union: impl FnOnce() -> &'g LGraph,
    ) -> u32 {
        let i = sig as usize;
        if i >= self.by_sig.len() {
            self.by_sig.resize(i + 1, NO_SLOT);
        }
        let slot = self.by_sig[i];
        if slot != NO_SLOT {
            self.hits += 1;
            if self.slots[slot as usize].key >= key {
                self.offer(slot, key, union());
            }
            return slot;
        }
        let union = union();
        let code = self.canonicalize(union);
        let slot = self.slot_of_code(code);
        self.by_sig[i] = slot;
        self.offer(slot, key, union);
        slot
    }

    /// Pair `key` offers `union` as `slot`'s representative (the rule on
    /// [`Slot`]).
    fn offer(&mut self, slot: u32, key: PairKey, union: &LGraph) {
        let s = &mut self.slots[slot as usize];
        if key <= s.key {
            s.graph.clone_from(union);
            s.key = key;
        }
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

/// Flat per-pair results as ids: slot ids (each pair's run sorted by
/// code) and class ids (each pair's run in sorted signature order).
/// The offline worker keeps one for all its pairs and addresses each
/// pair's runs by range.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairIds {
    pub(crate) slots: Vec<u32>,
    pub(crate) classes: Vec<u32>,
}

/// Reusable buffers for grouping a pair's paths into classes and running
/// the representative product. All grouping is **sort-based** over
/// signature bytes: class order, representative order, and union
/// emission order are structural properties of the input, with no map
/// iteration anywhere — swapping hashers cannot reorder anything.
#[derive(Debug, Clone, Default)]
pub(crate) struct TopScratch {
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
    pub(crate) fn new() -> Self {
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

/// Run the capped representative product over the classes recorded in
/// `s` (by [`group_classes`]), appending this pair's distinct slots —
/// sorted by canonical code — to `out`. Returns the truncation flag.
///
/// Dedup is a linear scan of the pair's slots so far: pairs have a
/// handful of distinct topologies, and a slot's first odometer
/// occurrence in the pair is the one offered as its representative.
fn product_slots<S: BuildHasher + Default>(
    g: &DataGraph,
    paths: &[PathRef<'_>],
    opts: TopOptions,
    key: PairKey,
    memo: &mut CanonMemoH<S>,
    s: &mut TopScratch,
    out: &mut Vec<u32>,
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
        let slot = memo.slot_of_union(union);
        if !out[base..].contains(&slot) {
            out.push(slot);
            memo.offer(slot, key, union);
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
    let slots = &memo.slots;
    out[base..].sort_by(|&a, &b| slots[a as usize].code.cmp(&slots[b as usize].code));
    truncated
}

/// Definition 2 for one pair through `memo`, the computation both forms
/// run: appends the pair's class ids and its distinct slots to `out`
/// and returns true if a guard rail truncated the product. `key` is the
/// pair's `(e1, e2)`, against which the pair offers its unions to the
/// slots (see [`Slot`]).
pub(crate) fn pair_slots<S: BuildHasher + Default>(
    g: &DataGraph,
    paths: &[PathRef<'_>],
    opts: TopOptions,
    key: PairKey,
    memo: &mut CanonMemoH<S>,
    scratch: &mut TopScratch,
    out: &mut PairIds,
) -> bool {
    if let [p] = paths {
        // The dominant case: one path, one class, one union — the path
        // itself. Skips the grouping sort, the odometer and the dedup.
        p.sig_into(g, &mut scratch.sig_bytes);
        let sig = memo.sigs.intern_seq(&scratch.sig_bytes);
        out.classes.push(sig);
        let builder = &mut scratch.builder;
        let slot = memo.slot_of_path(sig, key, move || {
            builder.clear();
            add_path_edges(g, *p, builder);
            builder.finish_ref()
        });
        out.slots.push(slot);
        return false;
    }
    group_classes(g, paths, scratch);
    for &(lo, _) in &scratch.class_ranges {
        out.classes.push(memo.sigs.intern_seq(scratch.sig_of(scratch.order[lo as usize])));
    }
    product_slots(g, paths, opts, key, memo, scratch, &mut out.slots)
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
/// Each union is this pair's own first odometer occurrence of its code,
/// whatever pairs the memo saw before.
pub fn pair_topologies<S: BuildHasher + Default>(
    g: &DataGraph,
    paths: &[PathRef<'_>],
    opts: TopOptions,
    memo: &mut CanonMemoH<S>,
) -> PairTopologies {
    let mut ids = PairIds::default();
    let truncated =
        pair_slots(g, paths, opts, PER_CALL_KEY, memo, &mut TopScratch::new(), &mut ids);
    let unions = ids
        .slots
        .iter()
        .map(|&s| {
            let slot = &memo.slots[s as usize];
            (slot.graph.clone(), slot.code.clone())
        })
        .collect();
    let classes = ids.classes.iter().map(|&c| memo.sigs.sig(c).clone()).collect();
    PairTopologies { unions, classes, truncated }
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
        // unions as a fresh memo per pair (i.e. no memoization at all):
        // codes, and each pair's own representative graphs.
        let (_db, g, schema) = figure3();
        let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
        let mut shared = CanonMemo::new();
        for (a, b) in pp.sorted_pairs() {
            let with_shared =
                pair_topologies(&g, &pp.paths(a, b), TopOptions::default(), &mut shared);
            let fresh = tops_of(&g, &pp, a, b, TopOptions::default());
            assert_eq!(with_shared.unions, fresh.unions);
        }
        assert!(shared.hits > 0, "figure-3 pairs share topology structures");
        // Every slot was created by a backtracking search.
        assert!(shared.slots.len() as u64 <= shared.misses);
    }

    #[test]
    fn worker_form_matches_per_call_form() {
        // The worker form (slot ids and class ids appended to one flat
        // PairIds, one memo and one TopScratch throughout) must agree
        // with pair_topologies on every figure-3 pair.
        let (_db, g, schema) = figure3();
        let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
        let mut memo = CanonMemo::new();
        let mut scratch = TopScratch::new();
        let mut ids = PairIds::default();
        for (a, b) in pp.sorted_pairs() {
            let (s0, c0) = (ids.slots.len(), ids.classes.len());
            let key = (g.node_entity(a), g.node_entity(b));
            let truncated = pair_slots(
                &g,
                &pp.paths(a, b),
                TopOptions::default(),
                key,
                &mut memo,
                &mut scratch,
                &mut ids,
            );
            let reference = tops_of(&g, &pp, a, b, TopOptions::default());
            assert_eq!(truncated, reference.truncated);
            let codes: Vec<&CanonicalCode> =
                ids.slots[s0..].iter().map(|&s| &memo.slots[s as usize].code).collect();
            let want: Vec<&CanonicalCode> = reference.unions.iter().map(|(_, c)| c).collect();
            assert_eq!(codes, want, "pair ({a},{b})");
            let class_sigs: Vec<PathSig> =
                ids.classes[c0..].iter().map(|&id| memo.sigs.sig(id).clone()).collect();
            assert_eq!(class_sigs, reference.classes, "pair ({a},{b})");
        }
        assert!(!memo.sigs.is_empty());
        // Hash budget: one signature hash per (pair, class) probe, never
        // per path and never per map operation downstream.
        let class_instances: u64 = pp
            .sorted_pairs()
            .iter()
            .map(|&(a, b)| path_classes(&g, &pp.paths(a, b)).len() as u64)
            .sum();
        assert_eq!(memo.sig_hashes(), class_instances);
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
