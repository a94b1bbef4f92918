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
//! A combination of representatives is looked up by its **sharing
//! pattern** (each path's class and orientation, and which interior
//! entities the paths share), so a repeat builds no union graph at all.
//!
//! One front end turns the base data into a pair's classes for every
//! reader: [`SourcePaths`] enumerates the paths from one source entity
//! through the espair's schema-walk automaton, reads each path's class
//! off the walk it followed ([`WalkClasses`], decided once per walk:
//! signature rank, orientation, weak-policy verdict), keeps the paths
//! whose destination its caller's filter accepts, and groups them with
//! one sort by (destination, class, enumeration order). Its callers
//! differ only in that filter and in what they do with a group:
//!
//! * the offline build drops the b < a duplicates of a same-set espair
//!   and runs [`pair_slots`] on every group through one memo per
//!   worker, appending slot ids and class ids to flat buffers; a
//!   single-path pair whose signature already has a slot builds no
//!   union at all;
//! * the SQL baseline keeps the destinations σ selects, on a same-set
//!   espair below the source too, and runs [`pair_slots`] through a
//!   fresh memo per candidate topology;
//! * instance retrieval keeps one destination and steps the same
//!   odometer ([`TopScratch::next_combination`]) until a union has the
//!   topology's code.
//!
//! No grouping decision is made by map iteration order, so swapping
//! hashers cannot reorder anything.

use std::hash::BuildHasher;
use std::ops::ControlFlow;
use std::time::Duration;

use ts_graph::{
    canonical_code, CanonicalCode, DataGraph, InstanceGraphBuilder, LGraph, NodeId, PathArena,
    PathRef, PathSig, PathSink, WalkAutomaton,
};
use ts_storage::cast;
use ts_storage::{fast_hash_u16s, FastBuildHasher, FastMap};

use crate::compute::clock;
use crate::weak::WeakPolicy;

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
/// A multi-path combination is looked up by its **sharing pattern**
/// (see [`sharing_pattern`]): the inputs the union builder turns into
/// the graph, so equal patterns mean byte-identical unions, and a hit
/// builds, sorts and hashes no graph. Two pairs whose chosen
/// representatives have the same label sequences and the same sharing —
/// the same topology, the overwhelmingly common case — share one
/// backtracking run. A single-path union is looked up by its signature
/// id in the memo's own [`SigInterner`] — a vector index, no hashing —
/// which also catches the reversed-orientation builds the pattern key
/// cannot (the code is orientation-invariant).
///
/// A miss builds the union, runs the search and then finds or creates
/// the [`Slot`] by code, so isomorphic unions with different patterns
/// share a slot, exactly as they share a code.
#[expect(
    clippy::disallowed_types,
    reason = "hasher-generic base type — every instantiation below is HashMap<_, _, S> with S supplied by the caller"
)]
#[derive(Debug, Clone, Default)]
pub(crate) struct CanonMemoH<S> {
    /// Multi-path combinations: slot by sharing pattern.
    patterns: std::collections::HashMap<Box<[u32]>, u32, S>,
    /// Single-path unions: slot by signature id ([`NO_SLOT`] = unseen).
    by_sig: Vec<u32>,
    /// Slot by canonical code.
    by_code: std::collections::HashMap<CanonicalCode, u32, S>,
    slots: Vec<Slot>,
    /// The interner whose ids key `by_sig` and name a pair's classes.
    sigs: SigInterner,
    /// Lookups answered from the memo.
    pub(crate) hits: u64,
    /// Lookups that ran the backtracking search.
    pub(crate) misses: u64,
    /// Time spent in those searches.
    pub(crate) canon_time: Duration,
}

/// [`CanonMemoH`] on the fast hasher — the production memo.
pub(crate) type CanonMemo = CanonMemoH<FastBuildHasher>;

impl<S: BuildHasher + Default> CanonMemoH<S> {
    /// A memo whose interner holds `classes`' signatures, each under its
    /// rank: a build worker's memo for one espair, or one SQL candidate's.
    pub(crate) fn for_walks(classes: &WalkClasses) -> Self {
        let mut memo = Self::default();
        for (rank, sig) in classes.sigs.iter().enumerate() {
            let id = memo.sigs.intern_seq(&sig.0);
            debug_assert_eq!(id as usize, rank, "distinct signatures intern in rank order");
        }
        memo
    }

    /// Full-signature hash computations performed by the memo's
    /// interner: one per distinct walk signature, all made by
    /// [`CanonMemoH::for_walks`].
    pub(crate) fn sig_hashes(&self) -> u64 {
        self.sigs.hashes
    }

    /// Canonical code of slot `slot`.
    pub(crate) fn code(&self, slot: u32) -> &CanonicalCode {
        &self.slots[slot as usize].code
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

    /// True when pair `key` would replace `slot`'s representative (the
    /// rule on [`Slot`]).
    fn takes_offer(&self, slot: u32, key: PairKey) -> bool {
        key <= self.slots[slot as usize].key
    }

    /// Pair `key` offers `union` as `slot`'s representative (the rule on
    /// [`Slot`]).
    fn offer(&mut self, slot: u32, key: PairKey, union: &LGraph) {
        if self.takes_offer(slot, key) {
            let s = &mut self.slots[slot as usize];
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
pub(crate) struct SigInterner {
    by_hash: FastMap<u64, Vec<u32>>,
    sigs: Vec<(PathSig, u64)>,
    /// Full-signature hash computations performed by this interner.
    hashes: u64,
}

impl SigInterner {
    /// Intern a normalized signature byte sequence, returning its id.
    /// The sequence is copied into an owned [`PathSig`] only on first
    /// sight.
    fn intern_seq(&mut self, seq: &[u16]) -> u32 {
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

    /// Consume the interner into its `(signature, cached hash)` table,
    /// indexed by id — what the merge phase hands to the catalog.
    fn into_table(self) -> Vec<(PathSig, u64)> {
        self.sigs
    }
}

/// A walk the weak policy bans (in [`WalkClasses::classes`]).
const DROPPED: (u32, bool) = (u32::MAX, false);

/// Definition 1 decided once per schema walk instead of once per path:
/// every instance path that follows a walk has the walk's labels, so the
/// walk's signature is the path's class and the walk's orientation is the
/// path's.
#[derive(Debug, Clone)]
pub(crate) struct WalkClasses {
    /// The distinct signatures of the walks the policy keeps, ascending:
    /// a signature's index is its **rank**, and ranks sort like
    /// signature bytes.
    sigs: Vec<PathSig>,
    /// Per walk id: `(rank, reversed)` — reversed when the signature is
    /// the walk read backwards — or [`DROPPED`].
    classes: Vec<(u32, bool)>,
}

impl WalkClasses {
    /// The classes of `auto`'s walks; walks whose signature `policy` bans
    /// are dropped.
    pub(crate) fn new(auto: &WalkAutomaton, policy: Option<&WeakPolicy>) -> Self {
        let walks: Vec<(PathSig, bool)> = auto
            .accepted_walks()
            .iter()
            .map(|w| {
                let mut seq = Vec::with_capacity(w.types.len() + w.rels.len());
                for (i, &t) in w.types.iter().enumerate() {
                    seq.push(t);
                    seq.extend(w.rels.get(i));
                }
                let reversed = PathSig::normalize_slice(&mut seq);
                (PathSig(seq), reversed)
            })
            .collect();
        let kept = |sig: &PathSig| !policy.is_some_and(|p| p.is_banned(sig));
        let mut sigs: Vec<PathSig> =
            walks.iter().map(|(sig, _)| sig).filter(|sig| kept(sig)).cloned().collect();
        sigs.sort_unstable();
        sigs.dedup();
        let classes = walks
            .iter()
            .map(|(sig, reversed)| match sigs.binary_search(sig) {
                Ok(rank) => (cast::to_u32(rank), *reversed),
                Err(_) => DROPPED,
            })
            .collect();
        WalkClasses { sigs, classes }
    }

    /// `(rank, reversed)` of walk `walk`, or `None` when the policy
    /// drops it.
    #[inline]
    pub(crate) fn class_of(&self, walk: u32) -> Option<(u32, bool)> {
        let c = self.classes[walk as usize];
        (c != DROPPED).then_some(c)
    }
}

/// One enumerated path as the destination sort sees it:
/// `(destination, class rank, arena index, reversed)`.
type Keyed = (NodeId, u32, u32, bool);

/// The paths from one source entity, grouped for Definition 2: by
/// destination, a destination's paths by class in signature order, and
/// a class's in enumeration order. The one front end of the build, the
/// SQL baseline and instance retrieval (see the module doc); each keeps
/// the destinations its own filter accepts. Reused across sources.
#[derive(Debug, Default)]
pub(crate) struct SourcePaths {
    /// The current source's kept paths.
    arena: PathArena,
    /// One entry per path in `arena`, sorted after enumeration.
    keyed: Vec<Keyed>,
    /// Paths the weak policy dropped, over every source so far.
    pub(crate) dropped: u64,
}

/// The sink for one source: files each path whose destination `keep`
/// accepts under that destination and its walk's class, and counts the
/// paths of the walks the weak policy bans.
struct SourceSink<'w, F> {
    keep: F,
    walks: &'w WalkClasses,
    arena: &'w mut PathArena,
    keyed: &'w mut Vec<Keyed>,
    dropped: &'w mut u64,
}

impl<F: FnMut(NodeId) -> bool> PathSink for SourceSink<'_, F> {
    fn accept(&mut self, nodes: &[NodeId], rels: &[u16], walk: u32) {
        let Some(&b) = nodes.last() else { return };
        if !(self.keep)(b) {
            return;
        }
        let Some((rank, reversed)) = self.walks.class_of(walk) else {
            *self.dropped += 1;
            return;
        };
        self.keyed.push((b, rank, cast::to_u32(self.arena.len()), reversed));
        self.arena.push(nodes, rels);
    }
}

impl SourcePaths {
    /// Enumerate the paths from `a` along `auto`'s walks, keep those
    /// whose destination `keep` accepts and whose walk `walks` keeps, and
    /// group them. `keep` sees every path the enumerator emits.
    pub(crate) fn collect(
        &mut self,
        g: &DataGraph,
        auto: &WalkAutomaton,
        walks: &WalkClasses,
        a: NodeId,
        keep: impl FnMut(NodeId) -> bool,
    ) {
        self.arena.clear();
        self.keyed.clear();
        let mut sink = SourceSink {
            keep,
            walks,
            arena: &mut self.arena,
            keyed: &mut self.keyed,
            dropped: &mut self.dropped,
        };
        ts_graph::paths_from_into(g, auto, a, &mut sink);
        // One sort groups the source's paths by destination, each pair's
        // by class in signature order, and a class's in enumeration order.
        self.keyed.sort_unstable();
    }

    /// Visit the last source's destinations in node order: `f(b, paths,
    /// s)` gets destination `b`'s paths in class order, with their
    /// classes filled into `s` (see [`TopScratch::push_path`]). Stops at
    /// the first `Break`, which it returns.
    pub(crate) fn for_each_pair<B>(
        &self,
        s: &mut TopScratch,
        mut f: impl FnMut(NodeId, &[PathRef<'_>], &mut TopScratch) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        // One ref buffer for every destination group of the source.
        let mut refs: Vec<PathRef<'_>> = Vec::new();
        for group in self.keyed.chunk_by(|x, y| x.0 == y.0) {
            refs.clear();
            s.clear_classes();
            for &(_, rank, idx, reversed) in group {
                refs.push(self.arena.get(idx as usize));
                s.push_path(rank, reversed);
            }
            f(group[0].0, &refs, s)?;
        }
        ControlFlow::Continue(())
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

/// One pair's classes, and reusable buffers for the representative
/// product. A front end fills the classes with [`TopScratch::push_path`]
/// in the order of the pair's path slice; the product reads them.
#[derive(Debug, Clone, Default)]
pub(crate) struct TopScratch {
    /// Per path: its class's signature id × 2, plus 1 when the path reads
    /// its signature backwards. Together with the path's interior nodes
    /// this is everything the union builder reads.
    labs: Vec<u32>,
    /// Class boundaries: `(start, end)` ranges into the path slice.
    class_ranges: Vec<(u32, u32)>,
    /// Odometer state of the representative product.
    idx: Vec<usize>,
    /// The current combination's sharing pattern.
    pattern: Vec<u32>,
    /// Interior nodes met so far in the current combination, by their
    /// first-visit index.
    interior: Vec<NodeId>,
    /// Reusable union-graph builder.
    builder: InstanceGraphBuilder,
}

impl TopScratch {
    /// Fresh scratch (buffers grow to steady state within a few pairs).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Forget the previous pair's classes.
    pub(crate) fn clear_classes(&mut self) {
        self.labs.clear();
        self.class_ranges.clear();
    }

    /// Append the pair's next path: in the class of signature id `sig`,
    /// read backwards iff `reversed`. A pair's paths arrive grouped by
    /// class, so a new `sig` opens the next class.
    pub(crate) fn push_path(&mut self, sig: u32, reversed: bool) {
        let i = cast::to_u32(self.labs.len());
        match self.class_ranges.last_mut() {
            Some((lo, hi)) if self.labs[*lo as usize] >> 1 == sig => *hi = i + 1,
            _ => self.class_ranges.push((i, i + 1)),
        }
        self.labs.push(sig * 2 + u32::from(reversed));
    }

    /// Set the representative product's odometer to its first
    /// combination: the first path of every class.
    pub(crate) fn first_combination(&mut self) {
        self.idx.clear();
        self.idx.resize(self.class_ranges.len(), 0);
    }

    /// Step the odometer to the next combination of the first
    /// `max_reps` paths of each class, the first class turning fastest.
    /// False once every combination has been visited.
    pub(crate) fn next_combination(&mut self, max_reps: usize) -> bool {
        for (i, &(lo, hi)) in self.idx.iter_mut().zip(&self.class_ranges) {
            *i += 1;
            if *i < ((hi - lo) as usize).min(max_reps) {
                return true;
            }
            *i = 0;
        }
        false
    }

    /// The current combination's paths out of `paths`, one per class.
    pub(crate) fn combination<'a, 'p>(
        &'a self,
        paths: &'a [PathRef<'p>],
    ) -> impl Iterator<Item = PathRef<'p>> + 'a {
        self.class_ranges.iter().zip(&self.idx).map(move |(&(lo, _), &i)| paths[lo as usize + i])
    }

    /// The local node of data-graph node `n` in the union
    /// [`build_union`] built last.
    pub(crate) fn union_node(&self, n: NodeId) -> Option<u8> {
        self.builder.lookup(n)
    }
}

/// Add one path's edges to a union builder.
fn add_path_edges(g: &DataGraph, p: PathRef<'_>, b: &mut InstanceGraphBuilder) {
    for i in 0..p.rels.len() {
        let (u, v) = (p.nodes[i], p.nodes[i + 1]);
        b.edge(u, g.node_type(u), v, g.node_type(v), p.rels[i]);
    }
}

/// The union graph of the current combination (see
/// [`TopScratch::first_combination`]).
pub(crate) fn build_union<'s>(
    g: &DataGraph,
    paths: &[PathRef<'_>],
    s: &'s mut TopScratch,
) -> &'s LGraph {
    s.builder.clear();
    for (c, &(lo, _)) in s.class_ranges.iter().enumerate() {
        add_path_edges(g, paths[lo as usize + s.idx[c]], &mut s.builder);
    }
    s.builder.finish_ref()
}

/// Fill `s.pattern` with the sharing pattern of the combination `s.idx`
/// picks: per class, the chosen path's lab, then the first-visit index of
/// each of its interior nodes. Every path runs from the pair's `a` to its
/// `b` and is simple, so the interior nodes are all that can be shared;
/// labels and orientation come from the lab. The union builder numbers
/// nodes in the same visiting order, so equal patterns (under one memo's
/// signature ids) build byte-identical unions.
fn sharing_pattern(paths: &[PathRef<'_>], s: &mut TopScratch) {
    let TopScratch { labs, class_ranges, idx, pattern, interior, .. } = s;
    pattern.clear();
    interior.clear();
    for (c, &(lo, _)) in class_ranges.iter().enumerate() {
        let i = lo as usize + idx[c];
        pattern.push(labs[i]);
        let nodes = paths[i].nodes;
        for &n in &nodes[1..nodes.len() - 1] {
            let local = match interior.iter().position(|&m| m == n) {
                Some(k) => k,
                None => {
                    interior.push(n);
                    interior.len() - 1
                }
            };
            pattern.push(cast::to_u32(local));
        }
    }
}

/// Definition 2 for one pair through `memo`: `paths` in class order,
/// with their classes in `s` (see [`TopScratch::push_path`]). Appends
/// the pair's class ids and its distinct slots — sorted by canonical
/// code — to `out`, and returns true if a guard rail truncated the
/// product. `key` is the pair's `(e1, e2)`, against which the pair
/// offers its unions to the slots (see [`Slot`]).
///
/// A union graph is built only on a pattern miss, or when the pair's
/// first occurrence of a slot replaces its representative. Dedup is a
/// linear scan of the pair's slots so far: pairs have a handful of
/// distinct topologies.
pub(crate) fn pair_slots<S: BuildHasher + Default>(
    g: &DataGraph,
    paths: &[PathRef<'_>],
    opts: TopOptions,
    key: PairKey,
    memo: &mut CanonMemoH<S>,
    s: &mut TopScratch,
    out: &mut PairIds,
) -> bool {
    out.classes.extend(s.class_ranges.iter().map(|&(lo, _)| s.labs[lo as usize] >> 1));
    if let [p] = paths {
        // The dominant case: one path, one class, one union — the path
        // itself. Skips the pattern, the odometer and the dedup.
        let builder = &mut s.builder;
        let slot = memo.slot_of_path(s.labs[0] >> 1, key, move || {
            builder.clear();
            add_path_edges(g, *p, builder);
            builder.finish_ref()
        });
        out.slots.push(slot);
        return false;
    }
    if s.class_ranges.is_empty() {
        return false;
    }
    let base = out.slots.len();
    let mut truncated =
        s.class_ranges.iter().any(|&(lo, hi)| (hi - lo) as usize > opts.max_reps_per_class);
    s.first_combination();
    let mut produced = 0usize;
    loop {
        if produced >= opts.max_product {
            truncated = true;
            break;
        }
        produced += 1;

        sharing_pattern(paths, s);
        let (slot, built) = match memo.patterns.get(s.pattern.as_slice()) {
            Some(&slot) => {
                memo.hits += 1;
                (slot, false)
            }
            None => {
                let code = memo.canonicalize(build_union(g, paths, s));
                let slot = memo.slot_of_code(code);
                memo.patterns.insert(s.pattern.as_slice().into(), slot);
                (slot, true)
            }
        };
        if !out.slots[base..].contains(&slot) {
            out.slots.push(slot);
            if memo.takes_offer(slot, key) {
                let union = if built { s.builder.finish_ref() } else { build_union(g, paths, s) };
                memo.offer(slot, key, union);
            }
        }
        if !s.next_combination(opts.max_reps_per_class) {
            break;
        }
    }
    let slots = &memo.slots;
    out.slots[base..].sort_by(|&a, &b| slots[a as usize].code.cmp(&slots[b as usize].code));
    truncated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{pair_tops, Tops};
    use ts_graph::fixtures::{figure3, DNA, PROTEIN};
    use ts_graph::paths::enumerate_pair_paths;
    use ts_graph::PairPaths;

    /// Figure 3's Protein–DNA espair at l = 3: the walk classes the
    /// front end reads, and the pair paths the reference reads.
    struct Fig3PD {
        g: DataGraph,
        auto: WalkAutomaton,
        walks: WalkClasses,
        pp: PairPaths,
    }

    fn fig3_pd() -> Fig3PD {
        let (_db, g, schema) = figure3();
        let auto = WalkAutomaton::new(&schema, PROTEIN, DNA, 3);
        let walks = WalkClasses::new(&auto, None);
        let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
        Fig3PD { g, auto, walks, pp }
    }

    impl Fig3PD {
        fn node(&self, es: u16, id: i64) -> NodeId {
            self.g.node(es, id).unwrap()
        }

        /// `l-Top(a, b)` through the product: `a`'s paths to `b` grouped
        /// by [`SourcePaths`], then [`pair_slots`] through `memo`.
        fn tops(&self, a: NodeId, b: NodeId, opts: TopOptions, memo: &mut CanonMemo) -> Tops {
            let mut source = SourcePaths::default();
            source.collect(&self.g, &self.auto, &self.walks, a, |d| d == b);
            let key = (self.g.node_entity(a), self.g.node_entity(b));
            let mut ids = PairIds::default();
            let mut truncated = false;
            let _ = source.for_each_pair(&mut TopScratch::new(), |_, paths, s| {
                truncated = pair_slots(&self.g, paths, opts, key, memo, s, &mut ids);
                ControlFlow::<()>::Continue(())
            });
            as_tops(memo, &ids, truncated)
        }
    }

    /// A pair's slot and class ids as the reference's [`Tops`].
    fn as_tops(memo: &CanonMemo, ids: &PairIds, truncated: bool) -> Tops {
        let slot = |s: u32| &memo.slots[s as usize];
        Tops {
            unions: ids
                .slots
                .iter()
                .map(|&s| (slot(s).graph.clone(), slot(s).code.clone()))
                .collect(),
            classes: ids.classes.iter().map(|&c| memo.sigs.sigs[c as usize].0.clone()).collect(),
            truncated,
        }
    }

    #[test]
    fn l_top_78_215_is_t3_and_t4() {
        // Paper §2.2: 3-Top(78,215) = { T3, T4 } — two topologies, because
        // the two representatives of the P-U-D class interact differently
        // with the P-U-P-D path (u103 shared vs u150 distinct).
        let f = fig3_pd();
        let (p78, d215) = (f.node(PROTEIN, 78), f.node(DNA, 215));
        let t = f.tops(p78, d215, TopOptions::default(), &mut CanonMemo::for_walks(&f.walks));
        assert_eq!(t.classes.len(), 2);
        assert_eq!(t.unions.len(), 2, "expected T3 and T4");
        assert!(!t.truncated);
        // T3 has 4 nodes (shared unigene), T4 has 5.
        let mut node_counts: Vec<usize> = t.unions.iter().map(|(g, _)| g.node_count()).collect();
        node_counts.sort_unstable();
        assert_eq!(node_counts, vec![4, 5]);
        assert_eq!(t, pair_tops(&f.g, &f.pp.paths(p78, d215), TopOptions::default()));
    }

    #[test]
    fn l_top_44_742_is_t2_only() {
        // Both paths are isomorphic (one class), so the topology is the
        // single P-U-D path shape T2 — not the double-path T5.
        let f = fig3_pd();
        let (p44, d742) = (f.node(PROTEIN, 44), f.node(DNA, 742));
        let t = f.tops(p44, d742, TopOptions::default(), &mut CanonMemo::for_walks(&f.walks));
        assert_eq!(t.classes.len(), 1);
        assert_eq!(t.unions.len(), 1);
        assert_eq!(t.unions[0].0.node_count(), 3); // P-U-D path
        assert_eq!(t, pair_tops(&f.g, &f.pp.paths(p44, d742), TopOptions::default()));
    }

    #[test]
    fn l_top_32_214_is_t1() {
        let f = fig3_pd();
        let (p32, d214) = (f.node(PROTEIN, 32), f.node(DNA, 214));
        let t = f.tops(p32, d214, TopOptions::default(), &mut CanonMemo::for_walks(&f.walks));
        assert_eq!(t.classes.len(), 1);
        assert_eq!(t.unions.len(), 1);
        assert_eq!(t.unions[0].0.node_count(), 2); // P -encodes- D
        assert_eq!(t.unions[0].0.edge_count(), 1);
        assert_eq!(t, pair_tops(&f.g, &f.pp.paths(p32, d214), TopOptions::default()));
    }

    #[test]
    fn empty_paths_empty_topologies() {
        let f = fig3_pd();
        let mut memo = CanonMemo::for_walks(&f.walks);
        let mut ids = PairIds::default();
        let truncated = pair_slots(
            &f.g,
            &[],
            TopOptions::default(),
            (0, 0),
            &mut memo,
            &mut TopScratch::new(),
            &mut ids,
        );
        let t = as_tops(&memo, &ids, truncated);
        assert!(t.unions.is_empty());
        assert_eq!(t.classes.len(), 0);
        assert!(!t.truncated);
        assert_eq!(t, pair_tops(&f.g, &[], TopOptions::default()));
        // An unconnected pair gives the front end no group at all.
        let (a, b) =
            f.g.nodes_of_type(PROTEIN)
                .iter()
                .flat_map(|&a| f.g.nodes_of_type(DNA).iter().map(move |&b| (a, b)))
                .find(|&(a, b)| f.pp.paths(a, b).is_empty())
                .unwrap();
        let t = f.tops(a, b, TopOptions::default(), &mut memo);
        assert!(t.unions.is_empty() && t.classes.is_empty() && !t.truncated);
    }

    #[test]
    fn truncation_is_reported() {
        let f = fig3_pd();
        let (p78, d215) = (f.node(PROTEIN, 78), f.node(DNA, 215));
        let opts = TopOptions { max_reps_per_class: 1, max_product: 1 };
        let t = f.tops(p78, d215, opts, &mut CanonMemo::for_walks(&f.walks));
        assert!(t.truncated);
        assert!(t.unions.len() <= 1);
        assert_eq!(t, pair_tops(&f.g, &f.pp.paths(p78, d215), opts));
    }

    #[test]
    fn classes_sorted_and_deterministic() {
        let f = fig3_pd();
        let (p78, d215) = (f.node(PROTEIN, 78), f.node(DNA, 215));
        let t1 = f.tops(p78, d215, TopOptions::default(), &mut CanonMemo::for_walks(&f.walks));
        let t2 = f.tops(p78, d215, TopOptions::default(), &mut CanonMemo::for_walks(&f.walks));
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
        // Running every pair through one shared memo must give the codes
        // a fresh memo per pair gives (i.e. no memoization at all), and
        // each slot keeps the graph of the least-keyed pair that met it:
        // offered in key order, the first pair's.
        let f = fig3_pd();
        let mut pairs = f.pp.sorted_pairs();
        pairs.sort_by_key(|&(a, b)| (f.g.node_entity(a), f.g.node_entity(b)));
        let mut shared = CanonMemo::for_walks(&f.walks);
        let mut first: Vec<(LGraph, CanonicalCode)> = Vec::new();
        for (a, b) in pairs {
            let with_shared = f.tops(a, b, TopOptions::default(), &mut shared);
            let fresh = f.tops(a, b, TopOptions::default(), &mut CanonMemo::for_walks(&f.walks));
            assert_eq!(fresh, pair_tops(&f.g, &f.pp.paths(a, b), TopOptions::default()));
            assert_eq!(with_shared.classes, fresh.classes);
            for ((graph, code), (_, fresh_code)) in with_shared.unions.iter().zip(&fresh.unions) {
                assert_eq!(code, fresh_code);
                let (want, _) = match first.iter().find(|(_, c)| c == code) {
                    Some(seen) => seen,
                    None => {
                        let own = fresh.unions.iter().find(|(_, c)| c == code).unwrap();
                        first.push(own.clone());
                        own
                    }
                };
                assert_eq!(graph, want);
            }
            assert_eq!(with_shared.unions.len(), fresh.unions.len());
        }
        assert!(shared.hits > 0, "figure-3 pairs share topology structures");
        // Every slot was created by a backtracking search.
        assert!(shared.slots.len() as u64 <= shared.misses);
    }

    #[test]
    fn worker_form_matches_per_call_form() {
        // The worker form (one SourcePaths per source, classes read off
        // each path's walk, slot ids and class ids appended to one flat
        // PairIds, one memo and one TopScratch throughout) must agree
        // with the reference — which signs every path itself and runs
        // its own product — on every figure-3 pair.
        let f = fig3_pd();
        let mut memo = CanonMemo::for_walks(&f.walks);
        let mut source = SourcePaths::default();
        let mut scratch = TopScratch::new();
        let mut ids = PairIds::default();
        let mut pairs = 0;
        for &a in f.g.nodes_of_type(PROTEIN) {
            source.collect(&f.g, &f.auto, &f.walks, a, |_| true);
            let _ = source.for_each_pair(&mut scratch, |b, refs, s| {
                let (s0, c0) = (ids.slots.len(), ids.classes.len());
                let key = (f.g.node_entity(a), f.g.node_entity(b));
                let truncated =
                    pair_slots(&f.g, refs, TopOptions::default(), key, &mut memo, s, &mut ids);
                let reference = pair_tops(&f.g, &f.pp.paths(a, b), TopOptions::default());
                assert_eq!(truncated, reference.truncated);
                let codes: Vec<&CanonicalCode> =
                    ids.slots[s0..].iter().map(|&s| memo.code(s)).collect();
                let want: Vec<&CanonicalCode> = reference.unions.iter().map(|(_, c)| c).collect();
                assert_eq!(codes, want, "pair ({a},{b})");
                let class_sigs: Vec<PathSig> = ids.classes[c0..]
                    .iter()
                    .map(|&id| memo.sigs.sigs[id as usize].0.clone())
                    .collect();
                assert_eq!(class_sigs, reference.classes, "pair ({a},{b})");
                pairs += 1;
                ControlFlow::<()>::Continue(())
            });
        }
        assert_eq!(pairs, f.pp.pair_count());
        // Hash budget: one signature hash per distinct walk signature,
        // never per pair, per path or per map operation downstream.
        assert_eq!(memo.sig_hashes(), f.walks.sigs.len() as u64);
    }

    #[test]
    fn sig_interner_dedups_and_caches_hashes() {
        let mut i = SigInterner::default();
        let a = i.intern_seq(&[0, 1, 2, 1, 0]);
        let b = i.intern_seq(&[3, 7, 4]);
        let a2 = i.intern_seq(&[0, 1, 2, 1, 0]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.sigs.len(), 2);
        assert_eq!(i.hashes, 3, "every probe hashes exactly once");
        assert_eq!(i.sigs[a as usize].0 .0, vec![0, 1, 2, 1, 0]);
        assert_eq!(i.sigs[a as usize].1, ts_storage::fast_hash_u16s(&[0, 1, 2, 1, 0]));
        let table = i.into_table();
        assert_eq!(table.len(), 2);
        assert_eq!(table[b as usize].0 .0, vec![3, 7, 4]);
    }
}
