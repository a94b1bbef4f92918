//! The topology catalog: `AllTops`, `TopInfo`, `LeftTops`, `ExcpTops`.
//!
//! §3.2 of the paper: "Full-Top creates a AllTops table that stores for
//! every pair of entities in the database, the l-topologies by which they
//! are related" plus "an associated TopInfo table (that stores additional
//! information about topologies)". §4.2 prunes AllTops into `LeftTops`
//! and the exception table `ExcpTops` (Fig. 13).
//!
//! The pair relation is stored once, as AllTops:
//!
//! * **metadata** — interned topologies ([`TopologyMeta`]: canonical
//!   code, structure graph, frequency, scores, pruned flag);
//! * **materialized relational tables** — real [`ts_storage::Table`]s,
//!   which the query methods execute against and whose byte sizes
//!   reproduce Table 1. AllTops and LeftTops are stored sorted by
//!   (espair, E1, E2, TID) — the regular plan reads an espair's rows as
//!   one contiguous range — and carry a hash index on TID. ExcpTops
//!   keeps its rows in pair order and carries no table index: beside it
//!   the catalog keeps a row-id permutation sorted by (TID, E1, E2),
//!   4 B a row, which [`Catalog::excp_contains`] binary-searches
//!   through the raw Int columns;
//! * **path classes** — the one fact pruning needs that AllTops lacks:
//!   each connected pair's interned path-class signatures, in a CSR
//!   indexed by pair ordinal, where pair *i* is the *i*-th run of AllTops
//!   rows with equal (espair of TID, E1, E2). [`Catalog::pairs`] zips the
//!   two into borrowing [`PairView`]s.
//!
//! The paper assumes "the IDs of different biological objects are not
//! overlapping". Nothing here relies on it: a TID names its espair, and
//! every reader of these tables starts from a TID or from the espair's
//! row range, so equal ids in different entity sets cannot be confused.

use ts_graph::{CanonicalCode, LGraph, PathSig};
use ts_storage::cast;
use ts_storage::{fast_hash_u16s, ColumnDef, FastMap, Table, TableSchema, ValueType};

use crate::compute::PairStore;
use crate::methods::common::decode_sig;
use crate::query::RankScheme;
use crate::topology::TopOptions;
use crate::weak::WeakPolicy;

/// Identifier of a topology in the catalog.
pub type TopologyId = u32;

/// A normalized (unordered) pair of entity sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EsPair {
    /// Smaller entity-set id.
    pub from: u16,
    /// Larger entity-set id.
    pub to: u16,
}

impl EsPair {
    /// Normalize `(a, b)` so that `from <= to`.
    pub fn new(a: u16, b: u16) -> Self {
        if a <= b {
            EsPair { from: a, to: b }
        } else {
            EsPair { from: b, to: a }
        }
    }
}

/// Everything the catalog knows about one topology.
#[derive(Debug, Clone)]
pub struct TopologyMeta {
    /// Catalog id (also the TID stored in the relational tables).
    pub id: TopologyId,
    /// The entity-set pair this topology relates.
    pub espair: EsPair,
    /// Representative structure graph.
    pub graph: LGraph,
    /// Canonical code (identity).
    pub code: CanonicalCode,
    /// Interned id of `code` in the catalog's code table — the compact
    /// key dedup lookups use instead of cloning the code vector.
    pub code_id: u32,
    /// Frequency: number of entity pairs related by this topology
    /// (`freq(es1, es2, T)` in §4.2.1).
    pub freq: u64,
    /// If the topology is a single simple path between the pair's entity
    /// sets, its signature — only such topologies are pruning-eligible
    /// and online-checkable (§4.3's path sub-queries).
    pub path_sig: Option<PathSig>,
    /// True once the pruning module moved this topology out of LeftTops.
    pub pruned: bool,
    /// Scores per [`RankScheme`] (Freq, Rare, Domain).
    pub scores: [f64; 3],
}

/// Borrowed view of one connected pair: its run of AllTops rows beside
/// its slice of the path-class CSR.
#[derive(Debug, Clone, Copy)]
pub struct PairView<'a> {
    /// Entity-set pair (normalized).
    pub espair: EsPair,
    /// Entity id of the `espair.from` side.
    pub e1: i64,
    /// Entity id of the `espair.to` side.
    pub e2: i64,
    /// Topologies relating the pair (`l-Top(e1, e2)`), ascending: the
    /// pair's run of AllTops' TID column.
    pub topos: &'a [i64],
    /// Interned signatures of the pair's path equivalence classes.
    pub sigs: &'a [u32],
}

/// The paper's index on TopInfo by score (the index scan at the bottom
/// of Fig. 15), plus the per-espair pruned list the gated sub-queries
/// of §5.1 walk, each pruned topology beside its decoded label walk.
/// Ids only otherwise: scores and flags are read from the metas.
/// Derived data — rebuilt by `Catalog::finalize`, [`Catalog::set_pruned`]
/// and [`Catalog::set_scores`], the only places its inputs change.
#[derive(Debug, Clone, Default)]
struct ScoreIndex {
    /// One entry per espair that has topologies, sorted by espair.
    pairs: Vec<ScoreIndexPair>,
    /// Per [`RankScheme`] (by `index()`), every espair's topology ids in
    /// (score desc, id asc) order, concatenated in `pairs` order.
    ranked: [Vec<TopologyId>; 3],
    /// Every espair's pruned topology ids ascending, concatenated.
    pruned: Vec<TopologyId>,
    /// `pruned[i]`'s path signature decoded into `(types, rels)` from
    /// its espair's `from` side, once, for the online path checks.
    walks: Vec<(Vec<u16>, Vec<u16>)>,
}

/// One espair's slices of the [`ScoreIndex`] buffers.
#[derive(Debug, Clone)]
struct ScoreIndexPair {
    espair: EsPair,
    /// Range in each of the three `ranked` buffers.
    ranked: std::ops::Range<usize>,
    /// Range in the `pruned` buffer.
    pruned: std::ops::Range<usize>,
}

impl ScoreIndex {
    fn build(metas: &[TopologyMeta]) -> ScoreIndex {
        let mut by_pair: Vec<TopologyId> = metas.iter().map(|m| m.id).collect();
        by_pair.sort_by_key(|&t| (metas[t as usize].espair, t));
        let mut idx = ScoreIndex {
            pairs: Vec::new(),
            ranked: [by_pair.clone(), by_pair.clone(), by_pair.clone()],
            pruned: Vec::new(),
            walks: Vec::new(),
        };
        for run in by_pair.chunk_by(|&a, &b| metas[a as usize].espair == metas[b as usize].espair) {
            let lo = idx.pairs.last().map_or(0, |p| p.ranked.end);
            let ranked = lo..lo + run.len();
            for (scheme, ids) in idx.ranked.iter_mut().enumerate() {
                ids[ranked.clone()].sort_by(|&a, &b| {
                    let (sa, sb) =
                        (metas[a as usize].scores[scheme], metas[b as usize].scores[scheme]);
                    sb.total_cmp(&sa).then_with(|| a.cmp(&b))
                });
            }
            let pruned_lo = idx.pruned.len();
            for &t in run.iter().filter(|&&t| metas[t as usize].pruned) {
                let meta = &metas[t as usize];
                #[expect(
                    clippy::expect_used,
                    reason = "pruning selects only path-shaped topologies, and a path topology's signature ends in both sides of its espair"
                )]
                let walk = meta
                    .path_sig
                    .as_ref()
                    .and_then(|sig| decode_sig(sig, meta.espair.from))
                    .expect("a pruned topology is a path from its espair's from side");
                idx.pruned.push(t);
                idx.walks.push(walk);
            }
            idx.pairs.push(ScoreIndexPair {
                espair: metas[run[0] as usize].espair,
                ranked,
                pruned: pruned_lo..idx.pruned.len(),
            });
        }
        idx
    }

    fn pair(&self, espair: EsPair) -> Option<&ScoreIndexPair> {
        self.pairs.binary_search_by_key(&espair, |p| p.espair).ok().map(|i| &self.pairs[i])
    }

    fn heap_size(&self) -> usize {
        use std::mem::size_of;
        let walks: usize = self
            .walks
            .iter()
            .map(|(types, rels)| {
                size_of::<(Vec<u16>, Vec<u16>)>() + (types.len() + rels.len()) * size_of::<u16>()
            })
            .sum();
        self.pairs.len() * size_of::<ScoreIndexPair>()
            + (self.ranked.iter().map(Vec::len).sum::<usize>() + self.pruned.len())
                * size_of::<TopologyId>()
            + walks
    }
}

/// The topology catalog.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Path-length limit `l` the catalog was computed at.
    pub l: usize,
    metas: Vec<TopologyMeta>,
    /// The build's (espair, code id) → topology dedup map; released by
    /// `finalize`, like `code_ids`.
    code_index: FastMap<(EsPair, u32), TopologyId>,
    /// Path-class CSR by pair ordinal: pair *i*'s class ids are
    /// `class_sigs[class_offsets[i]..class_offsets[i + 1]]`. Entry 0 is
    /// the zero sentinel, so there are `pair_count() + 1` offsets.
    class_offsets: Vec<u32>,
    class_sigs: Vec<u32>,
    sigs: Vec<PathSig>,
    /// Signature dedup index keyed by the *precomputed* fast hash of the
    /// signature bytes: the offline build hashes each signature once in
    /// the worker, caches the hash alongside the interned id, and this
    /// index re-interns at merge time without re-walking any signature.
    /// Values are candidate-id lists (identity = full byte compare).
    sig_index: FastMap<u64, Vec<u32>>,
    codes: Vec<CanonicalCode>,
    /// The build's code interner. `finalize` releases it: a served
    /// catalog interns nothing, and the map holds a copy of every code.
    code_ids: FastMap<CanonicalCode, u32>,
    /// Pairs whose Definition-2 product was truncated by guard rails.
    pub truncated_pairs: u64,
    /// The weak policy the catalog was built under. The readers that
    /// re-derive topologies from the base data (the SQL baseline,
    /// instance retrieval) drop the paths the build dropped. Not part of
    /// [`Catalog::fnv_digest`].
    pub(crate) weak_policy: Option<WeakPolicy>,
    /// The product bounds the catalog was built under, which the SQL
    /// baseline's product keeps too. Not part of [`Catalog::fnv_digest`].
    pub(crate) top_opts: TopOptions,
    /// AllTops(E1, E2, TID) — rows sorted by (espair of TID, E1, E2,
    /// TID), the clustering the regular plan merges against; hash index
    /// on TID for the DGJ stacks and instance retrieval.
    pub alltops: Table,
    /// LeftTops(E1, E2, TID) — AllTops minus pruned topologies, in the
    /// same order, with the same TID index.
    pub lefttops: Table,
    /// ExcpTops(E1, E2, TID) — exception pairs for pruned topologies,
    /// in pair order; no table index. [`Catalog::excp_contains`] reads
    /// it through `excp_order`, so only [`crate::prune::prune_catalog`]
    /// writes either; readers outside the crate get
    /// [`Catalog::excptops`].
    pub(crate) excptops: Table,
    /// ExcpTops' row ids sorted by (TID, E1, E2): derived data that
    /// [`crate::prune::prune_catalog`] builds beside the table, counted
    /// in [`Catalog::heap_size`] and not hashed by
    /// [`Catalog::fnv_digest`].
    pub(crate) excp_order: Vec<u32>,
    score_index: ScoreIndex,
}

/// A tops table's raw E1, E2 and TID column buffers.
fn tops_columns(table: &Table) -> [&[i64]; 3] {
    let store = table.store();
    #[expect(
        clippy::expect_used,
        reason = "the tops tables are three Int columns written only through insert_ints, so each has a null-free raw buffer"
    )]
    [0, 1, 2].map(|c| store.ints(c).expect("tops table columns are Int"))
}

fn tops_schema(name: &str) -> TableSchema {
    TableSchema::new(
        name,
        vec![
            ColumnDef::new("E1", ValueType::Int),
            ColumnDef::new("E2", ValueType::Int),
            ColumnDef::new("TID", ValueType::Int),
        ],
        None,
    )
}

impl Catalog {
    /// Empty catalog for path limit `l`.
    pub(crate) fn new(l: usize) -> Self {
        Catalog {
            l,
            metas: Vec::new(),
            code_index: FastMap::default(),
            class_offsets: vec![0],
            class_sigs: Vec::new(),
            sigs: Vec::new(),
            sig_index: FastMap::default(),
            codes: Vec::new(),
            code_ids: FastMap::default(),
            truncated_pairs: 0,
            weak_policy: None,
            top_opts: TopOptions::default(),
            alltops: Table::new(tops_schema("AllTops")),
            lefttops: Table::new(tops_schema("LeftTops")),
            excptops: Table::new(tops_schema("ExcpTops")),
            excp_order: Vec::new(),
            score_index: ScoreIndex::default(),
        }
    }

    /// Intern a signature whose fast hash was already computed (and
    /// cached alongside its worker-local id) — the merge-time path: the
    /// catalog never re-hashes a signature the worker hashed.
    pub(crate) fn intern_sig_prehashed(&mut self, sig: PathSig, hash: u64) -> u32 {
        let ids = self.sig_index.entry(hash).or_default();
        for &id in ids.iter() {
            if self.sigs[id as usize] == sig {
                return id;
            }
        }
        let id = cast::to_u32(self.sigs.len());
        ids.push(id);
        self.sigs.push(sig);
        id
    }

    /// Signature by id.
    pub fn sig(&self, id: u32) -> &PathSig {
        &self.sigs[id as usize]
    }

    /// Id of an interned signature, if present.
    pub fn sig_id(&self, sig: &PathSig) -> Option<u32> {
        let ids = self.sig_index.get(&fast_hash_u16s(&sig.0))?;
        ids.iter().copied().find(|&id| self.sigs[id as usize] == *sig)
    }

    /// Number of interned signatures.
    pub fn sig_count(&self) -> usize {
        self.sigs.len()
    }

    /// Intern a canonical code, returning its id. Lookups borrow the
    /// code; it is cloned only the first time it is seen.
    fn intern_code(&mut self, code: &CanonicalCode) -> u32 {
        if let Some(&id) = self.code_ids.get(code) {
            return id;
        }
        let id = cast::to_u32(self.codes.len());
        self.code_ids.insert(code.clone(), id);
        self.codes.push(code.clone());
        id
    }

    /// Canonical code by interned id.
    pub fn code(&self, id: u32) -> &CanonicalCode {
        &self.codes[id as usize]
    }

    /// Number of distinct canonical codes interned.
    pub fn code_count(&self) -> usize {
        self.codes.len()
    }

    /// Intern a topology (espair + canonical code), returning its id.
    /// The build calls this once per (worker, topology slot); the
    /// path-signature detection runs only when the topology is genuinely
    /// new — a dedup hit (the same topology from another worker) costs
    /// one map probe and nothing else.
    pub(crate) fn intern_topology_with(
        &mut self,
        espair: EsPair,
        graph: LGraph,
        code: CanonicalCode,
        path_sig: impl FnOnce(&LGraph) -> Option<PathSig>,
    ) -> TopologyId {
        debug_assert!(self.alltops.is_empty(), "topologies are interned before finalize");
        let code_id = self.intern_code(&code);
        if let Some(&id) = self.code_index.get(&(espair, code_id)) {
            return id;
        }
        let id = cast::to_u32(self.metas.len());
        self.code_index.insert((espair, code_id), id);
        let path_sig = path_sig(&graph);
        self.metas.push(TopologyMeta {
            id,
            espair,
            graph,
            code,
            code_id,
            freq: 0,
            path_sig,
            pruned: false,
            scores: [0.0; 3],
        });
        id
    }

    /// Number of connected pairs.
    pub fn pair_count(&self) -> usize {
        self.class_offsets.len() - 1
    }

    /// Every connected pair in (espair, e1, e2) order: AllTops' runs of
    /// rows with equal (espair of TID, E1, E2), zipped with the
    /// path-class CSR.
    pub fn pairs(&self) -> impl ExactSizeIterator<Item = PairView<'_>> {
        let [e1, e2, tids] = self.alltops_columns();
        let mut row = 0;
        self.class_offsets.windows(2).map(move |w| {
            let lo = row;
            let espair = self.metas[cast::int_to_usize(tids[lo])].espair;
            row += 1;
            while row < tids.len()
                && (e1[row], e2[row]) == (e1[lo], e2[lo])
                && self.metas[cast::int_to_usize(tids[row])].espair == espair
            {
                row += 1;
            }
            PairView {
                espair,
                e1: e1[lo],
                e2: e2[lo],
                topos: &tids[lo..row],
                sigs: &self.class_sigs[w[0] as usize..w[1] as usize],
            }
        })
    }

    /// AllTops' raw E1, E2 and TID column buffers.
    pub(crate) fn alltops_columns(&self) -> [&[i64]; 3] {
        tops_columns(&self.alltops)
    }

    /// Payload bytes of the path-class CSR (offsets + class ids) — all
    /// the catalog keeps per pair beyond its AllTops rows.
    pub fn pair_bytes(&self) -> usize {
        (self.class_offsets.len() + self.class_sigs.len()) * std::mem::size_of::<u32>()
    }

    /// Approximate heap footprint of the whole catalog in bytes: the
    /// path-class CSR, topology metadata (structure graphs, codes,
    /// signatures), interners, the TopInfo-by-score index, and the three
    /// materialized tables (rows plus index postings). This is the
    /// figure the offline-build bench records alongside build time.
    pub fn heap_size(&self) -> usize {
        use std::mem::size_of;
        let metas: usize = self
            .metas
            .iter()
            .map(|m| {
                size_of::<TopologyMeta>()
                    + m.graph.labels.len() * size_of::<u16>()
                    + m.graph.edges.len() * size_of::<(u8, u8, u16)>()
                    + m.code.0.len() * size_of::<u32>()
                    + m.path_sig.as_ref().map_or(0, |s| s.0.len() * size_of::<u16>())
            })
            .sum();
        let interners: usize =
            self.sigs.iter().map(|s| s.0.len() * size_of::<u16>()).sum::<usize>()
                + self.codes.iter().map(|c| c.0.len() * size_of::<u32>()).sum::<usize>();
        self.pair_bytes()
            + metas
            + interners
            + self.score_index.heap_size()
            + self.alltops.heap_size()
            + self.lefttops.heap_size()
            + self.excptops_heap_size()
    }

    /// ExcpTops' bytes: its rows plus the (TID, E1, E2) permutation that
    /// serves as its index.
    fn excptops_heap_size(&self) -> usize {
        self.excptops.heap_size() + self.excp_order.len() * std::mem::size_of::<u32>()
    }

    /// Finish the build from its pair store: compute frequencies,
    /// materialize the AllTops table with its TID index, keep each
    /// pair's path classes, and drop the rest of the store and the
    /// build's interning maps (LeftTops starts as a full copy; run
    /// [`crate::prune::prune_catalog`] to shrink it). The tops tables carry no statistics: the query
    /// methods read statistics of entity tables and topology frequencies
    /// from the metas, and never select from a tops table by predicate.
    pub(crate) fn finalize(&mut self, pairs: PairStore) {
        // Materialize AllTops straight into its column buffers: with the
        // reserve, the whole loop performs zero heap allocations (the
        // bench's allocation counter holds it to O(columns)). Each row is
        // one (pair, topology) incidence, so it counts toward the
        // topology's frequency.
        self.alltops.reserve(pairs.row_count());
        self.class_offsets.reserve(pairs.len());
        self.class_sigs.reserve(pairs.class_count());
        for (e1, e2, topos, sigs) in pairs.in_key_order() {
            for &tid in topos {
                self.metas[tid as usize].freq += 1;
                #[expect(
                    clippy::expect_used,
                    reason = "alltops is created by this type with a fixed 3-Int-column schema; arity and types match"
                )]
                self.alltops
                    .insert_ints(&[e1, e2, i64::from(tid)])
                    .expect("alltops schema is fixed");
            }
            self.class_sigs.extend_from_slice(sigs);
            self.class_offsets.push(cast::to_u32(self.class_sigs.len()));
        }
        // The pair store is dead once AllTops holds its rows. Freeing it
        // here, before the TID index and the LeftTops copy, takes it out
        // of the build's peak heap (5.5 of 20 MB at scale 1.0).
        drop(pairs);
        self.score_index = ScoreIndex::build(&self.metas);
        self.alltops.create_index_bulk(2);

        // LeftTops starts as a full copy (under its own name) — cloned
        // wholesale rather than re-inserted and re-indexed row by row.
        self.lefttops = self.alltops.clone_renamed("LeftTops");
        self.code_ids = FastMap::default();
        self.code_index = FastMap::default();
    }

    /// All topology metadata.
    pub fn metas(&self) -> &[TopologyMeta] {
        &self.metas
    }

    /// Flag exactly the topologies in `pruned` as pruned (clearing any
    /// earlier flags) — the pruning module's write path, which keeps
    /// the score index in step.
    pub(crate) fn set_pruned(&mut self, pruned: &[TopologyId]) {
        for m in &mut self.metas {
            m.pruned = pruned.contains(&m.id);
        }
        self.score_index = ScoreIndex::build(&self.metas);
    }

    /// Set every topology's three scores to `scores(meta)` — the scoring
    /// module's write path, which keeps the score index in step.
    pub(crate) fn set_scores(&mut self, mut scores: impl FnMut(&TopologyMeta) -> [f64; 3]) {
        for m in &mut self.metas {
            m.scores = scores(m);
        }
        self.score_index = ScoreIndex::build(&self.metas);
    }

    /// Metadata of one topology.
    pub fn meta(&self, tid: TopologyId) -> &TopologyMeta {
        &self.metas[tid as usize]
    }

    /// Number of interned topologies.
    pub fn topology_count(&self) -> usize {
        self.metas.len()
    }

    /// Topology ids for an entity-set pair, ascending.
    pub fn topologies_for(&self, espair: EsPair) -> Vec<TopologyId> {
        self.metas.iter().filter(|m| m.espair == espair).map(|m| m.id).collect()
    }

    /// Frequency distribution for an entity-set pair, descending — the
    /// series plotted in Fig. 11.
    pub fn freq_distribution(&self, espair: EsPair) -> Vec<u64> {
        let mut f: Vec<u64> = self
            .metas
            .iter()
            .filter(|m| m.espair == espair && m.freq > 0)
            .map(|m| m.freq)
            .collect();
        f.sort_unstable_by(|a, b| b.cmp(a));
        f
    }

    /// Topology ids of an entity-set pair ranked by a scheme, descending
    /// score (ties broken by id for determinism) — the TopInfo-by-score
    /// index scan consumed by top-k plans. Borrowed from the index built
    /// when scores were last set.
    pub fn ranked_ids(&self, scheme: RankScheme, espair: EsPair) -> &[TopologyId] {
        match self.score_index.pair(espair) {
            Some(p) => &self.score_index.ranked[scheme.index()][p.ranked.clone()],
            None => &[],
        }
    }

    /// [`Catalog::ranked_ids`] with each id's score, as an owned copy.
    pub fn ranked(&self, scheme: RankScheme, espair: EsPair) -> Vec<(TopologyId, f64)> {
        self.ranked_ids(scheme, espair)
            .iter()
            .map(|&t| (t, self.metas[t as usize].scores[scheme.index()]))
            .collect()
    }

    /// Pruned topology ids of an entity-set pair, ascending (borrowed
    /// from the same index).
    pub fn pruned_ids(&self, espair: EsPair) -> &[TopologyId] {
        match self.score_index.pair(espair) {
            Some(p) => &self.score_index.pruned[p.pruned.clone()],
            None => &[],
        }
    }

    /// ExcpTops(E1, E2, TID), read-only: its rows in pair order.
    pub fn excptops(&self) -> &Table {
        &self.excptops
    }

    /// The decoded label walk of pruned topology `tid` — `(types, rels)`
    /// from its espair's `from` side — or `None` if `tid` is not pruned.
    pub(crate) fn pruned_walk(&self, tid: TopologyId) -> Option<(&[u16], &[u16])> {
        let p = self.score_index.pair(self.metas[tid as usize].espair)?;
        let i = self.score_index.pruned[p.pruned.clone()].binary_search(&tid).ok()?;
        let (types, rels) = &self.score_index.walks[p.pruned.start + i];
        Some((types, rels))
    }

    /// True if `(e1, e2, tid)` is in the exception table: a binary search
    /// of the (TID, E1, E2) permutation over the raw columns.
    pub fn excp_contains(&self, e1: i64, e2: i64, tid: TopologyId) -> bool {
        let [e1s, e2s, tids] = tops_columns(&self.excptops);
        let key = (i64::from(tid), e1, e2);
        self.excp_order
            .binary_search_by(|&r| {
                let r = r as usize;
                (tids[r], e1s[r], e2s[r]).cmp(&key)
            })
            .is_ok()
    }

    /// Order-sensitive FNV-1a (64-bit) digest of the catalog's logical
    /// content: `l`, every topology's metadata (espair, canonical code,
    /// frequency, pruned flag, scores, path signature), every pair's
    /// topologies and path classes, the truncation counter, and all
    /// three materialized tables row by row (the score index is derived
    /// from the metas and is not hashed). Identical builds produce
    /// identical digests, so the serving layer's fault-injection tests
    /// pin the digest before and after a panic storm to prove a shared
    /// snapshot is never mutated in place.
    pub fn fnv_digest(&self) -> u64 {
        struct Fnv(u64);
        impl Fnv {
            fn put(&mut self, x: u64) {
                const PRIME: u64 = 0x0000_0100_0000_01b3;
                for b in x.to_le_bytes() {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
                }
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.put(self.l as u64);
        h.put(self.metas.len() as u64);
        for m in &self.metas {
            h.put(u64::from(m.espair.from));
            h.put(u64::from(m.espair.to));
            h.put(m.code.0.len() as u64);
            for &c in &m.code.0 {
                h.put(u64::from(c));
            }
            h.put(m.freq);
            h.put(u64::from(m.pruned));
            for s in m.scores {
                h.put(s.to_bits());
            }
            match &m.path_sig {
                None => h.put(u64::MAX),
                Some(sig) => {
                    h.put(sig.0.len() as u64);
                    for &u in &sig.0 {
                        h.put(u64::from(u));
                    }
                }
            }
        }
        // The pairs as one CSR: keys, then each pair's (topology end,
        // class end) after a zero sentinel — a topology end is a
        // cumulative AllTops row count — then the TIDs, then the classes.
        h.put(self.pair_count() as u64);
        for p in self.pairs() {
            h.put(u64::from(p.espair.from));
            h.put(u64::from(p.espair.to));
            h.put(p.e1 as u64);
            h.put(p.e2 as u64);
        }
        let (mut topo_end, mut class_end) = (0, 0);
        h.put(0);
        h.put(0);
        for p in self.pairs() {
            topo_end += p.topos.len() as u64;
            class_end += p.sigs.len() as u64;
            h.put(topo_end);
            h.put(class_end);
        }
        for r in self.alltops.rows() {
            h.put(r.as_int(2) as u64);
        }
        for &s in &self.class_sigs {
            h.put(u64::from(s));
        }
        h.put(self.truncated_pairs);
        for table in [&self.alltops, &self.lefttops, &self.excptops] {
            h.put(table.len() as u64);
            for r in table.rows() {
                for col in 0..3 {
                    h.put(r.as_int(col) as u64);
                }
            }
        }
        h.0
    }

    /// Per-espair byte sizes of the three tables (Table 1 of the paper).
    /// Row payload plus index overhead (ExcpTops' is its (TID, E1, E2)
    /// permutation), attributed to the espair that owns each row's TID.
    pub fn space_report(&self) -> Vec<(EsPair, SpaceRow)> {
        let mut acc: FastMap<EsPair, SpaceRow> = FastMap::default();
        let per_row = |t: &Table, bytes: usize| {
            if t.is_empty() {
                0
            } else {
                bytes / t.len()
            }
        };
        #[derive(Clone, Copy)]
        enum Which {
            All,
            Left,
            Excp,
        }
        let parts: [(&Table, Which, usize); 3] = [
            (&self.alltops, Which::All, per_row(&self.alltops, self.alltops.heap_size())),
            (&self.lefttops, Which::Left, per_row(&self.lefttops, self.lefttops.heap_size())),
            (&self.excptops, Which::Excp, per_row(&self.excptops, self.excptops_heap_size())),
        ];
        for (table, which, bytes) in parts {
            for r in table.rows() {
                let tid = cast::int_to_usize(r.as_int(2));
                let espair = self.metas[tid].espair;
                let slot = acc.entry(espair).or_default();
                match which {
                    Which::All => slot.alltops_bytes += bytes,
                    Which::Left => slot.lefttops_bytes += bytes,
                    Which::Excp => slot.excptops_bytes += bytes,
                }
            }
        }
        let mut out: Vec<(EsPair, SpaceRow)> = acc.into_iter().collect();
        out.sort_by_key(|(p, _)| *p);
        out
    }
}

/// One row of the Table-1 space report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceRow {
    /// Bytes attributable to this espair in AllTops.
    pub alltops_bytes: usize,
    /// Bytes in LeftTops.
    pub lefttops_bytes: usize,
    /// Bytes in ExcpTops.
    pub excptops_bytes: usize,
}

impl SpaceRow {
    /// LeftTops+ExcpTops as a fraction of AllTops (the paper's "Ratio").
    pub fn ratio(&self) -> f64 {
        if self.alltops_bytes == 0 {
            return 0.0;
        }
        (self.lefttops_bytes + self.excptops_bytes) as f64 / self.alltops_bytes as f64
    }
}
