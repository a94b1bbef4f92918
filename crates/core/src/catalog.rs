//! The topology catalog: `AllTops`, `TopInfo`, `LeftTops`, and
//! `ExcpTops` as counts.
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
//!   one contiguous range, cached per espair — and carry a hash index on
//!   TID. LeftTops exists once [`crate::prune::prune_catalog`] has run,
//!   and a Fast plan reads it only where its espair has a pruned
//!   topology ([`Catalog::partition`]);
//! * **no ExcpTops** — §4.2 keeps it so that a deployment can drop
//!   AllTops, which this catalog always keeps: a witness `(a, b)` of a
//!   pruned topology T is an exception (Fig. 13) exactly when `(a, b, T)`
//!   is not an AllTops row ([`Catalog::holds`]). Pruning only counts the
//!   exceptions, for Table 1 and the digest;
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

use std::ops::Range;

use ts_graph::{CanonicalCode, LGraph, PathSig};
use ts_storage::cast;
use ts_storage::{fast_hash_u16s, ColumnDef, FastMap, Table, TableSchema, Value, ValueType};

use crate::methods::common::decode_sig;
use crate::methods::Variant;
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
    /// Once pruned, its exceptions (Fig. 13): pairs with its path class
    /// but not the topology, the rows ExcpTops would hold. 0 otherwise.
    pub exceptions: usize,
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

/// One espair's pairs as the build appends them, in (e1, e2) order:
/// AllTops' E1, E2 and TID columns, and the pairs' path-class ids with
/// each pair's end in them.
#[derive(Debug)]
pub(crate) struct Block {
    espair: EsPair,
    rows: [Vec<i64>; 3],
    class_ends: Vec<u32>,
    classes: Vec<u32>,
}

impl Block {
    /// An empty block with room for `pairs` pairs, `rows` rows and
    /// `classes` class ids.
    pub(crate) fn new(espair: EsPair, [pairs, rows, classes]: [usize; 3]) -> Block {
        Block {
            espair,
            rows: std::array::from_fn(|_| Vec::with_capacity(rows)),
            class_ends: Vec::with_capacity(pairs),
            classes: Vec::with_capacity(classes),
        }
    }

    /// Append a pair: a row per topology of `topos` (ascending), and its
    /// class ids.
    pub(crate) fn push(&mut self, e1: i64, e2: i64, topos: &[TopologyId], sigs: &[u32]) {
        let [e1s, e2s, tids] = &mut self.rows;
        e1s.extend(topos.iter().map(|_| e1));
        e2s.extend(topos.iter().map(|_| e2));
        tids.extend(topos.iter().map(|&t| i64::from(t)));
        self.classes.extend_from_slice(sigs);
        self.class_ends.push(cast::to_u32(self.classes.len()));
    }
}

/// The paper's index on TopInfo by score (the index scan at the bottom
/// of Fig. 15), plus the per-espair pruned list the gated sub-queries
/// of §5.1 walk, each pruned topology beside its decoded label walk, and
/// each espair's row range in AllTops and LeftTops. Ids only otherwise:
/// scores and flags are read from the metas. Derived data — rebuilt by
/// `Catalog::finalize`, [`Catalog::set_pruned`] and
/// [`Catalog::set_scores`], the only places its inputs change.
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

/// One espair's slices of the [`ScoreIndex`] buffers and tops tables.
#[derive(Debug, Clone)]
struct ScoreIndexPair {
    espair: EsPair,
    /// Range in each of the three `ranked` buffers.
    ranked: Range<usize>,
    /// Range in the `pruned` buffer.
    pruned: Range<usize>,
    /// The espair's rows in AllTops.
    alltops: Range<usize>,
    /// The espair's rows in LeftTops (empty before pruning).
    lefttops: Range<usize>,
}

/// `espair`'s rows in an espair-sorted tops table's TID column.
fn espair_rows(tids: &[i64], metas: &[TopologyMeta], espair: EsPair) -> Range<usize> {
    let espair_of = |t: i64| metas[cast::int_to_usize(t)].espair;
    let lo = tids.partition_point(|&t| espair_of(t) < espair);
    lo..lo + tids[lo..].partition_point(|&t| espair_of(t) == espair)
}

impl ScoreIndex {
    fn build(metas: &[TopologyMeta], alltops: &Table, lefttops: &Table) -> ScoreIndex {
        let (all_tids, left_tids) = (tops_columns(alltops)[2], tops_columns(lefttops)[2]);
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
            let espair = metas[run[0] as usize].espair;
            idx.pairs.push(ScoreIndexPair {
                espair,
                ranked,
                pruned: pruned_lo..idx.pruned.len(),
                alltops: espair_rows(all_tids, metas, espair),
                lefttops: espair_rows(left_tids, metas, espair),
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
    /// The entity-set pairs the build computed, ascending. Not part of
    /// [`Catalog::fnv_digest`].
    computed: Vec<EsPair>,
    /// AllTops(E1, E2, TID) — rows sorted by (espair of TID, E1, E2,
    /// TID), the clustering the regular plan merges against; hash index
    /// on TID for the DGJ stacks and instance retrieval.
    pub alltops: Table,
    /// LeftTops(E1, E2, TID) — AllTops minus pruned topologies, in the
    /// same order, with the same TID index; empty until
    /// [`crate::prune::prune_catalog`] runs.
    pub lefttops: Table,
    score_index: ScoreIndex,
}

/// A tops table's raw E1, E2 and TID column buffers.
fn tops_columns(table: &Table) -> [&[i64]; 3] {
    let store = table.store();
    #[expect(
        clippy::expect_used,
        reason = "the tops tables are three Int columns, empty or made by tops_table from null-free Int buffers"
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

/// A tops table that takes its E1, E2 and TID columns, indexed on TID.
pub(crate) fn tops_table(name: &str, columns: [Vec<i64>; 3]) -> Table {
    #[expect(
        clippy::expect_used,
        reason = "three Int columns of one length against the fixed three-Int-column schema, which has no primary key"
    )]
    let mut table =
        Table::from_int_columns(tops_schema(name), columns.into()).expect("tops schema is fixed");
    table.create_index_bulk(2);
    table
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
            computed: Vec::new(),
            alltops: Table::new(tops_schema("AllTops")),
            lefttops: Table::new(tops_schema("LeftTops")),
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
            exceptions: 0,
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
            + self.computed.len() * size_of::<EsPair>()
    }

    /// Finish the build from its blocks: AllTops is their columns in
    /// espair order, one copy, and a topology's frequency its TID's
    /// posting count; the build's interning maps go. LeftTops stays empty
    /// until [`crate::prune::prune_catalog`] runs. The tops tables carry
    /// no statistics: the query methods never select from one by
    /// predicate.
    pub(crate) fn finalize(&mut self, mut blocks: Vec<Block>) {
        blocks.sort_unstable_by_key(|b| b.espair);
        self.computed = blocks.iter().map(|b| b.espair).collect();
        let classes = blocks.iter().map(|b| b.classes.len()).sum();
        self.class_sigs.reserve(classes);
        for b in &blocks {
            let base = cast::to_u32(self.class_sigs.len());
            self.class_sigs.extend_from_slice(&b.classes);
            self.class_offsets.extend(b.class_ends.iter().map(|&end| base + end));
        }
        let cols = std::array::from_fn(|c| {
            blocks.iter().map(|b| &b.rows[c][..]).collect::<Vec<_>>().concat()
        });
        drop(blocks);
        self.alltops = tops_table("AllTops", cols);
        for m in &mut self.metas {
            m.freq = self.alltops.index_probe(2, &Value::Int(i64::from(m.id))).len() as u64;
        }
        self.score_index = ScoreIndex::build(&self.metas, &self.alltops, &self.lefttops);
        self.code_ids = FastMap::default();
        self.code_index = FastMap::default();
    }

    /// All topology metadata.
    pub fn metas(&self) -> &[TopologyMeta] {
        &self.metas
    }

    /// Flag exactly the topologies in `pruned`, given with their exception
    /// counts, as pruned (clearing any earlier flags), with the LeftTops
    /// that goes with them — the pruning module's write path, which
    /// keeps the score index in step.
    pub(crate) fn set_pruned(&mut self, pruned: &[(TopologyId, usize)], lefttops: Table) {
        for m in &mut self.metas {
            let hit = pruned.iter().find(|p| p.0 == m.id);
            (m.pruned, m.exceptions) = (hit.is_some(), hit.map_or(0, |p| p.1));
        }
        self.lefttops = lefttops;
        self.score_index = ScoreIndex::build(&self.metas, &self.alltops, &self.lefttops);
    }

    /// Set every topology's three scores to `scores(meta)` — the scoring
    /// module's write path, which keeps the score index in step.
    pub(crate) fn set_scores(&mut self, mut scores: impl FnMut(&TopologyMeta) -> [f64; 3]) {
        for m in &mut self.metas {
            m.scores = scores(m);
        }
        self.score_index = ScoreIndex::build(&self.metas, &self.alltops, &self.lefttops);
    }

    /// Every pair's path-class ids, in pair order.
    pub(crate) fn class_ids(&self) -> &[u32] {
        &self.class_sigs
    }

    /// The entity-set pairs this catalog was computed for, ascending: a
    /// query on any other is rejected, not answered empty.
    pub fn computed_espairs(&self) -> &[EsPair] {
        &self.computed
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

    /// The tops table a `variant` plan reads for `espair`, with the
    /// espair's cached row range in it: LeftTops for a Fast plan where the
    /// espair has a pruned topology, AllTops otherwise (LeftTops would
    /// hold the same rows, and an unpruned catalog has none).
    pub(crate) fn partition(&self, variant: Variant, espair: EsPair) -> (&Table, Range<usize>) {
        match self.score_index.pair(espair) {
            Some(p) if variant == Variant::Fast && !p.pruned.is_empty() => {
                (&self.lefttops, p.lefttops.clone())
            }
            Some(p) => (&self.alltops, p.alltops.clone()),
            None => (&self.alltops, 0..0),
        }
    }

    /// The decoded label walk of pruned topology `tid` — `(types, rels)`
    /// from its espair's `from` side — or `None` if `tid` is not pruned.
    pub(crate) fn pruned_walk(&self, tid: TopologyId) -> Option<(&[u16], &[u16])> {
        let p = self.score_index.pair(self.metas[tid as usize].espair)?;
        let i = self.score_index.pruned[p.pruned.clone()].binary_search(&tid).ok()?;
        let (types, rels) = &self.score_index.walks[p.pruned.start + i];
        Some((types, rels))
    }

    /// True if `(e1, e2, tid)` is an AllTops row (the pair in stored
    /// orientation): a witness of a pruned topology is an exception
    /// exactly when this is false. One binary search for `(e1, e2)` in
    /// the espair's cached row range, then a scan of the pair's TIDs.
    pub fn holds(&self, e1: i64, e2: i64, tid: TopologyId) -> bool {
        let Some(p) = self.metas.get(tid as usize).and_then(|m| self.score_index.pair(m.espair))
        else {
            return false;
        };
        let [e1s, e2s, tids] = self.alltops_columns();
        let (mut lo, mut hi) = (p.alltops.start, p.alltops.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if (e1s[mid], e2s[mid]) < (e1, e2) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let pair = lo..p.alltops.end;
        pair.take_while(|&r| (e1s[r], e2s[r]) == (e1, e2)).any(|r| tids[r] == i64::from(tid))
    }

    /// Order-sensitive FNV-1a (64-bit) digest of the catalog's logical
    /// content: `l`, every topology's metadata (espair, canonical code,
    /// frequency, pruned flag, scores, path signature), every pair's
    /// topologies and path classes, the truncation counter, AllTops and
    /// the LeftTops rows the Fast plans read ([`Catalog::partition`])
    /// row by row, and the exception count of every pruned topology (the
    /// score index is derived from the metas and is not hashed).
    /// Identical builds produce identical digests, so the serving
    /// layer's fault-injection tests pin the digest before and after a
    /// panic storm to prove a shared snapshot is never mutated in place.
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
        let left = self.score_index.pairs.iter().map(|p| self.partition(Variant::Fast, p.espair));
        for parts in [vec![(&self.alltops, 0..self.alltops.len())], left.collect()] {
            h.put(parts.iter().map(|(_, rows)| rows.len() as u64).sum());
            for (table, rows) in parts {
                let cols = tops_columns(table);
                rows.flat_map(|r| cols.map(|c| c[r])).for_each(|v| h.put(v as u64));
            }
        }
        let pruned = self.metas.iter().filter(|m| m.pruned);
        h.put(pruned.clone().count() as u64);
        for m in pruned {
            h.put(u64::from(m.id));
            h.put(m.exceptions as u64);
        }
        h.0
    }

    /// Per-espair byte sizes of the three tables (Table 1 of the paper).
    /// AllTops and LeftTops: row payload plus index overhead, by espair.
    /// ExcpTops is not stored: its bytes are its exceptions times
    /// [`EXCPTOPS_ROW_BYTES`].
    pub fn space_report(&self) -> Vec<(EsPair, SpaceRow)> {
        let per_row = |t: &Table| t.heap_size().checked_div(t.len()).unwrap_or(0);
        let (all_row, left_row) = (per_row(&self.alltops), per_row(&self.lefttops));
        let index = &self.score_index;
        let row = |p: &ScoreIndexPair| SpaceRow {
            alltops_bytes: p.alltops.len() * all_row,
            lefttops_bytes: p.lefttops.len() * left_row,
            excptops_bytes: index.pruned[p.pruned.clone()]
                .iter()
                .map(|&t| self.metas[t as usize].exceptions * EXCPTOPS_ROW_BYTES)
                .sum(),
        };
        index.pairs.iter().map(|p| (p.espair, row(p))).collect()
    }
}

/// Bytes of one ExcpTops row as Table 1 reports it: three Int cells.
pub const EXCPTOPS_ROW_BYTES: usize = 3 * std::mem::size_of::<i64>();

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
