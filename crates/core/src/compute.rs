//! The Topology Computation module (§4.1): the offline build of the
//! topology catalog from the base data.
//!
//! The paper enumerates all schema paths of length ≤ l between each pair
//! of entity sets, runs one SQL query per schema path, merges the results
//! per entity pair, and computes each pair's l-topology. Our equivalent
//! fuses the per-schema-path queries into one DFS per source entity that
//! steps the espair's schema-walk automaton (see `ts-graph::paths`), so
//! every path still arrives knowing its schema walk — and with it its
//! Definition-1 class — then applies Definition 2 per pair and interns
//! the resulting canonical codes.
//!
//! This is the system's hot path — online queries are only fast because
//! this finished — so it is built allocation-lean:
//!
//! * each worker runs every source through one reusable [`SourcePaths`],
//!   the Definition-1 front end the SQL baseline and instance retrieval
//!   share: paths go into one arena (no `Vec` pair per instance path)
//!   and are grouped by destination and class with one sorted scratch
//!   vector (no per-source hash map, no per-path signature: the weak
//!   policy and each walk's class are decided once per walk, in
//!   [`WalkClasses`]). The build's filter drops the b < a duplicates of
//!   a same-set espair;
//! * canonical codes are memoized per worker ([`CanonMemoH`]), so the
//!   backtracking search runs once per distinct union structure instead
//!   of once per pair — the hit rate is reported in [`ComputeStats`].
//!   The memo hands out worker-local **topology slots** (code plus
//!   representative graph), so a pair's result is `u32` slot ids, never
//!   a cloned graph or code; a combination of representatives whose
//!   sharing pattern the memo has seen, and a single-path pair whose
//!   signature already has a slot, build no union at all;
//! * with [`ComputeOptions::parallel`], workers pull chunks of source
//!   entities off an atomic counter (work stealing — no static shard can
//!   straggle) under `std::thread::scope`, and results are merged in
//!   deterministic order so parallel and serial builds produce identical
//!   catalogs. The merge resolves each worker's slots to catalog
//!   topologies lazily, so the catalog interns once per (worker, slot)
//!   instead of once per (pair, topology) incidence.

use std::hash::BuildHasher;
use std::ops::{ControlFlow, Range};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ts_graph::{DataGraph, PathSig, SchemaGraph, WalkAutomaton};
use ts_storage::cast;
use ts_storage::faults::{self, sites};
use ts_storage::{Database, FastBuildHasher};

use crate::catalog::{Block, Catalog, EsPair, TopologyId};
use crate::topology::{
    pair_slots, CanonMemoH, PairIds, Slot, SourcePaths, TopOptions, TopScratch, WalkClasses,
};
use crate::weak::WeakPolicy;

/// Options for the offline computation.
#[derive(Debug, Clone)]
pub struct ComputeOptions {
    /// Path-length limit `l`.
    pub l: usize,
    /// Guard rails for the Definition-2 product.
    pub top_opts: TopOptions,
    /// Entity-set pairs to compute; `None` = every unordered pair of
    /// distinct entity sets connected by at least one schema walk.
    pub es_pairs: Option<Vec<EsPair>>,
    /// Domain-knowledge weak-relationship pruning (§6.2.3): banned path
    /// signatures are dropped before topology formation.
    pub weak_policy: Option<WeakPolicy>,
    /// Pull source entities off a shared work queue across threads.
    pub parallel: bool,
    /// Minimum sources per entity-set pair before threads are spawned;
    /// below it the serial path is cheaper. Tests lower it to force the
    /// parallel machinery onto tiny fixtures.
    pub min_parallel_sources: usize,
    /// Worker-thread cap for the parallel build; `0` means "one per
    /// available core". The determinism tests sweep this to prove the
    /// merge erases the schedule.
    pub max_threads: usize,
}

impl Default for ComputeOptions {
    fn default() -> Self {
        ComputeOptions {
            l: 0,
            top_opts: TopOptions::default(),
            es_pairs: None,
            weak_policy: None,
            parallel: false,
            min_parallel_sources: 64,
            max_threads: 0,
        }
    }
}

impl ComputeOptions {
    /// Defaults at a given `l`.
    pub fn with_l(l: usize) -> Self {
        ComputeOptions { l, ..Default::default() }
    }
}

/// Statistics of one offline build.
#[derive(Debug, Clone, Default)]
pub struct ComputeStats {
    /// Connected entity pairs found.
    pub pairs: u64,
    /// Instance paths enumerated (after weak-policy filtering).
    pub paths: u64,
    /// Instance paths dropped by the weak policy.
    pub weak_paths_dropped: u64,
    /// Pairs whose representative product hit a guard rail.
    pub truncated_pairs: u64,
    /// Distinct topologies interned.
    pub topologies: usize,
    /// Canonicalizer memo hits (union graphs answered without running
    /// the backtracking search).
    pub canon_hits: u64,
    /// Canonicalizer memo misses (backtracking searches actually run).
    pub canon_misses: u64,
    /// Full path-signature hash computations performed during the build
    /// (the bench records this as `sig_hash_once`). Exactly one per
    /// distinct signature of an espair's schema walks, per worker: a
    /// worker interns its walks' signatures when it starts, and paths
    /// take their class from their walk. Grouping is sort-based,
    /// single-path memoization is id-indexed, and the catalog re-interns
    /// worker signatures from their cached hashes — none of those hash a
    /// signature again.
    pub sig_hashes: u64,
    /// Milliseconds enumerating paths in the workers: the automaton DFS
    /// per source, the weak policy and the destination sort. A
    /// parallel build counts, per espair, only the worker with the most
    /// search time (here and in the next two phases): one worker's phases
    /// fit in its busy time, so the five phases never add up to more
    /// than [`ComputeStats::millis`].
    pub enumerate_ms: f64,
    /// Milliseconds applying Definition 2 per pair in the workers, less
    /// the searches [`ComputeStats::canonicalize_ms`] counts.
    pub pairs_ms: f64,
    /// Milliseconds inside the backtracking search on memo misses.
    pub canonicalize_ms: f64,
    /// Milliseconds merging worker results into the catalog's interners,
    /// AllTops' columns and the path-class CSR.
    pub merge_ms: f64,
    /// Milliseconds in `Catalog::finalize`: the AllTops table and its TID
    /// index.
    pub finalize_ms: f64,
    /// Wall-clock milliseconds of the whole build.
    pub millis: f64,
}

impl ComputeStats {
    /// Fraction of canonicalizations answered from the memo.
    pub fn canon_hit_rate(&self) -> f64 {
        let total = self.canon_hits + self.canon_misses;
        if total == 0 {
            return 0.0;
        }
        self.canon_hits as f64 / total as f64
    }
}

/// Result of computing one pair: ranges into the worker's [`PairIds`].
#[derive(Debug, Clone, Copy)]
struct LocalPair {
    e1: i64,
    e2: i64,
    path_count: u64,
    truncated: bool,
    /// Range of the pair's slot ids.
    slots: (u32, u32),
    /// Range of the pair's class ids.
    classes: (u32, u32),
}

/// Everything one worker hands to the deterministic merge.
struct WorkerOut {
    locals: Vec<LocalPair>,
    /// Each chunk of sources the worker ran: its first source's index,
    /// and the range of `locals` it produced.
    chunks: Vec<(usize, Range<u32>)>,
    /// All pairs' worker-local slot and class ids, addressed by the
    /// `LocalPair` ranges.
    ids: PairIds,
    /// Worker-local topologies: slot id → (code, representative graph).
    slots: Vec<Slot>,
    /// Worker-local signature table: id → (signature, cached fast hash).
    sig_table: Vec<(PathSig, u64)>,
    dropped: u64,
    canon_hits: u64,
    canon_misses: u64,
    canon_time: Duration,
    /// Path enumeration, the weak policy and the destination sort.
    enumerate_time: Duration,
    /// Definition 2 per pair, `canon_time` included.
    pairs_time: Duration,
    sig_hashes: u64,
}

/// A failed offline build.
#[derive(Debug)]
pub enum ComputeError {
    /// A build worker panicked. All surviving workers were joined first,
    /// so no thread is left running; the partial build is discarded
    /// rather than interned into a half-empty catalog.
    WorkerPanicked {
        /// The panic payload, rendered to text when it was a string.
        detail: String,
    },
}

impl std::fmt::Display for ComputeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComputeError::WorkerPanicked { detail } => {
                write!(f, "catalog build worker panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for ComputeError {}

/// Render a panic payload for [`ComputeError::WorkerPanicked`] (and for
/// the serving layer's per-query panic isolation).
pub fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The build's clock. Its readings land only in [`ComputeStats`]'
/// timings: a pair around the whole build, around each espair's merge,
/// around `finalize` and around each memo miss's search, and two per
/// source in each worker — never one per pair or per path.
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock timing statistics only; they land in ComputeStats and never reach catalog bytes"
)]
pub(crate) fn clock() -> Instant {
    Instant::now()
}

/// Compute the full catalog.
///
/// A panicking build worker propagates the panic (historically it
/// aborted via a bare `join().expect`). Callers that must survive a
/// poisoned build — the serving layer rebuilding a snapshot under
/// fault injection — use [`try_compute_catalog`] instead.
pub fn compute_catalog(
    db: &Database,
    g: &DataGraph,
    schema: &SchemaGraph,
    opts: &ComputeOptions,
) -> (Catalog, ComputeStats) {
    compute_catalog_with_hasher::<FastBuildHasher>(db, g, schema, opts)
}

/// [`compute_catalog`] with worker panics caught and returned as a typed
/// [`ComputeError`] — every worker is joined before the error is
/// reported, so the process keeps running with no leaked threads.
pub fn try_compute_catalog(
    db: &Database,
    g: &DataGraph,
    schema: &SchemaGraph,
    opts: &ComputeOptions,
) -> Result<(Catalog, ComputeStats), ComputeError> {
    try_compute_catalog_with_hasher::<FastBuildHasher>(db, g, schema, opts)
}

/// [`compute_catalog`], generic over the hasher of the worker-side memo
/// maps. Production always builds with the fast hasher (the public
/// function above); the determinism guard in
/// `tests/hasher_equivalence.rs` rebuilds with `std`'s randomly-seeded
/// SipHash and asserts the catalogs are byte-identical — proof that no
/// output depends on map iteration order. (The catalog-side interner
/// maps are not parameterized: they are lookup-only and never iterated.)
#[expect(
    clippy::panic,
    reason = "re-raises a worker panic that the try_ path caught — the historical contract of this infallible entry point"
)]
pub fn compute_catalog_with_hasher<S: BuildHasher + Default>(
    db: &Database,
    g: &DataGraph,
    schema: &SchemaGraph,
    opts: &ComputeOptions,
) -> (Catalog, ComputeStats) {
    try_compute_catalog_with_hasher::<S>(db, g, schema, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// [`try_compute_catalog`], generic over the worker-memo hasher like
/// [`compute_catalog_with_hasher`].
pub fn try_compute_catalog_with_hasher<S: BuildHasher + Default>(
    db: &Database,
    g: &DataGraph,
    schema: &SchemaGraph,
    opts: &ComputeOptions,
) -> Result<(Catalog, ComputeStats), ComputeError> {
    assert!(opts.l >= 1, "path limit l must be >= 1");
    // A zero cap leaves multi-path pairs without a topology, and a pair
    // exists in the catalog only as its AllTops rows.
    assert!(opts.top_opts.max_product >= 1, "top_opts.max_product must be >= 1");
    let start = clock();
    let mut catalog = Catalog::new(opts.l);
    catalog.weak_policy.clone_from(&opts.weak_policy);
    catalog.top_opts = opts.top_opts;
    let mut stats = ComputeStats::default();

    // Each espair once, first occurrence first: a repeat would record
    // every one of its pairs twice.
    let listed = opts.es_pairs.clone().unwrap_or_else(|| default_es_pairs(db, schema, opts.l));
    let mut es_pairs: Vec<EsPair> = Vec::new();
    for espair in listed {
        if !es_pairs.contains(&espair) {
            es_pairs.push(espair);
        }
    }

    let mut blocks = Vec::with_capacity(es_pairs.len());
    let (mut enumerate, mut per_pair) = (Duration::ZERO, Duration::ZERO);
    let (mut canonicalize, mut merge) = (Duration::ZERO, Duration::ZERO);
    for espair in es_pairs {
        let outs = compute_espair::<S>(g, schema, espair, opts)?;
        // The phases of the worker that searched longest, all from that
        // one worker: their sum fits in its busy time, hence in the espair's.
        if let Some(o) = outs.iter().max_by_key(|o| o.canon_time) {
            enumerate += o.enumerate_time;
            per_pair += o.pairs_time.saturating_sub(o.canon_time);
            canonicalize += o.canon_time;
        }
        let t = clock();
        blocks.push(intern_locals(&mut catalog, espair, outs, &mut stats));
        merge += t.elapsed();
    }

    let t = clock();
    catalog.finalize(blocks);
    let finalize = t.elapsed();
    catalog.truncated_pairs = stats.truncated_pairs;
    stats.topologies = catalog.topology_count();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    stats.enumerate_ms = ms(enumerate);
    stats.pairs_ms = ms(per_pair);
    stats.canonicalize_ms = ms(canonicalize);
    stats.merge_ms = ms(merge);
    stats.finalize_ms = ms(finalize);
    stats.millis = ms(start.elapsed());
    Ok((catalog, stats))
}

/// Every unordered pair of distinct entity sets with a connecting schema
/// walk of length ≤ l.
pub fn default_es_pairs(db: &Database, schema: &SchemaGraph, l: usize) -> Vec<EsPair> {
    let n = cast::to_u16(db.entity_sets().len());
    let mut out = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if schema.walk_count(a, b, l) > 0 {
                out.push(EsPair::new(a, b));
            }
        }
    }
    out
}

/// Per-thread state of the offline build: the reusable source step, the
/// canonicalizer memo (with its signature interner), and the flat
/// id buffers every pair appends to. One per worker; nothing is shared,
/// so the hot loop takes no locks, and a warm worker allocates only for
/// a structure it has not seen.
struct Worker<'a, S: BuildHasher + Default> {
    g: &'a DataGraph,
    auto: &'a WalkAutomaton,
    walks: &'a WalkClasses,
    espair: EsPair,
    opts: &'a ComputeOptions,
    /// One source's paths, grouped by pair and, within a pair, by class.
    source: SourcePaths,
    /// Worker-local slots and signature interner: each walk signature
    /// hashed once, the hash cached alongside the id for the merge phase.
    memo: CanonMemoH<S>,
    /// Class/odometer/pattern/builder buffers, reused across pairs.
    scratch: TopScratch,
    ids: PairIds,
    locals: Vec<LocalPair>,
    chunks: Vec<(usize, Range<u32>)>,
    enumerate: Duration,
    pairs: Duration,
    /// The last phase boundary: the previous source's end, or creation.
    lap: Instant,
}

impl<'a, S: BuildHasher + Default> Worker<'a, S> {
    fn new(
        g: &'a DataGraph,
        auto: &'a WalkAutomaton,
        walks: &'a WalkClasses,
        espair: EsPair,
        opts: &'a ComputeOptions,
    ) -> Self {
        Worker {
            g,
            auto,
            walks,
            espair,
            opts,
            source: SourcePaths::default(),
            memo: CanonMemoH::for_walks(walks),
            scratch: TopScratch::new(),
            ids: PairIds::default(),
            locals: Vec::new(),
            chunks: Vec::new(),
            enumerate: Duration::ZERO,
            pairs: Duration::ZERO,
            lap: clock(),
        }
    }

    /// Run `sources`, the chunk of the espair's sources that starts at
    /// index `first`.
    fn run_chunk(&mut self, first: usize, sources: &[u32]) {
        let lo = cast::to_u32(self.locals.len());
        for &a in sources {
            let _ = faults::fire(sites::CORE_COMPUTE_WORKER);
            self.run_source(a);
        }
        self.chunks.push((first, lo..cast::to_u32(self.locals.len())));
    }

    /// Enumerate and compute every pair reachable from source `a`.
    fn run_source(&mut self, a: u32) {
        // A same-set espair meets each pair from both ends: keep a ≤ b.
        let same_type = self.espair.from == self.espair.to;
        self.source.collect(self.g, self.auto, self.walks, a, |b| !same_type || a <= b);
        // Two clock reads per source: the sort's end starts Definition 2,
        // whose end starts the next source's enumeration.
        let sorted = clock();
        self.enumerate += sorted.duration_since(self.lap);
        let (g, top_opts) = (self.g, self.opts.top_opts);
        let (memo, ids, locals) = (&mut self.memo, &mut self.ids, &mut self.locals);
        let ControlFlow::Continue(()) =
            self.source.for_each_pair(&mut self.scratch, |b, refs, scratch| {
                let (e1, e2) = (g.node_entity(a), g.node_entity(b));
                let (s0, c0) = (cast::to_u32(ids.slots.len()), cast::to_u32(ids.classes.len()));
                let truncated = pair_slots(g, refs, top_opts, (e1, e2), memo, scratch, ids);
                locals.push(LocalPair {
                    e1,
                    e2,
                    path_count: refs.len() as u64,
                    truncated,
                    slots: (s0, cast::to_u32(ids.slots.len())),
                    classes: (c0, cast::to_u32(ids.classes.len())),
                });
                ControlFlow::<std::convert::Infallible>::Continue(())
            });
        self.lap = clock();
        self.pairs += self.lap.duration_since(sorted);
    }

    fn finish(self) -> WorkerOut {
        let (canon_hits, canon_misses, canon_time, sig_hashes) =
            (self.memo.hits, self.memo.misses, self.memo.canon_time, self.memo.sig_hashes());
        let (slots, sig_table) = self.memo.into_parts();
        WorkerOut {
            locals: self.locals,
            chunks: self.chunks,
            ids: self.ids,
            slots,
            sig_table,
            dropped: self.source.dropped,
            canon_hits,
            canon_misses,
            canon_time,
            enumerate_time: self.enumerate,
            pairs_time: self.pairs,
            sig_hashes,
        }
    }
}

fn compute_espair<S: BuildHasher + Default>(
    g: &DataGraph,
    schema: &SchemaGraph,
    espair: EsPair,
    opts: &ComputeOptions,
) -> Result<Vec<WorkerOut>, ComputeError> {
    let sources: &[u32] = g.nodes_of_type(espair.from);
    if sources.is_empty() {
        return Ok(Vec::new());
    }
    let auto = WalkAutomaton::new(schema, espair.from, espair.to, opts.l);
    let walks = WalkClasses::new(&auto, opts.weak_policy.as_ref());

    let mut results: Vec<WorkerOut> = Vec::new();
    if !opts.parallel || sources.len() < opts.min_parallel_sources {
        #[expect(
            clippy::disallowed_methods,
            reason = "confines a (possibly injected) per-source panic so the serial build reports the same typed ComputeError as the parallel path's joined workers"
        )]
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut w = Worker::<S>::new(g, &auto, &walks, espair, opts);
            w.run_chunk(0, sources);
            w.finish()
        }));
        match caught {
            Ok(out) => results.push(out),
            Err(payload) => {
                return Err(ComputeError::WorkerPanicked { detail: panic_detail(payload) })
            }
        }
    } else {
        // Auto mode caps at 16 to avoid over-spawning on large boxes;
        // an explicit max_threads is honored as given.
        let threads = match opts.max_threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16),
            n => n,
        }
        .min(sources.len());
        // Chunked work stealing: workers pull the next chunk of sources
        // off an atomic cursor, so a straggler chunk (one hub entity with
        // a huge path neighbourhood) never idles the other threads the
        // way the seed's static equal shards did. Chunks are small enough
        // to balance, large enough to keep cursor traffic negligible.
        let chunk = (sources.len() / (threads * 8)).clamp(1, 256);
        let cursor = AtomicUsize::new(0);
        // Join EVERY handle before inspecting any result: an early return
        // from inside `thread::scope` would re-raise the first panic at
        // the scope boundary and abort the caller — exactly the failure
        // mode this function exists to remove.
        #[expect(
            clippy::disallowed_methods,
            reason = "every handle is joined before any result is inspected, and each Err (a worker panic) becomes ComputeError::WorkerPanicked below, never a re-raise"
        )]
        let joined: Vec<std::thread::Result<WorkerOut>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let (cursor, auto, walks) = (&cursor, &auto, &walks);
                    s.spawn(move || {
                        let mut w = Worker::<S>::new(g, auto, walks, espair, opts);
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= sources.len() {
                                break;
                            }
                            w.run_chunk(start, &sources[start..(start + chunk).min(sources.len())]);
                        }
                        w.finish()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        for j in joined {
            match j {
                Ok(out) => results.push(out),
                Err(payload) => {
                    return Err(ComputeError::WorkerPanicked { detail: panic_detail(payload) })
                }
            }
        }
    }
    Ok(results)
}

/// Intern worker results deterministically, in (e1, e2) order, so the
/// interning order — and with it every id in the catalog — is
/// independent of how many workers ran and which chunks they pulled.
/// Pairs come in source order, each worker's chunks put back in place;
/// sources and each source's destinations come in node order, so where
/// entity tables keep rows in id order (every generated database) that
/// is (e1, e2) order already, and only other databases (Fig. 3) sort.
/// Worker-local ids are resolved to catalog ids lazily, in merge order:
/// a signature through its worker's cached hash (the catalog interner
/// never re-hashes a signature), a slot by interning its code and graph
/// once — at the slot's least-keyed pair, whose graph the slot holds
/// (see [`Slot`]), and in the code order the pair's slot ids carry, so
/// new topologies get their ids in (key, code) order. The pairs become
/// the espair's block of AllTops' columns and the class CSR.
fn intern_locals(
    catalog: &mut Catalog,
    espair: EsPair,
    mut outs: Vec<WorkerOut>,
    stats: &mut ComputeStats,
) -> Block {
    let (mut n_pairs, mut n_topos, mut n_sigs) = (0usize, 0usize, 0usize);
    for o in &outs {
        stats.weak_paths_dropped += o.dropped;
        stats.canon_hits += o.canon_hits;
        stats.canon_misses += o.canon_misses;
        stats.sig_hashes += o.sig_hashes;
        n_pairs += o.locals.len();
        n_topos += o.ids.slots.len();
        n_sigs += o.ids.classes.len();
    }
    let mut block = Block::new(espair, [n_pairs, n_topos, n_sigs]);
    // Merge order: every chunk of every worker, by first source.
    let mut chunks: Vec<(usize, u32, Range<u32>)> = (outs.iter().enumerate())
        .flat_map(|(w, o)| o.chunks.iter().map(move |c| (c.0, cast::to_u32(w), c.1.clone())))
        .collect();
    chunks.sort_unstable_by_key(|c| c.0);
    let mut order: Vec<(u32, u32)> =
        chunks.into_iter().flat_map(|(_, w, locals)| locals.map(move |l| (w, l))).collect();
    let key = |&(w, l): &(u32, u32)| {
        let lp = &outs[w as usize].locals[l as usize];
        (lp.e1, lp.e2)
    };
    if !order.is_sorted_by_key(key) {
        order.sort_unstable_by_key(key);
    }
    // Per-worker maps: local signature id → catalog signature id, and
    // slot id → topology id (u32::MAX = unresolved).
    let mut sig_maps: Vec<Vec<u32>> =
        outs.iter().map(|o| vec![u32::MAX; o.sig_table.len()]).collect();
    let mut slot_maps: Vec<Vec<TopologyId>> =
        outs.iter().map(|o| vec![u32::MAX; o.slots.len()]).collect();
    // Two scratch vectors reused across every pair of the espair; the
    // block copies out of them, so nothing per-pair survives.
    let mut topos: Vec<TopologyId> = Vec::new();
    let mut sigs: Vec<u32> = Vec::new();
    for (w, l) in order {
        let out = &mut outs[w as usize];
        let lp = out.locals[l as usize];
        stats.pairs += 1;
        stats.paths += lp.path_count;
        if lp.truncated {
            stats.truncated_pairs += 1;
        }
        sigs.clear();
        for idx in lp.classes.0..lp.classes.1 {
            let lid = out.ids.classes[idx as usize] as usize;
            let mapped = sig_maps[w as usize][lid];
            let gid = if mapped == u32::MAX {
                let (sig, hash) =
                    std::mem::replace(&mut out.sig_table[lid], (PathSig(Vec::new()), 0));
                let gid = catalog.intern_sig_prehashed(sig, hash);
                sig_maps[w as usize][lid] = gid;
                gid
            } else {
                mapped
            };
            sigs.push(gid);
        }
        topos.clear();
        for idx in lp.slots.0..lp.slots.1 {
            let slot = out.ids.slots[idx as usize] as usize;
            let mapped = slot_maps[w as usize][slot];
            let tid = if mapped == u32::MAX {
                let graph = std::mem::take(&mut out.slots[slot].graph);
                let code = std::mem::take(&mut out.slots[slot].code);
                // The path-shape detection (allocating walk of the
                // structure graph) runs only for genuinely new topologies.
                let tid = catalog
                    .intern_topology_with(espair, graph, code, |gr| path_sig_of_graph(gr, espair));
                slot_maps[w as usize][slot] = tid;
                tid
            } else {
                mapped
            };
            topos.push(tid);
        }
        // A pair's slots have distinct codes, hence distinct topologies.
        topos.sort_unstable();
        block.push(lp.e1, lp.e2, &topos, &sigs);
    }
    block
}

/// If `graph` is a single simple path whose two endpoints carry the
/// espair's entity-set labels, return the path's signature. Such
/// topologies are eligible for pruning with an online path check.
pub fn path_sig_of_graph(graph: &ts_graph::LGraph, espair: EsPair) -> Option<ts_graph::PathSig> {
    let n = graph.node_count();
    if n < 2 || graph.edge_count() != n - 1 {
        return None;
    }
    let mut ends = Vec::new();
    for v in 0..cast::to_u8(n) {
        match graph.degree(v) {
            1 => ends.push(v),
            2 => {}
            _ => return None,
        }
    }
    if ends.len() != 2 {
        return None;
    }
    let mut end_labels = [graph.labels[ends[0] as usize], graph.labels[ends[1] as usize]];
    end_labels.sort_unstable();
    if end_labels != [espair.from.min(espair.to), espair.from.max(espair.to)] {
        return None;
    }
    // Walk the path from one end.
    let mut types = vec![graph.labels[ends[0] as usize]];
    let mut rels = Vec::new();
    let mut prev: Option<u8> = None;
    let mut cur = ends[0];
    while types.len() < n {
        let (rel, next) = graph.neighbors(cur).into_iter().find(|&(_, w)| Some(w) != prev)?;
        rels.push(rel);
        types.push(graph.labels[next as usize]);
        prev = Some(cur);
        cur = next;
    }
    Some(crate::weak::sig_from_labels(&types, &rels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_graph::fixtures::{figure3, DNA, PROTEIN, UNIGENE};

    fn build(parallel: bool) -> (Catalog, ComputeStats) {
        let (db, g, schema) = figure3();
        // min_parallel_sources = 1 forces real threads even on the tiny
        // figure-3 fixture, so the work-stealing path is exercised.
        let opts =
            ComputeOptions { parallel, min_parallel_sources: 1, ..ComputeOptions::with_l(3) };
        compute_catalog(&db, &g, &schema, &opts)
    }

    #[test]
    fn figure3_catalog_has_paper_topologies() {
        let (cat, stats) = build(false);
        // Catalog-wide P-D topologies: T1..T4 of Fig. 5 plus the triangle
        // of pair (34, 215), which has both a direct encodes edge and a
        // P-U-D path. (The paper's query result is {T1..T4} because its
        // 'enzyme' predicate excludes protein 34 — asserted in the
        // full_top tests.)
        let pd = EsPair::new(PROTEIN, DNA);
        let tops = cat.topologies_for(pd);
        assert_eq!(tops.len(), 5, "expected T1..T4 + (34,215)'s triangle, got {tops:?}");
        assert!(stats.pairs >= 4);
        assert_eq!(stats.topologies, cat.topology_count());
        // Each P-D topology is carried by exactly one pair here.
        let freqs = cat.freq_distribution(pd);
        assert_eq!(freqs, vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn parallel_build_matches_serial() {
        let (c1, s1) = build(false);
        let (c2, s2) = build(true);
        assert_eq!(c1.topology_count(), c2.topology_count());
        assert_eq!(c1.sig_count(), c2.sig_count());
        assert_eq!(c1.pair_count(), c2.pair_count());
        for (a, b) in c1.pairs().zip(c2.pairs()) {
            assert_eq!((a.espair, a.e1, a.e2), (b.espair, b.e1, b.e2));
            assert_eq!(a.topos, b.topos);
            assert_eq!(a.sigs, b.sigs);
        }
        for (m1, m2) in c1.metas().iter().zip(c2.metas().iter()) {
            assert_eq!(m1.code, m2.code);
            assert_eq!(m1.code_id, m2.code_id);
            assert_eq!(m1.freq, m2.freq);
            assert_eq!(m1.espair, m2.espair);
            assert_eq!(m1.path_sig, m2.path_sig);
        }
        // The materialized tables must agree row for row as well.
        assert_eq!(c1.alltops.len(), c2.alltops.len());
        for (r1, r2) in c1.alltops.rows().zip(c2.alltops.rows()) {
            assert_eq!(r1, r2);
        }
        // Aggregate work is identical even though memo locality differs.
        assert_eq!((s1.pairs, s1.paths), (s2.pairs, s2.paths));
    }

    #[test]
    fn default_es_pairs_cover_connected_sets() {
        let (db, _g, schema) = figure3();
        let pairs = default_es_pairs(&db, &schema, 3);
        assert_eq!(pairs.len(), 3); // P-U, P-D, U-D
        assert!(pairs.contains(&EsPair::new(PROTEIN, DNA)));
    }

    #[test]
    #[should_panic(expected = "max_product must be >= 1")]
    fn zero_max_product_is_rejected() {
        let (db, g, schema) = figure3();
        let top_opts = TopOptions { max_product: 0, ..TopOptions::default() };
        let opts = ComputeOptions { top_opts, ..ComputeOptions::with_l(3) };
        compute_catalog(&db, &g, &schema, &opts);
    }

    #[test]
    fn repeated_espairs_are_built_once() {
        let (db, g, schema) = figure3();
        let build = |es_pairs: Vec<EsPair>| {
            let opts = ComputeOptions { es_pairs: Some(es_pairs), ..ComputeOptions::with_l(3) };
            compute_catalog(&db, &g, &schema, &opts).0
        };
        let once = build(vec![EsPair::new(PROTEIN, DNA)]);
        let twice = build(vec![EsPair::new(PROTEIN, DNA), EsPair::new(DNA, PROTEIN)]);
        assert_eq!(twice.fnv_digest(), once.fnv_digest());
        assert_eq!(twice.alltops.len(), once.alltops.len());
    }

    #[test]
    fn weak_policy_drops_paths_and_changes_catalog() {
        let (db, g, schema) = figure3();
        let mut policy = WeakPolicy::new();
        // Ban P-U-P-D (the length-3 class through a second protein).
        policy.ban_walk(&[PROTEIN, UNIGENE, PROTEIN, DNA], &[1, 1, 0]);
        let opts = ComputeOptions { weak_policy: Some(policy), ..ComputeOptions::with_l(3) };
        let (cat, stats) = compute_catalog(&db, &g, &schema, &opts);
        assert!(stats.weak_paths_dropped > 0);
        // Without the P-U-P-D path, pair (78,215) has a single class and
        // its topology collapses to T2; T3/T4 disappear. The (34,215)
        // triangle is unaffected.
        let pd = EsPair::new(PROTEIN, DNA);
        assert_eq!(cat.topologies_for(pd).len(), 3); // T1, T2, triangle
    }

    #[test]
    fn path_sig_of_graph_detects_paths() {
        let (cat, _) = build(false);
        let pd = EsPair::new(PROTEIN, DNA);
        let mut path_shaped = 0;
        for &tid in &cat.topologies_for(pd) {
            if cat.meta(tid).path_sig.is_some() {
                path_shaped += 1;
            }
        }
        // T1 (P-D) and T2 (P-U-D) are paths; T3, T4 are not.
        assert_eq!(path_shaped, 2);
    }

    #[test]
    fn canon_memo_hit_rate_reported() {
        let (_, stats) = build(false);
        assert!(stats.canon_misses > 0, "at least one real canonicalization runs");
        assert!(stats.canon_hits > 0, "figure-3 repeats topology structures across pairs");
        let rate = stats.canon_hit_rate();
        assert!(rate > 0.0 && rate < 1.0, "hit rate {rate} out of range");
        assert_eq!(ComputeStats::default().canon_hit_rate(), 0.0);
    }

    #[test]
    fn stats_millis_positive() {
        let (_, stats) = build(false);
        assert!(stats.millis > 0.0);
    }

    #[test]
    fn phase_timings_never_exceed_the_total() {
        for parallel in [false, true] {
            let (_, s) = build(parallel);
            let phases = [s.enumerate_ms, s.pairs_ms, s.canonicalize_ms, s.merge_ms, s.finalize_ms];
            assert!(phases.iter().all(|&ms| ms > 0.0), "parallel {parallel}: {phases:?}");
            assert!(
                phases.iter().sum::<f64>() <= s.millis,
                "parallel {parallel}: {phases:?} exceed {} ms",
                s.millis
            );
        }
    }
}
