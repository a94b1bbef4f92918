//! Set-up: generate the database, build both graphs, build the catalog
//! — by calling the layers directly, with every phase clocked.
//!
//! Same recipe as the paper-figure benches use (l = 3, the six paper
//! espairs, 95th-percentile prune threshold, `max_pruned` 32, domain
//! scorer), re-stated here so that the harness depends only on the
//! layers' public functions.

use std::time::Instant;

use ts_biozon::{generate, Biozon, BiozonConfig, SchemaIds};
use ts_core::{
    compute_catalog, prune_catalog, score_catalog, Catalog, ComputeOptions, ComputeStats, EsPair,
    PruneOptions, PruneReport, Snapshot,
};
use ts_graph::{DataGraph, SchemaGraph};
use ts_storage::Database;

use crate::stats::{percentile, sorted};
use crate::trace::{SpanId, Tracer};

/// Path-length limit every workload runs at.
pub const L: usize = 3;

/// Seed of the generated database. One database, as the paper measures
/// one Biozon: `--seed` draws the queries only, because reseeding the
/// database moves the medians twofold (see the README's noise note).
pub const DB_SEED: u64 = 42;

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The entity-set pairs of the paper's Table 1 / Fig. 11, in the order
/// `ts_biozon::query_mix` cycles them.
pub fn paper_espairs(ids: &SchemaIds) -> Vec<EsPair> {
    vec![
        EsPair::new(ids.protein, ids.dna),
        EsPair::new(ids.protein, ids.interaction),
        EsPair::new(ids.protein, ids.unigene),
        EsPair::new(ids.dna, ids.interaction),
        EsPair::new(ids.dna, ids.unigene),
        EsPair::new(ids.unigene, ids.interaction),
    ]
}

/// The generated database with both graphs: everything a rebuild reads.
pub struct Base {
    pub biozon: Biozon,
    pub graph: DataGraph,
    pub schema: SchemaGraph,
}

impl Base {
    pub fn as_ref(&self) -> BaseRef<'_> {
        BaseRef {
            db: &self.biozon.db,
            graph: &self.graph,
            schema: &self.schema,
            ids: &self.biozon.ids,
        }
    }
}

/// What a rebuild reads, borrowed — from a [`Base`] or from a snapshot.
#[derive(Clone, Copy)]
pub struct BaseRef<'a> {
    pub db: &'a Database,
    pub graph: &'a DataGraph,
    pub schema: &'a SchemaGraph,
    pub ids: &'a SchemaIds,
}

pub fn generate_base(
    scale: f64,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    request: u64,
) -> Base {
    let mut cfg = BiozonConfig::default().scaled(scale);
    cfg.seed = DB_SEED;
    let biozon = tracer.span("biozon.generate", parent, request, || generate(&cfg));
    let graph = tracer.span("graph.data_graph", parent, request, || {
        DataGraph::from_db(&biozon.db).expect("the generator emits a consistent database")
    });
    let schema =
        tracer.span("graph.schema_graph", parent, request, || SchemaGraph::from_db(&biozon.db));
    Base { biozon, graph, schema }
}

pub fn compute_options(ids: &SchemaIds, parallel: bool) -> ComputeOptions {
    ComputeOptions {
        es_pairs: Some(paper_espairs(ids)),
        parallel,
        max_threads: 0,
        ..ComputeOptions::with_l(L)
    }
}

/// 95th percentile of topology frequencies: prunes the few heavy
/// hitters of the Zipfian head, as the paper's Fig. 11 suggests.
pub fn prune_threshold(catalog: &Catalog) -> u64 {
    let mut freqs: Vec<u64> = catalog.metas().iter().map(|m| m.freq).collect();
    if freqs.is_empty() {
        return u64::MAX;
    }
    freqs.sort_unstable();
    freqs[(freqs.len() * 95) / 100]
}

pub struct Built {
    pub catalog: Catalog,
    pub stats: ComputeStats,
    pub prune: PruneReport,
    pub compute_ms: f64,
    pub prune_ms: f64,
    pub score_ms: f64,
}

/// Whether the builds the harness *times* (set-ups, the `build`
/// workload's rebuilds) use `compute_catalog`'s worker threads. They do
/// not: on the two-vCPU reference box the parallel build is no faster
/// (`core.parallel_speedup` 0.9–1.2) and far less steady — over eight
/// alternating runs of unchanged code the rebuild's upper quartile
/// ranged 145–183 ms parallel against 162–170 ms serial, because two
/// busy vCPUs get less of the host than one does, and not always the
/// same share. The parallel path stays measured, ungated, by the
/// `core.compute_parallel_ms` probe.
pub const TIMED_BUILD_PARALLEL: bool = false;

/// compute → prune → score: one offline build.
pub fn build_catalog(
    base: BaseRef<'_>,
    parallel: bool,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    request: u64,
) -> Built {
    let opts = compute_options(base.ids, parallel);
    let t = Instant::now();
    let span = tracer.begin("core.compute", parent, request);
    let (mut catalog, stats) = compute_catalog(base.db, base.graph, base.schema, &opts);
    tracer.end(span, &[("pairs", stats.pairs), ("paths", stats.paths)]);
    let compute_ms = ms_since(t);

    let t = Instant::now();
    let span = tracer.begin("core.prune", parent, request);
    let threshold = prune_threshold(&catalog);
    let prune = prune_catalog(&mut catalog, PruneOptions { threshold, max_pruned: 32 });
    tracer.end(span, &[("pruned", prune.pruned.len() as u64)]);
    let prune_ms = ms_since(t);

    let t = Instant::now();
    let span = tracer.begin("core.score", parent, request);
    score_catalog(&mut catalog, &ts_biozon::domain_scorer(base.ids));
    tracer.end(span, &[("topologies", catalog.topology_count() as u64)]);
    let score_ms = ms_since(t);

    Built { catalog, stats, prune, compute_ms, prune_ms, score_ms }
}

/// A serving environment: the snapshot the methods run against.
pub struct Env {
    pub snapshot: Snapshot,
    pub ids: SchemaIds,
}

/// The part of a snapshot a rebuild reads.
pub fn base_of<'a>(snapshot: &'a Snapshot, ids: &'a SchemaIds) -> BaseRef<'a> {
    BaseRef { db: &snapshot.db, graph: &snapshot.graph, schema: &snapshot.schema, ids }
}

/// Bundle a base and its catalog into a snapshot.
pub fn into_env(base: Base, built: Built, tracer: &mut Tracer, parent: Option<SpanId>) -> Env {
    let Base { biozon, graph, schema } = base;
    let Biozon { db, ids, .. } = biozon;
    let snapshot =
        tracer.span("core.snapshot", parent, 0, || Snapshot::new(db, graph, schema, built.catalog));
    Env { snapshot, ids }
}

/// Full set-up of a query environment: generate, graphs, build, snapshot.
pub fn build_env(scale: f64, tracer: &mut Tracer) -> Env {
    let root = tracer.begin("setup", None, 0);
    let base = generate_base(scale, tracer, Some(root), 0);
    let built = build_catalog(base.as_ref(), TIMED_BUILD_PARALLEL, tracer, Some(root), 0);
    let env = into_env(base, built, tracer, Some(root));
    tracer.end(root, &[]);
    env
}

/// `catalog_bytes_per_pair`: heap footprint over connected pairs.
pub fn bytes_per_pair(catalog: &Catalog) -> f64 {
    catalog.heap_size() as f64 / catalog.pair_count() as f64
}

/// Take a snapshot apart again so the next rebuild can reuse the base.
pub fn split_snapshot(snapshot: Snapshot, ids: SchemaIds, config: BiozonConfig) -> (Base, Catalog) {
    let Snapshot { db, graph, schema, catalog, .. } = snapshot;
    (Base { biozon: Biozon { db, ids, config }, graph, schema }, catalog)
}

/// How many set-ups a batch times: at least three, then more until this
/// much time has gone into them, and never more than the cap. A 6 ms
/// set-up (`build`) is timed 25 times, a 170 ms one six.
const SETUP_BUDGET_S: f64 = 1.0;
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;

/// Run `setup` repeatedly (once if `once`), keeping only the last result
/// alive, and return it with each set-up's wall time in seconds, at the
/// reference clock.
///
/// One set-up is one sample; a run reports a quartile of several (see
/// [`setup_s`]) so that `setup_s` is steadier than a single build is.
pub fn repeat_setup<T>(once: bool, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::new();
    let mut spent = 0.0;
    let mut last = None;
    loop {
        // Free the previous environment first: peak memory stays that
        // of one environment, and the free is not billed to set-up.
        drop(last.take());
        let (value, t) = crate::clock::timed(&mut setup);
        last = Some(value);
        samples.push(t.at_ref_s);
        spent += t.raw_s;
        let enough = samples.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S;
        if once || enough || samples.len() >= MAX_SETUPS {
            break;
        }
    }
    (last.expect("the loop runs at least once"), samples)
}

/// A run's `setup_s`: the lower quartile of its set-ups, those timed at
/// its start (`first`) and a second batch timed now, at its end, after
/// the caller has dropped the environment the first batch left.
///
/// One batch is a second of the box's time, and the box's slow phases
/// last longer than that: of ten `topk_et` runs in a row, five read a
/// median set-up of 0.24-0.27 s from their one batch, the others 0.16-0.17.
/// Two batches half a minute apart rarely sit in the same phase, and
/// since interference only adds time the faster one is the one to read.
pub fn setup_s<T>(mut first: Vec<f64>, once: bool, setup: impl FnMut() -> T) -> f64 {
    if !once {
        first.extend(repeat_setup(false, setup).1);
    }
    percentile(&sorted(&first), 0.25)
}
