//! Shared scaffolding for the benchmark harnesses that regenerate every
//! table and figure of the paper's evaluation (§6).
//!
//! Each bench target (`crates/bench/benches/*.rs`, `harness = false`)
//! prints the same rows/series the paper reports. Absolute numbers are
//! machine- and substrate-dependent; the *shape* — who wins, by roughly
//! what factor, where the crossovers fall — is the reproduction target
//! and is recorded against the paper in `EXPERIMENTS.md`.
//!
//! Environment knobs:
//!
//! * `TS_BENCH_SCALE` — multiply the default database scale (default 1.0,
//!   applied on top of each bench's own baseline scale).
//! * `TS_BENCH_SKIP_SQL=1` — skip the SQL baseline in Table 2 (it is two
//!   to three orders of magnitude slower than everything else; that is
//!   its role in the paper, but it dominates wall-clock).

#![forbid(unsafe_code)]
// Lint scope: audited clocks/joins/catch_unwind (list in the root
// clippy.toml; see docs/LINTS.md). A suppression is
// `#[expect(<lint>, reason = "..")]`.
#![deny(
    clippy::disallowed_methods,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use ts_biozon::{generate, Biozon, BiozonConfig};
use ts_core::{
    compute_catalog, prune_catalog, score_catalog, Catalog, ComputeOptions, EsPair, PruneOptions,
    QueryContext, WeakPolicy,
};
use ts_graph::{DataGraph, SchemaGraph};

/// A fully built experiment environment.
pub struct BenchEnv {
    /// The generated database.
    pub biozon: Biozon,
    /// Its data graph.
    pub graph: DataGraph,
    /// Its schema graph.
    pub schema: SchemaGraph,
    /// The computed, pruned, scored catalog.
    pub catalog: Catalog,
    /// Offline build statistics.
    pub stats: ts_core::ComputeStats,
}

impl BenchEnv {
    /// The query context over this environment.
    pub fn ctx(&self) -> QueryContext<'_> {
        QueryContext {
            db: &self.biozon.db,
            graph: &self.graph,
            schema: &self.schema,
            catalog: &self.catalog,
        }
    }
}

/// The entity-set pairs of the paper's Table 1 / Fig. 11.
pub fn paper_espairs(ids: &ts_biozon::SchemaIds) -> Vec<EsPair> {
    vec![
        EsPair::new(ids.protein, ids.dna),
        EsPair::new(ids.protein, ids.interaction),
        EsPair::new(ids.protein, ids.unigene),
        EsPair::new(ids.dna, ids.interaction),
        EsPair::new(ids.dna, ids.unigene),
        EsPair::new(ids.unigene, ids.interaction),
    ]
}

/// `TS_BENCH_SCALE` (default 1.0).
pub fn scale_from_env() -> f64 {
    std::env::var("TS_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// `TS_BENCH_SKIP_SQL`.
pub fn skip_sql() -> bool {
    std::env::var("TS_BENCH_SKIP_SQL").map(|v| v == "1").unwrap_or(false)
}

/// Options for [`build_env`].
pub struct EnvOptions {
    /// Path-length limit.
    pub l: usize,
    /// Database scale relative to [`BiozonConfig::default`].
    pub scale: f64,
    /// Pruning threshold (`None` = PruneOptions default).
    pub prune_threshold: Option<u64>,
    /// Apply the Appendix-B weak-relationship policy.
    pub weak_policy: bool,
    /// Restrict the offline build to the paper's six espairs.
    pub paper_pairs_only: bool,
}

impl Default for EnvOptions {
    fn default() -> Self {
        EnvOptions {
            l: 3,
            scale: 0.25,
            prune_threshold: None,
            weak_policy: false,
            paper_pairs_only: true,
        }
    }
}

/// Generate + compute + prune + score, reporting timing to stderr.
pub fn build_env(opts: EnvOptions) -> BenchEnv {
    let scale = opts.scale * scale_from_env();
    let cfg = BiozonConfig::default().scaled(scale);
    let biozon = generate(&cfg);
    let graph = DataGraph::from_db(&biozon.db).expect("generator is consistent");
    let schema = SchemaGraph::from_db(&biozon.db);

    let mut copts = ComputeOptions::with_l(opts.l);
    if opts.paper_pairs_only {
        copts.es_pairs = Some(paper_espairs(&biozon.ids));
    }
    if opts.weak_policy {
        copts.weak_policy = Some(weak_policy(&biozon));
    }
    copts.parallel = true;
    let (mut catalog, stats) = compute_catalog(&biozon.db, &graph, &schema, &copts);
    let threshold = opts.prune_threshold.unwrap_or_else(|| default_threshold(&catalog));
    prune_catalog(&mut catalog, PruneOptions { threshold, max_pruned: 32 });
    score_catalog(&mut catalog, &ts_biozon::domain_scorer(&biozon.ids));

    eprintln!(
        "[env] scale {:.2}: {} entities, {} pairs, {} paths, {} topologies, offline {:.0} ms (threshold {})",
        scale,
        graph.node_count(),
        stats.pairs,
        stats.paths,
        stats.topologies,
        stats.millis,
        threshold
    );
    BenchEnv { biozon, graph, schema, catalog, stats }
}

/// The paper sets the pruning threshold "based on the expected
/// performance gains" (§4.2); we default to the 95th percentile of
/// topology frequencies, which prunes the few heavy hitters of the
/// Zipfian head exactly as Fig. 11 suggests.
pub fn default_threshold(catalog: &Catalog) -> u64 {
    let mut freqs: Vec<u64> = catalog.metas().iter().map(|m| m.freq).collect();
    if freqs.is_empty() {
        return u64::MAX;
    }
    freqs.sort_unstable();
    freqs[(freqs.len() * 95) / 100]
}

/// The Appendix-B weak policy for a generated Biozon.
pub fn weak_policy(biozon: &Biozon) -> WeakPolicy {
    ts_biozon::weak_policy_l4(&biozon.ids)
}

/// Print a separator header.
pub fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Render a topology structure compactly.
pub fn motif(env: &BenchEnv, tid: ts_core::TopologyId) -> String {
    let meta = env.catalog.meta(tid);
    let tn = |t: u16| env.biozon.db.entity_set(t as usize).name.clone();
    let rn = |r: u16| env.biozon.db.rel_set(r as usize).name.clone();
    ts_graph::render::motif_line(&meta.graph, &tn, &rn)
}

/// Name of an espair like "Protein-DNA".
pub fn espair_name(env: &BenchEnv, p: EsPair) -> String {
    format!(
        "{}-{}",
        env.biozon.db.entity_set(p.from as usize).name,
        env.biozon.db.entity_set(p.to as usize).name
    )
}
