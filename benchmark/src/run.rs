//! What every workload shares: the run configuration, the result
//! record, the op list, provenance, and small OS probes.

use std::path::PathBuf;

use ts_biozon::{query_mix, SchemaIds};
use ts_core::{Method, TopologyQuery};

use crate::json::Json;
use crate::registry;
use crate::stats::Fnv;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TopkEt,
    FullScan,
    Build,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::TopkEt, Workload::FullScan, Workload::Build, Workload::ServeOpen];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TopkEt => "topk_et",
            Workload::FullScan => "full_scan",
            Workload::Build => "build",
            Workload::ServeOpen => "serve_open",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    /// Seeds the query stream (`ts_biozon::query_mix`).
    pub seed: u64,
    /// How long the timed section measures.
    pub seconds: f64,
    pub trace: bool,
    /// Scale 0.1, one pass: a few seconds, for CI.
    pub smoke: bool,
}

impl RunConfig {
    /// Database scale relative to `BiozonConfig::default()`.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            0.1
        } else {
            1.0
        }
    }

    /// The run's query mix: one query per stratum, 252 in all.
    pub fn query_mix(&self, ids: &SchemaIds) -> Vec<TopologyQuery> {
        stratified_mix(ids, crate::env::L, self.seed)
    }

    /// Traced and smoke runs set up once and time one pass; the others
    /// set up several times (`setup_s` is the median) and time passes
    /// until `seconds` are used up.
    pub fn single_shot(&self) -> bool {
        self.smoke || self.trace
    }
}

/// The eight methods the benchmark runs, in registry-slug order. `Sql`
/// is in no workload: one query takes seconds at these scales.
pub const METHODS: [Method; 8] = [
    Method::FullTop,
    Method::FastTop,
    Method::FullTopK,
    Method::FastTopK,
    Method::FullTopKEt,
    Method::FastTopKEt,
    Method::FullTopKOpt,
    Method::FastTopKOpt,
];

pub fn slug(m: Method) -> &'static str {
    let i = METHODS.iter().position(|&x| x == m).expect("Sql is in no workload");
    registry::METHOD_SLUGS[i]
}

/// One operation: a query of the mix through one method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub query: usize,
    pub method: Method,
}

/// Every query through every method, query-major.
pub fn cross_ops(queries: usize, methods: &[Method]) -> Vec<Op> {
    (0..queries).flat_map(|q| methods.iter().map(move |&m| Op { query: q, method: m })).collect()
}

/// The seeded query mix: a stratified sample of `ts_biozon::query_mix`.
///
/// What a query costs is set almost entirely by its entity-set pair,
/// its two constraints, its ranking scheme and its `k`, and a plain
/// 300-query draw covers those 252 combinations so unevenly that
/// `op_p50_ms` moved 17 % from seed to seed on one database. So the
/// stream is read until every combination has been seen once and the
/// rest is skipped — the way a TPC query set fixes its templates and
/// draws their parameters.
///
/// `k` is stratified too: the stream draws it from 1..=20, and each
/// combination takes its query from one quarter of that range, the same
/// quarter under every seed. With `k` free, the median op sat on the
/// cliff between cheap and expensive queries and moved with the draw:
/// ten seeds spread `op_p50_ms` 8.6 % on `topk_et` and 12 % on
/// `serve_open` on a quiet box, three times what the box itself did.
/// The seed still decides each query's `k` within its quarter and the
/// order the queries run in.
pub fn stratified_mix(ids: &SchemaIds, l: usize, seed: u64) -> Vec<TopologyQuery> {
    // 6 espairs x (4 x 3 or 4 x 4 constraint pairs) x 3 schemes.
    const STRATA: usize = 252;
    const K_QUARTER: usize = 5;
    let key =
        |q: &TopologyQuery| format!("{}|{}|{:?}|{:?}|{}", q.es1, q.es2, q.con1, q.con2, q.scheme);
    let mut draw = 32 * STRATA;
    loop {
        let stream = query_mix(ids, l, draw, seed);
        // The strata in an order no seed decides; a stratum's rank
        // picks its quarter of the `k` range.
        let mut strata: Vec<String> = stream.iter().map(key).collect();
        strata.sort();
        strata.dedup();
        let quarter_of = |q: &TopologyQuery| strata.binary_search(&key(q)).map(|rank| rank % 4);
        let mut seen = std::collections::HashSet::new();
        let mix: Vec<TopologyQuery> = stream
            .iter()
            .filter(|q| quarter_of(q) == Ok((q.k - 1) / K_QUARTER) && seen.insert(key(q)))
            .cloned()
            .collect();
        if mix.len() == STRATA {
            return mix;
        }
        assert!(draw < 1 << 24, "query_mix never covered all {STRATA} strata");
        draw *= 2;
    }
}

/// Digest of an op list: identical seeds must give identical lists.
pub fn ops_digest(queries: &[TopologyQuery], ops: &[Op]) -> u64 {
    let mut h = Fnv::default();
    for op in ops {
        let q = &queries[op.query];
        h.bytes(op.method.name().as_bytes());
        h.u64(u64::from(q.es1));
        h.u64(u64::from(q.es2));
        h.bytes(format!("{:?}|{:?}", q.con1, q.con2).as_bytes());
        h.u64(q.l as u64);
        h.u64(q.k as u64);
        h.u64(q.scheme.index() as u64);
    }
    h.0
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn extend(&mut self, other: Metrics) {
        for (n, v) in other.0 {
            self.set(n, v);
        }
    }
}

/// What one run hands back.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Operations attempted in the timed section.
    pub attempted: u64,
    /// Of those, wrong answers, failures and rejections.
    pub failed: u64,
    pub metrics: Metrics,
    pub answers_digest: u64,
    pub ops_digest: u64,
    pub passes: usize,
    pub workers: usize,
    /// Findings a reader must see: a failed check, an invalid rung.
    pub notes: Vec<String>,
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checkout: where `BENCHMARK.json` lives. The driver runs the
/// benchmark from there; a developer may run it from anywhere.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("BENCHMARK.json").is_file() {
        return cwd;
    }
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest_dir.parent().map_or(cwd, PathBuf::from)
}

pub fn out_dir() -> PathBuf {
    repo_root().join("benchmark").join("out")
}

/// HEAD's commit id read straight from `.git` (no process is spawned);
/// "unknown" outside a git checkout, which is where the driver runs.
pub fn git_commit() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a result was measured; recorded in every output file.
pub fn provenance(cfg: &RunConfig, out: &RunOutput) -> Json {
    Json::obj([
        ("workload", Json::Str(cfg.workload.name().to_string())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("db_seed", Json::Num(crate::env::DB_SEED as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("scale", Json::Num(cfg.scale())),
        ("workers", Json::Num(out.workers as f64)),
        ("passes", Json::Num(out.passes as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::Str(env!("BENCH_RUSTC_VERSION").to_string())),
        ("git_commit", Json::Str(git_commit())),
        ("ops_digest", Json::Str(format!("{:016x}", out.ops_digest))),
        ("answers_digest", Json::Str(format!("{:016x}", out.answers_digest))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_biozon::{generate, BiozonConfig};

    #[test]
    fn same_seed_same_op_list_other_seed_other_list() {
        let b = generate(&BiozonConfig::small(1));
        let digest = |seed| {
            let qs = stratified_mix(&b.ids, 3, seed);
            ops_digest(&qs, &cross_ops(qs.len(), &METHODS[4..]))
        };
        assert_eq!(digest(42), digest(42));
        assert_ne!(digest(42), digest(43));
    }

    #[test]
    fn the_method_list_changes_the_digest() {
        let b = generate(&BiozonConfig::small(1));
        let qs = stratified_mix(&b.ids, 3, 42);
        assert_ne!(
            ops_digest(&qs, &cross_ops(qs.len(), &METHODS[..4])),
            ops_digest(&qs, &cross_ops(qs.len(), &METHODS[4..]))
        );
    }

    #[test]
    fn every_seed_covers_the_same_strata() {
        let b = generate(&BiozonConfig::small(1));
        let strata = |seed| {
            let mut keys: Vec<String> = stratified_mix(&b.ids, 3, seed)
                .iter()
                .map(|q| format!("{}|{}|{:?}|{:?}|{}", q.es1, q.es2, q.con1, q.con2, q.scheme))
                .collect();
            keys.sort();
            keys
        };
        let one = strata(1);
        assert_eq!(one.len(), 252);
        assert_eq!(one, strata(2));
        let mut distinct = one.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), 252, "one query per stratum");
        // What the seed does change: the k drawn for each query, within
        // the quarter of 1..=20 its stratum always draws from.
        let ks = |seed| {
            let mut by_stratum: Vec<(String, usize)> = stratified_mix(&b.ids, 3, seed)
                .iter()
                .map(|q| {
                    (format!("{}|{}|{:?}|{:?}|{}", q.es1, q.es2, q.con1, q.con2, q.scheme), q.k)
                })
                .collect();
            by_stratum.sort();
            by_stratum.into_iter().map(|(_, k)| k).collect::<Vec<_>>()
        };
        assert_ne!(ks(1), ks(2));
        let quarters = |ks: Vec<usize>| ks.into_iter().map(|k| (k - 1) / 5).collect::<Vec<_>>();
        assert_eq!(quarters(ks(1)), quarters(ks(2)));
        assert_eq!(quarters(ks(1)).iter().filter(|&&q| q == 0).count(), 63);
    }

    #[test]
    fn slugs_line_up_with_methods() {
        assert_eq!(slug(Method::FullTop), "full_top");
        assert_eq!(slug(Method::FastTopKOpt), "fast_top_k_opt");
        assert_eq!(METHODS.len(), registry::METHOD_SLUGS.len());
    }

    #[test]
    fn metrics_overwrite_by_name() {
        let mut m = Metrics::default();
        m.set("a", 1.0);
        m.set("a", 2.0);
        assert_eq!(m.get("a"), Some(2.0));
        assert_eq!(m.0.len(), 1);
    }
}
