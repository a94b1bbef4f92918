//! Layer probes: the traced run's per-layer numbers that need only a
//! database, a catalog and a query mix — every layer below the server.
//!
//! Each probe calls one layer's public functions directly on the traced
//! workload's own environment and is recorded as a child span of one
//! `probe` root, so the span file shows what each number cost to take.

use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ts_biozon::{generate, selectivity_predicate, BiozonConfig, SchemaIds, Selectivity};
use ts_core::{validate_query, EsPair, Method, RankScheme, Snapshot, TopologyQuery};
use ts_exec::{
    batch_collect_distinct_topk, BatchDistinct, BatchFilter, BatchHashJoin, BatchIdgj,
    BatchOperator, BatchSort, BatchTableScan, BatchValuesScan, BoxedBatchOp, Budget, Dir, Work,
};
use ts_graph::{canonical_code, enumerate_pair_paths, DataGraph, SchemaGraph};
use ts_optimizer::{et_stack_cost, DgjOpParams, DgjStackParams};
use ts_storage::{row, Predicate, Row, Table, Value};

use crate::closed::run_pass;
use crate::env::{base_of, build_catalog, ms_since, paper_espairs, L};
use crate::run::{cross_ops, slug, Metrics, Op, RunConfig, METHODS};
use crate::stats::{mean, median, per_op_low_decile, percentile, sorted};
use crate::trace::{SpanId, Tracer};

/// Queries of the mix the per-method probe replays (through all eight
/// methods, three times: every method on this environment, whichever
/// four the workload itself runs, because the optimizer rows need both
/// of a pair's plans).
const METHOD_PROBE_QUERIES: usize = 150;

/// Repeat `pass` for at least three passes and 50 ms; units per second.
fn rate(mut pass: impl FnMut() -> u64) -> f64 {
    pass();
    let start = Instant::now();
    let mut units = 0u64;
    let mut passes = 0u32;
    while passes < 3 || (start.elapsed() < Duration::from_millis(50) && passes < 100_000) {
        units += pass();
        passes += 1;
    }
    units as f64 / start.elapsed().as_secs_f64()
}

/// Median wall time of `reps` calls, ms.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            ms_since(t)
        })
        .collect();
    median(&samples)
}

fn drain<'a>(op: &mut dyn BatchOperator<'a>) -> u64 {
    let mut rows = 0;
    while let Some(batch) = op.next_batch() {
        rows += black_box(&batch).selected() as u64;
    }
    rows
}

fn scan<'a>(table: &'a Table) -> BoxedBatchOp<'a> {
    Box::new(BatchTableScan::new(table, Predicate::True, Work::new()))
}

struct Probe<'a> {
    tracer: &'a mut Tracer,
    root: SpanId,
    metrics: &'a mut Metrics,
}

impl Probe<'_> {
    /// Run one probe under its own span.
    fn take<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(span, Some(self.root), PROBE_REQUEST, f)
    }

    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.set(name, value);
    }
}

/// Request id shared by every probe span.
const PROBE_REQUEST: u64 = u64::MAX;

/// The environment a probe runs on: a snapshot and its schema handles.
#[derive(Clone, Copy)]
pub struct View<'a> {
    pub snapshot: &'a Snapshot,
    pub ids: &'a SchemaIds,
}

pub fn run(
    env: View<'_>,
    queries: &[TopologyQuery],
    cfg: &RunConfig,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) {
    let root = tracer.begin("probe", None, PROBE_REQUEST);
    let mut p = Probe { tracer, root, metrics };
    // The per-layer times are as measured; the clock they were measured
    // at is read before each layer's probes and reported beside them.
    let mut clock_us = Vec::new();
    let layers: [&dyn Fn(&mut Probe); 6] = [
        &|p| methods_and_optimizer(env, queries, p),
        &|p| exec(env, p),
        &|p| storage(env, p),
        &|p| graph(env, p),
        &|p| core_offline(env, p),
        &|p| biozon(env, cfg, p),
    ];
    for layer in layers {
        clock_us.push(crate::clock::probe_us());
        layer(&mut p);
    }
    p.set("harness.clock_probe_us", median(&clock_us));
    p.tracer.end(root, &[]);
}

fn methods_and_optimizer(env: View<'_>, queries: &[TopologyQuery], p: &mut Probe) {
    let ctx = env.snapshot.ctx();
    let queries = &queries[..queries.len().min(METHOD_PROBE_QUERIES)];
    let ops = cross_ops(queries.len(), &METHODS);
    let (minima, work) = p.take("core.methods", || {
        let pass = || run_pass(&ctx, queries, &ops, &mut Tracer::new(false));
        pass();
        let [first, last] = [pass(), pass()];
        (per_op_low_decile(&[&first.latency_ms, &last.latency_ms]), last.work)
    });

    for method in METHODS {
        let mine = |op: &&Op| op.method == method;
        let lat: Vec<f64> =
            ops.iter().zip(&minima).filter(|(op, _)| mine(op)).map(|(_, &l)| l).collect();
        let ticks: u64 = ops.iter().zip(&work).filter(|(op, _)| mine(op)).map(|(_, &w)| w).sum();
        let name = |field: &str| format!("methods.{}.{field}", slug(method));
        p.set(name("p50_ms"), percentile(&sorted(&lat), 0.50));
        p.set(name("mean_ms"), mean(&lat));
        p.set(name("work_per_query"), ticks as f64 / lat.len() as f64);
        p.set(name("ns_per_work"), lat.iter().sum::<f64>() * 1e6 / ticks.max(1) as f64);

        // The cheapest query there is: k = 1, no constraint on either
        // side. What is left is the method's fixed cost.
        let floor_ms = p.take("core.methods.floor", || {
            paper_espairs(env.ids)
                .into_iter()
                .map(|pair| {
                    let q =
                        TopologyQuery::new(pair.from, Predicate::True, pair.to, Predicate::True, L)
                            .with_k(1);
                    (0..5)
                        .map(|_| {
                            let t = Instant::now();
                            black_box(method.try_eval_with(&ctx, &q, Work::new()).ok());
                            ms_since(t)
                        })
                        .fold(f64::INFINITY, f64::min)
                })
                .fold(f64::INFINITY, f64::min)
        });
        p.set(name("floor_us"), floor_ms * 1e3);
    }

    let validate_ns = p.take("core.validate", || {
        let calls = rate(|| {
            for q in queries {
                black_box(validate_query(&ctx, q).is_ok());
            }
            queries.len() as u64
        });
        1e9 / calls
    });
    p.set("methods.validate_ns", validate_ns);

    optimizer(env, queries.len(), &minima, &work, p);
}

/// The §5.4 rows. Which plan an `*Opt` run chose is read off its work
/// count — equal to the ET run's or to the regular run's — never off
/// the explain text.
fn optimizer(env: View<'_>, queries: usize, minima: &[f64], work: &[u64], p: &mut Probe) {
    let families = [
        (Method::FullTopK, Method::FullTopKEt, Method::FullTopKOpt),
        (Method::FastTopK, Method::FastTopKEt, Method::FastTopKOpt),
    ];
    // The op list is query-major over `METHODS`.
    let at = |query: usize, method: Method| {
        let slot = METHODS.iter().position(|&m| m == method).expect("one of the eight methods");
        query * METHODS.len() + slot
    };
    let (mut decided, mut chose_et, mut regret) = (0u64, 0u64, 0u64);
    let (mut chosen_work, mut least_work) = (0u64, 0u64);
    let mut overhead_us = Vec::new();
    for query in 0..queries {
        for (regular, et, opt) in families {
            let (r, e, o) = (at(query, regular), at(query, et), at(query, opt));
            let chosen = if work[o] == work[e] {
                e
            } else if work[o] == work[r] {
                r
            } else {
                continue;
            };
            overhead_us.push((minima[o] - minima[chosen]) * 1e3);
            chosen_work += work[chosen];
            least_work += work[e].min(work[r]);
            if work[e] == work[r] {
                continue; // both plans cost the same ticks: no choice to judge
            }
            decided += 1;
            chose_et += u64::from(chosen == e);
            regret += u64::from(work[chosen] > work[e].min(work[r]));
        }
    }
    if !overhead_us.is_empty() {
        p.set("optimizer.opt_overhead_us", median(&overhead_us));
        p.set("optimizer.regret_work_ratio", chosen_work as f64 / least_work.max(1) as f64);
    }
    if decided > 0 {
        p.set("optimizer.et_chosen_share", chose_et as f64 / decided as f64);
        p.set("optimizer.regret_share", regret as f64 / decided as f64);
    }

    // Theorem 1's dynamic program on the group vectors the `*Opt`
    // methods feed it: one per (espair, scheme), cardinalities in
    // score order.
    let catalog = &env.snapshot.catalog;
    let cost_us = p.take("optimizer.et_stack_cost", || {
        let op = DgjOpParams { fanout: 1.0, rho: 0.5, probe_cost: 3.0 };
        let mut samples = Vec::new();
        for pair in paper_espairs(env.ids) {
            for scheme in RankScheme::all() {
                let groups: Vec<f64> = catalog
                    .ranked(scheme, pair)
                    .into_iter()
                    .map(|(tid, _)| catalog.meta(tid).freq as f64)
                    .collect();
                let stack = DgjStackParams { ops: vec![op, op], groups };
                let best = (0..3)
                    .map(|_| {
                        let t = Instant::now();
                        black_box(et_stack_cost(black_box(&stack), 10));
                        ms_since(t) * 1e3
                    })
                    .fold(f64::INFINITY, f64::min);
                samples.push(best);
            }
        }
        median(&samples)
    });
    p.set("optimizer.et_stack_cost_us", cost_us);
}

fn exec(env: View<'_>, p: &mut Probe) {
    let catalog = &env.snapshot.catalog;
    let db = &env.snapshot.db;
    let tops = &catalog.alltops;
    let def = db.entity_set(usize::from(env.ids.protein));
    let prot = db.table(def.table);
    let prot_pk = prot.schema().primary_key.expect("entity sets have primary keys");
    let medium = selectivity_predicate(Selectivity::Medium);
    let keys = vec![(2, Dir::Asc), (0, Dir::Asc)];

    let v = p.take("exec.scan", || rate(|| drain(scan(tops).as_mut())));
    p.set("exec.scan_rows_per_s", v);
    let v = p.take("exec.filter", || {
        rate(|| drain(&mut BatchFilter::new(scan(prot), medium.clone(), Work::new())))
    });
    p.set("exec.filter_rows_per_s", v);
    let v = p.take("exec.hash_join", || {
        rate(|| drain(&mut BatchHashJoin::new(scan(tops), 0, scan(prot), prot_pk, Work::new())))
    });
    p.set("exec.hash_join_rows_per_s", v);
    let v = p.take("exec.sort", || {
        rate(|| drain(&mut BatchSort::new(scan(tops), keys.clone(), Work::new())))
    });
    p.set("exec.sort_rows_per_s", v);
    let v = p.take("exec.distinct", || {
        rate(|| drain(&mut BatchDistinct::new(scan(tops), vec![2], Work::new())))
    });
    p.set("exec.distinct_rows_per_s", v);

    // The early-termination stack's bottom: topologies of Protein–DNA in
    // score order, each expanded through the AllTops(TID) index.
    let pair = EsPair::new(env.ids.protein, env.ids.dna);
    let groups: Vec<Row> = catalog
        .ranked(RankScheme::Freq, pair)
        .into_iter()
        .map(|(tid, _)| row![tid as i64])
        .collect();
    let idgj = |rows: Vec<Row>, work: &Work| {
        let values: BoxedBatchOp<'_> = Box::new(BatchValuesScan::grouped(rows, 0, work.clone()));
        BatchIdgj::new(values, 0, tops, 2, 0, work.clone())
    };
    let v = p.take("exec.idgj", || rate(|| drain(&mut idgj(groups.clone(), &Work::new()))));
    p.set("exec.idgj_rows_per_s", v);

    let (topk_us, work_per_result) = p.take("exec.et_topk", || {
        const CALLS: u32 = 32;
        let (mut ticks, mut results) = (0u64, 0u64);
        let mut timed = Duration::ZERO;
        for _ in 0..CALLS {
            // Cloned outside the clock: the probe times the operator
            // stack from construction to drop, not the copy it consumes.
            let rows = groups.clone();
            let t = Instant::now();
            let work = Work::new();
            let top = batch_collect_distinct_topk(&mut idgj(rows, &work), 0, 10);
            timed += t.elapsed();
            ticks += work.get();
            results += black_box(&top).len() as u64;
        }
        (timed.as_secs_f64() * 1e6 / f64::from(CALLS), ticks as f64 / results.max(1) as f64)
    });
    p.set("exec.et_topk_us", topk_us);
    p.set("exec.et_work_per_result", work_per_result);

    const TICKS: u64 = 4_000_000;
    let tick_ns = |work: Work| {
        1e9 / rate(|| {
            for _ in 0..TICKS {
                black_box(&work).tick(1);
            }
            TICKS
        })
    };
    let v = p.take("exec.tick", || tick_ns(Work::new()));
    p.set("exec.tick_ns", v);
    let v = p.take("exec.tick_budgeted", || {
        // Every limit armed and none reachable: the cost of polling.
        tick_ns(Work::with_budget(Budget {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            step_quota: Some(u64::MAX),
            row_quota: Some(u64::MAX),
            cancel: Some(Arc::new(AtomicBool::new(false))),
        }))
    });
    p.set("exec.tick_budgeted_ns", v);
}

fn storage(env: View<'_>, p: &mut Probe) {
    let db = &env.snapshot.db;
    let tops = &env.snapshot.catalog.alltops;
    let def = db.entity_set(usize::from(env.ids.protein));
    let prot = db.table(def.table);
    let prot_pk = prot.schema().primary_key.expect("entity sets have primary keys");

    let keys: Vec<Value> = prot.rows().map(|r| Value::Int(r.as_int(prot_pk))).collect();
    let v = p.take("storage.pk_probe", || {
        1e9 / rate(|| {
            for k in &keys {
                black_box(prot.by_pk(k).is_some());
            }
            keys.len() as u64
        })
    });
    p.set("storage.pk_probe_ns", v);

    let tids: Vec<Value> =
        env.snapshot.catalog.metas().iter().map(|m| Value::Int(i64::from(m.id))).collect();
    let v = p.take("storage.index_probe", || {
        1e9 / rate(|| {
            for t in &tids {
                black_box(tops.index_probe(2, t).len());
            }
            tids.len() as u64
        })
    });
    p.set("storage.index_probe_ns", v);

    let medium = selectivity_predicate(Selectivity::Medium);
    let v = p.take("storage.pred_scan", || {
        rate(|| {
            black_box(prot.scan(&medium).len());
            prot.len() as u64
        })
    });
    p.set("storage.pred_scan_rows_per_s", v);

    // Re-materialise AllTops the way `Catalog::finalize` does.
    let rows: Vec<[i64; 3]> =
        tops.rows().map(|r| [r.as_int(0), r.as_int(1), r.as_int(2)]).collect();
    let (insert_rate, index_ms) = p.take("storage.rematerialize", || {
        let mut insert_s = Vec::new();
        let mut index_ms = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let mut table = Table::new(tops.schema().clone());
            table.reserve(rows.len());
            for r in &rows {
                table.insert_ints(r).expect("AllTops is three Int columns");
            }
            insert_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            for col in 0..3 {
                table.create_index_bulk(col);
            }
            index_ms.push(ms_since(t));
            black_box(&table);
        }
        (rows.len() as f64 / median(&insert_s), median(&index_ms))
    });
    p.set("storage.insert_ints_rows_per_s", insert_rate);
    p.set("storage.index_build_ms", index_ms);
    p.set("storage.alltops_bytes_per_row", tops.heap_size() as f64 / tops.len().max(1) as f64);
}

fn graph(env: View<'_>, p: &mut Probe) {
    let db = &env.snapshot.db;
    let v = p.take("graph.data_graph", || median_ms(3, || DataGraph::from_db(db).is_ok()));
    p.set("graph.data_graph_ms", v);
    let v = p.take("graph.schema_graph", || median_ms(3, || SchemaGraph::from_db(db)));
    p.set("graph.schema_graph_ms", v);

    let (g, schema) = (&env.snapshot.graph, &env.snapshot.schema);
    let v = p.take("graph.paths", || {
        let t = Instant::now();
        let paths = enumerate_pair_paths(g, schema, env.ids.protein, env.ids.dna, L);
        black_box(&paths).path_count() as f64 / t.elapsed().as_secs_f64()
    });
    p.set("graph.paths_per_s", v);

    let metas = env.snapshot.catalog.metas();
    let v = p.take("graph.canon", || {
        rate(|| {
            for meta in metas {
                black_box(canonical_code(&meta.graph));
            }
            metas.len() as u64
        })
    });
    p.set("graph.canon_codes_per_s", v);
}

fn core_offline(env: View<'_>, p: &mut Probe) {
    let root = Some(p.root);
    let serial =
        build_catalog(base_of(env.snapshot, env.ids), false, p.tracer, root, PROBE_REQUEST);
    let parallel =
        build_catalog(base_of(env.snapshot, env.ids), true, p.tracer, root, PROBE_REQUEST);
    p.set("core.compute_serial_ms", serial.compute_ms);
    p.set("core.compute_parallel_ms", parallel.compute_ms);
    p.set("core.parallel_speedup", serial.compute_ms / parallel.compute_ms);
    p.set("core.prune_ms", parallel.prune_ms);
    p.set("core.score_ms", parallel.score_ms);
    let stats = &serial.stats;
    p.set("core.ns_per_path", serial.compute_ms * 1e6 / stats.paths.max(1) as f64);
    p.set("core.canon_hit_rate", stats.canon_hit_rate());
    p.set("core.pairs", stats.pairs as f64);
    p.set("core.paths", stats.paths as f64);
    p.set("core.topologies", stats.topologies as f64);
    p.set("core.sig_hashes", stats.sig_hashes as f64);
    p.set("core.truncated_pairs", stats.truncated_pairs as f64);
    let catalog = &parallel.catalog;
    p.set("core.alltops_rows", catalog.alltops.len() as f64);
    p.set("core.lefttops_rows", catalog.lefttops.len() as f64);
    p.set("core.pruned_topologies", parallel.prune.pruned.len() as f64);
    p.set("core.catalog_bytes", catalog.heap_size() as f64);
    p.set("core.pair_bytes", catalog.pair_bytes() as f64);
}

fn biozon(env: View<'_>, cfg: &RunConfig, p: &mut Probe) {
    let mut config = BiozonConfig::default().scaled(cfg.scale());
    config.seed = crate::env::DB_SEED;
    let v = p.take("biozon.generate", || median_ms(3, || generate(&config)));
    p.set("biozon.generate_ms", v);
    let v = p.take("biozon.query_mix", || median_ms(5, || cfg.query_mix(env.ids)) * 1e3);
    p.set("biozon.query_mix_us", v);
}
