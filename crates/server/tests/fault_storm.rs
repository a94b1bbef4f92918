//! The resilience contract, enforced under deterministic fault
//! injection: every admitted query gets exactly one well-formed
//! response, the served snapshot's bytes never change, and no injected
//! panic escapes its per-query isolation boundary.
//!
//! The fail-point registry is process-global, so every test here — even
//! the ones that arm nothing — takes the `FAULTS` mutex: an unguarded
//! evaluation racing a storm would absorb the storm's faults.

use std::sync::Mutex;

use ts_bench::{build_env, EnvOptions};
use ts_biozon::SchemaIds;
use ts_core::{
    try_compute_catalog, ComputeError, ComputeOptions, Exhausted, Method, QueryError, Snapshot,
    TopologyQuery,
};
use ts_server::{BudgetSpec, QueryResponse, Server, ServerConfig, ServerError};
use ts_storage::faults::{self, sites, FaultKind, Schedule};
use ts_storage::Predicate;

static FAULTS: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    FAULTS.lock().unwrap_or_else(|p| p.into_inner())
}

/// A small but real serving snapshot (generated Biozon, computed +
/// pruned + scored catalog at l = 3).
fn snapshot(scale: f64) -> (Snapshot, SchemaIds) {
    let env = build_env(EnvOptions { scale, ..EnvOptions::default() });
    let ids = env.biozon.ids;
    (Snapshot::new(env.biozon.db, env.graph, env.schema, env.catalog), ids)
}

fn count(responses: &[QueryResponse]) -> (usize, usize, usize, usize) {
    let mut c = (0, 0, 0, 0);
    for r in responses {
        match r {
            QueryResponse::Ok(_) => c.0 += 1,
            QueryResponse::Degraded { .. } => c.1 += 1,
            QueryResponse::Rejected(_) => c.2 += 1,
            QueryResponse::Failed(_) => c.3 += 1,
        }
    }
    c
}

#[test]
fn storm_yields_only_well_formed_responses_and_identical_snapshot_bytes() {
    let _g = guard();
    assert!(faults::compiled_in(), "ts-server must build ts-storage with failpoints");
    faults::disarm_all();

    let (snap, ids) = snapshot(0.15);
    let digest_before = snap.digest();
    let l = snap.catalog.l;
    let server = Server::new(
        snap,
        ServerConfig {
            workers: 4,
            queue_cap: 32,
            default_budget: BudgetSpec {
                deadline_ms: Some(2_000),
                step_quota: Some(500_000),
                row_quota: None,
            },
        },
    );

    faults::arm_seeded(0x5707_1CDE);

    let methods = [
        Method::FullTop,
        Method::FastTop,
        Method::FullTopK,
        Method::FastTopK,
        Method::FullTopKEt,
        Method::FastTopKEt,
        Method::FullTopKOpt,
        Method::FastTopKOpt,
    ];
    let mix = ts_biozon::query_mix(&ids, l, 96, 0xC0FF_EE00);
    let mut tickets = Vec::new();
    let mut shed = 0usize;
    for (i, mut q) in mix.into_iter().enumerate() {
        // Every 12th query is deliberately malformed: the storm must
        // reject it with a typed error, not a panic or a hang.
        if i % 12 == 5 {
            q.es1 = 200;
        } else if i % 12 == 11 {
            q.l = l + 2;
        }
        match server.submit(methods[i % methods.len()], q) {
            Ok(t) => tickets.push(t),
            Err(ServerError::Overloaded { retry_after_ms, .. }) => {
                assert!(retry_after_ms >= 1);
                shed += 1;
            }
            Err(ServerError::ShuttingDown) => unreachable!("nobody shut the server down"),
        }
    }

    let responses: Vec<QueryResponse> = tickets.into_iter().map(|t| t.wait()).collect();
    let (ok, degraded, rejected, failed) = count(&responses);
    assert_eq!(
        ok + degraded + rejected + failed + shed,
        96,
        "every query is accounted for: ok {ok}, degraded {degraded}, rejected {rejected}, \
         failed {failed}, shed {shed}"
    );
    assert!(rejected >= 1, "the malformed queries must surface as Rejected");
    for r in &responses {
        if let QueryResponse::Rejected(e) = r {
            assert!(matches!(
                e,
                QueryError::UnknownEntity { es: 200, .. } | QueryError::LMismatch { .. }
            ));
        }
    }

    // Phase 2: two exec sites live in operators no method builds (the
    // hash join's build side and the Sort operator; the regular plan
    // scans only the entity tables). Drive them directly, under a table
    // scan of their own, over the served snapshot, still under the
    // storm; injected panics are confined the same way the server
    // confines them.
    let snap = server.snapshot();
    let tops = &snap.catalog.alltops;
    for _ in 0..12 {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let work = ts_exec::Work::with_budget(ts_exec::Budget {
                step_quota: Some(50_000),
                ..ts_exec::Budget::default()
            });
            let probe: ts_exec::BoxedBatchOp<'_> =
                Box::new(ts_exec::BatchTableScan::new(tops, Predicate::True, work.clone()));
            let build: ts_exec::BoxedBatchOp<'_> =
                Box::new(ts_exec::BatchTableScan::new(tops, Predicate::True, work.clone()));
            let join: ts_exec::BoxedBatchOp<'_> =
                Box::new(ts_exec::BatchHashJoin::new(probe, 0, build, 0, work.clone()));
            let mut sorted =
                ts_exec::BatchSort::new(join, vec![(2, ts_exec::Dir::Asc)], work.clone());
            ts_exec::batch_collect_all_budgeted(&mut sorted, &work).len()
        }));
    }

    // The storm must have reached every registered fail-point site on
    // the serving side (the offline compute site has its own test).
    let counts = faults::fire_counts();
    let hits = |site: &str| counts.iter().find(|(s, ..)| *s == site).map_or(0, |&(_, h, _)| h);
    for site in sites::all() {
        if *site == sites::CORE_COMPUTE_WORKER {
            continue;
        }
        assert!(hits(site) > 0, "storm never reached fail-point site {site}: {counts:?}");
    }
    let total_fired: u64 = counts.iter().map(|&(_, _, f)| f).sum();
    assert!(total_fired > 0, "the storm fired no faults at all: {counts:?}");

    faults::disarm_all();

    // The served snapshot is byte-identical after the storm.
    assert_eq!(server.snapshot().digest(), digest_before);
    let report = server.shutdown();
    assert!(
        report.worker_panics.is_empty(),
        "a panic escaped per-query isolation: {:?}",
        report.worker_panics
    );
    assert_eq!(report.stats.completed(), (ok + degraded + rejected + failed) as u64);
}

#[test]
fn publish_swaps_epochs_without_disturbing_responses() {
    let _g = guard();
    faults::disarm_all();
    let (snap, ids) = snapshot(0.1);
    let l = snap.catalog.l;
    let digest = snap.digest();
    let server = Server::new(snap, ServerConfig::default());
    assert_eq!(server.epoch(), 0);

    let mix = ts_biozon::query_mix(&ids, l, 24, 11);
    let mut tickets = Vec::new();
    for (i, q) in mix.into_iter().enumerate() {
        if i == 12 {
            // Rebuild (the generator is seeded, so the content digest
            // comes out identical) and publish mid-workload.
            let (snap2, _) = snapshot(0.1);
            assert_eq!(server.publish(snap2), 1);
        }
        tickets.push(server.submit(Method::FullTopK, q).expect("queue is large enough"));
    }
    let epochs: Vec<u64> = tickets.iter().map(|t| t.epoch()).collect();
    assert!(epochs.contains(&0) && epochs.contains(&1), "both epochs admitted queries");
    for t in tickets {
        match t.wait() {
            QueryResponse::Ok(_) | QueryResponse::Degraded { .. } => {}
            other => panic!("epoch swap disturbed a query: {other:?}"),
        }
    }
    assert_eq!(server.epoch(), 1);
    assert_eq!(server.snapshot().epoch, 1);
    assert_eq!(server.snapshot().digest(), digest);
    server.shutdown();
}

#[test]
fn full_queue_sheds_with_typed_overload_error() {
    let _g = guard();
    faults::disarm_all();
    let (snap, ids) = snapshot(0.1);
    let l = snap.catalog.l;
    let server =
        Server::new(snap, ServerConfig { workers: 1, queue_cap: 1, ..ServerConfig::default() });

    // Hold every job in the single worker for 25 ms so the queue backs
    // up behind it.
    faults::arm(
        sites::SERVER_WORKER,
        Schedule { kind: FaultKind::Delay(25), period: 1, offset: 0, budget: None },
    );
    let mix = ts_biozon::query_mix(&ids, l, 8, 23);
    let mut tickets = Vec::new();
    let mut sheds = Vec::new();
    for q in mix {
        match server.submit(Method::FullTop, q) {
            Ok(t) => tickets.push(t),
            Err(e) => sheds.push(e),
        }
    }
    assert!(!sheds.is_empty(), "8 instant submits into workers=1/cap=1 must shed");
    for e in &sheds {
        match e {
            ServerError::Overloaded { retry_after_ms, queue_depth } => {
                assert!(*retry_after_ms >= 1);
                assert!(*queue_depth >= 1);
            }
            ServerError::ShuttingDown => panic!("wrong error: {e}"),
        }
    }
    for t in tickets {
        assert!(matches!(t.wait(), QueryResponse::Ok(_) | QueryResponse::Degraded { .. }));
    }
    faults::disarm_all();
    let stats = server.shutdown().stats;
    assert_eq!(stats.shed as usize, sheds.len());
}

#[test]
fn injected_worker_panics_are_isolated_per_query() {
    let _g = guard();
    faults::disarm_all();
    let (snap, ids) = snapshot(0.1);
    let l = snap.catalog.l;
    let server =
        Server::new(snap, ServerConfig { workers: 2, queue_cap: 64, ..ServerConfig::default() });

    // Every second job that reaches a worker panics at the server.worker
    // fail point.
    faults::arm(
        sites::SERVER_WORKER,
        Schedule { kind: FaultKind::Panic, period: 2, offset: 1, budget: None },
    );
    let mix = ts_biozon::query_mix(&ids, l, 12, 5);
    let responses: Vec<QueryResponse> = mix
        .into_iter()
        .map(|q| server.submit(Method::FastTopK, q).expect("queue is large enough").wait())
        .collect();
    faults::disarm_all();

    let (ok, degraded, _rejected, failed) = count(&responses);
    assert_eq!(failed, 6, "period 2 / offset 1 panics exactly half of 12 jobs");
    assert_eq!(ok + degraded, 6, "the other half still completes");
    for r in &responses {
        if let QueryResponse::Failed(detail) = r {
            assert!(detail.contains("injected fault"), "payload survives: {detail}");
        }
    }
    let report = server.shutdown();
    assert!(report.worker_panics.is_empty(), "worker threads must survive injected panics");
    assert_eq!(report.stats.failed, 6);
}

#[test]
fn blown_step_quota_degrades_to_the_full_baseline() {
    let _g = guard();
    faults::disarm_all();
    let (snap, ids) = snapshot(0.1);
    let l = snap.catalog.l;
    let server = Server::new(snap, ServerConfig::default());
    let q = ts_biozon::query_mix(&ids, l, 1, 3).remove(0);

    // A 10-step quota trips on anything; the ladder retries Full-Top-k.
    let spec = BudgetSpec { deadline_ms: None, step_quota: Some(10), row_quota: None };
    let resp = server
        .submit_with(Method::FastTopKOpt, q.clone(), spec.clone())
        .expect("empty queue admits")
        .wait();
    match resp {
        QueryResponse::Degraded { reason, fell_back, .. } => {
            assert_eq!(reason, Exhausted::Steps);
            assert_eq!(fell_back, Some(Method::FullTopK));
        }
        other => panic!("expected a degraded response, got {other:?}"),
    }

    // The baseline itself has no fallback rung below it.
    let resp =
        server.submit_with(Method::FullTop, q.clone(), spec).expect("empty queue admits").wait();
    match resp {
        QueryResponse::Degraded { reason, fell_back, .. } => {
            assert_eq!(reason, Exhausted::Steps);
            assert_eq!(fell_back, None);
        }
        other => panic!("expected a degraded response, got {other:?}"),
    }

    // An already-expired deadline degrades without retrying (no time
    // left to spend on a second plan).
    let spec = BudgetSpec { deadline_ms: Some(0), step_quota: None, row_quota: None };
    let resp = server.submit_with(Method::FullTopK, q, spec).expect("empty queue admits").wait();
    match resp {
        QueryResponse::Degraded { reason, fell_back, .. } => {
            assert_eq!(reason, Exhausted::Deadline);
            assert_eq!(fell_back, None);
        }
        other => panic!("expected a degraded response, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn compute_worker_panic_is_a_typed_error_on_both_paths() {
    let _g = guard();
    faults::disarm_all();
    let b = ts_biozon::generate(&ts_biozon::BiozonConfig::small(1));
    let graph = ts_graph::DataGraph::from_db(&b.db).expect("generator is consistent");
    let schema = ts_graph::SchemaGraph::from_db(&b.db);

    let mut opts = ComputeOptions::with_l(2);
    opts.parallel = false;
    faults::arm(
        sites::CORE_COMPUTE_WORKER,
        Schedule { kind: FaultKind::Panic, period: 1, offset: 0, budget: Some(1) },
    );
    let serial = try_compute_catalog(&b.db, &graph, &schema, &opts);
    match serial {
        Err(ComputeError::WorkerPanicked { detail }) => {
            assert!(detail.contains("injected fault"), "payload survives: {detail}")
        }
        other => panic!("serial build must surface the panic as a typed error, got {other:?}"),
    }

    let mut opts = ComputeOptions::with_l(2);
    opts.parallel = true;
    opts.min_parallel_sources = 0;
    faults::arm(
        sites::CORE_COMPUTE_WORKER,
        Schedule { kind: FaultKind::Panic, period: 1, offset: 0, budget: Some(1) },
    );
    let parallel = try_compute_catalog(&b.db, &graph, &schema, &opts);
    assert!(
        matches!(parallel, Err(ComputeError::WorkerPanicked { .. })),
        "parallel build must surface the panic as a typed error, got {parallel:?}"
    );

    faults::disarm_all();
    let clean = try_compute_catalog(&b.db, &graph, &schema, &opts);
    assert!(clean.is_ok(), "the build succeeds once the fault is disarmed");
}

#[test]
fn batch_engine_mid_batch_exhaustion_yields_well_formed_degraded_partials() {
    let _g = guard();
    faults::disarm_all();
    let (snap, ids) = snapshot(0.1);
    let l = snap.catalog.l;
    let server = Server::new(snap, ServerConfig::default());
    let q = TopologyQuery::new(ids.protein, Predicate::True, ids.dna, Predicate::True, l);

    // A 1-row quota trips mid-batch in the top-k driver: the partial
    // keeps exactly the quota's worth of distinct groups, score-ordered.
    let spec = BudgetSpec { deadline_ms: None, step_quota: None, row_quota: Some(1) };
    let resp = server
        .submit_with(Method::FullTopKEt, q.clone().with_k(8), spec)
        .expect("empty queue admits")
        .wait();
    match resp {
        QueryResponse::Degraded { partial, reason, fell_back } => {
            assert_eq!(reason, Exhausted::Rows);
            assert_eq!(fell_back, None, "a blown row quota keeps the partial");
            assert_eq!(partial.topologies.len(), 1, "quota of 1 keeps exactly one group");
            for w in partial.topologies.windows(2) {
                assert!(w[0].1 >= w[1].1, "partial top-k must stay score-ordered");
            }
        }
        other => panic!("row quota must degrade mid-batch, got {other:?}"),
    }

    // Steps and Deadline surface the same way on the batch path.
    for (spec, want) in [
        (BudgetSpec { deadline_ms: None, step_quota: Some(10), row_quota: None }, Exhausted::Steps),
        (
            BudgetSpec { deadline_ms: Some(0), step_quota: None, row_quota: None },
            Exhausted::Deadline,
        ),
    ] {
        let resp = server
            .submit_with(Method::FullTopK, q.clone().with_k(8), spec)
            .expect("empty queue admits")
            .wait();
        match resp {
            QueryResponse::Degraded { partial, reason, .. } => {
                assert_eq!(reason, want);
                assert!(partial.topologies.len() <= 8, "partial top-k never exceeds k");
                for w in partial.topologies.windows(2) {
                    assert!(w[0].1 >= w[1].1, "partial top-k must stay score-ordered");
                }
            }
            other => panic!("expected a degraded response with {want:?}, got {other:?}"),
        }
    }

    // Cancellation: hold the worker at its fail point so shutdown_now's
    // cancel token is raised before the evaluation starts ticking; the
    // batch drivers observe it at the next poll boundary.
    faults::arm(
        sites::SERVER_WORKER,
        Schedule { kind: FaultKind::Delay(60), period: 1, offset: 0, budget: Some(1) },
    );
    let ticket = server.submit(Method::FullTop, q).expect("empty queue admits");
    std::thread::sleep(std::time::Duration::from_millis(15));
    let report = server.shutdown_now();
    faults::disarm_all();
    match ticket.wait() {
        QueryResponse::Degraded { reason, .. } => assert_eq!(reason, Exhausted::Cancelled),
        QueryResponse::Failed(detail) => {
            panic!("cancellation must degrade, not fail: {detail}")
        }
        other => panic!("expected a cancelled degraded response, got {other:?}"),
    }
    assert!(report.worker_panics.is_empty());
}

#[test]
fn all_nine_methods_reject_malformed_queries_without_panicking() {
    let _g = guard();
    faults::disarm_all();
    let (snap, ids) = snapshot(0.1);
    let l = snap.catalog.l;
    let ctx = snap.ctx();
    let good = TopologyQuery::new(ids.protein, Predicate::True, ids.dna, Predicate::True, l);

    for m in Method::all() {
        let mut q = good.clone();
        q.es1 = 250;
        assert!(
            matches!(m.try_eval(&ctx, &q), Err(QueryError::UnknownEntity { es: 250, .. })),
            "{m} must reject an unknown es1"
        );
        let mut q = good.clone();
        q.es2 = 251;
        assert!(
            matches!(m.try_eval(&ctx, &q), Err(QueryError::UnknownEntity { es: 251, .. })),
            "{m} must reject an unknown es2"
        );
        let mut q = good.clone();
        q.l = l + 1;
        assert!(
            matches!(m.try_eval(&ctx, &q), Err(QueryError::LMismatch { .. })),
            "{m} must reject a mismatched l"
        );
        assert!(m.try_eval(&ctx, &good).is_ok(), "{m} still evaluates the valid query");
    }

    // And through the server: a malformed query is a Rejected response.
    let server = Server::new(snap, ServerConfig::default());
    let mut q = good;
    q.es1 = 250;
    let resp = server.submit(Method::Sql, q).expect("empty queue admits").wait();
    assert!(matches!(resp, QueryResponse::Rejected(QueryError::UnknownEntity { es: 250, .. })));
    server.shutdown();
}

/// A server dropped while its workers are still starting must not lose
/// the shutdown wakeup: a worker that found the queue empty and the
/// flag down just before `shutdown` raised it would otherwise park
/// forever and hang the join. Thousands of create-and-drop rounds on a
/// watched thread; a hang fails the test instead of stalling the suite.
#[test]
fn dropping_a_server_during_worker_startup_never_hangs() {
    let _g = guard();
    faults::disarm_all();
    let (snap, _) = snapshot(0.02);
    let (tx, rx) = std::sync::mpsc::channel();
    let rounds = std::thread::spawn(move || {
        for round in 0..4_000u32 {
            let fresh = Snapshot::new(
                snap.db.clone(),
                snap.graph.clone(),
                snap.schema.clone(),
                snap.catalog.clone(),
            );
            drop(Server::new(fresh, ServerConfig { workers: 2, ..ServerConfig::default() }));
            if tx.send(round).is_err() {
                return;
            }
        }
    });
    let mut last = None;
    while last != Some(3_999) {
        match rx.recv_timeout(std::time::Duration::from_secs(20)) {
            Ok(round) => last = Some(round),
            Err(_) => panic!("create-and-drop round after {last:?} never returned"),
        }
    }
    rounds.join().expect("the rounds thread only creates and drops servers");
}
