//! The work-stealing parallel offline build must be indistinguishable
//! from the serial one: chunk boundaries, worker count, and per-worker
//! canonicalizer memos are scheduling details, and the deterministic
//! merge in `ts-core::compute` has to erase all of them. This test runs
//! both builds on a generated Biozon instance (large enough that the
//! parallel path engages for real) and compares the catalogs
//! structure-for-structure and the materialized tables row-for-row.

mod reference;

use topology_search::prelude::*;
use ts_core::compute::default_es_pairs;
use ts_core::TopOptions;
use ts_graph::{enumerate_pair_paths, PairPaths};
use ts_storage::Database;

fn assert_catalogs_identical(c1: &Catalog, c2: &Catalog) {
    assert_eq!(c1.l, c2.l);
    assert_eq!(c1.topology_count(), c2.topology_count());
    assert_eq!(c1.sig_count(), c2.sig_count());
    assert_eq!(c1.code_count(), c2.code_count());
    for (m1, m2) in c1.metas().iter().zip(c2.metas().iter()) {
        assert_eq!(m1.id, m2.id);
        assert_eq!(m1.espair, m2.espair);
        assert_eq!(m1.code, m2.code);
        assert_eq!(m1.code_id, m2.code_id);
        assert_eq!(m1.freq, m2.freq);
        assert_eq!(m1.path_sig, m2.path_sig);
        assert_eq!(m1.graph.labels, m2.graph.labels);
        assert_eq!(m1.graph.edges, m2.graph.edges);
    }
    assert_eq!(c1.pair_count(), c2.pair_count());
    for (p1, p2) in c1.pairs().zip(c2.pairs()) {
        assert_eq!((p1.espair, p1.e1, p1.e2), (p2.espair, p2.e1, p2.e2));
        assert_eq!(p1.topos, p2.topos);
        assert_eq!(p1.sigs, p2.sigs);
    }
    for (t1, t2) in [(&c1.alltops, &c2.alltops), (&c1.lefttops, &c2.lefttops)] {
        assert_eq!(t1.len(), t2.len());
        for (r1, r2) in t1.rows().zip(t2.rows()) {
            assert_eq!(r1, r2);
        }
        // The columnar layout itself must agree, not just the logical
        // cells: identical byte footprint on both schedules.
        assert_eq!(t1.heap_size(), t2.heap_size());
    }
}

#[test]
fn work_stealing_build_matches_serial_byte_for_byte() {
    let biozon = biozon::generate(&biozon::BiozonConfig::default().scaled(0.1));
    let graph = graph::DataGraph::from_db(&biozon.db).expect("generator is consistent");
    let schema = graph::SchemaGraph::from_db(&biozon.db);

    let serial_opts = ComputeOptions::with_l(3);
    let (c_serial, s_serial) = compute_catalog(&biozon.db, &graph, &schema, &serial_opts);

    // Default threshold: only entity sets with >= 64 sources go parallel.
    let par_opts = ComputeOptions { parallel: true, ..ComputeOptions::with_l(3) };
    let (c_par, s_par) = compute_catalog(&biozon.db, &graph, &schema, &par_opts);
    assert_catalogs_identical(&c_serial, &c_par);

    // Forced threshold 1: every espair takes the work-stealing path,
    // including tiny ones where chunking degenerates to one source each.
    let forced_opts =
        ComputeOptions { parallel: true, min_parallel_sources: 1, ..ComputeOptions::with_l(3) };
    let (c_forced, s_forced) = compute_catalog(&biozon.db, &graph, &schema, &forced_opts);
    assert_catalogs_identical(&c_serial, &c_forced);

    // The same logical work was done in all three schedules.
    assert_eq!(s_serial.pairs, s_par.pairs);
    assert_eq!(s_serial.paths, s_forced.paths);
    assert_eq!(s_serial.topologies, s_forced.topologies);
    // Memo effectiveness is a scheduling detail, but the total number of
    // canonicalizations asked for is not.
    assert_eq!(
        s_serial.canon_hits + s_serial.canon_misses,
        s_forced.canon_hits + s_forced.canon_misses
    );
}

#[test]
fn determinism_matrix_across_scales_and_thread_counts() {
    // One scale is not enough: chunking degenerates differently on a
    // tiny instance (one source per chunk) than on a medium one (full
    // 256-source chunks), and the thread count decides how interleaved
    // the per-worker canonicalizer memos get. Sweep both axes; the
    // catalogs must be identical to the serial build everywhere.
    for (size, scale) in [("tiny", 0.05), ("small", 0.1), ("medium", 0.25)] {
        let biozon = biozon::generate(&biozon::BiozonConfig::default().scaled(scale));
        let graph = graph::DataGraph::from_db(&biozon.db).expect("generator is consistent");
        let schema = graph::SchemaGraph::from_db(&biozon.db);
        let (c_serial, s_serial) =
            compute_catalog(&biozon.db, &graph, &schema, &ComputeOptions::with_l(3));
        for threads in [1usize, 2, 4] {
            let opts = ComputeOptions {
                parallel: true,
                min_parallel_sources: 1,
                max_threads: threads,
                ..ComputeOptions::with_l(3)
            };
            let (c, s) = compute_catalog(&biozon.db, &graph, &schema, &opts);
            assert_eq!(s_serial.pairs, s.pairs, "{size} × {threads} threads");
            assert_eq!(s_serial.paths, s.paths, "{size} × {threads} threads");
            assert_catalogs_identical(&c_serial, &c);
        }
    }
}

#[test]
fn weak_policy_parallel_matches_serial() {
    // The weak-policy filter runs inside the workers; dropping paths must
    // not disturb determinism either.
    let biozon = biozon::generate(&biozon::BiozonConfig::default().scaled(0.1));
    let graph = graph::DataGraph::from_db(&biozon.db).expect("generator is consistent");
    let schema = graph::SchemaGraph::from_db(&biozon.db);
    let policy = biozon::weak_policy_l4(&biozon.ids);

    let mk = |parallel| ComputeOptions {
        parallel,
        min_parallel_sources: 1,
        weak_policy: Some(policy.clone()),
        ..ComputeOptions::with_l(3)
    };
    let (c1, s1) = compute_catalog(&biozon.db, &graph, &schema, &mk(false));
    let (c2, s2) = compute_catalog(&biozon.db, &graph, &schema, &mk(true));
    assert_catalogs_identical(&c1, &c2);
    assert_eq!(s1.weak_paths_dropped, s2.weak_paths_dropped);
}

/// A permutation of `0..n`, given `n`.
type RowOrder = fn(usize) -> Vec<usize>;

/// `db` with every entity table's rows reinserted in the order `order`
/// gives (a permutation of row positions); relationship tables and all
/// declarations are copied unchanged. Data-graph node ids follow row
/// order, so this changes only the order in which the build meets
/// sources and destinations.
fn with_entity_rows_in(db: &Database, order: RowOrder) -> Database {
    let entity_tables: Vec<usize> = db.entity_sets().iter().map(|e| e.table).collect();
    let mut out = Database::new();
    for t in 0..db.table_count() {
        let table = db.table(t);
        let id = out.create_table(table.schema().clone()).expect("names are unique in db");
        let rows: Vec<_> = table.rows().map(|r| r.to_row()).collect();
        let positions =
            if entity_tables.contains(&t) { order(rows.len()) } else { (0..rows.len()).collect() };
        for i in positions {
            out.table_mut(id).insert(rows[i].clone()).expect("rows are valid in db");
        }
    }
    for e in db.entity_sets() {
        out.declare_entity_set(e.name.clone(), e.table).expect("valid in db");
    }
    for r in db.rel_sets() {
        out.declare_rel_set(r.name.clone(), r.table, r.from, r.from_col, r.to, r.to_col)
            .expect("valid in db");
    }
    out
}

/// A fixed pseudo-random permutation of `0..n` (Fisher–Yates on a
/// 64-bit LCG).
fn shuffled(n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in (1..n).rev() {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        v.swap(i, (x >> 33) as usize % (i + 1));
    }
    v
}

#[test]
fn representatives_do_not_depend_on_the_order_entities_are_met() {
    // The generator inserts entities in ascending id order, so the build
    // meets pairs in ascending key order too, and a worker that kept the
    // first graph it saw for a topology would agree with one that keeps
    // the least-keyed pair's. Reorder the entity rows so it does not.
    // Same-set espairs are added because they orient each path from the
    // endpoint with the smaller node id: reordering flips orientations,
    // and an asymmetric path (P-U-D-P against P-D-U-P) then builds
    // byte-different unions for one topology in different pairs.
    let biozon = biozon::generate(&biozon::BiozonConfig::default().scaled(0.1));
    let ids = &biozon.ids;
    let orders: [(&str, RowOrder); 2] =
        [("descending", |n| (0..n).rev().collect()), ("shuffled", shuffled)];
    for (name, order) in orders {
        let db = with_entity_rows_in(&biozon.db, order);
        let graph = graph::DataGraph::from_db(&db).expect("generator is consistent");
        let schema = graph::SchemaGraph::from_db(&db);
        let mut es_pairs = default_es_pairs(&db, &schema, 3);
        es_pairs.extend([EsPair::new(ids.protein, ids.protein), EsPair::new(ids.dna, ids.dna)]);
        let serial_opts = ComputeOptions { es_pairs: Some(es_pairs), ..ComputeOptions::with_l(3) };
        let (c_serial, _) = compute_catalog(&db, &graph, &schema, &serial_opts);
        let forced_opts =
            ComputeOptions { parallel: true, min_parallel_sources: 1, ..serial_opts.clone() };
        let (c_par, _) = compute_catalog(&db, &graph, &schema, &forced_opts);
        assert_catalogs_identical(&c_serial, &c_par);

        // Each representative is the union its topology's least-keyed
        // pair produces first, recomputed with the test-side reference.
        let mut paths: Vec<(EsPair, PairPaths)> = Vec::new();
        let mut checked = vec![false; c_serial.topology_count()];
        for p in c_serial.pairs() {
            for &tid in p.topos {
                let meta = c_serial.meta(tid as u32);
                if std::mem::replace(&mut checked[tid as usize], true) {
                    continue;
                }
                if !paths.iter().any(|(e, _)| *e == p.espair) {
                    let pp = enumerate_pair_paths(&graph, &schema, p.espair.from, p.espair.to, 3);
                    paths.push((p.espair, pp));
                }
                let pp = &paths.iter().find(|(e, _)| *e == p.espair).expect("just added").1;
                let a = graph.node(p.espair.from, p.e1).expect("pair entity");
                let b = graph.node(p.espair.to, p.e2).expect("pair entity");
                let t = reference::pair_tops(&graph, &pp.paths(a, b), TopOptions::default());
                assert_eq!(t.classes.len(), p.sigs.len(), "{name}: pair ({}, {})", p.e1, p.e2);
                let (want, _) = t
                    .unions
                    .iter()
                    .find(|(_, code)| *code == meta.code)
                    .expect("the least-keyed pair produces its topology");
                assert_eq!(
                    &meta.graph, want,
                    "{name}: topology {tid} of pair ({}, {})",
                    p.e1, p.e2
                );
            }
        }
        assert!(checked.iter().all(|&c| c), "{name}: every topology has a pair");
    }
}
