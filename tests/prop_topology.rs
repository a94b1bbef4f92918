//! Property tests for the core definitions and the §4 equivalence
//! theorem (Fast-Top ≡ Full-Top) on random databases. Definition 2 is
//! checked through the test-side reference in `tests/reference`.

mod reference;

use proptest::prelude::*;
use ts_core::compute::{compute_catalog, ComputeOptions};
use ts_core::methods::{Method, QueryContext};
use ts_core::prune::{prune_catalog, PruneOptions};
use ts_core::{EsPair, TopOptions, TopologyQuery};
use ts_graph::{
    canonical_code, enumerate_pair_paths, CanonicalCode, DataGraph, PathSig, SchemaGraph,
};
use ts_storage::{row, ColumnDef, Database, Predicate, TableSchema, ValueType};

/// Random 3-set database (P/U/D with encodes, uni_encodes, uni_contains).
fn build_db(
    n: usize,
    enc: &[(usize, usize)],
    ue: &[(usize, usize)],
    uc: &[(usize, usize)],
) -> Database {
    let mut db = Database::new();
    let mk = |db: &mut Database, name: &str| {
        let t = db
            .create_table(TableSchema::new(
                name,
                vec![ColumnDef::new("ID", ValueType::Int)],
                Some(0),
            ))
            .unwrap();
        db.declare_entity_set(name, t).unwrap();
        t
    };
    let pt = mk(&mut db, "P");
    let ut = mk(&mut db, "U");
    let dt = mk(&mut db, "D");
    let rel = |db: &mut Database, name: &str, a: usize, b: usize| {
        let t = db
            .create_table(TableSchema::new(
                name,
                vec![ColumnDef::new("A", ValueType::Int), ColumnDef::new("B", ValueType::Int)],
                None,
            ))
            .unwrap();
        db.declare_rel_set(name, t, a, 0, b, 1).unwrap();
        t
    };
    let enc_t = rel(&mut db, "enc", 0, 2);
    let ue_t = rel(&mut db, "ue", 1, 0);
    let uc_t = rel(&mut db, "uc", 1, 2);
    for i in 0..n {
        db.table_mut(pt).insert(row![100 + i as i64]).unwrap();
        db.table_mut(ut).insert(row![200 + i as i64]).unwrap();
        db.table_mut(dt).insert(row![300 + i as i64]).unwrap();
    }
    for &(p, d) in enc {
        db.table_mut(enc_t).insert(row![100 + (p % n) as i64, 300 + (d % n) as i64]).unwrap();
    }
    for &(u, p) in ue {
        db.table_mut(ue_t).insert(row![200 + (u % n) as i64, 100 + (p % n) as i64]).unwrap();
    }
    for &(u, d) in uc {
        db.table_mut(uc_t).insert(row![200 + (u % n) as i64, 300 + (d % n) as i64]).unwrap();
    }
    db.analyze_all();
    db
}

fn edges(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..n, 0..n), 0..(2 * n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Definition-2 invariants on every connected pair of a random db.
    #[test]
    fn pair_topologies_invariants(
        enc in edges(4),
        ue in edges(4),
        uc in edges(4),
        l in 1usize..=3,
    ) {
        let db = build_db(4, &enc, &ue, &uc);
        let g = DataGraph::from_db(&db).unwrap();
        let schema = SchemaGraph::from_db(&db);
        let pp = enumerate_pair_paths(&g, &schema, 0, 2, l);
        for (a, b) in pp.sorted_pairs() {
            let (a, b) = (&a, &b);
            let t = reference::pair_tops(&g, &pp.paths(*a, *b), TopOptions::default());
            prop_assert!(!t.unions.is_empty(), "connected pair has a topology");
            // Codes are distinct and sorted.
            for w in t.unions.windows(2) {
                prop_assert!(w[0].1 < w[1].1);
            }
            for (union, code) in &t.unions {
                // Canonical code is consistent.
                prop_assert_eq!(&canonical_code(union), code);
                // Union graphs are connected and contain both endpoints' types.
                prop_assert!(union.is_connected());
                prop_assert!(union.labels.contains(&g.node_type(*a)));
                prop_assert!(union.labels.contains(&g.node_type(*b)));
                // A union can never have more edges than the paths provide.
                let max_edges: usize = t.classes.iter().map(|c| c.len()).sum();
                prop_assert!(union.edge_count() <= max_edges);
            }
            // Single-class pairs: exactly one topology, a path graph.
            if t.classes.len() == 1 {
                prop_assert_eq!(t.unions.len(), 1);
                let (u, _) = &t.unions[0];
                prop_assert_eq!(u.edge_count(), u.node_count() - 1);
            }
        }
    }

    /// §4's correctness claim: Fast-Top over LeftTops, with online checks
    /// on the base data that AllTops tells exceptions for, equals Full-Top
    /// over AllTops — for every random database and every pruning
    /// threshold.
    #[test]
    fn fast_top_equals_full_top_on_random_databases(
        enc in edges(5),
        ue in edges(5),
        uc in edges(5),
        threshold in 0u64..4,
    ) {
        let db = build_db(5, &enc, &ue, &uc);
        let g = DataGraph::from_db(&db).unwrap();
        let schema = SchemaGraph::from_db(&db);
        let (mut cat, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
        prune_catalog(&mut cat, PruneOptions { threshold, max_pruned: 64 });
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = TopologyQuery::new(0, Predicate::True, 2, Predicate::True, 3);
        let fast = Method::FastTop.eval(&ctx, &q);
        let full = Method::FullTop.eval(&ctx, &q);
        prop_assert_eq!(fast.tid_set(), full.tid_set());
    }

    /// The catalog's pairs against a recomputation that shares nothing
    /// with the build's front end or product: per espair,
    /// `enumerate_pair_paths` plus the test-side reference give every
    /// connected pair, its topology set and its path classes, compared by
    /// content (canonical codes, signatures) with `Catalog::pairs`.
    #[test]
    fn catalog_pairs_match_an_independent_recompute(
        enc in edges(4),
        ue in edges(4),
        uc in edges(4),
        l in 1usize..=3,
    ) {
        let db = build_db(4, &enc, &ue, &uc);
        let g = DataGraph::from_db(&db).unwrap();
        let schema = SchemaGraph::from_db(&db);
        let (cat, stats) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(l));
        let mut truncated = 0;
        for (from, to) in [(0u16, 1u16), (0, 2), (1, 2)] {
            let espair = EsPair::new(from, to);
            let pp = enumerate_pair_paths(&g, &schema, from, to, l);
            let mut want: Vec<_> = pp
                .sorted_pairs()
                .into_iter()
                .map(|(a, b)| {
                    let t = reference::pair_tops(&g, &pp.paths(a, b), TopOptions::default());
                    truncated += u64::from(t.truncated);
                    let codes: Vec<CanonicalCode> = t.unions.into_iter().map(|(_, c)| c).collect();
                    (g.node_entity(a), g.node_entity(b), codes, t.classes)
                })
                .collect();
            want.sort_by_key(|w| (w.0, w.1));
            let got: Vec<_> = cat
                .pairs()
                .filter(|p| p.espair == espair)
                .map(|p| {
                    let mut codes: Vec<CanonicalCode> =
                        p.topos.iter().map(|&t| cat.meta(t as u32).code.clone()).collect();
                    codes.sort();
                    let classes: Vec<PathSig> = p.sigs.iter().map(|&s| cat.sig(s).clone()).collect();
                    (p.e1, p.e2, codes, classes)
                })
                .collect();
            prop_assert_eq!(got, want, "{:?} at l = {}", espair, l);
        }
        prop_assert_eq!(stats.pairs as usize, cat.pair_count());
        prop_assert_eq!(cat.truncated_pairs, truncated);
        // Frequencies sum to row count.
        let freq_sum: u64 = cat.metas().iter().map(|m| m.freq).sum();
        prop_assert_eq!(freq_sum as usize, cat.alltops.len());
    }
}
