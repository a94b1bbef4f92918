//! The paper's worked examples, end-to-end through the public facade.
//!
//! Every assertion here is a sentence from the paper (§2.2 and Figs.
//! 3–5): the Fig. 3 database, PS(78,215,3) = {l2,l3,l6},
//! 3-PathEC(78,215) has two classes, 3-Top(78,215) = {T3,T4},
//! 3-Top(32,214) = {T1}, 3-Top(44,742) = {T2}, and the query result
//! 3-Topology(Q,G) = {T1,T2,T3,T4}.

mod reference;

use topology_search::prelude::*;
use ts_core::TopOptions;
use ts_graph::fixtures::{figure3, DNA, PROTEIN};
use ts_graph::paths::enumerate_pair_paths;
use ts_storage::Database;

#[test]
fn section_2_worked_example() {
    let (db, g, schema) = figure3();

    // PS(78, 215, 3) = { l2, l3, l6 }.
    let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
    let p78 = g.node(PROTEIN, 78).unwrap();
    let d215 = g.node(DNA, 215).unwrap();
    let paths = pp.paths(p78, d215);
    assert_eq!(paths.len(), 3);

    // 3-PathEC(78,215) contains two equivalence classes.
    let t = reference::pair_tops(&g, &paths, TopOptions::default());
    assert_eq!(t.classes.len(), 2);
    // 3-Top(78,215) = { T3, T4 }.
    assert_eq!(t.unions.len(), 2);
    assert!(!t.truncated);

    // Full pipeline: the query of Example 2.1.
    let (catalog, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
    let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &catalog };
    let q = TopologyQuery::new(
        PROTEIN,
        Predicate::contains(1, "enzyme"),
        DNA,
        Predicate::eq(1, "mRNA"),
        3,
    );
    // 3-Topology(Q, G) = { T1, T2, T3, T4 }.
    let out = Method::FullTop.eval(&ctx, &q);
    assert_eq!(out.tid_set().len(), 4);

    // And every method agrees on this historic query.
    for m in Method::all() {
        let got = m.eval(&ctx, &q);
        if m.is_topk() {
            assert!(got.tid_set().len() <= 4);
            for tid in got.tid_set() {
                assert!(out.tid_set().contains(&tid), "{}", m.name());
            }
        } else {
            assert_eq!(got.tid_set(), out.tid_set(), "{}", m.name());
        }
    }
}

#[test]
fn t2_not_in_top_of_78_215() {
    // "T2 is not in 3-Top(78,215) because it does not depict the full
    // interaction of paths from different equivalence classes."
    let (_db, g, schema) = figure3();
    let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
    let p78 = g.node(PROTEIN, 78).unwrap();
    let d215 = g.node(DNA, 215).unwrap();
    let t78 = reference::pair_tops(&g, &pp.paths(p78, d215), TopOptions::default());
    let p44 = g.node(PROTEIN, 44).unwrap();
    let d742 = g.node(DNA, 742).unwrap();
    let t44 = reference::pair_tops(&g, &pp.paths(p44, d742), TopOptions::default());
    // T2 is the (single) topology of (44, 742); it must not appear among
    // (78, 215)'s topologies.
    let t2_code = &t44.unions[0].1;
    assert!(t78.unions.iter().all(|(_, c)| c != t2_code));
}

#[test]
fn isolated_results_versus_topologies() {
    // §1: keyword-search systems return 6 isolated paths (Fig. 4) for
    // the unconstrained query; topology search groups them into 4+1
    // schema-level results with instance witnesses.
    let (db, g, schema) = figure3();
    let pp = enumerate_pair_paths(&g, &schema, PROTEIN, DNA, 3);
    // Fig. 4's six rows are the paths whose protein matches the query's
    // 'enzyme' keyword ({32, 78, 44}); pair (34, 215) adds two more.
    let enzyme_proteins: Vec<u32> =
        [32i64, 78, 44].iter().map(|&id| g.node(PROTEIN, id).unwrap()).collect();
    let isolated: usize =
        pp.map.iter().filter(|((a, _), _)| enzyme_proteins.contains(a)).map(|(_, v)| v.len()).sum();
    assert_eq!(isolated, 6, "Fig. 4 shows exactly six isolated results");
    let all_paths: usize = pp.map.values().map(Vec::len).sum();
    assert_eq!(all_paths, 8);
    let (catalog, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
    let pd = EsPair::new(PROTEIN, DNA);
    assert!(catalog.topologies_for(pd).len() < isolated);
}

/// Three entity sets whose ids all run 1, 2 — the overlap the paper
/// assumes away ("the IDs of different biological objects are not
/// overlapping") and Fig. 3 and the Biozon generator never produce.
/// A1–B1, A1–C2 and B1–C1 are the only relationships.
fn colliding_ids_db() -> (Database, ts_graph::DataGraph, ts_graph::SchemaGraph, [u16; 3]) {
    use ts_storage::{row, ColumnDef, TableSchema, ValueType};
    let mut db = Database::new();
    let entity_set = |db: &mut Database, name: &str| {
        let table = db
            .create_table(TableSchema::new(
                name,
                vec![ColumnDef::new("ID", ValueType::Int), ColumnDef::new("name", ValueType::Str)],
                Some(0),
            ))
            .expect("fresh db");
        for id in [1i64, 2] {
            db.table_mut(table).insert(row![id, format!("{name}{id}")]).expect("unique ids");
        }
        db.declare_entity_set(name, table).expect("fresh db")
    };
    let a = entity_set(&mut db, "A");
    let b = entity_set(&mut db, "B");
    let c = entity_set(&mut db, "C");
    for (name, from, to, (x, y)) in
        [("ab", a, b, (1i64, 1i64)), ("ac", a, c, (1, 2)), ("bc", b, c, (1, 1))]
    {
        let table = db
            .create_table(TableSchema::new(
                name,
                vec![ColumnDef::new("X", ValueType::Int), ColumnDef::new("Y", ValueType::Int)],
                None,
            ))
            .expect("fresh db");
        db.declare_rel_set(name, table, from, 0, to, 1).expect("fresh db");
        db.table_mut(table).insert(row![x, y]).expect("insert");
    }
    db.analyze_all();
    let g = ts_graph::DataGraph::from_db(&db).expect("consistent");
    let s = ts_graph::SchemaGraph::from_db(&db);
    (db, g, s, [a as u16, b as u16, c as u16])
}

/// The tops tables hold rows of every espair, and entity ids say
/// nothing about which: AllTops here has (1, 2, T) for A1–C2 and
/// (1, 1, T') for B1–C1. A plan that matches rows on E1 and E2 values
/// alone — as both the hash and the E1-index plans did — reports those
/// under a query over (A, B) that selects A1 and B1, B2. The regular
/// plan reads only the (A, B) partition; the ET stacks, which start from
/// the espair's TIDs, and the on-the-fly `SQL` baseline never had the
/// flaw and give the reference.
#[test]
fn rows_of_other_espairs_are_not_reported_where_entity_ids_collide() {
    let (db, g, schema, [a, b, c]) = colliding_ids_db();
    let (mut catalog, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(2));
    score_catalog(&mut catalog, &ts_core::DomainScorer::default());
    // The trap is set: other espairs own rows whose (E1, E2) the query
    // below selects.
    let ab = EsPair::new(a, b);
    let foreign = catalog
        .alltops
        .rows()
        .filter(|r| r.as_int(0) == 1 && catalog.meta(r.as_int(2) as u32).espair != ab)
        .count();
    assert!(foreign >= 3, "expected A–C and B–C rows with E1 = 1, found {foreign}");

    let q = TopologyQuery::new(a, Predicate::eq(1, "A1"), b, Predicate::True, 2);
    for threshold in [u64::MAX, 0] {
        prune_catalog(&mut catalog, ts_core::PruneOptions { threshold, max_pruned: 64 });
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &catalog };
        // By the definitions: A1–B1 is the one connected (A, B) pair
        // within two steps — directly; no C joins them (C2 has no B, C1
        // no A) — so the result is that pair's single topology.
        let sql = Method::Sql.eval(&ctx, &q).tid_set();
        assert_eq!(sql.len(), 1, "threshold {threshold}");
        assert_eq!(catalog.meta(sql[0]).espair, ab);
        for m in Method::all() {
            assert_eq!(m.eval(&ctx, &q).tid_set(), sql, "threshold {threshold}: {}", m.name());
        }
        // And the other way round, from the B side of a B–C query.
        let q = TopologyQuery::new(c, Predicate::True, b, Predicate::eq(1, "B1"), 2);
        let sql = Method::Sql.eval(&ctx, &q).tid_set();
        assert!(!sql.is_empty());
        for m in Method::all() {
            assert_eq!(m.eval(&ctx, &q).tid_set(), sql, "threshold {threshold}: C–B {}", m.name());
        }
    }
}
