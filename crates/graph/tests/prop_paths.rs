//! Property tests: the walk-automaton path enumerator against an
//! independent brute-force reference on random databases, and the walk
//! each emitted path is filed under against the path's own labels.

use proptest::prelude::*;
use ts_graph::{enumerate_pair_paths, DataGraph, NodeId, PathSink, SchemaGraph, WalkAutomaton};
use ts_storage::{row, ColumnDef, Database, TableSchema, ValueType};

/// Build a random 3-entity-set database (P, U, D with the fixture's
/// relationship shapes) from edge lists.
fn build_db(
    n_per_set: usize,
    encodes: &[(usize, usize)],
    uni_encodes: &[(usize, usize)],
    uni_contains: &[(usize, usize)],
) -> Database {
    build_db_with_similar(n_per_set, encodes, uni_encodes, uni_contains, None)
}

/// [`build_db`], plus a P–P self-relationship `similar` with the given
/// edges when `similar` is `Some`.
fn build_db_with_similar(
    n_per_set: usize,
    encodes: &[(usize, usize)],
    uni_encodes: &[(usize, usize)],
    uni_contains: &[(usize, usize)],
    similar: Option<&[(usize, usize)]>,
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
    let enc = rel(&mut db, "enc", 0, 2);
    let ue = rel(&mut db, "ue", 1, 0);
    let uc = rel(&mut db, "uc", 1, 2);
    // ids: P 100.., U 200.., D 300..
    for i in 0..n_per_set {
        db.table_mut(pt).insert(row![100 + i as i64]).unwrap();
        db.table_mut(ut).insert(row![200 + i as i64]).unwrap();
        db.table_mut(dt).insert(row![300 + i as i64]).unwrap();
    }
    for &(p, d) in encodes {
        db.table_mut(enc)
            .insert(row![100 + (p % n_per_set) as i64, 300 + (d % n_per_set) as i64])
            .unwrap();
    }
    for &(u, p) in uni_encodes {
        db.table_mut(ue)
            .insert(row![200 + (u % n_per_set) as i64, 100 + (p % n_per_set) as i64])
            .unwrap();
    }
    for &(u, d) in uni_contains {
        db.table_mut(uc)
            .insert(row![200 + (u % n_per_set) as i64, 300 + (d % n_per_set) as i64])
            .unwrap();
    }
    if let Some(similar) = similar {
        let sim = rel(&mut db, "sim", 0, 0);
        for &(p, q) in similar {
            db.table_mut(sim)
                .insert(row![100 + (p % n_per_set) as i64, 100 + (q % n_per_set) as i64])
                .unwrap();
        }
    }
    db
}

/// Sink that keeps every emitted path with the walk it was filed under.
#[derive(Default)]
struct WalkRecorder(Vec<(Vec<NodeId>, Vec<u16>, u32)>);

impl PathSink for WalkRecorder {
    fn accept(&mut self, nodes: &[NodeId], rels: &[u16], walk: u32) {
        self.0.push((nodes.to_vec(), rels.to_vec(), walk));
    }
}

/// Brute-force reference: recursive simple-path enumeration with no
/// schema pruning at all.
fn brute_force_paths(
    g: &DataGraph,
    from_es: u16,
    to_es: u16,
    l: usize,
) -> std::collections::HashSet<(NodeId, NodeId, Vec<u16>, Vec<NodeId>)> {
    let mut out = std::collections::HashSet::new();
    fn rec(
        g: &DataGraph,
        to_es: u16,
        l: usize,
        nodes: &mut Vec<NodeId>,
        rels: &mut Vec<u16>,
        out: &mut std::collections::HashSet<(NodeId, NodeId, Vec<u16>, Vec<NodeId>)>,
    ) {
        let cur = *nodes.last().unwrap();
        if !rels.is_empty() && g.node_type(cur) == to_es {
            out.insert((nodes[0], cur, rels.clone(), nodes.clone()));
        }
        if rels.len() == l {
            return;
        }
        for &(rid, next) in g.neighbors(cur) {
            if nodes.contains(&next) {
                continue;
            }
            nodes.push(next);
            rels.push(rid);
            rec(g, to_es, l, nodes, rels, out);
            nodes.pop();
            rels.pop();
        }
    }
    for &a in g.nodes_of_type(from_es) {
        let mut nodes = vec![a];
        let mut rels = Vec::new();
        rec(g, to_es, l, &mut nodes, &mut rels, &mut out);
    }
    out
}

fn edges_strategy(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..n, 0..n), 0..(2 * n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn enumerator_matches_brute_force(
        enc in edges_strategy(5),
        ue in edges_strategy(5),
        uc in edges_strategy(5),
        l in 1usize..=4,
    ) {
        let db = build_db(5, &enc, &ue, &uc);
        let g = DataGraph::from_db(&db).unwrap();
        let schema = SchemaGraph::from_db(&db);

        let pp = enumerate_pair_paths(&g, &schema, 0, 2, l);
        let mut got = std::collections::HashSet::new();
        for ((a, b), idxs) in &pp.map {
            for &i in idxs {
                let p = pp.arena.get(i as usize);
                got.insert((*a, *b, p.rels.to_vec(), p.nodes.to_vec()));
            }
        }
        let expected = brute_force_paths(&g, 0, 2, l);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn arena_enumeration_matches_vec_enumerator(
        enc in edges_strategy(5),
        ue in edges_strategy(5),
        uc in edges_strategy(5),
        l in 1usize..=4,
    ) {
        // The arena-backed sink must yield exactly the path sequence the
        // owned `Vec<Path>` sink yields — same order, same contents, same
        // signatures — for every source entity.
        let db = build_db(5, &enc, &ue, &uc);
        let g = DataGraph::from_db(&db).unwrap();
        let schema = SchemaGraph::from_db(&db);
        let auto = WalkAutomaton::new(&schema, 0, 2, l);
        for &a in g.nodes_of_type(0) {
            let mut owned: Vec<ts_graph::Path> = Vec::new();
            ts_graph::paths_from_into(&g, &auto, a, &mut owned);
            let mut arena = ts_graph::PathArena::new();
            ts_graph::paths_from_into(&g, &auto, a, &mut arena);
            prop_assert_eq!(arena.len(), owned.len());
            for (i, p) in owned.iter().enumerate() {
                prop_assert_eq!(arena.get(i), p.as_ref());
                prop_assert_eq!(arena.get(i).sig(&g), p.sig(&g));
            }
        }
    }

    #[test]
    fn same_type_pairs_are_each_counted_once(
        ue in edges_strategy(5),
    ) {
        // P-P pairs via shared unigenes: each undirected pair once.
        let db = build_db(5, &[], &ue, &[]);
        let g = DataGraph::from_db(&db).unwrap();
        let schema = SchemaGraph::from_db(&db);
        let pp = enumerate_pair_paths(&g, &schema, 0, 0, 2);
        for &(a, b) in pp.map.keys() {
            prop_assert!(a < b);
        }
        // Reference count: brute force counts each path twice (once per
        // orientation); enumerate counts once.
        let brute = brute_force_paths(&g, 0, 0, 2);
        prop_assert_eq!(pp.path_count() * 2, brute.len());
    }

    #[test]
    fn path_count_monotone_in_l(
        enc in edges_strategy(4),
        ue in edges_strategy(4),
        uc in edges_strategy(4),
    ) {
        let db = build_db(4, &enc, &ue, &uc);
        let g = DataGraph::from_db(&db).unwrap();
        let schema = SchemaGraph::from_db(&db);
        let mut prev = 0;
        for l in 1..=4 {
            let n = enumerate_pair_paths(&g, &schema, 0, 2, l).path_count();
            prop_assert!(n >= prev, "l={l}: {n} < {prev}");
            prev = n;
        }
    }

    #[test]
    fn every_path_is_filed_under_its_own_walk(
        enc in edges_strategy(5),
        ue in edges_strategy(5),
        uc in edges_strategy(5),
        sim in edges_strategy(5),
        from in 0u16..3,
        to in 0u16..3,
        l in 1usize..=4,
    ) {
        // With a P–P self-relationship in the schema, so that a walk may
        // step from an entity set to itself.
        let db = build_db_with_similar(5, &enc, &ue, &uc, Some(&sim));
        let g = DataGraph::from_db(&db).unwrap();
        let schema = SchemaGraph::from_db(&db);
        let auto = WalkAutomaton::new(&schema, from, to, l);
        let mut got = std::collections::HashSet::new();
        for &a in g.nodes_of_type(from) {
            let mut rec = WalkRecorder::default();
            ts_graph::paths_from_into(&g, &auto, a, &mut rec);
            for (nodes, rels, walk) in rec.0 {
                let w = &auto.accepted_walks()[walk as usize];
                let types: Vec<u16> = nodes.iter().map(|&n| g.node_type(n)).collect();
                prop_assert_eq!(&w.types, &types, "walk {} of path {:?}", walk, nodes);
                prop_assert_eq!(&w.rels, &rels, "walk {} of path {:?}", walk, nodes);
                got.insert((nodes[0], *nodes.last().unwrap(), rels, nodes));
            }
        }
        // And the automaton still enumerates exactly the simple paths.
        prop_assert_eq!(got, brute_force_paths(&g, from, to, l));
    }

}

#[test]
fn automaton_accepts_exactly_the_schema_walks() {
    // Every (from, to, l) on the P/U/D schema, with and without a P–P
    // self-relationship: the accepting walks, in walk-id order, are
    // `SchemaGraph::walks` in its order.
    for similar in [None, Some(&[][..])] {
        let db = build_db_with_similar(1, &[], &[], &[], similar);
        let schema = SchemaGraph::from_db(&db);
        for (from, to, l) in
            (0u16..3).flat_map(|f| (0u16..3).flat_map(move |t| (1..=5).map(move |l| (f, t, l))))
        {
            let auto = WalkAutomaton::new(&schema, from, to, l);
            assert_eq!(
                auto.accepted_walks(),
                schema.walks(from, to, l).as_slice(),
                "{from}->{to} l={l}"
            );
        }
    }
}
