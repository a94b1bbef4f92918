//! End-to-end integration: generator → offline build → all nine methods
//! agree, with the paper's cost separations visible at database scale.

use topology_search::prelude::*;
use ts_biozon::{selectivity_predicate, Selectivity};
use ts_core::methods::{et, EtPlanKind, Variant};
use ts_core::PruneOptions;

struct Env {
    biozon: ts_biozon::Biozon,
    graph: ts_graph::DataGraph,
    schema: ts_graph::SchemaGraph,
    catalog: ts_core::Catalog,
}

fn env() -> Env {
    let biozon = biozon::generate(&biozon::BiozonConfig::default().scaled(0.15));
    let graph = graph::DataGraph::from_db(&biozon.db).expect("consistent");
    let schema = graph::SchemaGraph::from_db(&biozon.db);
    let pairs = vec![
        EsPair::new(biozon.ids.protein, biozon.ids.dna),
        EsPair::new(biozon.ids.protein, biozon.ids.interaction),
        EsPair::new(biozon.ids.protein, biozon.ids.unigene),
        EsPair::new(biozon.ids.dna, biozon.ids.interaction),
        EsPair::new(biozon.ids.dna, biozon.ids.unigene),
    ];
    let opts = ComputeOptions { es_pairs: Some(pairs), ..ComputeOptions::with_l(3) };
    let (mut catalog, _) = compute_catalog(&biozon.db, &graph, &schema, &opts);
    prune_catalog(&mut catalog, PruneOptions { threshold: 20, max_pruned: 32 });
    score_catalog(&mut catalog, &biozon::domain_scorer(&biozon.ids));
    Env { biozon, graph, schema, catalog }
}

fn ctx(e: &Env) -> QueryContext<'_> {
    QueryContext { db: &e.biozon.db, graph: &e.graph, schema: &e.schema, catalog: &e.catalog }
}

#[test]
fn all_methods_agree_across_the_selectivity_grid() {
    let e = env();
    let ctx = ctx(&e);
    for ps in Selectivity::all() {
        for is in Selectivity::all() {
            for scheme in RankScheme::all() {
                let q = TopologyQuery::new(
                    e.biozon.ids.protein,
                    selectivity_predicate(ps),
                    e.biozon.ids.interaction,
                    selectivity_predicate(is),
                    3,
                )
                .with_k(10)
                .with_scheme(scheme);

                // Non-ranked methods agree on the full result set.
                let full = Method::FullTop.eval(&ctx, &q);
                let fast = Method::FastTop.eval(&ctx, &q);
                assert_eq!(full.tid_set(), fast.tid_set(), "{ps}/{is}/{scheme} full vs fast");

                // Ranked methods agree with each other.
                let reference = Method::FullTopK.eval(&ctx, &q);
                for m in [
                    Method::FastTopK,
                    Method::FullTopKEt,
                    Method::FastTopKEt,
                    Method::FullTopKOpt,
                    Method::FastTopKOpt,
                ] {
                    let out = m.eval(&ctx, &q);
                    assert_eq!(
                        out.tid_set(),
                        reference.tid_set(),
                        "{ps}/{is}/{scheme}: {} disagrees with Full-Top-k",
                        m.name()
                    );
                }

                // Ranked top-k is a subset of the full result.
                let full_set = full.tid_set();
                for tid in reference.tid_set() {
                    assert!(full_set.contains(&tid), "{ps}/{is}/{scheme}: topk not subset");
                }
            }
        }
    }
}

#[test]
fn sql_baseline_matches_and_costs_more() {
    let e = env();
    let ctx = ctx(&e);
    let q = TopologyQuery::new(
        e.biozon.ids.protein,
        selectivity_predicate(Selectivity::Selective),
        e.biozon.ids.dna,
        Predicate::eq(1, "mRNA"),
        3,
    );
    let sql = Method::Sql.eval(&ctx, &q);
    let full = Method::FullTop.eval(&ctx, &q);
    assert_eq!(sql.tid_set(), full.tid_set());
    assert!(
        sql.work > 2 * full.work,
        "SQL baseline should be clearly costlier at scale: {} vs {}",
        sql.work,
        full.work
    );
}

#[test]
fn et_does_less_work_than_full_eval_for_small_k() {
    let e = env();
    let ctx = ctx(&e);
    let q = TopologyQuery::new(
        e.biozon.ids.protein,
        selectivity_predicate(Selectivity::Unselective),
        e.biozon.ids.interaction,
        selectivity_predicate(Selectivity::Unselective),
        3,
    )
    .with_k(5);
    let topk = Method::FullTopK.eval(&ctx, &q);
    let et = Method::FullTopKEt.eval(&ctx, &q);
    assert!(
        et.work < topk.work / 2,
        "early termination should pay off at unselective predicates: {} vs {}",
        et.work,
        topk.work
    );
}

#[test]
fn idgj_and_hdgj_plans_agree() {
    let e = env();
    let ctx = ctx(&e);
    for ps in Selectivity::all() {
        let q = TopologyQuery::new(
            e.biozon.ids.protein,
            selectivity_predicate(ps),
            e.biozon.ids.dna,
            Predicate::True,
            3,
        )
        .with_k(10);
        let (i, _) = et::eval(&ctx, &q, Variant::Fast, EtPlanKind::Idgj, &exec::Work::new());
        let (h, _) = et::eval(&ctx, &q, Variant::Fast, EtPlanKind::Hdgj, &exec::Work::new());
        assert_eq!(i, h, "{ps}: IDGJ vs HDGJ");
    }
}

#[test]
fn pruning_thresholds_never_change_answers() {
    let e = env();
    let q = TopologyQuery::new(
        e.biozon.ids.protein,
        selectivity_predicate(Selectivity::Medium),
        e.biozon.ids.dna,
        Predicate::True,
        3,
    );
    let mut reference: Option<Vec<u32>> = None;
    for threshold in [0u64, 5, 50, u64::MAX] {
        let mut cat = e.catalog.clone();
        prune_catalog(&mut cat, PruneOptions { threshold, max_pruned: 64 });
        let ctx =
            QueryContext { db: &e.biozon.db, graph: &e.graph, schema: &e.schema, catalog: &cat };
        let out = Method::FastTop.eval(&ctx, &q);
        match &reference {
            None => reference = Some(out.tid_set()),
            Some(r) => assert_eq!(*r, out.tid_set(), "threshold {threshold} changed the answer"),
        }
    }
}

#[test]
fn varying_k_is_a_prefix_chain() {
    let e = env();
    let ctx = ctx(&e);
    let base = TopologyQuery::new(
        e.biozon.ids.protein,
        selectivity_predicate(Selectivity::Medium),
        e.biozon.ids.interaction,
        selectivity_predicate(Selectivity::Medium),
        3,
    )
    .with_scheme(RankScheme::Domain);
    let big = Method::FastTopKEt.eval(&ctx, &base.clone().with_k(20));
    for k in [1usize, 5, 10] {
        let small = Method::FastTopKEt.eval(&ctx, &base.clone().with_k(k));
        let expected: Vec<(u32, f64)> =
            big.topologies.iter().take(k.min(big.topologies.len())).cloned().collect();
        assert_eq!(small.topologies, expected, "k={k} must be a prefix of k=20");
    }
}
