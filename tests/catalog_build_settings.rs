//! A catalog holds the topologies its build formed: under a weak policy
//! (§6.2.3) only those of the paths the policy keeps, and under tighter
//! product bounds (`TopOptions`) only those of the combinations inside
//! them. The readers that re-derive topologies from the base data must
//! apply the same settings, or they find topologies the catalog never
//! formed and miss the ones it did: `SQL` re-derives each candidate's
//! topologies, and instance retrieval (§6.2.4) each pair's witness.
//!
//! On Fig. 3 with the P-U-P-D walk banned, pair (78, 215) keeps only its
//! two P-U-D paths, so its topology is T2 and no longer T3 or T4.

use topology_search::prelude::*;
use ts_core::instances::retrieve_instances;
use ts_core::{TopOptions, WeakPolicy};
use ts_exec::Work;
use ts_graph::canonical_code;
use ts_graph::fixtures::{figure3, DNA, PROTEIN, UNIGENE};
use ts_storage::Database;

struct Fixture {
    db: Database,
    graph: graph::DataGraph,
    schema: graph::SchemaGraph,
    catalog: Catalog,
}

impl Fixture {
    /// Build `db`'s catalog under `opts`, prune it at `threshold` and
    /// score it.
    fn build(
        (db, graph, schema): (Database, graph::DataGraph, graph::SchemaGraph),
        opts: &ComputeOptions,
        threshold: u64,
    ) -> Fixture {
        let (mut catalog, _) = compute_catalog(&db, &graph, &schema, opts);
        prune_catalog(&mut catalog, PruneOptions { threshold, max_pruned: 64 });
        score_catalog(&mut catalog, &ts_core::DomainScorer::default());
        Fixture { db, graph, schema, catalog }
    }

    /// Fig. 3 at l = 3 with P-U-P-D banned, pruned at `threshold`.
    fn without_pupd(threshold: u64) -> Fixture {
        let mut policy = WeakPolicy::new();
        policy.ban_walk(&[PROTEIN, UNIGENE, PROTEIN, DNA], &[1, 1, 0]);
        let opts = ComputeOptions { weak_policy: Some(policy), ..ComputeOptions::with_l(3) };
        let f = Fixture::build(figure3(), &opts, threshold);
        let pd = EsPair::new(PROTEIN, DNA);
        assert_eq!(f.catalog.topologies_for(pd).len(), 3, "the ban leaves T1, T2 and the triangle");
        f
    }

    fn ctx(&self) -> QueryContext<'_> {
        QueryContext {
            db: &self.db,
            graph: &self.graph,
            schema: &self.schema,
            catalog: &self.catalog,
        }
    }

    /// Every method's answer to `q` (with `k` past the result) is
    /// Full-Top's, which is returned.
    fn assert_methods_agree(&self, q: &TopologyQuery, label: &str) -> Vec<ts_core::TopologyId> {
        let ctx = self.ctx();
        let q = q.clone().with_k(1_000_000);
        let want = Method::FullTop.eval(&ctx, &q).tid_set();
        for m in Method::all() {
            assert_eq!(m.eval(&ctx, &q).tid_set(), want, "{label}: {}", m.name());
        }
        want
    }
}

#[test]
fn sql_answers_under_the_catalogs_weak_policy() {
    for threshold in [0, u64::MAX] {
        let f = Fixture::without_pupd(threshold);
        for protein in [32i64, 34, 44, 78] {
            let q = TopologyQuery::new(PROTEIN, Predicate::eq(0, protein), DNA, Predicate::True, 3);
            let got =
                f.assert_methods_agree(&q, &format!("protein {protein}, threshold {threshold}"));
            assert!(!got.is_empty(), "protein {protein} has a DNA pair");
        }
    }
}

#[test]
fn every_related_pair_yields_a_witness_under_the_catalogs_weak_policy() {
    let f = Fixture::without_pupd(u64::MAX);
    let ctx = f.ctx();
    let tops = f.catalog.topologies_for(EsPair::new(PROTEIN, DNA));
    assert!(tops.iter().any(|&t| f.catalog.meta(t).freq > 1), "a topology shared by two pairs");
    for tid in tops {
        let meta = f.catalog.meta(tid);
        let found = retrieve_instances(&ctx, tid, 100, &Work::new());
        assert_eq!(found.len() as u64, meta.freq, "topology {tid}");
        for inst in found {
            assert_eq!(canonical_code(&inst.graph), meta.code, "topology {tid}");
            assert_eq!(inst.entities.len(), inst.graph.node_count());
            assert!(inst.entities.contains(&inst.e1) && inst.entities.contains(&inst.e2));
        }
    }
}

/// One representative per class and one combination per pair: a
/// truncated pair keeps only its first union's topology, and `SQL` must
/// not find the others in it. At l = 3 the instance has pairs whose
/// other unions are topologies the catalog holds from other pairs.
#[test]
fn sql_answers_under_the_catalogs_product_bounds() {
    let mut cfg = biozon::BiozonConfig::default().scaled(0.12);
    cfg.seed = 1;
    let biozon = biozon::generate(&cfg);
    let graph = graph::DataGraph::from_db(&biozon.db).expect("generator is consistent");
    let schema = graph::SchemaGraph::from_db(&biozon.db);
    let (p, d, u) = (biozon.ids.protein, biozon.ids.dna, biozon.ids.unigene);
    let opts = ComputeOptions {
        es_pairs: Some(vec![EsPair::new(p, d), EsPair::new(p, u)]),
        top_opts: TopOptions { max_reps_per_class: 1, max_product: 1 },
        ..ComputeOptions::with_l(3)
    };
    let f = Fixture::build((biozon.db, graph, schema), &opts, u64::MAX);
    assert!(f.catalog.truncated_pairs > 0);
    let sel = || biozon::selectivity_predicate(biozon::Selectivity::Selective);
    let med = || biozon::selectivity_predicate(biozon::Selectivity::Medium);
    for (label, q) in [
        ("P–D sel/all", TopologyQuery::new(p, sel(), d, Predicate::True, 3)),
        ("P–D med/all", TopologyQuery::new(p, med(), d, Predicate::True, 3)),
        ("P–U all/sel", TopologyQuery::new(p, Predicate::True, u, sel(), 3)),
        ("P–U med/sel", TopologyQuery::new(p, med(), u, sel(), 3)),
    ] {
        f.assert_methods_agree(&q, label);
    }
}
