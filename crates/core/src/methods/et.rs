//! Full-Top-k-ET and Fast-Top-k-ET (§5.3): early-termination evaluation
//! with Distinct Group Join operator stacks.
//!
//! The plan is Fig. 15 of the paper: topologies stream out of TopInfo in
//! score order; a DGJ joins each topology's LeftTops rows; further DGJs
//! join the selected E1/E2 entities. The moment one row of a topology
//! survives all joins and predicates, the topology provably exists for
//! the query — the driver records it and skips the rest of its group;
//! after k distinct topologies, evaluation stops entirely.

use std::time::Instant;

use ts_exec::{
    batch_collect_distinct_topk_budgeted, BatchHdgj, BatchIdgj, BatchKeyScan, BatchPkSemiJoin,
    BatchTableScan, BoxedBatchOp, Work,
};
use ts_storage::Table;

use crate::catalog::TopologyId;
use crate::methods::common::{entity_table, orient};
use crate::methods::{topk, EvalOutcome, Method, QueryContext};
use crate::query::TopologyQuery;

/// Which precomputed table backs the method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// AllTops — Full-Top-k-ET.
    Full,
    /// LeftTops + gated pruned checks — Fast-Top-k-ET.
    Fast,
}

/// Which DGJ implementation the stack uses (the paper's Fig. 15 (a) and
/// (b); the "best and worst plans" of Table 2's selective ET cells are
/// exactly this choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtPlanKind {
    /// Index nested-loops DGJs.
    Idgj,
    /// Hash DGJs (inner re-evaluated per group).
    Hdgj,
}

/// Evaluate with this strategy (also reachable via [`crate::methods::Method::eval`]).
pub fn eval(
    ctx: &QueryContext<'_>,
    q: &TopologyQuery,
    variant: Variant,
    plan: EtPlanKind,
    work: Work,
) -> EvalOutcome {
    // lint: allow(nondeterministic-source): wall-clock timing statistic only;
    // it lands in the outcome's millis field and never reaches catalog bytes
    let start = Instant::now();
    let o = orient(q);

    let table = match variant {
        Variant::Full => &ctx.catalog.alltops,
        Variant::Fast => &ctx.catalog.lefttops,
    };
    let skip_pruned = variant == Variant::Fast;
    let mut results = run_et_plan(ctx, q, table, skip_pruned, plan, q.k, &work);

    let mut gated = 0usize;
    if variant == Variant::Fast {
        gated = topk::gate_pruned(ctx, q, &o, &mut results, &work);
    }

    EvalOutcome {
        method: match variant {
            Variant::Full => Method::FullTopKEt,
            Variant::Fast => Method::FastTopKEt,
        },
        topologies: results,
        work: work.get(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        detail: format!(
            "{} stack over {}; {gated} gated pruned checks",
            match plan {
                EtPlanKind::Idgj => "IDGJ",
                EtPlanKind::Hdgj => "HDGJ",
            },
            table.schema().name
        ),
        exhausted: work.exhausted(),
    }
}

/// Build and drive the DGJ stack, returning up to `k` `(tid, score)` in
/// score order.
pub fn run_et_plan(
    ctx: &QueryContext<'_>,
    q: &TopologyQuery,
    tops_table: &Table,
    skip_pruned: bool,
    plan: EtPlanKind,
    k: usize,
    work: &Work,
) -> Vec<(TopologyId, f64)> {
    let o = orient(q);
    let (from_table, from_pk) = entity_table(ctx, o.espair.from);
    let (to_table, to_pk) = entity_table(ctx, o.espair.to);

    // TopInfo in score order (the index scan at the bottom of Fig. 15),
    // read lazily: a plan that stops after k groups never looks at the
    // rest. Pruned topologies have no LeftTops rows.
    let catalog = ctx.catalog;
    let tids = catalog
        .ranked_ids(q.scheme, o.espair)
        .iter()
        .filter(move |&&tid| !(skip_pruned && catalog.meta(tid).pruned))
        .map(|&tid| i64::from(tid));

    let scan: BoxedBatchOp<'_> = Box::new(BatchKeyScan::new(tids, work.clone()));
    // Expand each topology into its (E1, E2, TID) rows, a few postings
    // at a time. Output: [TID, E1, E2, TID'].
    let expand: BoxedBatchOp<'_> =
        Box::new(BatchIdgj::new(scan, 0, tops_table, 2, 0, work.clone()));
    let mut top: BoxedBatchOp<'_> = match plan {
        EtPlanKind::Idgj => {
            // The plan reads only the TID of a surviving row, so the
            // entity joins just test σ on the probed entity.
            let j1: BoxedBatchOp<'_> =
                Box::new(BatchPkSemiJoin::new(expand, 1, from_table, o.con_from, work.clone()));
            Box::new(BatchPkSemiJoin::new(j1, 2, to_table, o.con_to, work.clone()))
        }
        EtPlanKind::Hdgj => {
            // HDGJ inners are σ-scans re-evaluated per group.
            let from_scan: BoxedBatchOp<'_> =
                Box::new(BatchTableScan::new(from_table, o.con_from.clone(), work.clone()));
            let j1: BoxedBatchOp<'_> =
                Box::new(BatchHdgj::new(expand, 1, from_scan, from_pk, 0, work.clone()));
            let to_scan: BoxedBatchOp<'_> =
                Box::new(BatchTableScan::new(to_table, o.con_to.clone(), work.clone()));
            Box::new(BatchHdgj::new(j1, 2, to_scan, to_pk, 0, work.clone()))
        }
    };
    batch_collect_distinct_topk_budgeted(top.as_mut(), 0, k, work)
        .iter()
        .map(|r| {
            let tid = r.get(0).as_int() as TopologyId;
            (tid, catalog.meta(tid).scores[q.scheme.index()])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{compute_catalog, ComputeOptions};
    use crate::methods::topk;
    use crate::prune::{prune_catalog, PruneOptions};
    use crate::query::RankScheme;
    use crate::score::{score_catalog, DomainScorer};
    use ts_graph::fixtures::{figure3, DNA, PROTEIN};
    use ts_storage::Predicate;

    fn setup(
        threshold: u64,
    ) -> (ts_storage::Database, ts_graph::DataGraph, ts_graph::SchemaGraph, crate::Catalog) {
        let (db, g, schema) = figure3();
        let (mut cat, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
        prune_catalog(&mut cat, PruneOptions { threshold, max_pruned: 64 });
        score_catalog(&mut cat, &DomainScorer::default());
        (db, g, schema, cat)
    }

    fn query() -> TopologyQuery {
        TopologyQuery::new(
            PROTEIN,
            Predicate::contains(1, "enzyme"),
            DNA,
            Predicate::eq(1, "mRNA"),
            3,
        )
    }

    #[test]
    fn et_matches_topk_all_variants_schemes_and_ks() {
        for threshold in [0u64, u64::MAX] {
            let (db, g, schema, cat) = setup(threshold);
            let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
            for scheme in RankScheme::all() {
                for k in [1, 2, 10] {
                    let q = query().with_k(k).with_scheme(scheme);
                    let base_full = topk::eval(&ctx, &q, topk::Variant::Full, Work::new());
                    let base_fast = topk::eval(&ctx, &q, topk::Variant::Fast, Work::new());
                    for plan in [EtPlanKind::Idgj, EtPlanKind::Hdgj] {
                        let et_full = eval(&ctx, &q, Variant::Full, plan, Work::new());
                        let et_fast = eval(&ctx, &q, Variant::Fast, plan, Work::new());
                        assert_eq!(
                            et_full.tid_set(),
                            base_full.tid_set(),
                            "full threshold={threshold} scheme={scheme} k={k} plan={plan:?}"
                        );
                        assert_eq!(
                            et_fast.tid_set(),
                            base_fast.tid_set(),
                            "fast threshold={threshold} scheme={scheme} k={k} plan={plan:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn et_scores_are_descending() {
        let (db, g, schema, cat) = setup(u64::MAX);
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = query().with_scheme(RankScheme::Domain);
        let out = eval(&ctx, &q, Variant::Full, EtPlanKind::Idgj, Work::new());
        for w in out.topologies.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn small_k_stops_early() {
        let (db, g, schema, cat) = setup(u64::MAX);
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q_all = query().with_k(100);
        let q_one = query().with_k(1);
        let w_all = eval(&ctx, &q_all, Variant::Full, EtPlanKind::Idgj, Work::new()).work;
        let w_one = eval(&ctx, &q_one, Variant::Full, EtPlanKind::Idgj, Work::new()).work;
        assert!(w_one <= w_all, "k=1 must not do more work: {w_one} vs {w_all}");
        assert_eq!(
            eval(&ctx, &q_one, Variant::Full, EtPlanKind::Idgj, Work::new()).topologies.len(),
            1
        );
    }
}
