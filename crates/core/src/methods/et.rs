//! Full-Top-k-ET and Fast-Top-k-ET (§5.3): early-termination evaluation
//! with Distinct Group Join operator stacks.
//!
//! The plan is Fig. 15 of the paper: topologies stream out of TopInfo in
//! score order; a DGJ joins each topology's LeftTops rows; further DGJs
//! join the selected E1/E2 entities. The moment one row of a topology
//! survives all joins and predicates, the topology provably exists for
//! the query — the driver records it and skips the rest of its group;
//! after k distinct topologies, evaluation stops entirely.

use ts_exec::{
    batch_collect_distinct_topk_budgeted, BatchHdgj, BatchIdgj, BatchKeyScan, BatchPkSemiJoin,
    BatchTableScan, BoxedBatchOp, Work,
};

use ts_storage::cast;

use crate::catalog::TopologyId;
use crate::methods::common::{entity_table, orient};
use crate::methods::{topk, EtPlanKind, Evaluated, Plan, QueryContext, Variant};
use crate::query::TopologyQuery;

/// Evaluate with this strategy (reached through [`crate::methods::Method::eval`],
/// which always stacks IDGJs).
pub fn eval(
    ctx: &QueryContext<'_>,
    q: &TopologyQuery,
    table: Variant,
    dgj: EtPlanKind,
    work: &Work,
) -> Evaluated {
    let o = orient(q);
    let (tops_table, _) = ctx.catalog.partition(table, o.espair);
    // Pruned topologies have no LeftTops rows.
    let skip_pruned = table == Variant::Fast;
    let (from_table, from_pk) = entity_table(ctx, o.espair.from);
    let (to_table, to_pk) = entity_table(ctx, o.espair.to);

    // TopInfo in score order (the index scan at the bottom of Fig. 15),
    // read lazily: a plan that stops after k groups never looks at the
    // rest.
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
    let mut top: BoxedBatchOp<'_> = match dgj {
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
    let mut results: Vec<(TopologyId, f64)> =
        batch_collect_distinct_topk_budgeted(top.as_mut(), 0, q.k, work)
            .iter()
            .map(|r| {
                let tid = cast::int_to_u32(r.get(0).as_int());
                (tid, catalog.meta(tid).scores[q.scheme.index()])
            })
            .collect();

    let checks = match table {
        Variant::Full => 0,
        Variant::Fast => topk::gate_pruned(ctx, q, &mut results, None, work),
    };
    (results, Plan::Et { table, dgj, checks }.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::common::fixture::{enzyme_mrna, Fig3};
    use crate::methods::Method;
    use crate::query::RankScheme;

    #[test]
    fn et_matches_topk_all_variants_schemes_and_ks() {
        for threshold in [0u64, u64::MAX] {
            let f = Fig3::pruned_at(threshold);
            let ctx = f.ctx();
            for scheme in RankScheme::all() {
                for k in [1, 2, 10] {
                    let q = enzyme_mrna().with_k(k).with_scheme(scheme);
                    let base_full = Method::FullTopK.eval(&ctx, &q);
                    let base_fast = Method::FastTopK.eval(&ctx, &q);
                    for plan in [EtPlanKind::Idgj, EtPlanKind::Hdgj] {
                        for (table, base) in
                            [(Variant::Full, &base_full), (Variant::Fast, &base_fast)]
                        {
                            let (rows, _) = eval(&ctx, &q, table, plan, &Work::new());
                            let mut tids: Vec<TopologyId> = rows.iter().map(|r| r.0).collect();
                            tids.sort_unstable();
                            assert_eq!(
                                tids,
                                base.tid_set(),
                                "{table:?} threshold={threshold} scheme={scheme} k={k} plan={plan:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn et_scores_are_descending() {
        let f = Fig3::pruned_at(u64::MAX);
        let ctx = f.ctx();
        let q = enzyme_mrna().with_scheme(RankScheme::Domain);
        let out = Method::FullTopKEt.eval(&ctx, &q);
        for w in out.topologies.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn small_k_stops_early() {
        let f = Fig3::pruned_at(u64::MAX);
        let ctx = f.ctx();
        let q_all = enzyme_mrna().with_k(100);
        let q_one = enzyme_mrna().with_k(1);
        let all = Method::FullTopKEt.eval(&ctx, &q_all);
        let one = Method::FullTopKEt.eval(&ctx, &q_one);
        assert!(one.work <= all.work, "k=1 must not do more work: {} vs {}", one.work, all.work);
        assert_eq!(one.topologies.len(), 1);
    }
}
