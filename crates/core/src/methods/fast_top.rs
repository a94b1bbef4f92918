//! The Fast-Top method (§4.3): LeftTops join plus online checks for the
//! pruned topologies.
//!
//! The paper's SQL1: the top sub-query computes the unpruned topology
//! results as in Full-Top (but against the much smaller LeftTops table);
//! one lower sub-query per pruned topology checks whether some pair
//! satisfies the constraints, is related by the pruned topology's path,
//! and is not an exception — that is, has the topology in AllTops.

use ts_exec::Work;

use crate::methods::common::{online_path_check, orient, CheckScratch};
use crate::methods::{full_top, Evaluated, Plan, QueryContext, Variant};
use crate::query::TopologyQuery;

/// Evaluate with this strategy (reached through [`crate::methods::Method::eval`]).
pub fn eval(ctx: &QueryContext<'_>, q: &TopologyQuery, work: &Work) -> Evaluated {
    let table = Variant::Fast;

    // Top sub-query: unpruned topologies from LeftTops.
    let (mut tids, sel) = full_top::distinct_tids(ctx, q, table, work);

    // Lower sub-queries: one online path check per pruned topology of
    // this espair, over the selection the top sub-query evaluated.
    let pruned = ctx.catalog.pruned_ids(orient(q).espair);
    let mut scratch = CheckScratch::default();
    for &tid in pruned {
        if work.interrupted() {
            break;
        }
        if online_path_check(ctx, tid, &sel, &mut scratch, work) {
            // A result row like the merge's: kept only once paid for.
            work.count_row();
            if work.interrupted() {
                break;
            }
            tids.push(tid);
        }
    }
    // Pruned topologies have no LeftTops rows: nothing to dedup.
    tids.sort_unstable();

    let plan = Plan::Regular { table, ranked: false, checks: pruned.len() };
    (tids.into_iter().map(|t| (t, 0.0)).collect(), plan.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::common::fixture::{enzyme_mrna, Fig3};
    use crate::methods::Method;
    use ts_graph::fixtures::{DNA, PROTEIN};
    use ts_storage::Predicate;

    /// Fast-Top must produce exactly Full-Top's answer regardless of the
    /// pruning threshold — the central correctness property of §4.
    #[test]
    fn fast_top_equals_full_top_at_any_threshold() {
        let queries = [
            enzyme_mrna(),
            TopologyQuery::new(PROTEIN, Predicate::True, DNA, Predicate::True, 3),
            TopologyQuery::new(PROTEIN, Predicate::contains(1, "vitamin"), DNA, Predicate::True, 3),
        ];
        for threshold in [0, 1, 2, u64::MAX] {
            let f = Fig3::pruned_at(threshold);
            let ctx = f.ctx();
            for q in &queries {
                let fast = Method::FastTop.eval(&ctx, q);
                let full = Method::FullTop.eval(&ctx, q);
                assert_eq!(fast.tid_set(), full.tid_set(), "threshold={threshold} query={q:?}");
            }
        }
    }

    #[test]
    fn exception_pair_not_claimed_by_pruned_check() {
        // Select ONLY protein 78 and DNA 215. Their topologies are T3/T4;
        // the pruned P-U-D topology must NOT be reported even though a
        // P-U-D path exists between them (exception table blocks it).
        let f = Fig3::pruned_at(0);
        let ctx = f.ctx();
        let q = TopologyQuery::new(
            PROTEIN,
            Predicate::contains(1, "MMS2"), // only protein 78
            DNA,
            Predicate::contains(2, "MMS2"), // only DNA 215
            3,
        );
        let out = Method::FastTop.eval(&ctx, &q);
        for &(tid, _) in &out.topologies {
            let meta = ctx.catalog.meta(tid);
            assert!(
                meta.path_sig.is_none() || meta.path_sig.as_ref().map(|s| s.len()) == Some(1),
                "P-U-D simple topology wrongly claimed for (78, 215)"
            );
        }
        // And the true complex topologies are found (they live in LeftTops).
        assert_eq!(out.tid_set().len(), 2); // T3, T4
    }

    #[test]
    fn detail_reports_pruned_check_count() {
        let f = Fig3::pruned_at(0);
        let ctx = f.ctx();
        let q = TopologyQuery::new(PROTEIN, Predicate::True, DNA, Predicate::True, 3);
        let out = Method::FastTop.eval(&ctx, &q);
        assert!(
            matches!(out.detail.plan, Plan::Regular { table: Variant::Fast, checks: 2, .. }),
            "two P-D path topologies pruned: {:?}",
            out.detail
        );
        assert_eq!(out.detail.to_string(), "LeftTops partition merge UNION 2 online path checks");
    }
}
