//! The Full-Top method (§3.2): query the precomputed AllTops table.
//!
//! The paper's SQL:
//!
//! ```sql
//! SELECT distinct AT.TID
//! FROM Protein P, DNA D, AllTops AT
//! WHERE P.desc.ct('enzyme') and D.type = 'mRNA'
//!   and P.ID = AT.E1 and D.ID = AT.E2
//! ```
//!
//! executed here as the plan the commercial systems chose (Fig. 14):
//! scan AllTops, hash-join with the selected E1-side entities, hash-join
//! with the selected E2-side entities, distinct on TID.

use ts_exec::{
    batch_collect_all_budgeted, BatchDistinct, BatchHashJoin, BatchTableScan, BoxedBatchOp, Work,
};
use ts_storage::{FastSet, Predicate, Table, Value};

use crate::catalog::TopologyId;
use crate::methods::common::{entity_table, orient, selected_ids};
use crate::methods::{Evaluated, Plan, QueryContext, RegularPlan, Variant};
use crate::query::TopologyQuery;

/// Evaluate with this strategy (reached through [`crate::methods::Method::eval`]).
pub fn eval(ctx: &QueryContext<'_>, q: &TopologyQuery, work: &Work) -> Evaluated {
    let table = Variant::Full;
    let (tids, join) = distinct_tids(ctx, q, table.tops_table(ctx.catalog), work);
    let plan = Plan::Regular { table, join, ranked: false, checks: 0 };
    (tids.into_iter().map(|t| (t, 0.0)).collect(), plan.into())
}

/// The one hash-vs-index estimate for the regular plan (see
/// [`distinct_tids`]), from catalog statistics: the cheaper physical
/// form and its cost in work units. [`distinct_tids`] calls it to *run*
/// that form, the optimizer (`opt::eval`) to *price* it. `rho_from` is
/// the caller's selectivity estimate for the E1-side constraint,
/// `join_rows` the join output the hash plan carries to the top (the
/// optimizer prices it; the plan run ignores it).
pub(crate) fn regular_plan_cost(
    from_table: &Table,
    to_table: &Table,
    tops_table: &Table,
    rho_from: f64,
    join_rows: f64,
) -> (RegularPlan, f64) {
    let rows = tops_table.len() as f64;
    let distinct_e1 =
        tops_table.stats().map(|s| s.distinct(0).max(1) as f64).unwrap_or(rows.max(1.0));
    let scan_sides = from_table.len() as f64 + to_table.len() as f64;
    // Scan the tops table and both entity sides ...
    let hash = rows + scan_sides + join_rows;
    // ... or scan both sides and probe the E1 index per selected entity.
    let index = scan_sides + rho_from * from_table.len() as f64 * (1.0 + rows / distinct_e1);
    if index < hash {
        (RegularPlan::Index, index)
    } else {
        (RegularPlan::Hash, hash)
    }
}

/// The shared join pipeline over a topology-pairs table (AllTops for
/// Full-Top, LeftTops for Fast-Top): distinct TIDs, ascending, of rows
/// whose E1/E2 entities satisfy the oriented constraints, and which
/// physical plan produced them.
///
/// Two physical plans, chosen by estimated cost as the commercial
/// optimizers of Fig. 14 would:
///
/// * **hash plan** — scan the tops table, hash-join both selected entity
///   sides (good when predicates are unselective);
/// * **index plan** — select the E1-side entities, probe the tops
///   table's E1 index per selected entity, residual-check the E2 side
///   ("the selective predicates enable Full-Top to scan only a small
///   part of the AllTops table", §6.2.2).
pub(crate) fn distinct_tids(
    ctx: &QueryContext<'_>,
    q: &TopologyQuery,
    tops_table: &Table,
    work: &Work,
) -> (Vec<TopologyId>, RegularPlan) {
    let o = orient(q);
    let (from_table, from_pk) = entity_table(ctx, o.espair.from);
    let (to_table, to_pk) = entity_table(ctx, o.espair.to);

    let rho_from = from_table.stats().map(|s| o.con_from.selectivity(s)).unwrap_or(1.0);
    let (plan, _) = regular_plan_cost(from_table, to_table, tops_table, rho_from, 0.0);

    let mut tids: Vec<TopologyId> = match plan {
        RegularPlan::Index => {
            // σ(from) drives E1-index probes into the tops table.
            let a_ids = selected_ids(ctx, o.espair.from, o.con_from, work);
            let b_ids = selected_ids(ctx, o.espair.to, o.con_to, work);
            let mut out = FastSet::default();
            for &a in &a_ids {
                if work.interrupted() {
                    break;
                }
                work.tick(1); // index probe
                for &rid in tops_table.index_probe(0, &Value::Int(a)) {
                    work.tick(1);
                    let row = tops_table.row(rid);
                    if b_ids.contains(&row.get(1).as_int()) {
                        out.insert(row.get(2).as_int() as TopologyId);
                    }
                }
            }
            // Hash-set order must not leak into the result: sorted below.
            out.into_iter().collect()
        }
        RegularPlan::Hash => {
            // Scan(tops) ⋈E1=pk σ(from) ⋈E2=pk σ(to), distinct TID.
            let tops_scan: BoxedBatchOp<'_> =
                Box::new(BatchTableScan::new(tops_table, Predicate::True, work.clone()));
            let from_scan: BoxedBatchOp<'_> =
                Box::new(BatchTableScan::new(from_table, o.con_from.clone(), work.clone()));
            let j1: BoxedBatchOp<'_> =
                Box::new(BatchHashJoin::new(tops_scan, 0, from_scan, from_pk, work.clone()));
            let to_scan: BoxedBatchOp<'_> =
                Box::new(BatchTableScan::new(to_table, o.con_to.clone(), work.clone()));
            let j2: BoxedBatchOp<'_> =
                Box::new(BatchHashJoin::new(j1, 1, to_scan, to_pk, work.clone()));
            let mut distinct = BatchDistinct::new(j2, vec![2], work.clone());
            batch_collect_all_budgeted(&mut distinct, work)
                .into_iter()
                .map(|r| r.get(2).as_int() as TopologyId)
                .collect()
        }
    };
    tids.sort_unstable();
    tids.dedup();
    (tids, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::common::fixture::{enzyme_mrna, Fig3};
    use crate::methods::Method;
    use ts_graph::fixtures::{DNA, PROTEIN};

    #[test]
    fn example_query_returns_t1_to_t4() {
        // §2.2: Q = {(Protein, desc.ct('enzyme')), (DNA, type='mRNA')}
        // selects proteins {32, 78, 44} and all three DNAs; the topology
        // result is {T1, T2, T3, T4}.
        let f = Fig3::pruned_at(u64::MAX);
        let ctx = f.ctx();
        let q = enzyme_mrna();
        let out = Method::FullTop.eval(&ctx, &q);
        assert_eq!(out.tid_set().len(), 4, "expected T1..T4: {:?}", out.topologies);
        assert!(out.work > 0);
    }

    #[test]
    fn selective_constraint_narrows_result() {
        // Only protein 34 ("vitamin D inducible protein") — its only pair
        // is (34, 215) wait: 34 encodes 215 and 34-u103... pairs (34,215)
        // via encodes and via u103; that pair's topologies are computed
        // from both paths.
        let f = Fig3::pruned_at(u64::MAX);
        let ctx = f.ctx();
        let q =
            TopologyQuery::new(PROTEIN, Predicate::contains(1, "vitamin"), DNA, Predicate::True, 3);
        let out = Method::FullTop.eval(&ctx, &q);
        assert!(!out.topologies.is_empty());
        assert!(out.tid_set().len() < 4);
    }

    #[test]
    fn empty_selection_yields_empty_result() {
        let f = Fig3::pruned_at(u64::MAX);
        let ctx = f.ctx();
        let q = TopologyQuery::new(
            PROTEIN,
            Predicate::contains(1, "nonexistent-keyword"),
            DNA,
            Predicate::True,
            3,
        );
        let out = Method::FullTop.eval(&ctx, &q);
        assert!(out.topologies.is_empty());
    }

    #[test]
    fn query_orientation_is_symmetric() {
        let f = Fig3::pruned_at(u64::MAX);
        let ctx = f.ctx();
        let q1 = enzyme_mrna();
        let q2 = TopologyQuery::new(
            DNA,
            Predicate::eq(1, "mRNA"),
            PROTEIN,
            Predicate::contains(1, "enzyme"),
            3,
        );
        assert_eq!(
            Method::FullTop.eval(&ctx, &q1).tid_set(),
            Method::FullTop.eval(&ctx, &q2).tid_set()
        );
    }
}
