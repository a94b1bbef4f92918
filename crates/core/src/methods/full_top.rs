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

use std::time::Instant;

use ts_exec::{
    batch_collect_all_budgeted, BatchDistinct, BatchHashJoin, BatchTableScan, BoxedBatchOp, Work,
};
use ts_storage::Predicate;

use crate::methods::common::{entity_table, orient};
use crate::methods::{EvalOutcome, Method, QueryContext};
use crate::query::TopologyQuery;

/// Evaluate with this strategy (also reachable via [`crate::methods::Method::eval`]).
pub fn eval(ctx: &QueryContext<'_>, q: &TopologyQuery, work: Work) -> EvalOutcome {
    // lint: allow(nondeterministic-source): wall-clock timing statistic only;
    // it lands in the outcome's millis field and never reaches catalog bytes
    let start = Instant::now();
    let tids = distinct_tids(ctx, q, &ctx.catalog.alltops, &work);
    EvalOutcome {
        method: Method::FullTop,
        topologies: tids.into_iter().map(|t| (t, 0.0)).collect(),
        work: work.get(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        detail: "DISTINCT(HASH(HASH(AllTops, σE1), σE2)).TID".into(),
        exhausted: work.exhausted(),
    }
}

/// The shared join pipeline over a topology-pairs table (AllTops for
/// Full-Top, LeftTops for Fast-Top): distinct TIDs of rows whose E1/E2
/// entities satisfy the oriented constraints.
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
    tops_table: &ts_storage::Table,
    work: &Work,
) -> Vec<crate::catalog::TopologyId> {
    let o = orient(q);
    let (from_table, from_pk) = entity_table(ctx, o.espair.from);
    let (to_table, to_pk) = entity_table(ctx, o.espair.to);

    // Cost-based plan choice from catalog statistics.
    let rho_from = from_table.stats().map(|s| o.con_from.selectivity(s)).unwrap_or(1.0);
    let est_selected = rho_from * from_table.len() as f64;
    let rows = tops_table.len() as f64;
    let distinct_e1 =
        tops_table.stats().map(|s| s.distinct(0).max(1) as f64).unwrap_or(rows.max(1.0));
    let est_index_cost =
        from_table.len() as f64 + to_table.len() as f64 + est_selected * (1.0 + rows / distinct_e1);
    let est_hash_cost = rows + from_table.len() as f64 + to_table.len() as f64;

    let mut tids: Vec<crate::catalog::TopologyId> = if est_index_cost < est_hash_cost {
        // Index plan: σ(from) drives E1-index probes into the tops table.
        let a_ids = crate::methods::common::selected_ids(ctx, o.espair.from, o.con_from, work);
        let b_ids = crate::methods::common::selected_ids(ctx, o.espair.to, o.con_to, work);
        let mut out = ts_storage::FastSet::default();
        for &a in &a_ids {
            if work.interrupted() {
                break;
            }
            work.tick(1); // index probe
            for &rid in tops_table.index_probe(0, &ts_storage::Value::Int(a)) {
                work.tick(1);
                let row = tops_table.row(rid);
                if b_ids.contains(&row.get(1).as_int()) {
                    out.insert(row.get(2).as_int() as crate::catalog::TopologyId);
                }
            }
        }
        // Hash-set order must not leak into the result: sort the ids.
        let mut v: Vec<crate::catalog::TopologyId> = out.into_iter().collect();
        v.sort_unstable();
        v
    } else {
        // Hash plan: Scan(tops) ⋈E1=pk σ(from) ⋈E2=pk σ(to), distinct TID.
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
            .map(|r| r.get(2).as_int() as crate::catalog::TopologyId)
            .collect()
    };
    tids.sort_unstable();
    tids.dedup();
    tids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{compute_catalog, ComputeOptions};
    use crate::query::TopologyQuery;
    use ts_graph::fixtures::{figure3, DNA, PROTEIN};
    use ts_graph::{DataGraph, SchemaGraph};
    use ts_storage::Database;

    fn setup() -> (Database, DataGraph, SchemaGraph, crate::Catalog) {
        let (db, g, schema) = figure3();
        let (cat, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
        (db, g, schema, cat)
    }

    #[test]
    fn example_query_returns_t1_to_t4() {
        // §2.2: Q = {(Protein, desc.ct('enzyme')), (DNA, type='mRNA')}
        // selects proteins {32, 78, 44} and all three DNAs; the topology
        // result is {T1, T2, T3, T4}.
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = TopologyQuery::new(
            PROTEIN,
            Predicate::contains(1, "enzyme"),
            DNA,
            Predicate::eq(1, "mRNA"),
            3,
        );
        let out = eval(&ctx, &q, Work::new());
        assert_eq!(out.tid_set().len(), 4, "expected T1..T4: {:?}", out.topologies);
        assert!(out.work > 0);
    }

    #[test]
    fn selective_constraint_narrows_result() {
        // Only protein 34 ("vitamin D inducible protein") — its only pair
        // is (34, 215) wait: 34 encodes 215 and 34-u103... pairs (34,215)
        // via encodes and via u103; that pair's topologies are computed
        // from both paths.
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q =
            TopologyQuery::new(PROTEIN, Predicate::contains(1, "vitamin"), DNA, Predicate::True, 3);
        let out = eval(&ctx, &q, Work::new());
        assert!(!out.topologies.is_empty());
        assert!(out.tid_set().len() < 4);
    }

    #[test]
    fn empty_selection_yields_empty_result() {
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = TopologyQuery::new(
            PROTEIN,
            Predicate::contains(1, "nonexistent-keyword"),
            DNA,
            Predicate::True,
            3,
        );
        let out = eval(&ctx, &q, Work::new());
        assert!(out.topologies.is_empty());
    }

    #[test]
    fn query_orientation_is_symmetric() {
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q1 = TopologyQuery::new(
            PROTEIN,
            Predicate::contains(1, "enzyme"),
            DNA,
            Predicate::eq(1, "mRNA"),
            3,
        );
        let q2 = TopologyQuery::new(
            DNA,
            Predicate::eq(1, "mRNA"),
            PROTEIN,
            Predicate::contains(1, "enzyme"),
            3,
        );
        assert_eq!(eval(&ctx, &q1, Work::new()).tid_set(), eval(&ctx, &q2, Work::new()).tid_set());
    }
}
