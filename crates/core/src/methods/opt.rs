//! Full-Top-k-Opt and Fast-Top-k-Opt (§5.4): cost-based choice between
//! the sort-based top-k plan and the early-termination DGJ plan.
//!
//! The choice is exactly the paper's: estimate the cost of the regular
//! plan (both σ scans, the espair's partition of the tops table, sort
//! and fetch-k) and the Theorem-1 expected cost of the DGJ stack, run
//! the cheaper. The estimates consume only catalog statistics
//! (cardinalities, predicate selectivities from `ts-storage` stats,
//! per-topology frequencies as group cardinalities).

use ts_exec::Work;
use ts_optimizer::{et_stack_cost, DgjOpParams, DgjStackParams};

use crate::methods::common::{entity_table, orient};
use crate::methods::full_top::regular_plan_cost;
use crate::methods::{et, topk, EtPlanKind, Evaluated, OptChoice, PlanNote, QueryContext, Variant};
use crate::query::TopologyQuery;

/// Evaluate with this strategy (reached through [`crate::methods::Method::eval`]).
pub fn eval(ctx: &QueryContext<'_>, q: &TopologyQuery, table: Variant, work: &Work) -> Evaluated {
    let o = orient(q);
    let (from_table, _) = entity_table(ctx, o.espair.from);
    let (to_table, _) = entity_table(ctx, o.espair.to);

    let rho_from =
        from_table.stats().map(|s| o.con_from.selectivity(s)).unwrap_or(0.5).clamp(1e-6, 1.0);
    let rho_to = to_table.stats().map(|s| o.con_to.selectivity(s)).unwrap_or(0.5).clamp(1e-6, 1.0);

    let skip_pruned = table == Variant::Fast;
    // Group cardinalities in score order: LeftTops rows per topology.
    let groups: Vec<f64> = ctx
        .catalog
        .ranked_ids(q.scheme, o.espair)
        .iter()
        .map(|&tid| ctx.catalog.meta(tid))
        .filter(|m| !(skip_pruned && m.pruned))
        .map(|m| m.freq as f64)
        .collect();
    let m = groups.len() as f64;
    let total_rows: f64 = groups.iter().sum();

    // ET cost: Theorem 1 over the two entity joins, plus streaming the
    // TopInfo rows. Probe costs are calibrated to the engine: each tuple
    // examined by an IDGJ level costs an index probe plus ~2 iterator
    // ticks (emit + downstream pull/filter).
    const TUPLE_OVERHEAD: f64 = 2.0;
    let stack = DgjStackParams {
        ops: vec![
            DgjOpParams { fanout: 1.0, rho: rho_from, probe_cost: 1.0 + TUPLE_OVERHEAD },
            DgjOpParams { fanout: 1.0, rho: rho_to, probe_cost: 1.0 + TUPLE_OVERHEAD },
        ],
        groups,
    };
    let et_cost = et_stack_cost(&stack, q.k) + m;

    // Regular plan cost: the plan `full_top::distinct_tids` would run
    // over the espair's partition (the groups are exactly its rows),
    // carrying the join output to the sort, plus the sort's input.
    let join_rows = total_rows * rho_from * rho_to;
    let mut regular_cost = regular_plan_cost(from_table, to_table, total_rows, join_rows) + m;
    if table == Variant::Fast {
        // Gated pruned checks: each pruned topology may walk the selected
        // from-side, but the first-witness early exit usually stops far
        // sooner (factor 0.25, calibrated against the engine).
        let pruned = ctx.catalog.pruned_ids(o.espair).len() as f64;
        regular_cost += 0.25 * pruned * from_table.len() as f64 * rho_from;
    }

    let choice = OptChoice { et_cost, regular_cost };
    let (results, inner) = if choice.chose_et() {
        et::eval(ctx, q, table, EtPlanKind::Idgj, work)
    } else {
        topk::eval(ctx, q, table, work)
    };
    (results, PlanNote { opt: Some(choice), ..inner })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::common::fixture::{enzyme_mrna, Fig3};
    use crate::methods::{Method, Plan};
    use crate::query::RankScheme;
    use ts_graph::fixtures::{DNA, PROTEIN};
    use ts_storage::Predicate;

    #[test]
    fn opt_matches_both_candidate_plans() {
        let f = Fig3::pruned_at(0);
        let ctx = f.ctx();
        for scheme in RankScheme::all() {
            let q = enzyme_mrna().with_scheme(scheme);
            let o = Method::FastTopKOpt.eval(&ctx, &q);
            let base = Method::FastTopK.eval(&ctx, &q);
            assert_eq!(o.tid_set(), base.tid_set(), "scheme={scheme}");
            let choice = o.detail.opt.expect("*Opt records its decision");
            assert_eq!(choice.chose_et(), matches!(o.detail.plan, Plan::Et { .. }));
            assert!(o.detail.to_string().starts_with("opt chose"));
            assert_eq!(o.method, Method::FastTopKOpt);
        }
    }

    #[test]
    fn full_variant_reports_method() {
        let f = Fig3::pruned_at(0);
        let ctx = f.ctx();
        let q = TopologyQuery::new(PROTEIN, Predicate::True, DNA, Predicate::True, 3);
        let o = Method::FullTopKOpt.eval(&ctx, &q);
        assert_eq!(o.method, Method::FullTopKOpt);
    }
}
