//! Full-Top-k-Opt and Fast-Top-k-Opt (§5.4): cost-based choice between
//! the sort-based top-k plan and the early-termination DGJ plan.
//!
//! The choice is exactly the paper's: estimate the cost of the regular
//! plan (scan + hash joins + sort + fetch-k) and the Theorem-1 expected
//! cost of the DGJ stack, run the cheaper. The estimates consume only
//! catalog statistics (cardinalities, predicate selectivities from
//! `ts-storage` stats, per-topology frequencies as group cardinalities).

use ts_optimizer::{et_stack_cost, DgjOpParams, DgjStackParams};

use crate::methods::common::{entity_table, orient};
use crate::methods::{et, topk, EvalOutcome, Method, QueryContext};
use crate::query::TopologyQuery;

/// Which family the optimizer arbitrates for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Full-Top-k vs Full-Top-k-ET.
    Full,
    /// Fast-Top-k vs Fast-Top-k-ET.
    Fast,
}

/// Evaluate with this strategy (also reachable via [`crate::methods::Method::eval`]).
pub fn eval(
    ctx: &QueryContext<'_>,
    q: &TopologyQuery,
    variant: Variant,
    work: ts_exec::Work,
) -> EvalOutcome {
    let o = orient(q);
    let (from_table, _) = entity_table(ctx, o.espair.from);
    let (to_table, _) = entity_table(ctx, o.espair.to);

    let rho_from =
        from_table.stats().map(|s| o.con_from.selectivity(s)).unwrap_or(0.5).clamp(1e-6, 1.0);
    let rho_to = to_table.stats().map(|s| o.con_to.selectivity(s)).unwrap_or(0.5).clamp(1e-6, 1.0);

    let skip_pruned = variant == Variant::Fast;
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

    // Regular plan cost: the better of the hash plan (scan tops table +
    // both entity selections) and the index-driven plan (selected E1
    // entities probe the tops table's E1 index) — mirroring the plan
    // choice inside `full_top::distinct_tids`.
    let tops_table = match variant {
        Variant::Full => &ctx.catalog.alltops,
        Variant::Fast => &ctx.catalog.lefttops,
    };
    let tops_rows = tops_table.len() as f64;
    let distinct_e1 =
        tops_table.stats().map(|s| s.distinct(0).max(1) as f64).unwrap_or(tops_rows.max(1.0));
    let scan_sides = from_table.len() as f64 + to_table.len() as f64;
    let hash_cost = tops_rows + scan_sides + total_rows * rho_from * rho_to;
    let index_cost =
        scan_sides + rho_from * from_table.len() as f64 * (1.0 + tops_rows / distinct_e1);
    let mut regular_cost = hash_cost.min(index_cost) + m;
    if variant == Variant::Fast {
        // Gated pruned checks: each pruned topology may walk the selected
        // from-side, but the first-witness early exit usually stops far
        // sooner (factor 0.25, calibrated against the engine).
        let pruned = ctx.catalog.pruned_ids(o.espair).len() as f64;
        regular_cost += 0.25 * pruned * from_table.len() as f64 * rho_from;
    }

    let choose_et = et_cost < regular_cost;
    let mut out = if choose_et {
        match variant {
            Variant::Full => et::eval(ctx, q, et::Variant::Full, et::EtPlanKind::Idgj, work),
            Variant::Fast => et::eval(ctx, q, et::Variant::Fast, et::EtPlanKind::Idgj, work),
        }
    } else {
        match variant {
            Variant::Full => topk::eval(ctx, q, topk::Variant::Full, work),
            Variant::Fast => topk::eval(ctx, q, topk::Variant::Fast, work),
        }
    };
    out.detail = format!(
        "opt chose {} (ET est {:.1} vs regular est {:.1}); inner: {}",
        if choose_et { "ET" } else { "regular" },
        et_cost,
        regular_cost,
        out.detail
    );
    out.method = match variant {
        Variant::Full => Method::FullTopKOpt,
        Variant::Fast => Method::FastTopKOpt,
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{compute_catalog, ComputeOptions};
    use crate::prune::{prune_catalog, PruneOptions};
    use crate::query::RankScheme;
    use crate::score::{score_catalog, DomainScorer};
    use ts_graph::fixtures::{figure3, DNA, PROTEIN};
    use ts_storage::Predicate;

    fn setup() -> (ts_storage::Database, ts_graph::DataGraph, ts_graph::SchemaGraph, crate::Catalog)
    {
        let (db, g, schema) = figure3();
        let (mut cat, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
        prune_catalog(&mut cat, PruneOptions { threshold: 0, max_pruned: 64 });
        score_catalog(&mut cat, &DomainScorer::default());
        (db, g, schema, cat)
    }

    #[test]
    fn opt_matches_both_candidate_plans() {
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        for scheme in RankScheme::all() {
            let q = TopologyQuery::new(
                PROTEIN,
                Predicate::contains(1, "enzyme"),
                DNA,
                Predicate::eq(1, "mRNA"),
                3,
            )
            .with_scheme(scheme);
            let o = eval(&ctx, &q, Variant::Fast, ts_exec::Work::new());
            let base = topk::eval(&ctx, &q, topk::Variant::Fast, ts_exec::Work::new());
            assert_eq!(o.tid_set(), base.tid_set(), "scheme={scheme}");
            assert!(o.detail.contains("opt chose"));
            assert_eq!(o.method, Method::FastTopKOpt);
        }
    }

    #[test]
    fn full_variant_reports_method() {
        let (db, g, schema, cat) = setup();
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = TopologyQuery::new(PROTEIN, Predicate::True, DNA, Predicate::True, 3);
        let o = eval(&ctx, &q, Variant::Full, ts_exec::Work::new());
        assert_eq!(o.method, Method::FullTopKOpt);
    }
}
