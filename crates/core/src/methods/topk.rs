//! Full-Top-k and Fast-Top-k (§5.1): full evaluation, order by score,
//! fetch first k — plus, for the Fast variant, the score-gated pruned
//! sub-queries of SQL4/SQL5.

use std::time::Instant;

use ts_exec::Work;
use ts_storage::FastSet;

use crate::catalog::TopologyId;
use crate::methods::common::{online_path_check, orient, selected_ids, Oriented};
use crate::methods::{full_top, EvalOutcome, Method, QueryContext};
use crate::query::TopologyQuery;

/// Which precomputed table backs the method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// AllTops (no pruning) — Full-Top-k.
    Full,
    /// LeftTops + exception checks — Fast-Top-k.
    Fast,
}

/// Evaluate with this strategy (also reachable via [`crate::methods::Method::eval`]).
pub fn eval(
    ctx: &QueryContext<'_>,
    q: &TopologyQuery,
    variant: Variant,
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
    // SQL4: evaluate the (un)pruned part fully, then order by score and
    // fetch the first k.
    let tids = full_top::distinct_tids(ctx, q, table, &work);
    let mut results: Vec<(TopologyId, f64)> =
        tids.into_iter().map(|t| (t, ctx.catalog.meta(t).scores[q.scheme.index()])).collect();
    sort_desc(&mut results);
    results.truncate(q.k);

    let mut gated = 0usize;
    if variant == Variant::Fast {
        gated = gate_pruned(ctx, q, &o, &mut results, &work);
    }

    EvalOutcome {
        method: match variant {
            Variant::Full => Method::FullTopK,
            Variant::Fast => Method::FastTopK,
        },
        topologies: results,
        work: work.get(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        detail: match variant {
            Variant::Full => "full eval + sort + fetch-k over AllTops".into(),
            Variant::Fast => {
                format!("full eval + sort + fetch-k over LeftTops; {gated} gated pruned checks")
            }
        },
        exhausted: work.exhausted(),
    }
}

/// Rank order of `(tid, score)` results: score descending, id ascending.
fn rank_cmp(a: &(TopologyId, f64), b: &(TopologyId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Sort `(tid, score)` by score descending, id ascending.
pub(crate) fn sort_desc(v: &mut [(TopologyId, f64)]) {
    v.sort_by(rank_cmp);
}

/// SQL5's gating: a pruned topology needs an online check only if it
/// could still enter the top-k — fewer than k results so far, or a score
/// at or above the current k-th (ties must be checked so that the final
/// deterministic (score desc, id asc) order matches the non-pruned
/// methods). Returns the number of checks actually run.
///
/// Candidates are checked in rank order, and when the budget trips the
/// result is cut just above the first unchecked candidate: whatever
/// ranks below it cannot be told from a hole, so a degraded answer
/// built on a rank-ordered `results` (the ET plans') stays a prefix of
/// the true top-k.
pub(crate) fn gate_pruned(
    ctx: &QueryContext<'_>,
    q: &TopologyQuery,
    o: &Oriented<'_>,
    results: &mut Vec<(TopologyId, f64)>,
    work: &Work,
) -> usize {
    let kth_score = if results.len() >= q.k {
        results.last().map(|&(_, s)| s).unwrap_or(f64::NEG_INFINITY)
    } else {
        f64::NEG_INFINITY
    };
    let mut candidates: Vec<(TopologyId, f64)> = ctx
        .catalog
        .pruned_ids(o.espair)
        .iter()
        .map(|&tid| (tid, ctx.catalog.meta(tid).scores[q.scheme.index()]))
        .filter(|&(_, s)| s >= kth_score)
        .collect();
    if candidates.is_empty() {
        return 0;
    }
    sort_desc(&mut candidates);
    let a_ids: FastSet<i64> = selected_ids(ctx, o.espair.from, o.con_from, work);
    let b_ids: FastSet<i64> = selected_ids(ctx, o.espair.to, o.con_to, work);
    let mut checks = 0;
    let mut unchecked = None;
    for cand in candidates {
        if work.interrupted() {
            unchecked = Some(cand);
            break;
        }
        checks += 1;
        if online_path_check(ctx, cand.0, &a_ids, &b_ids, work) {
            results.push(cand);
        }
    }
    sort_desc(results);
    results.truncate(q.k);
    if let Some(cand) = unchecked {
        results.truncate(results.partition_point(|r| rank_cmp(r, &cand).is_lt()));
    }
    checks
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
    fn full_and_fast_agree_for_every_scheme_and_k() {
        let (db, g, schema, cat) = setup(0);
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        for scheme in RankScheme::all() {
            for k in [1, 2, 4, 10] {
                let q = query().with_k(k).with_scheme(scheme);
                let full = eval(&ctx, &q, Variant::Full, Work::new());
                let fast = eval(&ctx, &q, Variant::Fast, Work::new());
                assert_eq!(
                    full.tid_set(),
                    fast.tid_set(),
                    "scheme={scheme} k={k}: {:?} vs {:?}",
                    full.topologies,
                    fast.topologies
                );
            }
        }
    }

    #[test]
    fn k_truncates_ranked_output() {
        let (db, g, schema, cat) = setup(u64::MAX);
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = query().with_k(2);
        let out = eval(&ctx, &q, Variant::Full, Work::new());
        assert_eq!(out.topologies.len(), 2);
        // Scores non-increasing.
        assert!(out.topologies[0].1 >= out.topologies[1].1);
    }

    #[test]
    fn gating_skips_checks_when_topk_is_saturated() {
        // With k = 1 and the Domain scheme, the complex topologies (in
        // LeftTops) outscore the pruned simple ones, so zero checks run.
        let (db, g, schema, cat) = setup(0);
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = query().with_k(1).with_scheme(RankScheme::Domain);
        let out = eval(&ctx, &q, Variant::Fast, Work::new());
        assert!(out.detail.contains("0 gated"), "detail: {}", out.detail);
    }

    #[test]
    fn pruned_topology_surfaces_when_score_demands_it() {
        // Freq scheme with everything pruned at threshold 0: the pruned
        // path topologies tie on score and must be recovered by checks.
        let (db, g, schema, cat) = setup(0);
        let ctx = QueryContext { db: &db, graph: &g, schema: &schema, catalog: &cat };
        let q = TopologyQuery::new(PROTEIN, Predicate::True, DNA, Predicate::True, 3)
            .with_k(10)
            .with_scheme(RankScheme::Freq);
        let out = eval(&ctx, &q, Variant::Fast, Work::new());
        assert_eq!(out.tid_set().len(), 5, "all five P-D topologies expected");
    }
}
