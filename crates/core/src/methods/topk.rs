//! Full-Top-k and Fast-Top-k (§5.1): full evaluation, order by score,
//! fetch first k — plus, for the Fast variant, the score-gated pruned
//! sub-queries of SQL4/SQL5.

use ts_exec::Work;

use crate::catalog::TopologyId;
use crate::methods::common::{online_path_check, orient, CheckScratch, Selected};
use crate::methods::{full_top, Evaluated, Plan, QueryContext, Variant};
use crate::query::TopologyQuery;

/// Evaluate with this strategy (reached through [`crate::methods::Method::eval`]).
pub fn eval(ctx: &QueryContext<'_>, q: &TopologyQuery, table: Variant, work: &Work) -> Evaluated {
    // SQL4: evaluate the (un)pruned part fully, then order by score and
    // fetch the first k.
    let (tids, sel) = full_top::distinct_tids(ctx, q, table, work);
    let mut results: Vec<(TopologyId, f64)> =
        tids.into_iter().map(|t| (t, ctx.catalog.meta(t).scores[q.scheme.index()])).collect();
    sort_desc(&mut results);
    results.truncate(q.k);

    let checks = match table {
        Variant::Full => 0,
        Variant::Fast => gate_pruned(ctx, q, &mut results, Some(sel), work),
    };
    (results, Plan::Regular { table, ranked: true, checks }.into())
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
/// `sel` is the query's selection where the caller already evaluated it
/// (the regular plan); the ET plans pass `None`, and σ is then evaluated
/// here, only once a candidate has survived the score gate.
///
/// A candidate the check finds is a result row: it counts against the
/// row quota like the rows before it. Candidates are checked in rank
/// order, and when the budget trips (during a check, or on counting the
/// row a check found) the result is cut just above the first candidate
/// left undecided: whatever
/// ranks below it cannot be told from a hole, so a degraded answer
/// built on a rank-ordered `results` (the ET plans') stays a prefix of
/// the true top-k.
pub(crate) fn gate_pruned(
    ctx: &QueryContext<'_>,
    q: &TopologyQuery,
    results: &mut Vec<(TopologyId, f64)>,
    sel: Option<Selected>,
    work: &Work,
) -> usize {
    let o = orient(q);
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
    let sel = sel.unwrap_or_else(|| Selected::eval(ctx, &o, work));
    let mut checks = 0;
    let mut unchecked = None;
    let mut scratch = CheckScratch::default();
    for cand in candidates {
        if work.interrupted() {
            unchecked = Some(cand);
            break;
        }
        checks += 1;
        let found = online_path_check(ctx, cand.0, &sel, &mut scratch, work);
        if found {
            work.count_row();
        }
        // A budget that tripped during the check, or a result the row
        // quota cannot pay for, leaves the candidate undecided.
        if work.interrupted() {
            unchecked = Some(cand);
            break;
        }
        if found {
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
    use crate::methods::common::fixture::{enzyme_mrna, Fig3};
    use crate::methods::Method;
    use crate::query::RankScheme;
    use ts_graph::fixtures::{DNA, PROTEIN};
    use ts_storage::Predicate;

    #[test]
    fn full_and_fast_agree_for_every_scheme_and_k() {
        let f = Fig3::pruned_at(0);
        let ctx = f.ctx();
        for scheme in RankScheme::all() {
            for k in [1, 2, 4, 10] {
                let q = enzyme_mrna().with_k(k).with_scheme(scheme);
                let full = Method::FullTopK.eval(&ctx, &q);
                let fast = Method::FastTopK.eval(&ctx, &q);
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
        let f = Fig3::pruned_at(u64::MAX);
        let ctx = f.ctx();
        let q = enzyme_mrna().with_k(2);
        let out = Method::FullTopK.eval(&ctx, &q);
        assert_eq!(out.topologies.len(), 2);
        // Scores non-increasing.
        assert!(out.topologies[0].1 >= out.topologies[1].1);
    }

    #[test]
    fn gating_skips_checks_when_topk_is_saturated() {
        // With k = 1 and the Domain scheme, the complex topologies (in
        // LeftTops) outscore the pruned simple ones, so zero checks run.
        let f = Fig3::pruned_at(0);
        let ctx = f.ctx();
        let q = enzyme_mrna().with_k(1).with_scheme(RankScheme::Domain);
        let out = Method::FastTopK.eval(&ctx, &q);
        assert!(
            matches!(out.detail.plan, Plan::Regular { ranked: true, checks: 0, .. }),
            "detail: {}",
            out.detail
        );
    }

    #[test]
    fn pruned_topology_surfaces_when_score_demands_it() {
        // Freq scheme with everything pruned at threshold 0: the pruned
        // path topologies tie on score and must be recovered by checks.
        let f = Fig3::pruned_at(0);
        let ctx = f.ctx();
        let q = TopologyQuery::new(PROTEIN, Predicate::True, DNA, Predicate::True, 3)
            .with_k(10)
            .with_scheme(RankScheme::Freq);
        let out = Method::FastTopK.eval(&ctx, &q);
        assert_eq!(out.tid_set().len(), 5, "all five P-D topologies expected");
    }
}
