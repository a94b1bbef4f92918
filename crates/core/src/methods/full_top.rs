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
//! Fig. 14 runs this as a scan of AllTops joined with both selected
//! entity sides, distinct on TID. Here the same join is one clustered
//! range read with two semi-join tests, because of how the table is
//! stored: `Catalog::finalize` writes AllTops sorted by (espair, E1, E2,
//! TID) and `prune_catalog` keeps that order in LeftTops — the clustered
//! index §6.1's "indices on all the primary keys and queried attributes"
//! would supply, at zero stored bytes. So [`distinct_tids`]
//!
//! 1. evaluates each σ once ([`Selected`]), from the same §6.1 indexes:
//!    a keyword's posting list, the `DNA.type` index, and sorted-list
//!    intersection, union and complement for the combinators — a scan
//!    only where no index can answer;
//! 2. takes the query espair's contiguous row range, which the catalog
//!    caches per espair (`Catalog::partition`);
//! 3. merges the ascending σ(from) ids with that range's E1 column,
//!    galloping over runs of unselected E1 values on either side; where
//!    an E1 is selected it walks that E1's run of rows at once, testing
//!    only each row's found bit and its E2's membership in σ(to), and
//!    sets the row's bit in a bit set indexed by topology id;
//! 4. reads the answer out of the bit set, already distinct and
//!    ascending.
//!
//! One plan, no chooser: it reads at most the espair's partition, once,
//! sequentially, and skips what σ(from) does not select. A scan-and-hash
//! plan reads every row of the table; an E1-index plan hash-probes once
//! per selected entity and walks the rows of *every* espair that shares
//! the E1. Neither can touch fewer rows than this, so there is nothing
//! to choose between.
//!
//! Rows of another espair can never be reported, even where entity ids
//! collide across entity sets: the partition does not contain them.

use ts_exec::Work;
use ts_storage::{cast, Table};

use crate::catalog::TopologyId;
use crate::methods::common::{orient, Selected, CHUNK};
use crate::methods::{Evaluated, Plan, QueryContext, Variant};
use crate::query::TopologyQuery;

/// Evaluate with this strategy (reached through [`crate::methods::Method::eval`]).
pub fn eval(ctx: &QueryContext<'_>, q: &TopologyQuery, work: &Work) -> Evaluated {
    let table = Variant::Full;
    let (tids, _) = distinct_tids(ctx, q, table, work);
    let plan = Plan::Regular { table, ranked: false, checks: 0 };
    (tids.into_iter().map(|t| (t, 0.0)).collect(), plan.into())
}

/// The price of [`distinct_tids`] in work units, from catalog
/// statistics: both σ scans, the espair's partition of the tops table
/// (`partition_rows`, an upper bound — galloping reads less), and the
/// join output the ranked methods carry on to their sort.
pub(crate) fn regular_plan_cost(
    from_table: &Table,
    to_table: &Table,
    partition_rows: f64,
    join_rows: f64,
) -> f64 {
    from_table.len() as f64 + to_table.len() as f64 + partition_rows + join_rows
}

/// The regular plan over a topology-pairs table (AllTops for the Full
/// methods, LeftTops for the Fast ones where the espair has a pruned
/// topology — `Catalog::partition`): the distinct TIDs, ascending,
/// of the rows of the query's espair whose E1/E2 entities satisfy the
/// oriented constraints — and the selection it evaluated on the way,
/// for the Fast methods' lower sub-queries to reuse.
///
/// Budgets: σ charges the row ids its indexes read (or, where they
/// cannot answer, the rows its scan touched); the merge charges one
/// tick per row examined and per gallop, [`CHUNK`] at a time, polls the
/// meter between chunks, and counts every newly found TID as a result
/// row, keeping it only if the count did not trip the row quota. A
/// budget that tripped during σ stops it before it reads a tops row.
pub fn distinct_tids(
    ctx: &QueryContext<'_>,
    q: &TopologyQuery,
    table: Variant,
    work: &Work,
) -> (Vec<TopologyId>, Selected) {
    let o = orient(q);
    let sel = Selected::eval(ctx, &o, work);
    let catalog = ctx.catalog;
    // The espair's partition, from the range the catalog caches.
    let (tops, rows) = catalog.partition(table, o.espair);
    let store = tops.store();
    // Tops tables are three Int columns built from raw null-free
    // buffers, so those buffers exist.
    let (Some(e1), Some(e2), Some(tids)) = (store.ints(0), store.ints(1), store.ints(2)) else {
        debug_assert!(false, "a tops table with a null or non-Int column");
        return (Vec::new(), sel);
    };
    if work.interrupted() || sel.from.is_empty() || sel.to.is_empty() {
        return (Vec::new(), sel);
    }
    let (e1, e2, tids) = (&e1[rows.clone()], &e2[rows.clone()], &tids[rows]);

    // Merge σ(from) with the E1 column, both ascending.
    let from = &sel.from[..];
    let mut found = vec![0u64; catalog.topology_count().div_ceil(64)];
    let (mut row, mut a) = (0usize, 0usize);
    let mut pending = 0u64;
    'merge: while row < e1.len() && a < from.len() {
        if pending == CHUNK {
            work.tick(pending);
            pending = 0;
            if work.interrupted() {
                break;
            }
        }
        pending += 1;
        let id = from[a];
        if e1[row] < id {
            row += gallop(&e1[row..], id);
        } else if e1[row] > id {
            a += gallop(&from[a..], e1[row]);
        } else {
            // The run of rows whose E1 is `id`, one tick a row: only the
            // found bit and σ(to) are tested. The step after the run is
            // the from-side gallop past `id`.
            loop {
                let t = cast::int_to_usize(tids[row]);
                let (word, bit) = (t / 64, 1u64 << (t % 64));
                // A topology already found needs no second witness.
                if found[word] & bit == 0 && sel.to.contains(&e2[row]) {
                    found[word] |= bit;
                    work.count_row();
                    if work.interrupted() {
                        // Not paid for: a row quota of r keeps r. (Set,
                        // then cleared on a trip: the hot path keeps
                        // the store ahead of the call.)
                        found[word] &= !bit;
                        break 'merge;
                    }
                }
                row += 1;
                if row == e1.len() || e1[row] != id {
                    break;
                }
                if pending == CHUNK {
                    work.tick(pending);
                    pending = 0;
                    if work.interrupted() {
                        break 'merge;
                    }
                }
                pending += 1;
            }
        }
    }
    work.tick(pending);

    let mut out = Vec::new();
    for (w, &bits) in found.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            out.push(cast::to_u32(w * 64 + bits.trailing_zeros() as usize));
            bits &= bits - 1;
        }
    }
    (out, sel)
}

/// Length of the prefix of ascending `s` that is `< x`, given
/// `s[0] < x`: doubling probes, then a binary search between the last
/// two, so a short skip costs O(1) and a long one O(log skip).
fn gallop(s: &[i64], x: i64) -> usize {
    let mut hi = 1;
    while hi < s.len() && s[hi] < x {
        hi *= 2;
    }
    let lo = hi / 2;
    lo + s[lo..hi.min(s.len())].partition_point(|&v| v < x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::common::fixture::{enzyme_mrna, Fig3};
    use crate::methods::Method;
    use ts_graph::fixtures::{DNA, PROTEIN};
    use ts_storage::Predicate;

    #[test]
    fn gallop_finds_the_lower_bound_from_any_distance() {
        let s: Vec<i64> = (0..40).map(|i| i * 3).collect();
        for from in 0..s.len() {
            for x in s[from] + 1..=s[s.len() - 1] + 2 {
                let want = s[from..].partition_point(|&v| v < x);
                assert_eq!(gallop(&s[from..], x), want, "from {from} x {x}");
            }
        }
        assert_eq!(gallop(&[5], 9), 1);
    }

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
