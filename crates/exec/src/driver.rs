//! Plan drivers: pull-loops that consume operator trees.
//!
//! [`batch_collect_distinct_topk`] is the control loop of the paper's
//! Fig. 15 plans: pull rows from a group-clustered plan; the first
//! surviving row of a group proves its topology exists, so the driver
//! records it and immediately skips the rest of the group; after `k`
//! distinct groups it stops pulling altogether. This is where the two
//! DGJ properties pay off.
//!
//! The `_budgeted` variants are the serving layer's entry points: they
//! poll the shared [`Work`] between pulls (deadline / step / row quotas,
//! cancellation, injected starvation) and stop cleanly mid-stream,
//! leaving the partial result in place. With an unbudgeted meter they
//! behave exactly like their plain counterparts.

use ts_storage::faults::{self, sites, FireAction};
use ts_storage::Row;

use crate::batch::BatchOperator;
use crate::op::{Exhausted, Work};

/// Drain a batch operator completely, materializing selected rows.
pub fn batch_collect_all<'a>(op: &mut dyn BatchOperator<'a>) -> Vec<Row> {
    let mut out = Vec::new();
    while let Some(b) = op.next_batch() {
        out.extend(b.sel_iter().map(|i| b.materialize_row(i)));
    }
    out
}

/// Drain a batch operator, stopping early when `work` is interrupted —
/// including *mid-batch*: each row is counted before it is kept, so an
/// exceeded row quota keeps exactly the rows paid for and drops the rest
/// of the batch in hand. A batch that arrives after another limit
/// tripped still yields the row in hand.
pub fn batch_collect_all_budgeted<'a>(op: &mut dyn BatchOperator<'a>, work: &Work) -> Vec<Row> {
    let mut out = Vec::new();
    'outer: loop {
        if let FireAction::Starve = faults::fire(sites::EXEC_DRIVER_LOOP) {
            work.starve();
        }
        if work.interrupted() {
            break;
        }
        let Some(b) = op.next_batch() else { break };
        for i in b.sel_iter() {
            work.count_row();
            if work.exhausted() == Some(Exhausted::Rows) {
                break 'outer;
            }
            out.push(b.materialize_row(i));
            if work.interrupted() {
                break 'outer;
            }
        }
    }
    out
}

/// First row of each of the first `k` distinct groups, in stream order.
pub fn batch_collect_distinct_topk<'a>(
    op: &mut dyn BatchOperator<'a>,
    group_col: usize,
    k: usize,
) -> Vec<Row> {
    batch_distinct_topk(op, group_col, k, None)
}

/// Budget-aware [`batch_collect_distinct_topk`]: stops at the first
/// interrupt, returning the distinct groups accumulated so far (the
/// "partial top-k" a degraded response carries). Each *recorded group*
/// counts one row against the budget's row quota.
pub fn batch_collect_distinct_topk_budgeted<'a>(
    op: &mut dyn BatchOperator<'a>,
    group_col: usize,
    k: usize,
    work: &Work,
) -> Vec<Row> {
    batch_distinct_topk(op, group_col, k, Some(work))
}

fn batch_distinct_topk<'a>(
    op: &mut dyn BatchOperator<'a>,
    group_col: usize,
    k: usize,
    work: Option<&Work>,
) -> Vec<Row> {
    let mut out: Vec<Row> = Vec::new();
    if k == 0 {
        return out;
    }
    'outer: loop {
        if let Some(w) = work {
            if let FireAction::Starve = faults::fire(sites::EXEC_DRIVER_LOOP) {
                w.starve();
            }
            if w.interrupted() {
                break;
            }
        }
        let Some(b) = op.next_batch() else { break };
        for i in b.sel_iter() {
            let group = b.value(group_col, i);
            let is_new = out.last().map(|prev: &Row| *prev.get(group_col) != group).unwrap_or(true);
            if is_new {
                if let Some(w) = work {
                    w.count_row();
                    // An exceeded row quota drops this group: the rows
                    // kept are exactly the rows paid for.
                    if w.interrupted() {
                        break 'outer;
                    }
                }
                out.push(b.materialize_row(i));
                if out.len() == k {
                    break 'outer;
                }
                if op.grouped() {
                    // Grouped batch streams never span groups within a
                    // batch: the rest of this batch is the recorded
                    // group, so skip both it and the operator's tail.
                    op.advance_to_next_group();
                    continue 'outer;
                }
            }
            // Rows of an already-recorded group (possible when the
            // operator cannot skip) are simply ignored.
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::with_batch_rows;
    use crate::op::Budget;
    use crate::scan::BatchValuesScan;
    use ts_storage::row;

    fn grouped_pairs() -> Vec<Row> {
        vec![
            row![1i64, 10i64],
            row![1i64, 11i64],
            row![2i64, 20i64],
            row![3i64, 30i64],
            row![3i64, 31i64],
        ]
    }

    #[test]
    fn topk_with_grouped_scan_skips() {
        // One-row batches: the skip after group 1's first row has to
        // step over (1, 11) inside the scan.
        with_batch_rows(1, || {
            let w = Work::new();
            let mut op = BatchValuesScan::grouped(grouped_pairs(), 0, w.clone());
            let top = batch_collect_distinct_topk(&mut op, 0, 2);
            assert_eq!(top, vec![row![1i64, 10i64], row![2i64, 20i64]]);
            // Row (3,30) was never pulled: k reached first.
            assert_eq!(w.get(), 3);
        });
    }

    #[test]
    fn topk_zero_returns_nothing() {
        let mut op = BatchValuesScan::grouped(vec![row![1i64]], 0, Work::new());
        assert!(batch_collect_distinct_topk(&mut op, 0, 0).is_empty());
    }

    #[test]
    fn ungrouped_operator_still_correct_just_slower() {
        // A non-grouped stream with interleaving would be wrong for DGJ,
        // but a clustered stream behind a non-grouped operator is handled
        // by ignoring repeat rows.
        let rows = vec![row![1i64], row![1i64], row![2i64]];
        let mut op = BatchValuesScan::new(rows, Work::new());
        let top = batch_collect_distinct_topk(&mut op, 0, 5);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn budgeted_topk_matches_plain_when_unbudgeted() {
        let rows = vec![row![1i64], row![2i64], row![2i64], row![3i64]];
        let w = Work::new();
        let mut op = BatchValuesScan::grouped(rows.clone(), 0, w.clone());
        let budgeted = batch_collect_distinct_topk_budgeted(&mut op, 0, 10, &w);
        let mut op2 = BatchValuesScan::grouped(rows, 0, Work::new());
        let plain = batch_collect_distinct_topk(&mut op2, 0, 10);
        assert_eq!(budgeted, plain);
    }

    #[test]
    fn row_quota_truncates_distinct_groups() {
        // Ungrouped stream: repeat rows of a recorded group are ignored
        // for free, the quota counts groups.
        let rows = vec![row![1i64], row![1i64], row![1i64], row![2i64], row![3i64]];
        let w = Work::with_budget(Budget { row_quota: Some(2), ..Budget::default() });
        let mut op = BatchValuesScan::new(rows, w.clone());
        let top = batch_collect_distinct_topk_budgeted(&mut op, 0, 10, &w);
        assert_eq!(top, vec![row![1i64], row![2i64]]);
        assert_eq!(w.exhausted(), Some(Exhausted::Rows));
    }

    #[test]
    fn step_quota_stops_collect_all_with_partial_output() {
        // One 100-row batch blows the 10-step quota on arrival: the
        // driver keeps the row in hand and stops inside the batch.
        let rows: Vec<Row> = (0..100).map(|i| row![i as i64]).collect();
        let w = Work::with_budget(Budget { step_quota: Some(10), ..Budget::default() });
        let mut op = BatchValuesScan::new(rows, w.clone());
        let got = batch_collect_all_budgeted(&mut op, &w);
        assert_eq!(got, vec![row![0i64]]);
        assert_eq!(w.exhausted(), Some(Exhausted::Steps));
    }

    #[test]
    fn starved_work_yields_empty_from_the_start() {
        let w = Work::with_budget(Budget::default());
        w.starve();
        let mut op = BatchValuesScan::new(vec![row![1i64]], w.clone());
        assert!(batch_collect_all_budgeted(&mut op, &w).is_empty());
        assert_eq!(w.exhausted(), Some(Exhausted::Starved));
    }

    #[test]
    fn batch_topk_with_grouped_scan_skips() {
        let w = Work::new();
        let mut op = BatchValuesScan::grouped(grouped_pairs(), 0, w.clone());
        let top = batch_collect_distinct_topk(&mut op, 0, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].get(1).as_int(), 10);
        assert_eq!(top[1].get(1).as_int(), 20);
        // Rows of group 3 were never pulled: k reached first.
        assert!(w.get() <= 4);
    }

    #[test]
    fn batch_row_quota_truncates_distinct_groups() {
        let rows = vec![row![1i64], row![2i64], row![3i64], row![4i64]];
        let w = Work::with_budget(Budget { row_quota: Some(2), ..Budget::default() });
        let mut op = BatchValuesScan::grouped(rows, 0, w.clone());
        let top = batch_collect_distinct_topk_budgeted(&mut op, 0, 10, &w);
        assert_eq!(top.len(), 2);
        assert_eq!(w.exhausted(), Some(Exhausted::Rows));
    }

    #[test]
    fn batch_step_quota_stops_collect_all_with_partial_output() {
        let rows: Vec<Row> = (0..100).map(|i| row![i as i64]).collect();
        let w = Work::with_budget(Budget { step_quota: Some(10), ..Budget::default() });
        let mut op = BatchValuesScan::new(rows, w.clone());
        let got = with_batch_rows(8, || batch_collect_all_budgeted(&mut op, &w));
        assert!(got.len() < 100, "must stop early");
        assert!(!got.is_empty(), "quota of 10 admits some rows");
        assert_eq!(w.exhausted(), Some(Exhausted::Steps));
    }

    #[test]
    fn batch_row_quota_interrupts_mid_batch() {
        // One 100-row batch, quota of 7 rows: the driver must stop
        // inside the batch, keeping exactly the rows paid for.
        let rows: Vec<Row> = (0..100).map(|i| row![i as i64]).collect();
        let w = Work::with_budget(Budget { row_quota: Some(7), ..Budget::default() });
        let mut op = BatchValuesScan::new(rows, w.clone());
        let got = batch_collect_all_budgeted(&mut op, &w);
        assert_eq!(got.len(), 7, "the quota, not the row that tripped it");
        assert_eq!(w.exhausted(), Some(Exhausted::Rows));
    }
}
