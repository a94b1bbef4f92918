//! Simple operators: filter and duplicate elimination.

use ts_storage::{FastSet, Predicate, Row};

use crate::batch::{Batch, BatchOperator, BoxedBatchOp};
use crate::op::Work;

/// Vectorized filter: refines each input batch's selection vector in
/// place — no row materialization, Int predicates run on raw buffers.
/// Preserves grouping of its input.
pub struct BatchFilter<'a> {
    input: BoxedBatchOp<'a>,
    pred: Predicate,
    work: Work,
}

impl<'a> BatchFilter<'a> {
    /// Filter `input` by `pred`.
    pub fn new(input: BoxedBatchOp<'a>, pred: Predicate, work: Work) -> Self {
        BatchFilter { input, pred, work }
    }
}

impl<'a> BatchOperator<'a> for BatchFilter<'a> {
    fn next_batch(&mut self) -> Option<Batch<'a>> {
        loop {
            if self.work.interrupted() {
                return None;
            }
            let mut b = self.input.next_batch()?;
            self.work.tick(b.selected() as u64);
            b.filter(&self.pred);
            if b.selected() > 0 {
                return Some(b);
            }
        }
    }

    fn rewind(&mut self) {
        self.input.rewind();
    }

    fn grouped(&self) -> bool {
        self.input.grouped()
    }

    fn advance_to_next_group(&mut self) {
        self.input.advance_to_next_group();
    }
}

/// Vectorized duplicate elimination on `key_cols` (emits the full row
/// of the first occurrence).
///
/// Single-column Int keys dedup through an integer hash set fed
/// straight from the raw column buffer — no per-row scratch key is
/// built (the allocation-count tests in `sort_allocs.rs` hold this
/// path to that). Multi-column or non-Int keys probe the seen-set
/// through a reusable scratch row: duplicates (the common case in the
/// join output this operator caps) allocate nothing, only a *new* key
/// is cloned in.
pub struct BatchDistinct<'a> {
    input: BoxedBatchOp<'a>,
    key_cols: Vec<usize>,
    seen_int: FastSet<i64>,
    seen: FastSet<Row>,
    scratch: Row,
    work: Work,
}

impl<'a> BatchDistinct<'a> {
    /// Distinct over `key_cols` of `input`.
    pub fn new(input: BoxedBatchOp<'a>, key_cols: Vec<usize>, work: Work) -> Self {
        BatchDistinct {
            input,
            key_cols,
            seen_int: FastSet::default(),
            seen: FastSet::default(),
            scratch: Row::new(Vec::new()),
            work,
        }
    }

    /// True when row `i` carries a not-yet-seen key (recording it).
    fn is_new(&mut self, b: &Batch<'_>, i: usize) -> bool {
        if let [col] = self.key_cols[..] {
            // Single-key fast path: Int keys go through the integer set
            // (no Value, no scratch row); rare non-Int cells fall back.
            if let Some(k) = b.try_int(col, i) {
                return self.seen_int.insert(k);
            }
        }
        self.scratch.0.clear();
        for &c in &self.key_cols {
            self.scratch.0.push(b.value(c, i));
        }
        if self.seen.contains(&self.scratch) {
            return false;
        }
        self.seen.insert(self.scratch.clone());
        true
    }
}

impl<'a> BatchOperator<'a> for BatchDistinct<'a> {
    fn next_batch(&mut self) -> Option<Batch<'a>> {
        loop {
            if self.work.interrupted() {
                return None;
            }
            let mut b = self.input.next_batch()?;
            self.work.tick(b.selected() as u64);
            let keep: Vec<u32> = b
                .sel_iter()
                .filter(|&i| self.is_new(&b, i))
                .map(ts_storage::cast::to_u32)
                .collect();
            if !keep.is_empty() {
                b.set_sel(keep);
                return Some(b);
            }
        }
    }

    fn rewind(&mut self) {
        self.seen_int.clear();
        self.seen.clear();
        self.input.rewind();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::with_batch_rows;
    use crate::driver::batch_collect_all;
    use crate::scan::BatchValuesScan;
    use ts_storage::row;

    fn values<'a>(rows: Vec<Row>) -> BoxedBatchOp<'a> {
        Box::new(BatchValuesScan::new(rows, Work::new()))
    }

    fn pipeline_rows() -> Vec<Row> {
        vec![row![1i64, "a"], row![2i64, "b"], row![3i64, "a"], row![4i64, "a"]]
    }

    #[test]
    fn filter_keeps_matching_rows_and_rewinds() {
        let mut f = BatchFilter::new(values(pipeline_rows()), Predicate::eq(1, "a"), Work::new());
        let got = batch_collect_all(&mut f);
        assert_eq!(got, vec![row![1i64, "a"], row![3i64, "a"], row![4i64, "a"]]);
        f.rewind();
        assert_eq!(batch_collect_all(&mut f).len(), 3);
    }

    #[test]
    fn distinct_on_key_cols() {
        let rows = vec![row![1i64, "x"], row![1i64, "y"], row![2i64, "x"]];
        let mut d = BatchDistinct::new(values(rows), vec![0], Work::new());
        let got = batch_collect_all(&mut d);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].get(1).as_str(), "x"); // first occurrence wins
        d.rewind();
        assert_eq!(batch_collect_all(&mut d).len(), 2);
    }

    #[test]
    fn filter_propagates_group_skip() {
        // The filter drops the first row of group 20; the skip from
        // group 10 must still land on that group's surviving row.
        let rows = vec![row![10i64, 1i64], row![10i64, 2i64], row![20i64, 3i64], row![20i64, 4i64]];
        let scan = BatchValuesScan::grouped(rows, 0, Work::new());
        let pred = Predicate::Not(Box::new(Predicate::eq(1, 3i64)));
        let mut f = BatchFilter::new(Box::new(scan), pred, Work::new());
        assert!(f.grouped());
        f.next_batch().unwrap();
        f.advance_to_next_group();
        assert_eq!(f.next_batch().unwrap().materialize(), vec![row![20i64, 4i64]]);
    }

    #[test]
    fn batch_filter_matches_tuple_filter() {
        let pred = Predicate::eq(1, "a");
        // The same filter a tuple at a time.
        let tuples: Vec<Row> = pipeline_rows().into_iter().filter(|r| pred.eval(r)).collect();
        for size in [1, 2, 3] {
            let got = with_batch_rows(size, || {
                batch_collect_all(&mut BatchFilter::new(
                    values(pipeline_rows()),
                    pred.clone(),
                    Work::new(),
                ))
            });
            assert_eq!(got, tuples, "batch size {size}");
        }
    }

    #[test]
    fn batch_distinct_matches_tuple_first_occurrence() {
        let rows = vec![row![1i64, "x"], row![2i64, "x"], row![1i64, "y"], row![2i64, "z"]];
        let mut seen = ts_storage::FastSet::default();
        let tuples: Vec<Row> =
            rows.iter().filter(|r| seen.insert(r.get(0).clone())).cloned().collect();
        for size in [1, 3] {
            let got = with_batch_rows(size, || {
                batch_collect_all(&mut BatchDistinct::new(
                    values(rows.clone()),
                    vec![0],
                    Work::new(),
                ))
            });
            assert_eq!(got, tuples, "batch size {size}");
        }
    }

    #[test]
    fn batch_distinct_multi_column_keys() {
        let rows = vec![row![1i64, "x"], row![1i64, "x"], row![1i64, "y"]];
        let mut d = BatchDistinct::new(values(rows), vec![0, 1], Work::new());
        assert_eq!(batch_collect_all(&mut d).len(), 2);
    }

    #[test]
    fn batch_filter_propagates_group_skip() {
        let rows = vec![row![10i64, 1i64], row![10i64, 2i64], row![20i64, 3i64]];
        let scan = BatchValuesScan::grouped(rows, 0, Work::new());
        let mut f = BatchFilter::new(Box::new(scan), Predicate::True, Work::new());
        assert!(f.grouped());
        f.next_batch().unwrap();
        f.advance_to_next_group();
        let b = f.next_batch().unwrap();
        assert_eq!(b.try_int(0, b.first().unwrap()), Some(20));
    }
}
