//! Scan operators: sequential table scan, materialized rows, lazy key stream.

use ts_storage::faults::{self, sites, FireAction};
use ts_storage::{Predicate, Row, Table};

use crate::batch::{batch_rows, Batch, BatchOperator, Col};
use crate::op::Work;

/// Vectorized sequential scan: emits [`Batch`]es of column slices
/// borrowed from the table's store, with `pred` folded into each
/// batch's selection vector. The predicate runs directly on raw `i64`
/// buffers for null-free Int columns; each chunk is charged to the
/// work meter in one `tick(chunk_len)` call — one unit per row touched;
/// the chunk size defaults to the meter's poll window, so step quotas
/// and deadline polls fire once per chunk.
pub struct BatchTableScan<'a> {
    table: &'a Table,
    pred: Predicate,
    pos: usize,
    work: Work,
}

impl<'a> BatchTableScan<'a> {
    /// Scan `table`, emitting batches of rows satisfying `pred`.
    pub fn new(table: &'a Table, pred: Predicate, work: Work) -> Self {
        BatchTableScan { table, pred, pos: 0, work }
    }
}

impl<'a> BatchOperator<'a> for BatchTableScan<'a> {
    fn next_batch(&mut self) -> Option<Batch<'a>> {
        if let FireAction::Starve = faults::fire(sites::EXEC_SCAN) {
            self.work.starve();
        }
        while self.pos < self.table.len() {
            if self.work.interrupted() {
                return None;
            }
            let end = (self.pos + batch_rows()).min(self.table.len());
            let mut b = Batch::from_store(self.table.store(), self.pos, end);
            self.work.tick((end - self.pos) as u64);
            self.pos = end;
            b.filter(&self.pred);
            if b.selected() > 0 {
                return Some(b);
            }
        }
        None
    }

    fn rewind(&mut self) {
        self.pos = 0;
    }
}

/// Vectorized scan over pre-materialized rows.
///
/// `grouped` marks the stream as clustered by a group column so DGJ
/// operators can be stacked on top. When grouped, batches are clipped at group boundaries: every emitted
/// batch holds rows of exactly one group (a large group spans several
/// consecutive batches), which is the invariant the batch DGJ operators
/// and top-k driver rely on for skipping.
pub struct BatchValuesScan {
    rows: Vec<Row>,
    pos: usize,
    group_col: Option<usize>,
    work: Work,
}

impl BatchValuesScan {
    /// Ungrouped stream of rows.
    pub fn new(rows: Vec<Row>, work: Work) -> Self {
        BatchValuesScan { rows, pos: 0, group_col: None, work }
    }

    /// Stream clustered by `group_col` (rows must already be clustered).
    pub fn grouped(rows: Vec<Row>, group_col: usize, work: Work) -> Self {
        BatchValuesScan { rows, pos: 0, group_col: Some(group_col), work }
    }
}

impl<'a> BatchOperator<'a> for BatchValuesScan {
    fn next_batch(&mut self) -> Option<Batch<'a>> {
        if self.work.interrupted() {
            return None;
        }
        if self.pos >= self.rows.len() {
            return None;
        }
        let mut end = (self.pos + batch_rows()).min(self.rows.len());
        if let Some(col) = self.group_col {
            // Clip at the group boundary: batches never span groups.
            let group = self.rows[self.pos].get(col);
            let mut e = self.pos + 1;
            while e < end && self.rows[e].get(col) == group {
                e += 1;
            }
            end = e;
        }
        let b = Batch::from_rows(&self.rows[self.pos..end]);
        self.work.tick((end - self.pos) as u64);
        self.pos = end;
        Some(b)
    }

    fn rewind(&mut self) {
        self.pos = 0;
    }

    fn grouped(&self) -> bool {
        self.group_col.is_some()
    }

    fn advance_to_next_group(&mut self) {
        #[expect(
            clippy::panic,
            reason = "contract violation — drivers only group-skip operators whose grouped() returned true; the per-query unwind boundary confines the abort"
        )]
        let Some(col) = self.group_col
        else {
            panic!("advance_to_next_group called on a non-grouped operator");
        };
        if self.pos == 0 || self.pos > self.rows.len() {
            return;
        }
        // Current group is the one of the last-emitted row.
        let current = self.rows[self.pos - 1].get(col).clone();
        while self.pos < self.rows.len() && *self.rows[self.pos].get(col) == current {
            self.pos += 1;
            self.work.tick(1);
        }
    }
}

/// Vectorized scan over a lazily produced stream of distinct integer
/// keys — the index scan on TopInfo by score at the bottom of the
/// paper's Fig. 15. Every key is a group of its own, so each batch is
/// one single-column row and a group skip has nothing left to drop; a
/// plan that stops after `k` groups never pulls (or filters) the rest
/// of the stream.
pub struct BatchKeyScan<I> {
    start: I,
    keys: I,
    work: Work,
}

impl<I: Iterator<Item = i64> + Clone> BatchKeyScan<I> {
    /// Stream `keys` (distinct, already in group order).
    pub fn new(keys: I, work: Work) -> Self {
        BatchKeyScan { start: keys.clone(), keys, work }
    }
}

impl<'a, I: Iterator<Item = i64> + Clone> BatchOperator<'a> for BatchKeyScan<I> {
    fn next_batch(&mut self) -> Option<Batch<'a>> {
        if self.work.interrupted() {
            return None;
        }
        let key = self.keys.next()?;
        self.work.tick(1);
        Some(Batch::new(vec![Col::IntOwned(vec![key])], 1))
    }

    fn rewind(&mut self) {
        self.keys = self.start.clone();
    }

    fn grouped(&self) -> bool {
        true
    }

    fn advance_to_next_group(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::with_batch_rows;
    use ts_storage::{row, ColumnDef, TableSchema, ValueType};

    fn table() -> Table {
        let mut t = Table::new(TableSchema::new(
            "T",
            vec![ColumnDef::new("id", ValueType::Int), ColumnDef::new("s", ValueType::Str)],
            Some(0),
        ));
        t.insert(row![1i64, "a"]).unwrap();
        t.insert(row![2i64, "b"]).unwrap();
        t.insert(row![3i64, "a"]).unwrap();
        t.create_index(1);
        t
    }

    #[test]
    fn table_scan_filters_and_meters() {
        let t = table();
        let w = Work::new();
        let mut op = BatchTableScan::new(&t, Predicate::eq(1, "a"), w.clone());
        let got = crate::driver::batch_collect_all(&mut op);
        assert_eq!(got.len(), 2);
        assert_eq!(w.get(), 3); // three rows touched
        op.rewind();
        assert_eq!(crate::driver::batch_collect_all(&mut op).len(), 2);
    }

    #[test]
    fn values_scan_group_skip() {
        let rows = vec![
            row![10i64, 1i64],
            row![10i64, 2i64],
            row![10i64, 3i64],
            row![20i64, 4i64],
            row![20i64, 5i64],
        ];
        // One-row batches: the skip has to step over the rest of group
        // 10 itself instead of finding it already emitted.
        with_batch_rows(1, || {
            let w = Work::new();
            let mut op = BatchValuesScan::grouped(rows, 0, w.clone());
            assert!(BatchOperator::grouped(&op));
            assert_eq!(op.next_batch().unwrap().materialize(), vec![row![10i64, 1i64]]);
            op.advance_to_next_group();
            assert_eq!(w.get(), 3, "one row emitted, two skipped");
            assert_eq!(op.next_batch().unwrap().materialize(), vec![row![20i64, 4i64]]);
        });
    }

    #[test]
    fn values_scan_advance_before_next_is_noop() {
        let rows = vec![row![10i64], row![20i64]];
        let mut op = BatchValuesScan::grouped(rows, 0, Work::new());
        op.advance_to_next_group();
        let b = op.next_batch().unwrap();
        assert_eq!(b.try_int(0, b.first().unwrap()), Some(10));
    }

    #[test]
    fn batch_table_scan_matches_tuple_scan_and_meter() {
        let t = table();
        let pred = Predicate::eq(1, "a");
        // The scan a tuple at a time, straight off the storage API.
        let tuples: Vec<Row> = t.rows().filter(|&r| pred.eval_ref(r)).map(|r| r.to_row()).collect();
        for size in [1, 2, 4] {
            let w = Work::new();
            let got = with_batch_rows(size, || {
                crate::driver::batch_collect_all(&mut BatchTableScan::new(
                    &t,
                    pred.clone(),
                    w.clone(),
                ))
            });
            assert_eq!(got, tuples, "batch size {size}");
            assert_eq!(w.get(), t.len() as u64, "one unit per row touched");
        }
    }

    #[test]
    fn batch_values_scan_clips_batches_at_group_boundaries() {
        let rows = vec![
            row![10i64, 1i64],
            row![10i64, 2i64],
            row![20i64, 3i64],
            row![20i64, 4i64],
            row![30i64, 5i64],
        ];
        let mut op = BatchValuesScan::grouped(rows, 0, Work::new());
        assert!(BatchOperator::grouped(&op));
        let mut groups = Vec::new();
        while let Some(b) = op.next_batch() {
            let g: Vec<i64> = b.sel_iter().map(|i| b.try_int(0, i).unwrap()).collect();
            assert!(g.windows(2).all(|w| w[0] == w[1]), "batch spans groups: {g:?}");
            groups.push(g[0]);
        }
        assert_eq!(groups, vec![10, 20, 30]);
    }

    #[test]
    fn batch_key_scan_is_lazy_one_group_per_batch_and_rewinds() {
        let pulled = std::cell::Cell::new(0usize);
        let keys = [30i64, 10, 20];
        let w = Work::new();
        let mut op =
            BatchKeyScan::new(keys.iter().map(|&k| (pulled.set(pulled.get() + 1), k).1), w.clone());
        assert!(BatchOperator::grouped(&op));
        let b = op.next_batch().unwrap();
        assert_eq!((b.arity(), b.selected(), b.try_int(0, 0)), (1, 1, Some(30)));
        assert_eq!((pulled.get(), w.get()), (1, 1), "keys are pulled one batch at a time");
        op.advance_to_next_group();
        assert_eq!(op.next_batch().unwrap().try_int(0, 0), Some(10));
        op.rewind();
        let all: Vec<i64> =
            crate::driver::batch_collect_all(&mut op).iter().map(|r| r.get(0).as_int()).collect();
        assert_eq!(all, keys);
    }

    #[test]
    fn batch_values_scan_group_skip() {
        let rows = vec![row![10i64, 1i64], row![10i64, 2i64], row![10i64, 3i64], row![20i64, 4i64]];
        let mut op = BatchValuesScan::grouped(rows, 0, Work::new());
        let first = op.next_batch().unwrap();
        assert_eq!(first.try_int(0, first.first().unwrap()), Some(10));
        op.advance_to_next_group();
        let next = op.next_batch().unwrap();
        assert_eq!(next.try_int(0, next.first().unwrap()), Some(20));
    }
}
