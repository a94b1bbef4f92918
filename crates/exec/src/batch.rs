//! Column-batch execution: the Volcano `getNext` contract lifted to
//! batches.
//!
//! Operators exchange a [`Batch`] of up to [`DEFAULT_BATCH_ROWS`] rows
//! per pull instead of one [`Row`]: a bundle
//! of column vectors — borrowed straight from the [`ColumnStore`] when
//! the column is a null-free Int or Str column — plus a *selection
//! vector* naming the rows still alive after filtering. Predicates on
//! null-free Int columns run as tight loops over raw `i64` buffers; Str
//! and nullable columns fall back to a row-at-a-time evaluation that
//! mirrors [`Predicate::eval_ref`] cell for cell.
//!
//! Budget semantics are preserved by construction: every operator calls
//! [`crate::Work::tick`] with the number of rows a batch touched, and
//! the default batch size equals the meter's poll window (`POLL_EVERY`),
//! so deadline and cancellation polls, step/row quotas, and fault
//! injection sites fire once per batch boundary.
//!
//! Two stream invariants, relied on by the drivers and DGJ operators:
//!
//! * operators never emit a batch with an empty selection;
//! * a *grouped* batch stream never emits a batch spanning more than one
//!   group (a large group may span several consecutive batches).

use std::cell::Cell;

use ts_storage::{ColumnStore, Predicate, Row, Value};

/// Default rows per batch. The work meter polls its deadline and cancel
/// token once per this many ticks, so one batch boundary corresponds to
/// one deadline/cancel poll.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

thread_local! {
    /// 0 means "use [`DEFAULT_BATCH_ROWS`]".
    static BATCH_ROWS: Cell<usize> = const { Cell::new(0) };
}

/// Rows per batch for the current thread.
pub fn batch_rows() -> usize {
    let n = BATCH_ROWS.with(|c| c.get());
    if n == 0 {
        DEFAULT_BATCH_ROWS
    } else {
        n
    }
}

/// Override the batch size for the current thread; `0` restores
/// [`DEFAULT_BATCH_ROWS`]. Used by the conformance tests to probe
/// adversarial sizes (1, 1023, 1025, `table_len ± 1`, ...).
pub fn set_batch_rows(rows: usize) {
    BATCH_ROWS.with(|c| c.set(rows));
}

/// One column of a batch.
///
/// Borrowed variants alias the storage layer directly (zero copies,
/// zero `Arc` bumps); owned variants carry operator-produced values
/// (join outputs, materialized row streams, nullable columns).
#[derive(Debug, Clone)]
pub enum Col<'a> {
    /// Borrowed slice of a null-free Int column.
    Int(&'a [i64]),
    /// Owned null-free Int data (derived batches whose column proved to
    /// be all-Int — keeps the raw-buffer fast paths open downstream).
    IntOwned(Vec<i64>),
    /// Borrowed pool ids of a null-free Str column.
    Str {
        /// Pool ids, one per row of the batch.
        ids: &'a [u32],
        /// The store owning the string pool behind `ids`.
        store: &'a ColumnStore,
    },
    /// Owned values: nullable columns and general derived data.
    Vals(Vec<Value>),
}

impl Col<'_> {
    /// Rows in this column.
    pub fn len(&self) -> usize {
        match self {
            Col::Int(s) => s.len(),
            Col::IntOwned(v) => v.len(),
            Col::Str { ids, .. } => ids.len(),
            Col::Vals(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw `i64` buffer when this column is Int-represented (and
    /// therefore null-free by construction) — the vectorized fast lane.
    pub fn int_slice(&self) -> Option<&[i64]> {
        match self {
            Col::Int(s) => Some(s),
            Col::IntOwned(v) => Some(v),
            _ => None,
        }
    }

    /// Materialize the value at `i` (clones / bumps only for Str).
    pub fn value(&self, i: usize) -> Value {
        match self {
            Col::Int(s) => Value::Int(s[i]),
            Col::IntOwned(v) => Value::Int(v[i]),
            Col::Str { ids, store } => Value::Str(store.pool_str(ids[i]).clone()),
            Col::Vals(v) => v[i].clone(),
        }
    }

    /// Integer at `i`, if the cell is an Int.
    pub fn try_int(&self, i: usize) -> Option<i64> {
        match self {
            Col::Int(s) => Some(s[i]),
            Col::IntOwned(v) => Some(v[i]),
            Col::Vals(v) => match &v[i] {
                Value::Int(k) => Some(*k),
                _ => None,
            },
            Col::Str { .. } => None,
        }
    }

    /// Borrowed string at `i`, if the cell is a Str.
    pub fn str_at(&self, i: usize) -> Option<&str> {
        match self {
            Col::Str { ids, store } => Some(store.pool_str(ids[i])),
            Col::Vals(v) => match &v[i] {
                Value::Str(s) => Some(s),
                _ => None,
            },
            _ => None,
        }
    }

    /// Copy the cells at `idx` (in that order, repeats allowed) into an
    /// owned column: Int-represented columns stay raw `i64` buffers,
    /// anything else is materialized as values.
    pub fn gather(&self, idx: &[u32]) -> Col<'static> {
        match self.int_slice() {
            Some(s) => Col::IntOwned(idx.iter().map(|&i| s[i as usize]).collect()),
            None => Col::Vals(idx.iter().map(|&i| self.value(i as usize)).collect()),
        }
    }

    /// Allocation-free equality of the cell at `i` with `v` — identical
    /// semantics to `RowRef::value_eq` (Int/Str columns here are
    /// null-free by construction, so a `Null` literal never matches).
    pub fn value_eq(&self, i: usize, v: &Value) -> bool {
        match (self, v) {
            (Col::Int(s), Value::Int(k)) => s[i] == *k,
            (Col::IntOwned(s), Value::Int(k)) => s[i] == *k,
            (Col::Str { ids, store }, Value::Str(k)) => **store.pool_str(ids[i]) == **k,
            (Col::Vals(vs), v) => &vs[i] == v,
            _ => false,
        }
    }
}

/// A batch of rows in columnar form plus a selection vector.
///
/// `sel == None` means every row `0..raw_len` is selected; `Some(sel)`
/// names the surviving row indices, kept **sorted, unique and
/// in-bounds** (the conformance proptests hold operators to this).
#[derive(Debug, Clone)]
pub struct Batch<'a> {
    raw_len: usize,
    cols: Vec<Col<'a>>,
    sel: Option<Vec<u32>>,
}

impl<'a> Batch<'a> {
    /// Batch from columns (all of length `raw_len`), fully selected.
    pub fn new(cols: Vec<Col<'a>>, raw_len: usize) -> Self {
        debug_assert!(cols.iter().all(|c| c.len() == raw_len));
        Batch { raw_len, cols, sel: None }
    }

    /// Borrow the rows `[start, end)` of a column store: null-free Int
    /// and Str columns come out as borrowed slices, anything else is
    /// materialized as owned values.
    pub fn from_store(store: &'a ColumnStore, start: usize, end: usize) -> Self {
        let cols = (0..store.arity())
            .map(|c| {
                if let Some(vals) = store.ints(c) {
                    Col::Int(&vals[start..end])
                } else if let Some(ids) = store.str_ids(c) {
                    Col::Str { ids: &ids[start..end], store }
                } else {
                    Col::Vals(
                        (start..end).map(|r| store.value(c, ts_storage::cast::to_u32(r))).collect(),
                    )
                }
            })
            .collect();
        Batch { raw_len: end - start, cols, sel: None }
    }

    /// Columnarize a slice of materialized rows. Columns that turn out
    /// all-Int are stored as raw `i64` buffers so the sort/distinct
    /// fast paths stay open on derived data.
    pub fn from_rows(rows: &[Row]) -> Batch<'static> {
        let arity = rows.first().map_or(0, Row::arity);
        let cols = (0..arity)
            .map(|c| {
                let vals: Vec<Value> = rows.iter().map(|r| r.get(c).clone()).collect();
                pack_vals(vals)
            })
            .collect();
        Batch { raw_len: rows.len(), cols, sel: None }
    }

    /// Batch from column-major value builders (the join-output path:
    /// operators push values column-wise and avoid intermediate `Row`
    /// allocations). All-Int columns are packed into raw buffers.
    pub fn from_val_cols(cols: Vec<Vec<Value>>) -> Batch<'static> {
        let raw_len = cols.first().map_or(0, Vec::len);
        debug_assert!(cols.iter().all(|c| c.len() == raw_len));
        Batch { raw_len, cols: cols.into_iter().map(pack_vals).collect(), sel: None }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Rows in the underlying chunk, before selection.
    pub fn raw_len(&self) -> usize {
        self.raw_len
    }

    /// Rows surviving the selection vector.
    pub fn selected(&self) -> usize {
        match &self.sel {
            None => self.raw_len,
            Some(s) => s.len(),
        }
    }

    /// The selection vector, if any (`None` = all rows selected).
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Replace the selection vector (must be sorted, unique, in-bounds).
    pub fn set_sel(&mut self, sel: Vec<u32>) {
        debug_assert!(sel.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(sel.last().is_none_or(|&i| (i as usize) < self.raw_len));
        self.sel = Some(sel);
    }

    /// Iterate the selected row indices in order.
    pub fn sel_iter(&self) -> SelIter<'_> {
        match &self.sel {
            None => SelIter::All(0..self.raw_len),
            Some(s) => SelIter::Picked(s.iter()),
        }
    }

    /// The `n`-th selected row index (in selection order).
    pub fn nth_selected(&self, n: usize) -> Option<usize> {
        match &self.sel {
            None => (n < self.raw_len).then_some(n),
            Some(s) => s.get(n).map(|&i| i as usize),
        }
    }

    /// The first selected row index.
    pub fn first(&self) -> Option<usize> {
        self.sel_iter().next()
    }

    /// Column accessor.
    pub fn col(&self, c: usize) -> &Col<'a> {
        &self.cols[c]
    }

    /// Value of cell `(col, row)` (row is a raw index, normally obtained
    /// from [`Batch::sel_iter`]).
    pub fn value(&self, col: usize, row: usize) -> Value {
        self.cols[col].value(row)
    }

    /// Integer cell accessor.
    pub fn try_int(&self, col: usize, row: usize) -> Option<i64> {
        self.cols[col].try_int(row)
    }

    /// Materialize one row (the operator-output boundary, as in
    /// `RowRef::to_row`).
    pub fn materialize_row(&self, row: usize) -> Row {
        Row::new(self.cols.iter().map(|c| c.value(row)).collect())
    }

    /// Materialize every selected row in order.
    pub fn materialize(&self) -> Vec<Row> {
        self.sel_iter().map(|i| self.materialize_row(i)).collect()
    }

    /// True when the selection vector is well-formed: sorted strictly
    /// ascending (hence unique) and in-bounds. The conformance suite
    /// asserts this on every batch an operator emits.
    pub fn sel_invariants_hold(&self) -> bool {
        match &self.sel {
            None => true,
            Some(s) => {
                s.windows(2).all(|w| w[0] < w[1])
                    && s.last().is_none_or(|&i| (i as usize) < self.raw_len)
            }
        }
    }

    /// Refine the selection vector to the rows satisfying `pred`.
    ///
    /// Conjunctions decompose into successive refinements; an `Eq` on an
    /// Int-represented column runs as a tight loop over the raw `i64`
    /// buffer; everything else (Str, nullable, `Or`/`Not` trees) drops
    /// to the row-at-a-time [`eval_at`] fallback.
    pub fn filter(&mut self, pred: &Predicate) {
        match pred {
            Predicate::True => {}
            Predicate::And(a, b) => {
                self.filter(a);
                self.filter(b);
            }
            Predicate::Eq(c, Value::Int(k)) if self.cols[*c].int_slice().is_some() => {
                #[expect(
                    clippy::expect_used,
                    reason = "the match guard on the line above already checked int_slice().is_some()"
                )]
                let buf = self.cols[*c].int_slice().expect("checked int-represented");
                let k = *k;
                let keep: Vec<u32> = self
                    .sel_iter()
                    .filter(|&i| buf[i] == k)
                    .map(ts_storage::cast::to_u32)
                    .collect();
                self.sel = Some(keep);
            }
            _ => {
                let keep: Vec<u32> = self
                    .sel_iter()
                    .filter(|&i| eval_at(pred, self, i))
                    .map(ts_storage::cast::to_u32)
                    .collect();
                self.sel = Some(keep);
            }
        }
    }
}

/// Pack a value vector: all-Int columns become raw `i64` buffers.
fn pack_vals(vals: Vec<Value>) -> Col<'static> {
    if vals.iter().all(|v| matches!(v, Value::Int(_))) {
        Col::IntOwned(
            vals.iter()
                .map(|v| match v {
                    Value::Int(k) => *k,
                    #[expect(
                        clippy::unreachable,
                        reason = "the all() guard on the enclosing if checked every value is Int"
                    )]
                    _ => unreachable!("checked all-Int"),
                })
                .collect(),
        )
    } else {
        Col::Vals(vals)
    }
}

/// Evaluate `pred` against row `i` of `batch` — the row-at-a-time
/// fallback, semantically identical to [`Predicate::eval_ref`].
pub fn eval_at(pred: &Predicate, batch: &Batch<'_>, i: usize) -> bool {
    match pred {
        Predicate::True => true,
        Predicate::False => false,
        Predicate::Eq(c, v) => batch.col(*c).value_eq(i, v),
        Predicate::Contains(c, kw) => match batch.col(*c).str_at(i) {
            Some(s) => s.split_whitespace().any(|tok| tok == kw),
            None => false,
        },
        Predicate::And(a, b) => eval_at(a, batch, i) && eval_at(b, batch, i),
        Predicate::Or(a, b) => eval_at(a, batch, i) || eval_at(b, batch, i),
        Predicate::Not(a) => !eval_at(a, batch, i),
    }
}

/// Iterator over the selected raw row indices of a [`Batch`].
pub enum SelIter<'s> {
    /// Dense batch: every index in range.
    All(std::ops::Range<usize>),
    /// Selection vector indices.
    Picked(std::slice::Iter<'s, u32>),
}

impl Iterator for SelIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            SelIter::All(r) => r.next(),
            SelIter::Picked(it) => it.next().map(|&i| i as usize),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SelIter::All(r) => r.size_hint(),
            SelIter::Picked(it) => it.size_hint(),
        }
    }
}

/// The batch-at-a-time operator interface: the Volcano contract lifted
/// to batches, including the DGJ group-skip extension.
///
/// Contracts (checked by the conformance tests):
///
/// * an emitted batch always has at least one selected row;
/// * a grouped operator's batches each contain rows of exactly one
///   group, and group order is preserved (property (a));
/// * selection vectors are sorted, unique and in-bounds.
pub trait BatchOperator<'a> {
    /// Produce the next non-empty batch, or `None` when exhausted (or
    /// when the shared [`crate::Work`] meter is interrupted).
    fn next_batch(&mut self) -> Option<Batch<'a>>;

    /// Reset to the beginning.
    fn rewind(&mut self);

    /// True if this operator maintains group semantics (property (a)).
    fn grouped(&self) -> bool {
        false
    }

    /// Skip the remainder of the current group (property (b)). Panics on
    /// non-grouped operators: the optimizer must only place group-skips
    /// above group-preserving operators.
    #[expect(
        clippy::panic,
        reason = "contract violation — drivers call this only after grouped() returned true, so reaching it is a planner bug; the per-query unwind boundary confines the abort"
    )]
    fn advance_to_next_group(&mut self) {
        panic!("advance_to_next_group called on a non-grouped operator");
    }
}

/// A boxed batch operator with the lifetime of the data it scans.
pub type BoxedBatchOp<'a> = Box<dyn BatchOperator<'a> + 'a>;

/// Run `f` with this thread's batch size set to `rows`, restoring the
/// default afterwards (also when `f` panics): unit tests use it to put
/// batch boundaries inside small inputs.
#[cfg(test)]
pub(crate) fn with_batch_rows<T>(rows: usize, f: impl FnOnce() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_batch_rows(0);
        }
    }
    let _restore = Restore;
    set_batch_rows(rows);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_storage::row;

    #[test]
    fn batch_rows_override_restores_default() {
        assert_eq!(batch_rows(), DEFAULT_BATCH_ROWS);
        set_batch_rows(3);
        assert_eq!(batch_rows(), 3);
        set_batch_rows(0);
        assert_eq!(batch_rows(), DEFAULT_BATCH_ROWS);
    }

    #[test]
    fn from_rows_packs_int_columns() {
        let b = Batch::from_rows(&[row![1i64, "a"], row![2i64, "b"]]);
        assert!(matches!(b.col(0), Col::IntOwned(_)));
        assert!(matches!(b.col(1), Col::Vals(_)));
        assert_eq!(b.materialize(), vec![row![1i64, "a"], row![2i64, "b"]]);
    }

    #[test]
    fn filter_refines_selection_and_keeps_invariants() {
        let rows: Vec<Row> = (0..10).map(|i| row![i as i64, (i % 2) as i64]).collect();
        let mut b = Batch::from_rows(&rows);
        b.filter(&Predicate::eq(1, 1i64));
        assert!(b.sel_invariants_hold());
        assert_eq!(b.selected(), 5);
        b.filter(&Predicate::eq(0, 3i64));
        assert!(b.sel_invariants_hold());
        assert_eq!(b.materialize(), vec![row![3i64, 1i64]]);
    }

    #[test]
    fn eval_at_matches_tuple_eval_on_null_and_str() {
        let rows = vec![
            Row::new(vec![Value::Null, Value::str("alpha beta")]),
            Row::new(vec![Value::Int(1), Value::str("beta")]),
        ];
        let b = Batch::from_rows(&rows);
        let contains = Predicate::contains(1, "beta");
        let eq_null = Predicate::Eq(0, Value::Null);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(eval_at(&contains, &b, i), contains.eval(r));
            assert_eq!(eval_at(&eq_null, &b, i), eq_null.eval(r));
        }
    }
}
