//! The reference the batch operators are checked against: each operator
//! written as the plainest function over whole `Vec<Row>` inputs — a
//! tuple at a time, no batches, no selection vectors, no work meter, no
//! hashing, no index. It shares no code with `ts_exec`; everything it
//! knows about rows, predicates and tables comes from `ts_storage`.
//!
//! The second half of the file is what the test crates share to *drive*
//! the operator under test (the batch-size sweep, a checked drain); only
//! that half imports `ts_exec`.

// Each test crate includes this file and uses its own subset.
#![allow(dead_code)]

use ts_storage::{Predicate, Row, Table, Value};

/// Every row of `table`, in row-id order.
pub fn table_rows(table: &Table) -> Vec<Row> {
    table.rows().map(|r| r.to_row()).collect()
}

/// σ: the rows satisfying `pred`, in input order.
pub fn filter(rows: &[Row], pred: &Predicate) -> Vec<Row> {
    rows.iter().filter(|r| pred.eval(r)).cloned().collect()
}

/// Sequential scan of `table` with a residual predicate.
pub fn scan(table: &Table, pred: &Predicate) -> Vec<Row> {
    filter(&table_rows(table), pred)
}

/// The first row carrying each distinct value of `key_cols`, in input
/// order.
pub fn distinct(rows: &[Row], key_cols: &[usize]) -> Vec<Row> {
    let mut seen: Vec<Vec<&Value>> = Vec::new();
    let mut out = Vec::new();
    for r in rows {
        let key: Vec<&Value> = key_cols.iter().map(|&c| r.get(c)).collect();
        if !seen.contains(&key) {
            seen.push(key);
            out.push(r.clone());
        }
    }
    out
}

/// Stable sort on `(column, descending)` keys, first key most
/// significant.
pub fn sort(rows: &[Row], keys: &[(usize, bool)]) -> Vec<Row> {
    let mut out = rows.to_vec();
    // Least significant key first: each stable pass keeps the order the
    // later keys already gave to rows it ties.
    for &(col, descending) in keys.iter().rev() {
        out.sort_by(|a, b| {
            let ord = a.get(col).cmp(b.get(col));
            if descending {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    out
}

/// Nested-loops equi-join: `l ++ r` for every pair with `l[lcol] ==
/// r[rcol]`, in left order, matches of one left row in right order.
pub fn nl_join(left: &[Row], lcol: usize, right: &[Row], rcol: usize) -> Vec<Row> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if l.get(lcol) == r.get(rcol) {
                out.push(l.concat(r));
            }
        }
    }
    out
}

/// Index nested-loops join against a base table: every outer row
/// expanded by the inner rows its key names, in posting-list order.
/// Posting lists hold row ids in ascending order (`tests/
/// storage_conformance.rs` holds the indexes to that), which is the
/// order a walk over the table's rows meets them in.
pub fn index_join(outer: &[Row], outer_col: usize, inner: &Table, inner_col: usize) -> Vec<Row> {
    nl_join(outer, outer_col, &table_rows(inner), inner_col)
}

/// The maximal runs of consecutive rows with equal `group_col`.
pub fn groups(rows: &[Row], group_col: usize) -> Vec<&[Row]> {
    rows.chunk_by(|a, b| a.get(group_col) == b.get(group_col)).collect()
}

/// Hash DGJ: one group of the outer stream at a time, the inner relation
/// evaluated afresh (one call of `inner`) for every group, matches in
/// outer order.
pub fn hdgj(
    outer: &[Row],
    outer_col: usize,
    inner: &mut dyn FnMut() -> Vec<Row>,
    inner_col: usize,
    group_col: usize,
) -> Vec<Row> {
    let mut out = Vec::new();
    for group in groups(outer, group_col) {
        out.extend(nl_join(group, outer_col, &inner(), inner_col));
    }
    out
}

/// What is left of a group-clustered stream for a consumer that drops
/// the rest of a group once it has seen `give_up_after(group)` of its
/// rows (`None`: reads the whole group).
pub fn skip_groups(
    rows: &[Row],
    group_col: usize,
    give_up_after: impl Fn(&Value) -> Option<usize>,
) -> Vec<Row> {
    let mut out = Vec::new();
    for group in groups(rows, group_col) {
        let keep = give_up_after(group[0].get(group_col)).unwrap_or(group.len());
        out.extend(group.iter().take(keep).cloned());
    }
    out
}

/// The first row of each of the first `k` groups.
pub fn distinct_topk(rows: &[Row], group_col: usize, k: usize) -> Vec<Row> {
    groups(rows, group_col).iter().take(k).map(|g| g[0].clone()).collect()
}

// ---- driving the operator under test ---------------------------------

use ts_exec::{set_batch_rows, Batch, BatchOperator};

/// Run `check` once per batch size every property is driven through —
/// both sides of the poll window (1023/1024/1025), degenerate chunks
/// (1, 2), and both sides of the input length — with that size set for
/// this thread. The override is dropped afterwards, also on a failed
/// assertion, so it cannot leak into later cases or tests.
pub fn at_adversarial_sizes(input_len: usize, mut check: impl FnMut(usize)) {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_batch_rows(0);
        }
    }
    let _restore = Restore;
    for size in [1, 2, 1023, 1024, 1025, input_len.saturating_sub(1).max(1), input_len + 1] {
        set_batch_rows(size);
        check(size);
    }
}

/// The selection-vector invariants (non-empty, sorted, unique,
/// in-bounds), re-derived here independently of
/// `Batch::sel_invariants_hold` so the tests do not trust the engine's
/// own self-check.
pub fn check_invariants(b: &Batch<'_>) -> bool {
    match b.sel() {
        None => b.raw_len() > 0,
        Some(sel) => {
            !sel.is_empty()
                && sel.windows(2).all(|w| w[0] < w[1])
                && sel.iter().all(|&i| (i as usize) < b.raw_len())
        }
    }
}

/// Drain a batch operator, checking the invariants on every emitted
/// batch, and return the concatenated materialized rows.
pub fn drain_checked<'a>(op: &mut dyn BatchOperator<'a>) -> Vec<Row> {
    let mut out = Vec::new();
    while let Some(b) = op.next_batch() {
        assert!(
            check_invariants(&b),
            "selection vector must be non-empty, sorted, unique, in-bounds"
        );
        out.extend(b.sel_iter().map(|i| b.materialize_row(i)));
    }
    out
}
