//! Property tests for the vectorized batch engine: batch streams are
//! proven equivalent to the tuple engine's row streams, and every
//! emitted batch upholds the selection-vector invariants (sorted,
//! unique, in-bounds, non-empty), across adversarial batch sizes that
//! straddle every boundary (1, 2, 1023, 1024, 1025, table_len ± 1).

use proptest::prelude::*;
use ts_exec::{
    batch_rows, collect_all, set_batch_rows, Batch, BatchDistinct, BatchFilter, BatchIdgj,
    BatchOperator, BatchSort, BatchTableScan, BatchValuesScan, BoxedBatchOp, BoxedOp, Dir,
    Distinct, Filter, Idgj, Operator, Sort, TableScan, ValuesScan, Work,
};
use ts_storage::{row, ColumnDef, Predicate, Row, Table, TableSchema, Value, ValueType};

/// Restores the thread-local batch-rows override (0 = engine default)
/// when dropped, so an early `prop_assert!` return cannot leak an
/// adversarial batch size into later cases or tests.
struct BatchRowsGuard;

impl Drop for BatchRowsGuard {
    fn drop(&mut self) {
        set_batch_rows(0);
    }
}

/// Table schema [a: Int, b: Int, d: Str], with optional nulls in `d` so
/// the scan exercises both the borrowed-slice and the materialized
/// `Vals` column paths.
fn make_table(rows: &[(i64, i64, Option<u8>)]) -> Table {
    const WORDS: [&str; 4] = ["alpha beta", "gamma", "delta alpha", "epsilon"];
    let mut t = Table::new(TableSchema::new(
        "T",
        vec![
            ColumnDef::new("a", ValueType::Int),
            ColumnDef::new("b", ValueType::Int),
            ColumnDef::new("d", ValueType::Str),
        ],
        None,
    ));
    for &(a, b, w) in rows {
        let d = match w {
            Some(i) => Value::from(WORDS[i as usize % WORDS.len()]),
            None => Value::Null,
        };
        t.insert(row![a, b, d]).expect("schema accepts every generated row");
    }
    t
}

fn rows_strategy(n: usize) -> impl Strategy<Value = Vec<(i64, i64, Option<u8>)>> {
    proptest::collection::vec((0..6i64, -3..3i64, proptest::option::of(0..4u8)), 0..n)
}

fn predicate(which: u8) -> Predicate {
    match which % 5 {
        0 => Predicate::True,
        1 => Predicate::eq(0, 2i64),
        2 => Predicate::contains(2, "alpha"),
        3 => Predicate::eq(0, 1i64).and(Predicate::eq(1, 0i64)),
        _ => Predicate::Not(Box::new(Predicate::eq(1, -1i64))),
    }
}

/// The batch sizes the suite drives every property through: both sides
/// of the poll window (1023/1024/1025), degenerate chunks (1, 2), and
/// both sides of the table length.
fn adversarial_sizes(table_len: usize) -> Vec<usize> {
    let mut sizes = vec![1, 2, 1023, 1024, 1025];
    sizes.push(table_len.saturating_sub(1).max(1));
    sizes.push(table_len + 1);
    sizes
}

/// Drain a batch operator, checking the selection-vector invariants on
/// every emitted batch, and return the concatenated materialized rows.
fn drain_checked<'a>(op: &mut dyn BatchOperator<'a>) -> Vec<Row> {
    let mut out = Vec::new();
    while let Some(b) = op.next_batch() {
        assert!(b.selected() > 0, "emitted batches must be non-empty");
        assert!(check_invariants(&b), "selection vector must be sorted, unique, in-bounds");
        for i in b.sel_iter() {
            out.push(b.materialize_row(i));
        }
    }
    out
}

/// The selection-vector invariants, re-derived here independently of
/// `Batch::sel_invariants_hold` so the test does not trust the engine's
/// own self-check.
fn check_invariants(b: &Batch<'_>) -> bool {
    match b.sel() {
        None => b.raw_len() > 0,
        Some(sel) => {
            !sel.is_empty()
                && sel.windows(2).all(|w| w[0] < w[1])
                && sel.iter().all(|&i| (i as usize) < b.raw_len())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Concatenating a batch scan's batches reproduces the tuple scan's
    /// row stream exactly, for every adversarial batch size.
    #[test]
    fn batch_scan_concatenation_equals_tuple_scan(
        rows in rows_strategy(40),
        which in 0u8..5,
    ) {
        let table = make_table(&rows);
        let pred = predicate(which);
        let mut tuple = TableScan::new(&table, pred.clone(), Work::new());
        let expected = collect_all(&mut tuple);

        let _guard = BatchRowsGuard;
        for size in adversarial_sizes(table.len()) {
            set_batch_rows(size);
            prop_assert_eq!(batch_rows(), size);
            let mut scan = BatchTableScan::new(&table, pred.clone(), Work::new());
            let got = drain_checked(&mut scan);
            prop_assert_eq!(
                &got, &expected,
                "batch scan at batch size {} diverged from the tuple scan", size
            );
        }
    }

    /// A filter → distinct pipeline emits identical rows on both
    /// engines, and every intermediate batch upholds the invariants.
    #[test]
    fn batch_filter_distinct_pipeline_matches_tuple(
        rows in rows_strategy(40),
        which in 0u8..5,
    ) {
        let table = make_table(&rows);
        let pred = predicate(which);

        let scan: BoxedOp<'_> = Box::new(TableScan::new(&table, Predicate::True, Work::new()));
        let filt: BoxedOp<'_> = Box::new(Filter::new(scan, pred.clone(), Work::new()));
        let mut distinct = Distinct::new(filt, vec![0, 1], Work::new());
        let expected = collect_all(&mut distinct);

        let _guard = BatchRowsGuard;
        for size in adversarial_sizes(table.len()) {
            set_batch_rows(size);
            let scan: BoxedBatchOp<'_> =
                Box::new(BatchTableScan::new(&table, Predicate::True, Work::new()));
            let filt: BoxedBatchOp<'_> = Box::new(BatchFilter::new(scan, pred.clone(), Work::new()));
            let mut distinct = BatchDistinct::new(filt, vec![0, 1], Work::new());
            let got = drain_checked(&mut distinct);
            prop_assert_eq!(
                &got, &expected,
                "batch pipeline at batch size {} diverged from the tuple pipeline", size
            );
        }
    }

    /// BatchSort emits the same totally ordered stream as tuple Sort and
    /// clips its output batches at group (first-key) boundaries.
    #[test]
    fn batch_sort_matches_tuple_and_clips_groups(rows in rows_strategy(40)) {
        let table = make_table(&rows);
        let keys = vec![(0, Dir::Asc), (1, Dir::Desc)];

        let scan: BoxedOp<'_> = Box::new(TableScan::new(&table, Predicate::True, Work::new()));
        let mut sort = Sort::new(scan, keys.clone(), Work::new());
        let expected = collect_all(&mut sort);

        let _guard = BatchRowsGuard;
        for size in adversarial_sizes(table.len()) {
            set_batch_rows(size);
            let scan: BoxedBatchOp<'_> =
                Box::new(BatchTableScan::new(&table, Predicate::True, Work::new()));
            let mut sort = BatchSort::new(scan, keys.clone(), Work::new());
            let mut got = Vec::new();
            while let Some(b) = sort.next_batch() {
                prop_assert!(b.selected() > 0);
                prop_assert!(check_invariants(&b));
                // Grouped streams never emit a batch spanning two groups.
                let first = b.value(0, b.first().expect("non-empty"));
                for i in b.sel_iter() {
                    prop_assert_eq!(
                        &b.value(0, i), &first,
                        "sorted batch at size {} spans a group boundary", size
                    );
                }
                got.extend(b.sel_iter().map(|i| b.materialize_row(i)));
            }
            prop_assert_eq!(
                &got, &expected,
                "batch sort at batch size {} diverged from tuple sort", size
            );
        }
    }

    /// The lazy posting-list `BatchIdgj` against the tuple `Idgj`, row
    /// for row, under a random script of group skips: the consumer
    /// abandons group `g` after `skips[g]` of its rows (the batch
    /// consumer also drops the rest of the batch in hand, which the
    /// grouped-stream invariant says is the same group). Outer rows
    /// repeat keys and inner keys repeat up to 12 times, so posting
    /// lists outlive the 4-8-16 chunk ladder; the inner is probed
    /// through its primary key or a secondary index; the outer is
    /// grouped (skips delegate) or not (skips drain).
    #[test]
    fn lazy_batch_idgj_matches_tuple_idgj_under_group_skips(
        outer in proptest::collection::vec((0..5i64, 0..6i64), 0..24),
        inner_keys in proptest::collection::vec((0..6i64, 1..12usize), 0..6),
        skips in proptest::collection::vec(proptest::option::of(1..20usize), 5),
        shape in 0u8..4,
    ) {
        let (pk_inner, grouped_outer) = (shape & 1 == 1, shape & 2 == 2);
        let mut outer = outer;
        outer.sort_by_key(|&(g, _)| g); // clustered by group, key order kept
        let outer_rows: Vec<Row> = outer.iter().map(|&(g, k)| row![g, k, "o"]).collect();

        let mut inner = Table::new(TableSchema::new(
            "Inner",
            vec![ColumnDef::new("k", ValueType::Int), ColumnDef::new("v", ValueType::Str)],
            pk_inner.then_some(0),
        ));
        for &(k, copies) in &inner_keys {
            for c in 0..if pk_inner { 1 } else { copies } {
                // A duplicate pk (the strategy may repeat `k`) is rejected.
                let _ = inner.insert(row![k, format!("v{k}.{c}")]);
            }
        }
        if !pk_inner {
            inner.create_index(0);
        }

        // Rows of group `g` seen since its start; true = skip now.
        let wants_skip = |g: i64, seen: usize| skips[g as usize] == Some(seen);

        let scan: BoxedOp<'_> = if grouped_outer {
            Box::new(ValuesScan::grouped(outer_rows.clone(), 0, Work::new()))
        } else {
            Box::new(ValuesScan::new(outer_rows.clone(), Work::new()))
        };
        let mut tuple = Idgj::new(scan, 1, &inner, 0, 0, Work::new());
        let mut expected: Vec<Row> = Vec::new();
        let mut seen = (i64::MIN, 0usize);
        while let Some(r) = tuple.next() {
            let g = r.get(0).as_int();
            seen = if seen.0 == g { (g, seen.1 + 1) } else { (g, 1) };
            expected.push(r);
            if wants_skip(g, seen.1) {
                tuple.advance_to_next_group();
            }
        }

        let _guard = BatchRowsGuard;
        for size in adversarial_sizes(outer_rows.len()) {
            set_batch_rows(size);
            let scan: BoxedBatchOp<'_> = if grouped_outer {
                Box::new(BatchValuesScan::grouped(outer_rows.clone(), 0, Work::new()))
            } else {
                Box::new(BatchValuesScan::new(outer_rows.clone(), Work::new()))
            };
            let work = Work::new();
            let mut batch = BatchIdgj::new(scan, 1, &inner, 0, 0, work.clone());
            let mut got: Vec<Row> = Vec::new();
            let mut seen = (i64::MIN, 0usize);
            'batches: while let Some(b) = batch.next_batch() {
                prop_assert!(b.selected() > 0 && b.selected() <= size);
                prop_assert!(check_invariants(&b));
                let g = b.try_int(0, b.first().expect("non-empty")).expect("Int group column");
                for i in b.sel_iter() {
                    prop_assert_eq!(
                        b.try_int(0, i), Some(g),
                        "batch at size {} spans a group boundary", size
                    );
                    seen = if seen.0 == g { (g, seen.1 + 1) } else { (g, 1) };
                    got.push(b.materialize_row(i));
                    if wants_skip(g, seen.1) {
                        batch.advance_to_next_group();
                        continue 'batches;
                    }
                }
            }
            prop_assert_eq!(
                &got, &expected,
                "lazy batch IDGJ at batch size {} (pk {}, grouped {}) diverged from tuple IDGJ",
                size, pk_inner, grouped_outer
            );
            // Every outer row pulled, every probe and every gathered
            // posting row is ticked, so the meter covers the output.
            prop_assert!(work.get() >= got.len() as u64);
        }
    }
}
