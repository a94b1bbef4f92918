//! Property tests for the batch operators against the tuple-at-a-time
//! reference model in `model/`: concatenating an operator's batches
//! reproduces the model's row stream exactly, and every emitted batch
//! upholds the selection-vector invariants (sorted, unique, in-bounds,
//! non-empty), across adversarial batch sizes that straddle every
//! boundary (1, 2, 1023, 1024, 1025, input_len ± 1).

mod model;

use model::{at_adversarial_sizes, check_invariants, drain_checked};
use proptest::prelude::*;
use ts_exec::{
    batch_rows, BatchDistinct, BatchFilter, BatchHdgj, BatchIdgj, BatchOperator, BatchSort,
    BatchTableScan, BatchValuesScan, BoxedBatchOp, Dir, Work,
};
use ts_storage::{row, ColumnDef, Predicate, Row, Table, TableSchema, Value, ValueType};

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

/// Outer (group, key) pairs of the DGJ properties: five groups, keys
/// that repeat within and across groups.
fn dgj_outer_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0..5i64, 0..6i64), 0..24)
}

/// Inner (key, copies) pairs of the DGJ properties: keys repeat up to 12
/// times, so posting lists outlive the 4-8-16 chunk ladder.
fn dgj_inner_strategy() -> impl Strategy<Value = Vec<(i64, usize)>> {
    proptest::collection::vec((0..6i64, 1..12usize), 0..6)
}

/// Per group, after how many of its rows the consumer abandons it.
fn skips_strategy() -> impl Strategy<Value = Vec<Option<usize>>> {
    proptest::collection::vec(proptest::option::of(1..20usize), 5)
}

/// `[group, key, "o"]` rows clustered by group, key order kept.
fn clustered_outer(mut outer: Vec<(i64, i64)>) -> Vec<Row> {
    outer.sort_by_key(|&(g, _)| g);
    outer.iter().map(|&(g, k)| row![g, k, "o"]).collect()
}

/// `[k, v]` inner table, keyed by `k` (primary key, one copy per key)
/// or indexed on it (every copy).
fn dgj_inner_table(inner_keys: &[(i64, usize)], pk: bool) -> Table {
    let mut inner = Table::new(TableSchema::new(
        "Inner",
        vec![ColumnDef::new("k", ValueType::Int), ColumnDef::new("v", ValueType::Str)],
        pk.then_some(0),
    ));
    for &(k, copies) in inner_keys {
        for c in 0..if pk { 1 } else { copies } {
            // A duplicate pk (the strategy may repeat `k`) is rejected.
            let _ = inner.insert(row![k, format!("v{k}.{c}")]);
        }
    }
    if !pk {
        inner.create_index(0);
    }
    inner
}

/// The outer stream: grouped (skips delegate) or not (skips drain).
fn outer_scan<'a>(rows: &[Row], grouped: bool) -> BoxedBatchOp<'a> {
    if grouped {
        Box::new(BatchValuesScan::grouped(rows.to_vec(), 0, Work::new()))
    } else {
        Box::new(BatchValuesScan::new(rows.to_vec(), Work::new()))
    }
}

/// Pull a grouped operator the way an early-terminating consumer does:
/// abandon group `g` after `skips[g]` of its rows, dropping the rest of
/// the batch in hand too (the grouped-stream invariant, asserted here,
/// says it is the same group). No batch may exceed `max_batch` rows.
fn drain_with_skips<'a>(
    op: &mut dyn BatchOperator<'a>,
    skips: &[Option<usize>],
    max_batch: usize,
) -> Vec<Row> {
    let mut got: Vec<Row> = Vec::new();
    let mut seen = (i64::MIN, 0usize);
    'batches: while let Some(b) = op.next_batch() {
        assert!(
            b.selected() <= max_batch,
            "{} rows in a batch of at most {max_batch}",
            b.selected()
        );
        assert!(check_invariants(&b));
        let g = b.try_int(0, b.first().expect("non-empty")).expect("Int group column");
        for i in b.sel_iter() {
            assert_eq!(b.try_int(0, i), Some(g), "batch spans a group boundary");
            seen = if seen.0 == g { (g, seen.1 + 1) } else { (g, 1) };
            got.push(b.materialize_row(i));
            if skips[g as usize] == Some(seen.1) {
                op.advance_to_next_group();
                continue 'batches;
            }
        }
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Concatenating a batch scan's batches reproduces the model's scan
    /// with a residual predicate exactly, for every adversarial batch
    /// size.
    #[test]
    fn batch_scan_concatenation_equals_tuple_scan(
        rows in rows_strategy(40),
        which in 0u8..5,
    ) {
        let table = make_table(&rows);
        let pred = predicate(which);
        let expected = model::scan(&table, &pred);

        at_adversarial_sizes(table.len(), |size| {
            assert_eq!(batch_rows(), size);
            let mut scan = BatchTableScan::new(&table, pred.clone(), Work::new());
            assert_eq!(
                &drain_checked(&mut scan), &expected,
                "batch scan at batch size {} diverged from the model", size
            );
        });
    }

    /// filter → distinct emits the model's rows, over a table scan
    /// (borrowed columns) and over a materialized stream holding every
    /// row twice (owned columns, every key a duplicate).
    #[test]
    fn batch_filter_distinct_pipeline_matches_tuple(
        rows in rows_strategy(40),
        which in 0u8..5,
    ) {
        let table = make_table(&rows);
        let pred = predicate(which);
        let copy = model::table_rows(&table);
        let twice = [copy.clone(), copy.clone()].concat();
        // A key's first occurrence lies in the first copy.
        let expected = model::distinct(&model::filter(&copy, &pred), &[0, 1]);

        at_adversarial_sizes(table.len(), |size| {
            let scan: BoxedBatchOp<'_> =
                Box::new(BatchTableScan::new(&table, Predicate::True, Work::new()));
            let values: BoxedBatchOp<'_> =
                Box::new(BatchValuesScan::new(twice.clone(), Work::new()));
            for input in [scan, values] {
                let filt: BoxedBatchOp<'_> =
                    Box::new(BatchFilter::new(input, pred.clone(), Work::new()));
                let mut distinct = BatchDistinct::new(filt, vec![0, 1], Work::new());
                assert_eq!(
                    &drain_checked(&mut distinct), &expected,
                    "batch pipeline at batch size {} diverged from the model", size
                );
            }
        });
    }

    /// BatchSort emits the model's stably sorted stream and clips its
    /// output batches at group (first-key) boundaries.
    #[test]
    fn batch_sort_matches_tuple_and_clips_groups(rows in rows_strategy(40)) {
        let table = make_table(&rows);
        let keys = [(0, Dir::Asc), (1, Dir::Desc)];
        let expected =
            model::sort(&model::table_rows(&table), &keys.map(|(c, d)| (c, d == Dir::Desc)));

        at_adversarial_sizes(table.len(), |size| {
            let scan: BoxedBatchOp<'_> =
                Box::new(BatchTableScan::new(&table, Predicate::True, Work::new()));
            let mut sort = BatchSort::new(scan, keys.to_vec(), Work::new());
            let mut got = Vec::new();
            while let Some(b) = sort.next_batch() {
                assert!(check_invariants(&b));
                // Grouped streams never emit a batch spanning two groups.
                let first = b.value(0, b.first().expect("non-empty"));
                for i in b.sel_iter() {
                    assert_eq!(
                        &b.value(0, i), &first,
                        "sorted batch at size {} spans a group boundary", size
                    );
                }
                got.extend(b.sel_iter().map(|i| b.materialize_row(i)));
            }
            assert_eq!(
                &got, &expected,
                "batch sort at batch size {} diverged from the model", size
            );
        });
    }

    /// The lazy posting-list `BatchIdgj` against the model's index join,
    /// row for row, under a random script of group skips. The inner is
    /// probed through its primary key or a secondary index; the outer
    /// is grouped or not.
    #[test]
    fn lazy_batch_idgj_matches_tuple_idgj_under_group_skips(
        outer in dgj_outer_strategy(),
        inner_keys in dgj_inner_strategy(),
        skips in skips_strategy(),
        shape in 0u8..4,
    ) {
        let (pk_inner, grouped_outer) = (shape & 1 == 1, shape & 2 == 2);
        let outer_rows = clustered_outer(outer);
        let inner = dgj_inner_table(&inner_keys, pk_inner);
        let joined = model::index_join(&outer_rows, 1, &inner, 0);
        let expected = model::skip_groups(&joined, 0, |g| skips[g.as_int() as usize]);

        at_adversarial_sizes(outer_rows.len(), |size| {
            let work = Work::new();
            let scan = outer_scan(&outer_rows, grouped_outer);
            let mut batch = BatchIdgj::new(scan, 1, &inner, 0, 0, work.clone());
            let got = drain_with_skips(&mut batch, &skips, size);
            assert_eq!(
                &got, &expected,
                "lazy batch IDGJ at batch size {} (pk {}, grouped {}) diverged from the model",
                size, pk_inner, grouped_outer
            );
            // Every outer row pulled, every probe and every gathered
            // posting row is ticked, so the meter covers the output.
            assert!(work.get() >= got.len() as u64);
        });
    }

    /// `BatchHdgj` against the model's group-at-a-time join under the
    /// same skip scripts: same rows in the same order, and exactly one
    /// full evaluation of the (σ-filtered) inner scan per outer group,
    /// whether or not the consumer then abandons the group.
    #[test]
    fn batch_hdgj_matches_tuple_hdgj_under_group_skips(
        outer in dgj_outer_strategy(),
        inner_keys in dgj_inner_strategy(),
        skips in skips_strategy(),
        shape in 0u8..4,
    ) {
        let (selective_inner, grouped_outer) = (shape & 1 == 1, shape & 2 == 2);
        let outer_rows = clustered_outer(outer);
        let inner = dgj_inner_table(&inner_keys, false);
        let pred =
            if selective_inner { Predicate::contains(1, "v3.0").or(Predicate::eq(0, 1i64)) }
            else { Predicate::True };
        let mut inner_evals = 0u64;
        let mut eval_inner = || {
            inner_evals += 1;
            model::scan(&inner, &pred)
        };
        let joined = model::hdgj(&outer_rows, 1, &mut eval_inner, 0, 0);
        let expected = model::skip_groups(&joined, 0, |g| skips[g.as_int() as usize]);

        at_adversarial_sizes(outer_rows.len(), |size| {
            let inner_work = Work::new();
            let inner_scan: BoxedBatchOp<'_> =
                Box::new(BatchTableScan::new(&inner, pred.clone(), inner_work.clone()));
            let scan = outer_scan(&outer_rows, grouped_outer);
            let mut batch = BatchHdgj::new(scan, 1, inner_scan, 0, 0, Work::new());
            // A group's matches come out as one batch, whatever the size.
            let got = drain_with_skips(&mut batch, &skips, usize::MAX);
            assert_eq!(
                &got, &expected,
                "batch HDGJ at batch size {} (selective {}, grouped {}) diverged from the model",
                size, selective_inner, grouped_outer
            );
            assert_eq!(
                inner_work.get(), inner_evals * inner.len() as u64,
                "inner scans at batch size {}: one full pass per outer group", size
            );
        });
    }
}
