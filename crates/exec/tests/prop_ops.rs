//! Property tests: join, sort, distinct and driver semantics against
//! the reference model in `model/`, at adversarial batch sizes.

mod model;

use model::{at_adversarial_sizes, drain_checked};
use proptest::prelude::*;
use ts_exec::{
    batch_collect_distinct_topk, BatchDistinct, BatchHashJoin, BatchHdgj, BatchIdgj, BatchSort,
    BatchTableScan, BatchValuesScan, BoxedBatchOp, Dir, Work,
};
use ts_storage::{row, ColumnDef, Predicate, Row, Table, TableSchema, Value, ValueType};

fn rows_strategy(n: usize, key_range: i64) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((0..key_range, 0..key_range), 0..n)
        .prop_map(|v| v.into_iter().map(|(a, b)| row![a, b]).collect())
}

fn values<'a>(rows: &[Row]) -> BoxedBatchOp<'a> {
    Box::new(BatchValuesScan::new(rows.to_vec(), Work::new()))
}

fn grouped<'a>(rows: &[Row]) -> BoxedBatchOp<'a> {
    Box::new(BatchValuesScan::grouped(rows.to_vec(), 0, Work::new()))
}

/// Two-Int-column table holding `rows`, indexed on `index_col`.
fn int_table(rows: &[Row], index_col: usize) -> Table {
    let mut t = Table::new(TableSchema::new(
        "I",
        vec![ColumnDef::new("k", ValueType::Int), ColumnDef::new("v", ValueType::Int)],
        None,
    ));
    for r in rows {
        t.insert(r.clone()).expect("two Int columns");
    }
    t.create_index(index_col);
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hash join emits the model's nested-loops join: probe order,
    /// matches in build order.
    #[test]
    fn hash_join_equals_nested_loops(
        left in rows_strategy(20, 6),
        right in rows_strategy(20, 6),
    ) {
        let expected = model::nl_join(&left, 0, &right, 1);

        at_adversarial_sizes(left.len(), |size| {
            let mut hash = BatchHashJoin::new(values(&left), 0, values(&right), 1, Work::new());
            assert_eq!(&drain_checked(&mut hash), &expected, "hash join at size {}", size);
        });
    }

    #[test]
    fn sort_is_a_permutation_and_ordered(rows in rows_strategy(30, 10)) {
        let expected = model::sort(&rows, &[(0, true), (1, false)]);
        // The model's output, held to the definition first.
        for w in expected.windows(2) {
            let k0 = (w[0].get(0).as_int(), w[0].get(1).as_int());
            let k1 = (w[1].get(0).as_int(), w[1].get(1).as_int());
            prop_assert!(k0.0 > k1.0 || (k0.0 == k1.0 && k0.1 <= k1.1));
        }
        at_adversarial_sizes(rows.len(), |size| {
            let mut s =
                BatchSort::new(values(&rows), vec![(0, Dir::Desc), (1, Dir::Asc)], Work::new());
            assert_eq!(&drain_checked(&mut s), &expected, "sort at size {}", size);
        });
    }

    #[test]
    fn distinct_keeps_first_of_each_key(rows in rows_strategy(30, 5)) {
        let expected = model::distinct(&rows, &[0]);
        at_adversarial_sizes(rows.len(), |size| {
            let mut d = BatchDistinct::new(values(&rows), vec![0], Work::new());
            assert_eq!(&drain_checked(&mut d), &expected, "distinct at size {}", size);
        });
    }

    #[test]
    fn idgj_and_hdgj_agree_with_reference(
        groups in proptest::collection::vec((0..4i64, proptest::collection::vec(0..8i64, 0..5)), 0..5),
    ) {
        // Build a clustered outer: (group, key) rows.
        let mut outer_rows: Vec<Row> = Vec::new();
        let mut gs: Vec<(i64, Vec<i64>)> = groups;
        gs.sort_by_key(|g| g.0);
        gs.dedup_by_key(|g| g.0);
        for (gid, keys) in &gs {
            for k in keys {
                outer_rows.push(row![*gid, *k]);
            }
        }
        // Inner table with an index: the even keys.
        let inner_rows: Vec<Row> = (0..8i64).step_by(2).map(|k| row![k, k * 100]).collect();
        let inner = int_table(&inner_rows, 0);
        let expected = model::nl_join(&outer_rows, 1, &inner_rows, 0);
        // Group order preserved.
        let gseq: Vec<i64> = expected.iter().map(|r| r.get(0).as_int()).collect();
        prop_assert!(gseq.windows(2).all(|w| w[0] <= w[1]));

        at_adversarial_sizes(outer_rows.len(), |size| {
            let mut idgj = BatchIdgj::new(grouped(&outer_rows), 1, &inner, 0, 0, Work::new());
            assert_eq!(&drain_checked(&mut idgj), &expected, "IDGJ at size {}", size);
            let inner_scan: BoxedBatchOp<'_> =
                Box::new(BatchTableScan::new(&inner, Predicate::True, Work::new()));
            let mut hdgj =
                BatchHdgj::new(grouped(&outer_rows), 1, inner_scan, 0, 0, Work::new());
            assert_eq!(&drain_checked(&mut hdgj), &expected, "HDGJ at size {}", size);
        });
    }

    #[test]
    fn distinct_groups_equals_unique_group_values(
        gids in proptest::collection::vec(0..5i64, 0..20),
        k in 0usize..7,
    ) {
        let mut sorted = gids.clone();
        sorted.sort_unstable();
        let rows: Vec<Row> = sorted.iter().enumerate().map(|(i, &g)| row![g, i as i64]).collect();
        let mut unique: Vec<Value> = sorted.into_iter().map(Value::Int).collect();
        unique.dedup();
        let topk = model::distinct_topk(&rows, 0, k);

        at_adversarial_sizes(rows.len(), |size| {
            // The scan skips groups itself, or the driver ignores repeats.
            for mut scan in [grouped(&rows), values(&rows)] {
                let groups: Vec<Value> = batch_collect_distinct_topk(scan.as_mut(), 0, usize::MAX)
                    .iter()
                    .map(|r| r.get(0).clone())
                    .collect();
                assert_eq!(&groups, &unique, "distinct groups at size {}", size);
                scan.rewind();
                let top = batch_collect_distinct_topk(scan.as_mut(), 0, k);
                assert_eq!(&top, &topk, "top-{} at size {}", k, size);
            }
        });
    }
}
