//! The work meter as a property of the code that runs: every operator,
//! drained at `batch_conformance`'s adversarial batch sizes, charges its
//! own meter at least one tick per row it pulls from each input (outer,
//! inner or build side, or the rows it scans), and under a step quota on
//! a meter its whole stack shares it stops interrupted, with its output
//! a prefix of the unbudgeted stream. The two budgeted drivers count
//! each row they keep, so a row quota of r keeps at most r rows, again a
//! prefix.
//!
//! A loop that reads rows without charging them is invisible to the
//! deadline, cancellation and step-quota machinery. The inputs below are
//! shaped so that deleting any single `tick` or `count_row` from `src/`
//! breaks one of these properties: groups of up to 12 rows, of which a
//! group-skipping consumer reads one, and two to five postings per key.

mod model;

use std::cell::Cell;
use std::rc::Rc;

use model::at_adversarial_sizes;
use ts_exec::{
    batch_collect_all_budgeted, batch_collect_distinct_topk_budgeted, Batch, BatchDistinct,
    BatchFilter, BatchHashJoin, BatchHdgj, BatchIdgj, BatchKeyScan, BatchOperator, BatchPkSemiJoin,
    BatchSort, BatchTableScan, BatchValuesScan, BoxedBatchOp, Budget, Dir, Exhausted, Work,
};
use ts_storage::{row, ColumnDef, Predicate, Row, Table, TableSchema, ValueType};

/// Passes its input through, counting the rows it hands on: what the
/// operator above it pulled.
struct Counted<'a> {
    input: BoxedBatchOp<'a>,
    rows: Rc<Cell<u64>>,
}

impl<'a> BatchOperator<'a> for Counted<'a> {
    fn next_batch(&mut self) -> Option<Batch<'a>> {
        let b = self.input.next_batch()?;
        self.rows.set(self.rows.get() + b.selected() as u64);
        Some(b)
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

/// Keys a [`BatchKeyScan`] streams.
const KEYS: i64 = 20;

struct Fixture {
    /// `[group, key, note]` clustered by group; group sizes run from 1
    /// to 12.
    grouped: Vec<Row>,
    /// `[k, v]`: two to five rows for every key 0..6, indexed on `k`.
    postings: Table,
    /// `[id, desc]` keyed by `id` 0..6; odd ids say "keep".
    entities: Table,
    keep: Predicate,
}

impl Fixture {
    fn new() -> Fixture {
        let mut grouped = Vec::new();
        for (g, size) in [1i64, 3, 9, 2, 12, 5, 1, 7].into_iter().enumerate() {
            let g = g as i64;
            for i in 0..size {
                grouped.push(row![g, (g * 7 + i) % 6, "o"]);
            }
        }
        let mut postings = Table::new(TableSchema::new(
            "Postings",
            vec![ColumnDef::new("k", ValueType::Int), ColumnDef::new("v", ValueType::Int)],
            None,
        ));
        for k in 0..6i64 {
            for c in 0..2 + k % 4 {
                postings.insert(row![k, 10 * k + c]).expect("two Int columns");
            }
        }
        postings.create_index(0);
        let mut entities = Table::new(TableSchema::new(
            "Entities",
            vec![ColumnDef::new("id", ValueType::Int), ColumnDef::new("desc", ValueType::Str)],
            Some(0),
        ));
        for id in 0..6i64 {
            let desc = if id % 2 == 1 { "keep" } else { "drop" };
            entities.insert(row![id, desc]).expect("distinct ids");
        }
        Fixture { grouped, postings, entities, keep: Predicate::eq(1, "keep") }
    }
}

#[derive(Debug, Clone, Copy)]
enum Case {
    TableScan,
    ValuesScan,
    GroupedValuesScan,
    KeyScan,
    Filter,
    Distinct,
    Sort,
    HashJoin,
    Idgj,
    IdgjOverUngrouped,
    Hdgj,
    HdgjOverUngrouped,
    PkSemiJoin,
}

const CASES: [Case; 13] = [
    Case::TableScan,
    Case::ValuesScan,
    Case::GroupedValuesScan,
    Case::KeyScan,
    Case::Filter,
    Case::Distinct,
    Case::Sort,
    Case::HashJoin,
    Case::Idgj,
    Case::IdgjOverUngrouped,
    Case::Hdgj,
    Case::HdgjOverUngrouped,
    Case::PkSemiJoin,
];

/// `case` over fresh inputs. The operator charges `own` and its inputs
/// charge `inputs` (one meter when the stack shares it); `pulled` counts
/// the rows it takes from those inputs.
fn build<'a>(
    case: Case,
    fx: &'a Fixture,
    own: &Work,
    inputs: &Work,
    pulled: &Rc<Cell<u64>>,
) -> BoxedBatchOp<'a> {
    let counted = |input: BoxedBatchOp<'a>| -> BoxedBatchOp<'a> {
        Box::new(Counted { input, rows: pulled.clone() })
    };
    let values = || -> BoxedBatchOp<'a> {
        counted(Box::new(BatchValuesScan::new(fx.grouped.clone(), inputs.clone())))
    };
    let grouped = || -> BoxedBatchOp<'a> {
        counted(Box::new(BatchValuesScan::grouped(fx.grouped.clone(), 0, inputs.clone())))
    };
    let postings = || -> BoxedBatchOp<'a> {
        counted(Box::new(BatchTableScan::new(&fx.postings, Predicate::True, inputs.clone())))
    };
    let own = own.clone();
    match case {
        Case::TableScan => Box::new(BatchTableScan::new(&fx.postings, Predicate::eq(0, 3i64), own)),
        Case::ValuesScan => Box::new(BatchValuesScan::new(fx.grouped.clone(), own)),
        Case::GroupedValuesScan => Box::new(BatchValuesScan::grouped(fx.grouped.clone(), 0, own)),
        Case::KeyScan => Box::new(BatchKeyScan::new((0..KEYS).rev(), own)),
        Case::Filter => Box::new(BatchFilter::new(grouped(), Predicate::eq(1, 2i64), own)),
        Case::Distinct => Box::new(BatchDistinct::new(values(), vec![1], own)),
        Case::Sort => Box::new(BatchSort::new(values(), vec![(1, Dir::Desc), (0, Dir::Asc)], own)),
        Case::HashJoin => Box::new(BatchHashJoin::new(values(), 1, grouped(), 1, own)),
        Case::Idgj => Box::new(BatchIdgj::new(grouped(), 1, &fx.postings, 0, 0, own)),
        Case::IdgjOverUngrouped => Box::new(BatchIdgj::new(values(), 1, &fx.postings, 0, 0, own)),
        Case::Hdgj => Box::new(BatchHdgj::new(grouped(), 1, postings(), 0, 0, own)),
        Case::HdgjOverUngrouped => Box::new(BatchHdgj::new(values(), 1, postings(), 0, 0, own)),
        Case::PkSemiJoin => {
            Box::new(BatchPkSemiJoin::new(grouped(), 1, &fx.entities, &fx.keep, own))
        }
    }
}

/// Rows `case` reads other than through an operator input, once drained:
/// the rows it scans, or, for an IDGJ, the posting rows it gathered,
/// each of which it emits.
fn direct_rows(case: Case, fx: &Fixture, emitted: u64) -> u64 {
    match case {
        Case::TableScan => fx.postings.len() as u64,
        Case::ValuesScan | Case::GroupedValuesScan => fx.grouped.len() as u64,
        Case::KeyScan => KEYS as u64,
        Case::Idgj | Case::IdgjOverUngrouped => emitted,
        Case::Filter
        | Case::Distinct
        | Case::Sort
        | Case::HashJoin
        | Case::Hdgj
        | Case::HdgjOverUngrouped
        | Case::PkSemiJoin => 0,
    }
}

/// Pull `op` to its end. With `skip`, leave each group at its first row,
/// as the top-k driver does. Returns the rows taken and the rows `op`
/// emitted (a skipped batch's tail included).
fn drain<'a>(op: &mut dyn BatchOperator<'a>, skip: bool) -> (Vec<Row>, u64) {
    let (mut taken, mut emitted) = (Vec::new(), 0u64);
    while let Some(b) = op.next_batch() {
        emitted += b.selected() as u64;
        if skip {
            taken.push(b.materialize_row(b.first().expect("batches are non-empty")));
            op.advance_to_next_group();
        } else {
            taken.extend(b.materialize());
        }
    }
    (taken, emitted)
}

/// Every operator, drained whole and (where grouped) by skipping groups,
/// ticks its own meter at least once per row it pulled from each input.
#[test]
fn every_operator_charges_a_tick_per_row_it_pulls() {
    let fx = Fixture::new();
    for case in CASES {
        for skip in [false, true] {
            at_adversarial_sizes(fx.grouped.len(), |size| {
                let (own, inputs, pulled) = (Work::new(), Work::new(), Rc::new(Cell::new(0)));
                let mut op = build(case, &fx, &own, &inputs, &pulled);
                let skip = skip && op.grouped();
                let (_, emitted) = drain(op.as_mut(), skip);
                let rows = pulled.get() + direct_rows(case, &fx, emitted);
                assert!(rows > 0, "{case:?} pulled nothing: the case has no teeth");
                assert!(
                    own.get() >= rows,
                    "{case:?} at batch size {size} (skipping groups: {skip}): {} ticks for {rows} rows pulled",
                    own.get()
                );
            });
        }
    }
}

/// Step quotas below the unbudgeted work: 0, 1, half, all but one.
fn quotas_below(work: u64) -> Vec<u64> {
    let mut q = vec![0, 1, work / 2, work.saturating_sub(1)];
    q.retain(|&q| q < work);
    q.dedup();
    q
}

/// On one budgeted meter for the whole stack, every step quota below
/// the unbudgeted work stops the operator interrupted, and what it
/// emitted is a prefix of the unbudgeted stream; a quota of exactly
/// that work changes nothing. Every quota, because a budget that trips
/// mid-way through a sort's fill or a hash DGJ's inner re-scan leaves
/// a part that is a prefix at some trip points and not at others.
#[test]
fn every_operator_stops_at_a_step_quota_with_a_prefix() {
    let fx = Fixture::new();
    let pulled = Rc::new(Cell::new(0));
    for case in CASES {
        for skip in [false, true] {
            at_adversarial_sizes(fx.grouped.len(), |size| {
                let run = |work: &Work| {
                    let mut op = build(case, &fx, work, work, &pulled);
                    let skip = skip && op.grouped();
                    drain(op.as_mut(), skip).0
                };
                let meter = Work::new();
                let full = run(&meter);
                let label = format!("{case:?} at batch size {size} (skipping groups: {skip})");
                for quota in 0..meter.get() {
                    let work =
                        Work::with_budget(Budget { step_quota: Some(quota), ..Budget::default() });
                    let got = run(&work);
                    assert_eq!(work.exhausted(), Some(Exhausted::Steps), "{label}, quota {quota}");
                    assert!(full.starts_with(&got), "{label}, quota {quota}: {got:?} is no prefix");
                }
                let exact = Work::with_budget(Budget {
                    step_quota: Some(meter.get()),
                    ..Budget::default()
                });
                assert_eq!(run(&exact), full, "{label}: a quota of the whole work");
                assert_eq!(exact.exhausted(), None, "{label}: a quota of the whole work");
            });
        }
    }
}

/// The two budgeted drivers count every row they keep: a row quota of
/// r keeps at most r, a prefix, and says so; a step quota stops them at
/// a prefix.
#[test]
fn budgeted_drivers_count_every_row_they_keep() {
    let fx = Fixture::new();
    let groups = 8u64;
    at_adversarial_sizes(fx.grouped.len(), |size| {
        let scan = |work: &Work| BatchValuesScan::grouped(fx.grouped.clone(), 0, work.clone());
        let all = |work: &Work| batch_collect_all_budgeted(&mut scan(work), work);
        let topk = |work: &Work| {
            batch_collect_distinct_topk_budgeted(&mut scan(work), 0, usize::MAX, work)
        };
        for (name, collect, total) in [
            ("collect-all", &all as &dyn Fn(&Work) -> Vec<Row>, fx.grouped.len() as u64),
            ("distinct top-k", &topk, groups),
        ] {
            let meter = Work::new();
            let full = collect(&meter);
            assert_eq!(full.len() as u64, total, "{name} at batch size {size}");
            for quota in 0..=total {
                let label = format!("{name} at batch size {size}, row quota {quota}");
                let work =
                    Work::with_budget(Budget { row_quota: Some(quota), ..Budget::default() });
                let got = collect(&work);
                assert!(got.len() as u64 <= quota, "{label}: kept {} rows", got.len());
                assert!(full.starts_with(&got), "{label}: {got:?} is no prefix");
                let want = (quota < total).then_some(Exhausted::Rows);
                assert_eq!(work.exhausted(), want, "{label}");
            }
            for quota in quotas_below(meter.get()) {
                let label = format!("{name} at batch size {size}, step quota {quota}");
                let work =
                    Work::with_budget(Budget { step_quota: Some(quota), ..Budget::default() });
                let got = collect(&work);
                assert_eq!(work.exhausted(), Some(Exhausted::Steps), "{label}");
                assert!(full.starts_with(&got), "{label}: {got:?} is no prefix");
            }
        }
    });
}
