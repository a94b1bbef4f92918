//! Allocation budgets of the execution engine, policed with a counting
//! global allocator: the batch sort/distinct fast lanes must not build
//! per-row scratch keys, sort emission must stay batch-granular on
//! non-Int payloads too, and the early-termination stack must read a
//! chunk of a group, not the group.
//!
//! Same counting-global-allocator pattern the `compute_catalog` bench
//! uses: output equality against the reference model in `model/`, and a
//! counting window whose allocation count must not scale with row count.

mod model;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use ts_exec::{
    batch_collect_all, batch_collect_distinct_topk, BatchDistinct, BatchIdgj, BatchKeyScan,
    BatchOperator, BatchPkSemiJoin, BatchSort, BatchValuesScan, BoxedBatchOp, Dir, Work,
};
use ts_storage::{row, ColumnDef, Predicate, Row, Table, TableSchema, ValueType};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: a pure pass-through to `System` — every method forwards its
// arguments unchanged and returns `System`'s result, so `System`'s own
// GlobalAlloc guarantees (layout fit, pointer validity) carry over; the
// added counter work is lock-free atomics and cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: same layout handed straight to `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: ptr/layout/new_size forwarded untouched; the caller's
        // obligations become `System.realloc`'s preconditions verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr was produced by `System.alloc`/`realloc` above with
        // this same layout, exactly what `System.dealloc` requires.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counters above are process-wide; libtest runs the tests in this
/// binary concurrently, so every test holds this lock to keep foreign
/// allocations out of a counting window.
static SERIAL: Mutex<()> = Mutex::new(());

const N: usize = 1024;

/// Deterministically shuffled rows: (key desc tie-broken, id, payload).
fn input_rows() -> Vec<Row> {
    (0..N as i64)
        .map(|i| {
            let key = (i * 37) % 11;
            row![key, i, "payload shared across rows"]
        })
        .collect()
}

/// Emission out of a filled `BatchSort` with a Str payload column (the
/// `Value` lane, not the raw `i64` one) costs a few `Vec`s per emitted
/// batch — one batch per key group here — and nothing per row: string
/// cells are shared, not copied.
#[test]
fn sort_emits_without_per_row_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rows = input_rows();
    let expected = model::sort(&rows, &[(0, true), (1, false)]);

    let scan: BoxedBatchOp<'static> = Box::new(BatchValuesScan::new(rows, Work::new()));
    let mut s = BatchSort::new(scan, vec![(0, Dir::Desc), (1, Dir::Asc)], Work::new());

    // Force the fill (buffering + sorting may allocate; that's fine and
    // not what this test polices).
    let first = s.next_batch().expect("non-empty input");

    // Count allocations across the pure-emission tail.
    let mut batches = vec![first];
    batches.reserve(16);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    while let Some(b) = s.next_batch() {
        batches.push(b);
    }
    COUNTING.store(false, Ordering::Relaxed);
    let emission_allocs = ALLOCS.load(Ordering::Relaxed);

    let got: Vec<Row> = batches.iter().flat_map(|b| b.materialize()).collect();
    assert_eq!(got, expected, "batch sort changed the sorted output");
    // 11 key groups, so 10 batches in the window, each a column vector
    // plus one buffer per column; a per-row clone would cost >= N.
    assert!(
        emission_allocs < 64,
        "BatchSort allocated {emission_allocs} times while emitting {N} buffered rows"
    );
}

/// `BatchSort` on all-Int input must sort on the raw `i64` column
/// buffers — a permutation over borrowed slices — not on per-row
/// scratch key rows. Allocation count across fill + emission of 1024
/// rows stays a small constant (batch-granular `Vec`s only); the
/// per-row-key version allocated at least one `Vec<Value>` per row.
#[test]
fn batch_sort_all_int_sorts_raw_buffers_without_per_row_keys() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rows: Vec<Row> = (0..N as i64).map(|i| row![(i * 37) % 11, i]).collect();
    let expected: Vec<(i64, i64)> = model::sort(&rows, &[(0, false), (1, false)])
        .iter()
        .map(|r| (r.get(0).as_int(), r.get(1).as_int()))
        .collect();

    let scan: BoxedBatchOp<'static> = Box::new(BatchValuesScan::new(rows, Work::new()));
    let mut s = BatchSort::new(scan, vec![(0, Dir::Asc), (1, Dir::Asc)], Work::new());

    let mut got: Vec<(i64, i64)> = Vec::with_capacity(N);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    while let Some(b) = s.next_batch() {
        for i in b.sel_iter() {
            got.push((
                b.try_int(0, i).expect("all-Int column"),
                b.try_int(1, i).expect("all-Int column"),
            ));
        }
    }
    COUNTING.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(got, expected, "batch sort changed the sorted output");
    assert!(
        allocs < 128,
        "BatchSort allocated {allocs} times sorting and emitting {N} all-Int rows \
         (per-row scratch keys would cost >= {N})"
    );
}

/// `BatchDistinct` with an all-Int key must dedup straight off the raw
/// column values (an `i64` hash-set probe per row), not via per-row
/// scratch key rows.
#[test]
fn batch_distinct_all_int_key_dedups_without_per_row_scratch() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rows: Vec<Row> = (0..N as i64).map(|i| row![(i * 37) % 11, i]).collect();
    let expected: Vec<i64> =
        model::distinct(&rows, &[0]).iter().map(|r| r.get(0).as_int()).collect();

    let scan: BoxedBatchOp<'static> = Box::new(BatchValuesScan::new(rows, Work::new()));
    let mut d = BatchDistinct::new(scan, vec![0], Work::new());

    let mut got: Vec<i64> = Vec::with_capacity(16);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    while let Some(b) = d.next_batch() {
        for i in b.sel_iter() {
            got.push(b.try_int(0, i).expect("all-Int column"));
        }
    }
    COUNTING.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(got, expected, "batch distinct changed the kept keys");
    assert!(
        allocs < 64,
        "BatchDistinct allocated {allocs} times deduping {N} all-Int rows \
         (per-row scratch keys would cost >= {N})"
    );
}

/// Top-1 through the early-termination stack (key scan → posting-list
/// IDGJ → two pk semi-joins → distinct-top-k driver) over one
/// 50 000-row group whose first row is already a witness: the stack
/// must read the first chunk of the posting list and abandon the rest,
/// so bytes allocated and work ticked are those of a chunk. Gathering
/// the whole list first would allocate well over a megabyte (50 000
/// rows × 4 columns × 8 bytes).
#[test]
fn et_stack_top1_over_a_huge_group_reads_one_chunk() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const GROUP: i64 = 50_000;
    let mut tops = Table::new(TableSchema::new(
        "Tops",
        ["E1", "E2", "TID"].map(|c| ColumnDef::new(c, ValueType::Int)).to_vec(),
        None,
    ));
    for i in 0..GROUP {
        tops.insert_ints(&[i % 100, 1000 + i % 50, 7]).expect("three Int columns");
    }
    tops.create_index_bulk(2);
    let mut entities = Table::new(TableSchema::new(
        "Entity",
        vec![ColumnDef::new("ID", ValueType::Int), ColumnDef::new("kind", ValueType::Str)],
        Some(0),
    ));
    for id in (0..100).chain(1000..1050) {
        entities.insert(row![id as i64, "enzyme"]).expect("unique ids");
    }
    let pred = Predicate::eq(1, "enzyme");

    let work = Work::new();
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let scan: BoxedBatchOp<'_> = Box::new(BatchKeyScan::new([7i64, 8].into_iter(), work.clone()));
    let expand: BoxedBatchOp<'_> = Box::new(BatchIdgj::new(scan, 0, &tops, 2, 0, work.clone()));
    let j1: BoxedBatchOp<'_> =
        Box::new(BatchPkSemiJoin::new(expand, 1, &entities, &pred, work.clone()));
    let mut j2 = BatchPkSemiJoin::new(j1, 2, &entities, &pred, work.clone());
    let top = batch_collect_distinct_topk(&mut j2, 0, 1);
    drop(j2);
    COUNTING.store(false, Ordering::Relaxed);
    let bytes = BYTES.load(Ordering::Relaxed);

    assert_eq!(top.len(), 1);
    assert_eq!(top[0].get(0).as_int(), 7);
    assert!(work.get() < 64, "top-1 ticked {} units on a {GROUP}-row group", work.get());
    assert!(bytes < 4096, "top-1 allocated {bytes} bytes on a {GROUP}-row group");
}

#[test]
fn sort_rewind_refills_and_replays() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rows = input_rows();
    let expected = model::sort(&rows, &[(0, false), (1, false)]);
    let scan: BoxedBatchOp<'static> = Box::new(BatchValuesScan::new(rows, Work::new()));
    let mut s = BatchSort::new(scan, vec![(0, Dir::Asc), (1, Dir::Asc)], Work::new());
    let first_pass = batch_collect_all(&mut s);
    s.rewind();
    let second_pass = batch_collect_all(&mut s);
    assert_eq!(first_pass, expected);
    assert_eq!(second_pass, expected);
}
