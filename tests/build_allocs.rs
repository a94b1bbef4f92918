//! Allocation budget of the offline build, policed with a counting
//! global allocator (the pattern of `crates/exec/tests/sort_allocs.rs`).
//!
//! A build worker hands the merge `u32` topology-slot ids; the union
//! graph and canonical code behind a slot are cloned once per worker, not
//! once per (pair, topology) incidence, and a single-path pair whose
//! signature already has a slot builds no union at all. The canonical
//! code search allocates a fixed handful of buffers per memo miss and
//! nothing per row, candidate or leaf. Per AllTops row (one row per
//! incidence) the whole `compute_catalog` therefore allocates fewer than
//! two times; a per-incidence clone of a graph and a code costs at least
//! three allocations a row on its own, and the allocating search pushed
//! the ratio past 3.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use topology_search::prelude::*;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

// SAFETY: a pure pass-through to `System` — every method forwards its
// arguments unchanged and returns `System`'s result, so `System`'s own
// GlobalAlloc guarantees (layout fit, pointer validity) carry over; the
// added counter work is lock-free atomics and cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout handed straight to `System.alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// Allocations per AllTops row the serial build may make. Measured on
/// this instance (16 619 rows): 1.68 with the allocation-free search,
/// 3.12 with the allocating one, 6.03 when every incidence also cloned
/// its union graph and code.
const MAX_ALLOCS_PER_ROW: f64 = 2.5;

#[test]
fn compute_catalog_allocates_per_worker_topology_not_per_incidence() {
    let biozon = biozon::generate(&biozon::BiozonConfig::small(1));
    let graph = graph::DataGraph::from_db(&biozon.db).expect("generator is consistent");
    let schema = graph::SchemaGraph::from_db(&biozon.db);
    let opts = ComputeOptions::with_l(3);

    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let (catalog, stats) = compute_catalog(&biozon.db, &graph, &schema, &opts);
    COUNTING.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);

    let rows = catalog.alltops.len();
    assert!(rows > 1000, "instance too small to measure: {rows} AllTops rows");
    let per_row = allocs as f64 / rows as f64;
    assert!(
        per_row <= MAX_ALLOCS_PER_ROW,
        "compute_catalog made {allocs} allocations for {rows} AllTops rows ({per_row:.2} a row, \
         bound {MAX_ALLOCS_PER_ROW}; {} pairs, {} topologies)",
        stats.pairs,
        stats.topologies
    );
}
