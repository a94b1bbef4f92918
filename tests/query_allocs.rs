//! Allocation budget of one query, policed with a counting global
//! allocator (the pattern of `tests/build_allocs.rs`).
//!
//! A step quota bounds a query's ticks; this bounds its allocations.
//! For every method but `SQL` (which enumerates paths online and is in
//! no serving workload), a query over the grid and the benchmark's
//! 252-query mix allocates at most a per-method constant number of
//! times, at every k and every prune depth of the sweep: σ's buffers,
//! the found bit set, the result vector, and — for the Fast plans — one
//! DFS stack and path buffer that every online check of the query
//! shares, however many checks run. The early-termination stack is the
//! known exception: its operators allocate per group and per tick, so
//! the ET methods (and the `*Opt` methods, which may choose ET) are held
//! to a per-tick bound instead, and are not claimed to be flat.
//!
//! One `#[test]` in this binary, so no other test's allocations land on
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use topology_search::prelude::*;

mod grid;

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

/// Allocations of one evaluation, and its ticks.
fn measure(m: Method, ctx: &QueryContext<'_>, q: &TopologyQuery) -> (u64, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = m.eval(ctx, q);
    COUNTING.store(false, Ordering::Relaxed);
    (ALLOCS.load(Ordering::Relaxed), out.work)
}

/// A query's allocation bound per method, as `(fixed, per tick)`: a
/// constant for the regular and Fast plans, and `fixed + per tick ×
/// ticks` for the methods that run (or may choose) the DGJ stack.
/// Measured on this instance as the maximum over every query and every
/// cell of the sweep; tighten these, never loosen them.
fn bound(m: Method) -> (u64, f64) {
    match m {
        Method::FullTop | Method::FullTopK => (15, 0.0),
        Method::FastTop => (19, 0.0),
        Method::FastTopK => (21, 0.0),
        // The known defect: ET allocates per group and per tick.
        Method::FullTopKEt | Method::FastTopKEt => (104, 1.25),
        Method::FullTopKOpt | Method::FastTopKOpt => (118, 1.25),
        Method::Sql => (u64::MAX, 0.0),
    }
}

#[test]
fn a_query_allocates_a_bounded_number_of_times() {
    let mut cfg = biozon::BiozonConfig::default().scaled(0.12);
    cfg.seed = 1;
    let biozon = biozon::generate(&cfg);
    let graph = graph::DataGraph::from_db(&biozon.db).expect("generator is consistent");
    let schema = graph::SchemaGraph::from_db(&biozon.db);
    let ids = &biozon.ids;
    let espairs = vec![
        EsPair::new(ids.protein, ids.dna),
        EsPair::new(ids.protein, ids.unigene),
        EsPair::new(ids.protein, ids.interaction),
        EsPair::new(ids.dna, ids.unigene),
        EsPair::new(ids.dna, ids.interaction),
        EsPair::new(ids.unigene, ids.interaction),
    ];
    let opts = ComputeOptions { es_pairs: Some(espairs), ..ComputeOptions::with_l(3) };
    let (mut catalog, _) = compute_catalog(&biozon.db, &graph, &schema, &opts);
    let mut freqs: Vec<u64> = catalog.metas().iter().map(|m| m.freq).collect();
    freqs.sort_unstable();
    let percentile = |p: usize| freqs[freqs.len() * p / 100];
    let depths = [("none", u64::MAX), ("p99", percentile(99)), ("p95", percentile(95))];

    let mut queries = grid::grid_queries(ids, 3);
    queries.extend(biozon::query_mix(ids, 3, 252, 7));
    let methods: Vec<Method> = Method::all().into_iter().filter(|&m| m != Method::Sql).collect();
    let mut pruned_counts = Vec::new();
    for (depth, threshold) in depths {
        let report = prune_catalog(&mut catalog, PruneOptions { threshold, max_pruned: 32 });
        score_catalog(&mut catalog, &biozon::domain_scorer(ids));
        pruned_counts.push(report.pruned.len());
        let ctx =
            QueryContext { db: &biozon.db, graph: &graph, schema: &schema, catalog: &catalog };
        // Each query's own k, then every query at one k.
        for k in [None, Some(1), Some(20), Some(1_000)] {
            for &m in &methods {
                let (fixed, per_tick) = bound(m);
                let mut max = 0;
                for (qi, q) in queries.iter().enumerate() {
                    let q = k.map_or_else(|| q.clone(), |k| q.clone().with_k(k));
                    let (allocs, ticks) = measure(m, &ctx, &q);
                    let limit = fixed as f64 + per_tick * ticks as f64;
                    assert!(
                        allocs as f64 <= limit,
                        "{depth}, k {k:?}, query {qi}: {} made {allocs} allocations in \
                         {ticks} ticks, bound {fixed} + {per_tick} a tick",
                        m.name()
                    );
                    max = max.max(allocs);
                }
                println!(
                    "{depth} ({} pruned), k {k:?}: {} at most {max}",
                    report.pruned.len(),
                    m.name()
                );
            }
        }
    }
    assert!(
        pruned_counts.windows(2).all(|w| w[0] < w[1]),
        "each depth must prune more: {pruned_counts:?}"
    );
}
