//! Offline catalog-build benchmark with a machine-readable trajectory.
//!
//! The paper's whole design rests on the offline build being affordable
//! (§4.1): topology queries are fast *because* `PS(a,b,l)` enumeration
//! and per-pair canonicalization happened ahead of time. This bench
//! times `compute_catalog` — serial and parallel — on generated Biozon
//! instances and writes `BENCH_compute_catalog.json` so every PR records
//! its perf trajectory (see `EXPERIMENTS.md`).
//!
//! Knobs:
//!
//! * `TS_BENCH_SIZES` — comma-separated subset of `tiny,small,medium`
//!   (default `medium`; CI runs `tiny`).
//! * `TS_BENCH_JSON` — output path (default: `BENCH_compute_catalog.json`
//!   at the workspace root, independent of cargo's bench cwd).
//! * `TS_BENCH_SCALE` — extra multiplier on every size (ts-bench wide).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use ts_bench::{header, paper_espairs, scale_from_env};
use ts_biozon::{generate, BiozonConfig};
use ts_core::{compute_catalog, Catalog, ComputeOptions, ComputeStats};
use ts_graph::{DataGraph, SchemaGraph};
use ts_storage::Table;

/// Counting allocator: the harness's proof that the columnar store
/// actually removed the per-row allocations, not just shuffled them.
/// Counting is gated so the timed build loop pays one relaxed load per
/// allocation instead of an atomic RMW — the timings stay comparable
/// to runs under the plain `System` allocator.
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

/// Replay AllTops materialization — the `finalize` loop that used to
/// build one `Row(Vec<Value>)` per row — against the finished catalog's
/// rows, counting heap allocations. With the columnar store the whole
/// loop must stay O(columns): a handful of buffer reservations, nothing
/// per row. Asserted here so a regression fails the bench run itself.
fn measure_alltops_allocs(cat: &Catalog) -> u64 {
    let rows: Vec<[i64; 3]> =
        cat.alltops.rows().map(|r| [r.as_int(0), r.as_int(1), r.as_int(2)]).collect();
    let schema = cat.alltops.schema().clone();
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let mut table = Table::new(schema);
    table.reserve(rows.len());
    for r in &rows {
        table.insert_ints(r).expect("alltops schema is all-Int");
    }
    COUNTING.store(false, Ordering::Relaxed);
    let delta = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(table.len(), rows.len());
    std::hint::black_box(&table);
    assert!(
        delta <= 16,
        "AllTops materialization must be O(columns) allocations, measured {delta} for {} rows",
        rows.len()
    );
    delta
}

struct SizeSpec {
    name: &'static str,
    scale: f64,
    iters: usize,
}

const SIZES: &[SizeSpec] = &[
    SizeSpec { name: "tiny", scale: 0.05, iters: 15 },
    SizeSpec { name: "small", scale: 0.1, iters: 9 },
    SizeSpec { name: "medium", scale: 0.25, iters: 5 },
];

struct Row {
    size: &'static str,
    method: &'static str,
    scale: f64,
    entities: usize,
    edges: usize,
    pairs: u64,
    paths: u64,
    topologies: usize,
    ns_per_iter: u128,
    iters: usize,
    /// Heap footprint of the finished catalog (path-class CSR + metas +
    /// interners + materialized tables), bytes.
    catalog_bytes: usize,
    /// Path-class CSR alone (one offset per pair + the class ids), bytes:
    /// all the catalog keeps per pair beyond its AllTops rows.
    pair_bytes: usize,
    /// The AllTops table alone (columnar buffers + hash indexes), bytes.
    alltops_bytes: usize,
    /// Heap allocations measured while re-materializing AllTops into a
    /// fresh columnar table (O(columns), asserted — the seed layout paid
    /// one per row).
    alltops_materialize_allocs: u64,
    stats: ComputeStats,
}

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn run_method(
    spec: &SizeSpec,
    scale: f64,
    parallel: bool,
    biozon: &ts_biozon::Biozon,
    g: &DataGraph,
    schema: &SchemaGraph,
    rows: &mut Vec<Row>,
) {
    let mut opts = ComputeOptions::with_l(3);
    opts.es_pairs = Some(paper_espairs(&biozon.ids));
    opts.parallel = parallel;

    // Warm-up (also pre-faults the generated tables).
    let (_, mut stats) = compute_catalog(&biozon.db, g, schema, &opts);
    let mut samples = Vec::with_capacity(spec.iters);
    let mut last = None;
    for it in 0..spec.iters {
        let t0 = Instant::now();
        let (cat, s) = compute_catalog(&biozon.db, g, schema, &opts);
        samples.push(t0.elapsed().as_nanos());
        std::hint::black_box(cat.topology_count());
        stats = s;
        // Keep only the final catalog (retaining every iteration's
        // would double resident heap during the timed builds).
        if it + 1 == spec.iters {
            last = Some(cat);
        }
    }
    // Size and allocation audits run once, on the last catalog, outside
    // the timed loop.
    let cat = last.expect("iters >= 1");
    let catalog_bytes = cat.heap_size();
    let pair_bytes = cat.pair_bytes();
    let alltops_bytes = cat.alltops.heap_size();
    let alltops_materialize_allocs = measure_alltops_allocs(&cat);
    let ns = median(samples);
    let method = if parallel { "parallel" } else { "serial" };
    println!(
        "compute_catalog/{}/{:<8} {:>12.3} ms/iter  ({} pairs, {} paths, {} topologies, memo hit rate {:.3}, {} sig hashes, catalog {:.1} KiB, path classes {:.1} KiB, AllTops {:.1} KiB in {} allocs)",
        spec.name,
        method,
        ns as f64 / 1e6,
        stats.pairs,
        stats.paths,
        stats.topologies,
        stats.canon_hit_rate(),
        stats.sig_hashes,
        catalog_bytes as f64 / 1024.0,
        pair_bytes as f64 / 1024.0,
        alltops_bytes as f64 / 1024.0,
        alltops_materialize_allocs
    );
    rows.push(Row {
        size: spec.name,
        method,
        scale,
        entities: g.node_count(),
        edges: g.edge_count(),
        pairs: stats.pairs,
        paths: stats.paths,
        topologies: stats.topologies,
        ns_per_iter: ns,
        iters: spec.iters,
        catalog_bytes,
        pair_bytes,
        alltops_bytes,
        alltops_materialize_allocs,
        stats,
    });
}

fn emit_json(rows: &[Row]) {
    // Cargo runs bench executables with cwd = the package dir
    // (crates/bench), so the default aims at the workspace root, where
    // the recorded trajectory lives.
    let path = std::env::var("TS_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compute_catalog.json").into()
    });
    let mut out = String::from(
        "{\n  \"bench\": \"compute_catalog\",\n  \"unit\": \"ns/iter\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"size\": \"{}\", \"method\": \"{}\", \"scale\": {}, \"entities\": {}, \"edges\": {}, \"pairs\": {}, \"paths\": {}, \"topologies\": {}, \"ns_per_iter\": {}, \"iters\": {}, \"canon_hits\": {}, \"canon_misses\": {}, \"canon_hit_rate\": {:.4}, \"sig_hash_once\": {}, \"catalog_bytes\": {}, \"pair_bytes\": {}, \"alltops_bytes\": {}, \"alltops_materialize_allocs\": {}}}{}\n",
            r.size,
            r.method,
            r.scale,
            r.entities,
            r.edges,
            r.pairs,
            r.paths,
            r.topologies,
            r.ns_per_iter,
            r.iters,
            r.stats.canon_hits,
            r.stats.canon_misses,
            r.stats.canon_hit_rate(),
            r.stats.sig_hashes,
            r.catalog_bytes,
            r.pair_bytes,
            r.alltops_bytes,
            r.alltops_materialize_allocs,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out).expect("write bench json");
    println!("\nwrote {path}");
}

fn main() {
    header("compute_catalog: offline build (serial vs parallel)");
    let sizes = std::env::var("TS_BENCH_SIZES").unwrap_or_else(|_| "medium".into());
    let global = scale_from_env();
    let mut rows = Vec::new();
    for spec in SIZES {
        if !sizes.split(',').any(|s| s.trim() == spec.name) {
            continue;
        }
        let scale = spec.scale * global;
        // One generated instance per size, shared by both methods.
        let biozon = generate(&BiozonConfig::default().scaled(scale));
        let g = DataGraph::from_db(&biozon.db).expect("generator is consistent");
        let schema = SchemaGraph::from_db(&biozon.db);
        run_method(spec, scale, false, &biozon, &g, &schema, &mut rows);
        run_method(spec, scale, true, &biozon, &g, &schema, &mut rows);
    }
    assert!(!rows.is_empty(), "TS_BENCH_SIZES selected no size (tiny,small,medium)");
    emit_json(&rows);
}
