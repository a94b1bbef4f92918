//! The fast-hasher determinism guard.
//!
//! PR 5 swept an FxHash-style hasher (`ts_storage::hash`) through every
//! hot-path map. A fixed, non-random hasher can silently *freeze* an
//! iteration-order dependence into the output — exactly the bug class
//! the old randomly-seeded SipHash would have surfaced as flakiness. The
//! contract is therefore: **no catalog byte may depend on which hasher
//! the build ran under.** This test rebuilds the medium catalog with
//! `std`'s randomly-seeded SipHash in the worker-side memo maps
//! (`compute_catalog_with_hasher::<RandomState>`) and asserts byte
//! identity with the production fast-hash build — heap size, every
//! pair's topologies and path classes, metadata, materialized tables,
//! and an FNV digest of the whole structure — serial and across
//! worker-thread counts. Every run uses a fresh random SipHash seed,
//! so any order dependence shows up as a flaky diff here long before it
//! could corrupt the pinned method-equivalence matrix.

use std::collections::hash_map::RandomState;

use topology_search::prelude::*;
use ts_core::compute_catalog_with_hasher;

fn assert_catalogs_identical(c1: &Catalog, c2: &Catalog) {
    assert_eq!(c1.l, c2.l);
    assert_eq!(c1.topology_count(), c2.topology_count());
    assert_eq!(c1.sig_count(), c2.sig_count());
    assert_eq!(c1.code_count(), c2.code_count());
    for (m1, m2) in c1.metas().iter().zip(c2.metas().iter()) {
        assert_eq!(m1.id, m2.id);
        assert_eq!(m1.espair, m2.espair);
        assert_eq!(m1.code, m2.code);
        assert_eq!(m1.code_id, m2.code_id);
        assert_eq!(m1.freq, m2.freq);
        assert_eq!(m1.path_sig, m2.path_sig);
        assert_eq!(m1.graph.labels, m2.graph.labels);
        assert_eq!(m1.graph.edges, m2.graph.edges);
    }
    assert_eq!(c1.pair_count(), c2.pair_count());
    for (p1, p2) in c1.pairs().zip(c2.pairs()) {
        assert_eq!((p1.espair, p1.e1, p1.e2), (p2.espair, p2.e1, p2.e2));
        assert_eq!(p1.topos, p2.topos);
        assert_eq!(p1.sigs, p2.sigs);
    }
    for (t1, t2) in [(&c1.alltops, &c2.alltops), (&c1.lefttops, &c2.lefttops)] {
        assert_eq!(t1.len(), t2.len());
        for (r1, r2) in t1.rows().zip(t2.rows()) {
            assert_eq!(r1, r2);
        }
        assert_eq!(t1.heap_size(), t2.heap_size());
    }
    assert_eq!(c1.heap_size(), c2.heap_size(), "byte footprint must not depend on the hasher");
}

/// FNV-1a digest of the catalog's observable structure: every pair's
/// key, topologies and path classes, metadata codes, and heap size.
/// One number that moves if *anything* the hasher could reorder moved.
fn catalog_digest(c: &Catalog) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for p in c.pairs() {
        eat(p.espair.from as u64);
        eat(p.espair.to as u64);
        eat(p.e1 as u64);
        eat(p.e2 as u64);
        for &t in p.topos {
            eat(t as u64);
        }
        for &s in p.sigs {
            eat(s as u64);
        }
    }
    for m in c.metas() {
        eat(m.id as u64);
        eat(m.code_id as u64);
        eat(m.freq);
        for &w in &m.code.0 {
            eat(w as u64);
        }
    }
    eat(c.heap_size() as u64);
    h
}

fn medium() -> (ts_biozon::Biozon, ts_graph::DataGraph, ts_graph::SchemaGraph) {
    let biozon = biozon::generate(&biozon::BiozonConfig::default().scaled(0.25));
    let graph = graph::DataGraph::from_db(&biozon.db).expect("generator is consistent");
    let schema = graph::SchemaGraph::from_db(&biozon.db);
    (biozon, graph, schema)
}

#[test]
fn sip_and_fast_hashers_build_identical_medium_catalogs() {
    let (biozon, graph, schema) = medium();
    let opts = ComputeOptions::with_l(3);

    let (c_fast, s_fast) = compute_catalog(&biozon.db, &graph, &schema, &opts);
    let (c_sip, s_sip) =
        compute_catalog_with_hasher::<RandomState>(&biozon.db, &graph, &schema, &opts);

    assert_catalogs_identical(&c_fast, &c_sip);
    assert_eq!(catalog_digest(&c_fast), catalog_digest(&c_sip));

    // The logical work is identical too — including the signature hash
    // budget, which counts interner probes (one per distinct schema-walk
    // signature per worker and espair), not hasher internals.
    assert_eq!(s_fast.pairs, s_sip.pairs);
    assert_eq!(s_fast.paths, s_sip.paths);
    assert_eq!(s_fast.topologies, s_sip.topologies);
    assert_eq!(s_fast.sig_hashes, s_sip.sig_hashes);
    assert!(s_fast.sig_hashes > 0, "the build must report its signature hash budget");
    assert!(
        s_fast.sig_hashes <= s_fast.paths + s_fast.pairs,
        "sig hashing must stay bounded by one probe per path and pair: {} probes for {} paths / {} pairs",
        s_fast.sig_hashes,
        s_fast.paths,
        s_fast.pairs
    );
    assert_eq!(s_fast.canon_hits + s_fast.canon_misses, s_sip.canon_hits + s_sip.canon_misses);
}

#[test]
fn sip_hasher_parallel_matches_fast_serial_across_thread_counts() {
    // The merge must erase scheduler *and* hasher at the same time:
    // SipHash-memo workers on 1/2/4 threads against the fast-hash serial
    // reference.
    let (biozon, graph, schema) = medium();
    let (c_ref, _) = compute_catalog(&biozon.db, &graph, &schema, &ComputeOptions::with_l(3));
    let digest_ref = catalog_digest(&c_ref);
    for threads in [1usize, 2, 4] {
        let opts = ComputeOptions {
            parallel: true,
            min_parallel_sources: 1,
            max_threads: threads,
            ..ComputeOptions::with_l(3)
        };
        let (c, _) = compute_catalog_with_hasher::<RandomState>(&biozon.db, &graph, &schema, &opts);
        assert_catalogs_identical(&c_ref, &c);
        assert_eq!(digest_ref, catalog_digest(&c), "{threads} sip threads vs fast serial");
    }
}
