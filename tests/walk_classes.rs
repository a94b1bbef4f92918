//! The offline build takes each path's Definition-1 class from the schema
//! walk the enumerator filed it under, decides the weak policy once per
//! walk, and looks a combination of representatives up by its sharing
//! pattern (each path's signature id plus an orientation bit, and which
//! interior entities the paths share). None of that may change a catalog
//! byte. These checks recompute every pair the way a reader of the paper
//! would — `enumerate_pair_paths`, a per-path signature, a per-path
//! policy check, and the test-side Definition-2 reference in
//! `tests/reference` — and compare by content.
//!
//! A same-set espair (Protein–Protein) is where the orientation bit
//! matters: each pair's paths are stored from the endpoint with the
//! smaller node id, so a non-palindromic signature such as P-U-D-P is
//! met read forwards in one pair and backwards in another, and a pattern
//! key that dropped the bit would hand one the other's union. It takes
//! two such paths, flipped differently, in one pair: at l = 3 this
//! instance has none, at l = 4 it does, and a key without the bit fails
//! the Protein–Protein check there.

mod reference;

use topology_search::prelude::*;
use ts_core::compute::default_es_pairs;
use ts_core::weak::WeakPolicy;
use ts_core::TopOptions;
use ts_graph::{enumerate_pair_paths, CanonicalCode, DataGraph, PathRef, PathSig, SchemaGraph};
use ts_storage::Database;

/// Every pair of `espair` in `cat` against the reference over
/// `enumerate_pair_paths`, with the paths `policy` bans removed first.
/// Returns the number of paths the policy removed and the number of
/// pairs whose product the reference truncated.
fn assert_espair_matches_recompute(
    cat: &Catalog,
    g: &DataGraph,
    schema: &SchemaGraph,
    espair: EsPair,
    policy: Option<&WeakPolicy>,
) -> (u64, u64) {
    let pp = enumerate_pair_paths(g, schema, espair.from, espair.to, cat.l);
    let (mut banned, mut truncated) = (0, 0);
    let mut want = Vec::new();
    for (a, b) in pp.sorted_pairs() {
        let mut paths: Vec<PathRef<'_>> = pp.paths(a, b);
        let before = paths.len();
        paths.retain(|p| !policy.is_some_and(|w| w.is_banned(&p.sig(g))));
        banned += (before - paths.len()) as u64;
        if paths.is_empty() {
            continue;
        }
        let t = reference::pair_tops(g, &paths, TopOptions::default());
        truncated += u64::from(t.truncated);
        let codes: Vec<CanonicalCode> = t.unions.into_iter().map(|(_, c)| c).collect();
        want.push((g.node_entity(a), g.node_entity(b), codes, t.classes));
    }
    want.sort_by_key(|w| (w.0, w.1));
    let got: Vec<_> = cat
        .pairs()
        .filter(|p| p.espair == espair)
        .map(|p| {
            let mut codes: Vec<CanonicalCode> =
                p.topos.iter().map(|&t| cat.meta(t as u32).code.clone()).collect();
            codes.sort();
            let classes: Vec<PathSig> = p.sigs.iter().map(|&s| cat.sig(s).clone()).collect();
            (p.e1, p.e2, codes, classes)
        })
        .collect();
    assert_eq!(got.len(), want.len(), "{espair:?}: pair count");
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got, want, "{espair:?}: pair ({}, {})", want.0, want.1);
    }
    (banned, truncated)
}

/// Signatures of `espair`'s paths at length limit `l` that are met both
/// read forwards and read backwards.
fn signatures_met_both_ways(
    g: &DataGraph,
    schema: &SchemaGraph,
    espair: EsPair,
    l: usize,
) -> usize {
    let pp = enumerate_pair_paths(g, schema, espair.from, espair.to, l);
    let mut seen: Vec<(Vec<u16>, [bool; 2])> = Vec::new();
    for p in pp.all_paths() {
        let mut sig = Vec::new();
        let reversed = p.sig_extend(g, &mut sig);
        match seen.iter_mut().find(|(s, _)| *s == sig) {
            Some((_, ways)) => ways[usize::from(reversed)] = true,
            None => {
                let mut ways = [false; 2];
                ways[usize::from(reversed)] = true;
                seen.push((sig, ways));
            }
        }
    }
    seen.iter().filter(|(_, ways)| ways[0] && ways[1]).count()
}

fn small() -> (ts_biozon::Biozon, DataGraph, SchemaGraph) {
    let biozon = biozon::generate(&biozon::BiozonConfig::small(1));
    let g = DataGraph::from_db(&biozon.db).expect("generator is consistent");
    let schema = SchemaGraph::from_db(&biozon.db);
    (biozon, g, schema)
}

/// Build `db`'s catalog at limit `l` over `es_pairs` and check every
/// espair against the recompute.
fn check(db: &Database, g: &DataGraph, schema: &SchemaGraph, es_pairs: Vec<EsPair>, l: usize) {
    let opts = ComputeOptions { es_pairs: Some(es_pairs.clone()), ..ComputeOptions::with_l(l) };
    let (cat, _) = compute_catalog(db, g, schema, &opts);
    let mut truncated = 0;
    for espair in es_pairs {
        truncated += assert_espair_matches_recompute(&cat, g, schema, espair, None).1;
    }
    assert_eq!(cat.truncated_pairs, truncated);
}

#[test]
fn same_set_espairs_match_a_per_call_recompute() {
    let (db, g, schema) = graph::fixtures::figure3();
    let pp = EsPair::new(graph::fixtures::PROTEIN, graph::fixtures::PROTEIN);
    let mut es_pairs = default_es_pairs(&db, &schema, 3);
    es_pairs.push(pp);
    check(&db, &g, &schema, es_pairs, 3);

    let (biozon, g, schema) = small();
    let pp = EsPair::new(biozon.ids.protein, biozon.ids.protein);
    let mut es_pairs = default_es_pairs(&biozon.db, &schema, 3);
    es_pairs.push(pp);
    check(&biozon.db, &g, &schema, es_pairs, 3);
    assert!(
        signatures_met_both_ways(&g, &schema, pp, 4) > 0,
        "the instance must meet a non-palindromic Protein–Protein signature both ways"
    );
    check(&biozon.db, &g, &schema, vec![pp], 4);
}

#[test]
fn weak_policy_per_walk_matches_a_per_path_filter() {
    let (biozon, g, schema) = small();
    let ids = &biozon.ids;
    let mut policy = WeakPolicy::new();
    policy.ban_walk(
        &[ids.protein, ids.unigene, ids.protein, ids.dna],
        &[ids.uni_encodes, ids.uni_encodes, ids.encodes],
    );
    let opts = ComputeOptions { weak_policy: Some(policy.clone()), ..ComputeOptions::with_l(3) };
    let (cat, stats) = compute_catalog(&biozon.db, &g, &schema, &opts);
    let (mut banned, mut truncated) = (0, 0);
    for espair in default_es_pairs(&biozon.db, &schema, 3) {
        let (b, t) = assert_espair_matches_recompute(&cat, &g, &schema, espair, Some(&policy));
        banned += b;
        truncated += t;
    }
    assert!(banned > 0, "the ban must drop paths on this instance");
    assert_eq!(stats.weak_paths_dropped, banned);
    assert_eq!(cat.truncated_pairs, truncated);
}
