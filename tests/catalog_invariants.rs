//! Cross-crate invariants of the topology catalog, checked on generated
//! databases across several seeds. These are the properties that make
//! the Fast-Top equivalence proof of §4 go through.

use topology_search::prelude::*;
use ts_core::compute::path_sig_of_graph;
use ts_core::PruneOptions;
use ts_graph::canonical_code;

fn build(seed: u64) -> (ts_biozon::Biozon, ts_graph::DataGraph, ts_graph::SchemaGraph, Catalog) {
    let biozon = biozon::generate(&biozon::BiozonConfig::default().scaled(0.1));
    let mut cfg = biozon.config.clone();
    cfg.seed = seed;
    let biozon = biozon::generate(&cfg);
    let graph = graph::DataGraph::from_db(&biozon.db).expect("consistent");
    let schema = graph::SchemaGraph::from_db(&biozon.db);
    let pairs = vec![
        EsPair::new(biozon.ids.protein, biozon.ids.dna),
        EsPair::new(biozon.ids.protein, biozon.ids.interaction),
        EsPair::new(biozon.ids.dna, biozon.ids.unigene),
    ];
    let opts = ComputeOptions { es_pairs: Some(pairs), ..ComputeOptions::with_l(3) };
    let (mut catalog, _) = compute_catalog(&biozon.db, &graph, &schema, &opts);
    prune_catalog(&mut catalog, PruneOptions { threshold: 10, max_pruned: 32 });
    (biozon, graph, schema, catalog)
}

#[test]
fn frequencies_equal_alltops_row_counts() {
    for seed in [1u64, 7, 99] {
        let (_b, _g, _s, cat) = build(seed);
        let mut counts = std::collections::HashMap::new();
        for r in cat.alltops.rows() {
            *counts.entry(r.get(2).as_int() as u32).or_insert(0u64) += 1;
        }
        for m in cat.metas() {
            assert_eq!(m.freq, counts.get(&m.id).copied().unwrap_or(0), "seed {seed} tid {}", m.id);
        }
    }
}

#[test]
fn lefttops_is_alltops_minus_pruned() {
    for seed in [1u64, 7] {
        let (_b, _g, _s, cat) = build(seed);
        let pruned: std::collections::HashSet<u32> =
            cat.metas().iter().filter(|m| m.pruned).map(|m| m.id).collect();
        assert!(!pruned.is_empty(), "seed {seed}: expect something pruned at threshold 10");
        let expected: usize =
            cat.alltops.rows().filter(|r| !pruned.contains(&(r.as_int(2) as u32))).count();
        assert_eq!(cat.lefttops.len(), expected, "seed {seed}");
        for r in cat.lefttops.rows() {
            assert!(!pruned.contains(&(r.get(2).as_int() as u32)));
        }
    }
}

/// Every exception from the definition, with no pair skipped: for
/// every pair in order, and every pruned topology of its espair, the
/// pair when it has the topology's path class but not the topology.
fn definitional_exceptions(cat: &Catalog) -> Vec<(i64, i64, u32)> {
    let mut out = Vec::new();
    for p in cat.pairs() {
        for &tid in cat.pruned_ids(p.espair) {
            let m = cat.meta(tid);
            let sig = cat.sig_id(m.path_sig.as_ref().expect("path-shaped")).expect("interned");
            if p.sigs.contains(&sig) && !p.topos.contains(&i64::from(tid)) {
                out.push((p.e1, p.e2, tid));
            }
        }
    }
    out
}

#[test]
fn exception_rows_are_exactly_multi_class_pairs_with_the_pruned_path() {
    // The rule the counted exceptions stand on: a pair with a pruned
    // path topology's class lacks the topology exactly when it has a
    // second class, and has it when that class is its only one.
    let (_b, _g, _s, cat) = build(7);
    let (mut multi, mut single) = (0, 0);
    for p in cat.pairs() {
        for &tid in cat.pruned_ids(p.espair) {
            let m = cat.meta(tid);
            let sig = cat.sig_id(m.path_sig.as_ref().expect("path-shaped")).expect("interned");
            if !p.sigs.contains(&sig) {
                continue;
            }
            let has = p.topos.contains(&i64::from(tid));
            assert_eq!(has, p.sigs.len() == 1, "({}, {}) for {tid}", p.e1, p.e2);
            assert_eq!(cat.holds(p.e1, p.e2, tid), has, "({}, {}) for {tid}", p.e1, p.e2);
            if has {
                single += 1;
            } else {
                multi += 1;
            }
        }
    }
    assert!(multi > 0 && single > 0, "{multi} exceptions, {single} pairs with the topology");
    let counted: usize = cat.metas().iter().map(|m| m.exceptions).sum();
    assert_eq!(counted, multi);
}

/// The pruned catalogs the exception property runs on: seeds 1, 7 and
/// 99, Fig. 3 with everything path-shaped pruned, and `small(1)` with
/// its same-set espairs, re-pruned in place at 50 and then 5. Each comes
/// with the report of its last prune.
fn pruned_catalogs() -> Vec<(String, Catalog, ts_core::PruneReport)> {
    let mut out = Vec::new();
    for seed in [1u64, 7, 99] {
        let mut cat = build(seed).3;
        // The same options again: pruning is idempotent, and this yields
        // its report.
        let report = prune_catalog(&mut cat, PruneOptions { threshold: 10, max_pruned: 32 });
        out.push((format!("seed {seed}"), cat, report));
    }
    let (db, g, schema) = graph::fixtures::figure3();
    let (mut fig3, _) = compute_catalog(&db, &g, &schema, &ComputeOptions::with_l(3));
    let report = prune_catalog(&mut fig3, PruneOptions { threshold: 0, max_pruned: 64 });
    out.push(("figure 3".to_string(), fig3, report));
    let (_, _, _, mut cat) = small_with_same_set_espairs();
    for threshold in [50, 5] {
        let report = prune_catalog(&mut cat, PruneOptions { threshold, max_pruned: 32 });
        out.push((format!("small(1), threshold {threshold}"), cat.clone(), report));
    }
    out
}

/// `small(1)` at l = 3 over every connected espair plus Protein–Protein
/// and DNA–DNA, whose pairs are stored once (E1 the end with the lower
/// node id), unpruned.
fn small_with_same_set_espairs(
) -> (ts_biozon::Biozon, ts_graph::DataGraph, ts_graph::SchemaGraph, Catalog) {
    let biozon = biozon::generate(&biozon::BiozonConfig::small(1));
    let graph = graph::DataGraph::from_db(&biozon.db).expect("consistent");
    let schema = graph::SchemaGraph::from_db(&biozon.db);
    let mut es_pairs = ts_core::compute::default_es_pairs(&biozon.db, &schema, 3);
    let ids = &biozon.ids;
    es_pairs.extend([EsPair::new(ids.protein, ids.protein), EsPair::new(ids.dna, ids.dna)]);
    let opts = ComputeOptions { es_pairs: Some(es_pairs), ..ComputeOptions::with_l(3) };
    let (cat, _) = compute_catalog(&biozon.db, &graph, &schema, &opts);
    (biozon, graph, schema, cat)
}

/// Fig. 13 without ExcpTops: `holds` against a set of AllTops' rows
/// read by a linear scan, on every row and on keys one step away from
/// one: the E2 of the neighbouring rows, every other pruned topology of
/// the row's espair, E1 ± 1, and the pair the other way round (which for
/// a same-set espair names the same two entities).
#[test]
fn exception_probe_matches_a_linear_scan() {
    for (label, cat, _) in pruned_catalogs() {
        let [e1s, e2s, tids] = [0, 1, 2]
            .map(|c| cat.alltops.store().ints(c).expect("tops columns are null-free Int").to_vec());
        let rows: std::collections::HashSet<(i64, i64, i64)> =
            (0..tids.len()).map(|i| (e1s[i], e2s[i], tids[i])).collect();
        let mut keys = Vec::new();
        for i in 0..tids.len() {
            let (e1, e2, tid) = (e1s[i], e2s[i], tids[i]);
            keys.push((e1, e2, tid));
            for j in [i.wrapping_sub(1), i + 1] {
                if let Some(&other_e2) = e2s.get(j) {
                    keys.push((e1, other_e2, tid));
                }
            }
            for &other in cat.pruned_ids(cat.meta(tid as u32).espair) {
                keys.push((e1, e2, i64::from(other)));
            }
            keys.extend([(e1 - 1, e2, tid), (e1 + 1, e2, tid), (e2, e1, tid)]);
        }
        let (mut hits, mut misses) = (0, 0);
        for (e1, e2, tid) in keys {
            let want = rows.contains(&(e1, e2, tid));
            assert_eq!(cat.holds(e1, e2, tid as u32), want, "{label}: holds({e1}, {e2}, {tid})");
            if want {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        assert!(hits > 0 && misses > 0, "{label}: {hits} hits, {misses} misses");
    }
}

/// The counted exceptions, which stand in for ExcpTops' rows, against
/// the definitional recompute: per pruned topology, in total against the
/// prune report, and each exception a pair `holds` rejects.
#[test]
fn excptops_equals_a_definitional_recompute() {
    for (label, cat, report) in pruned_catalogs() {
        let want = definitional_exceptions(&cat);
        assert!(!want.is_empty(), "{label}: no exceptions to check");
        for &(e1, e2, tid) in &want {
            assert!(!cat.holds(e1, e2, tid), "{label}: exception ({e1}, {e2}) for {tid}");
        }
        for m in cat.metas() {
            let n = want.iter().filter(|e| e.2 == m.id).count();
            assert_eq!(m.exceptions, n, "{label}: exceptions of {}", m.id);
        }
        assert_eq!(report.excptops_rows, want.len(), "{label}: report");
    }
}

/// A same-set pair is stored once, E1 the end with the lower node id;
/// an online check that walks it from its E2 end must probe it that way
/// round. Here a stored `(a, b)` is an exception for a pruned P–P or
/// D–D path topology T, and a query selects only `b` on the first side
/// and only `a` on the second, so the check for T walks from `b` to
/// `a`: Fast-Top must not claim T. Probing `(b, a)` as walked finds no
/// exception row to block the claim.
#[test]
fn same_set_exception_reached_from_its_e2_is_not_claimed() {
    let (biozon, graph, schema, mut cat) = small_with_same_set_espairs();
    prune_catalog(&mut cat, PruneOptions { threshold: 5, max_pruned: 32 });
    let ctx = QueryContext { db: &biozon.db, graph: &graph, schema: &schema, catalog: &cat };
    let mut cases = 0;
    for (e1, e2, tid) in definitional_exceptions(&cat) {
        let espair = cat.meta(tid).espair;
        if espair.from != espair.to || !walk_reaches(&ctx, tid, e2, e1) {
            continue;
        }
        let pk = |es: u16, id: i64| {
            let table = biozon.db.table(biozon.db.entity_set(usize::from(es)).table);
            Predicate::eq(table.schema().primary_key.expect("entity sets have a pk"), id)
        };
        let q =
            TopologyQuery::new(espair.from, pk(espair.from, e2), espair.to, pk(espair.to, e1), 3);
        let fast = Method::FastTop.eval(&ctx, &q);
        assert!(!fast.tid_set().contains(&tid), "({e1}, {e2}) claimed for {tid} from {e2}");
        cases += 1;
    }
    assert!(cases > 0, "no same-set exception reachable from its E2 end");
}

/// Whether pruned topology `tid`'s label walk, taken from its espair's
/// `from` side as the online checks take it, leads from entity `a` to
/// entity `b` along a simple path.
fn walk_reaches(ctx: &QueryContext<'_>, tid: u32, a: i64, b: i64) -> bool {
    let m = ctx.catalog.meta(tid);
    let sig = m.path_sig.as_ref().expect("path-shaped");
    let (types, rels) = ts_core::methods::common::decode_sig(sig, m.espair.from).expect("oriented");
    let g = ctx.graph;
    let (Some(start), Some(end)) = (g.node(m.espair.from, a), g.node(m.espair.to, b)) else {
        return false;
    };
    let mut stack = vec![vec![start]];
    while let Some(path) = stack.pop() {
        let node = path[path.len() - 1];
        if path.len() == types.len() {
            if node == end {
                return true;
            }
            continue;
        }
        let pos = path.len() - 1;
        for &(rid, next) in g.neighbors(node) {
            if rid == rels[pos] && g.node_type(next) == types[pos + 1] && !path.contains(&next) {
                let mut longer = path.clone();
                longer.push(next);
                stack.push(longer);
            }
        }
    }
    false
}

#[test]
fn topology_codes_are_consistent_with_graphs() {
    let (_b, _g, _s, cat) = build(1);
    for m in cat.metas() {
        assert_eq!(canonical_code(&m.graph), m.code, "tid {}", m.id);
        assert!(m.graph.is_connected(), "topology graphs are connected");
        // Path-shaped detection is consistent with the graph.
        let recomputed = path_sig_of_graph(&m.graph, m.espair);
        assert_eq!(recomputed, m.path_sig, "tid {}", m.id);
    }
}

#[test]
fn pair_topologies_reference_valid_ids_and_are_sorted() {
    let (_b, _g, _s, cat) = build(99);
    for p in cat.pairs() {
        assert!(!p.topos.is_empty(), "a connected pair has at least one topology");
        let mut sorted = p.topos.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, p.topos);
        for &tid in p.topos {
            let m = cat.meta(tid as u32);
            assert_eq!(m.espair, p.espair);
        }
    }
}

/// The path-class CSR beside AllTops: one view per pair, each pair's
/// class slice starting where the previous one ended (offsets monotone,
/// from the zero sentinel) and the slices together filling the class
/// buffer (terminal) — whose length `pair_bytes` counts beside the
/// `pair_count() + 1` offsets. The topology side tiles AllTops the same
/// way.
#[test]
fn csr_offsets_are_monotone_and_terminal() {
    for seed in [1u64, 7, 99] {
        let (_b, _g, _s, cat) = build(seed);
        let views: Vec<_> = cat.pairs().collect();
        assert_eq!(views.len(), cat.pair_count(), "seed {seed}: one view per pair");
        for p in &views {
            assert!(!p.topos.is_empty() && !p.sigs.is_empty(), "seed {seed}: empty pair");
        }
        for w in views.windows(2) {
            assert_eq!(w[0].sigs.as_ptr_range().end, w[1].sigs.as_ptr(), "seed {seed}: classes");
            assert_eq!(w[0].topos.as_ptr_range().end, w[1].topos.as_ptr(), "seed {seed}: rows");
        }
        let class_ids: usize = views.iter().map(|p| p.sigs.len()).sum();
        assert_eq!(
            (cat.pair_count() + 1 + class_ids) * std::mem::size_of::<u32>(),
            cat.pair_bytes(),
            "seed {seed}: terminal"
        );
        let rows: usize = views.iter().map(|p| p.topos.len()).sum();
        assert_eq!(rows, cat.alltops.len(), "seed {seed}: runs tile AllTops");
    }
}

#[test]
fn csr_interned_ids_are_in_range() {
    let (_b, _g, _s, cat) = build(7);
    for p in cat.pairs() {
        for &tid in p.topos {
            assert!((tid as usize) < cat.topology_count(), "tid {tid} out of range");
        }
        for &sig_id in p.sigs {
            assert!((sig_id as usize) < cat.sig_count(), "sig id {sig_id} out of range");
        }
    }
    for m in cat.metas() {
        assert!((m.code_id as usize) < cat.code_count());
        assert_eq!(cat.code(m.code_id), &m.code, "code interning round-trips");
    }
}

#[test]
fn lefttops_rows_are_a_subset_of_alltops_rows() {
    for seed in [1u64, 7] {
        let (_b, _g, _s, cat) = build(seed);
        let all: std::collections::HashSet<(i64, i64, i64)> =
            cat.alltops.rows().map(|r| (r.as_int(0), r.as_int(1), r.as_int(2))).collect();
        assert!(cat.lefttops.len() <= cat.alltops.len());
        for r in cat.lefttops.rows() {
            let row = (r.get(0).as_int(), r.get(1).as_int(), r.get(2).as_int());
            assert!(all.contains(&row), "seed {seed}: LeftTops row {row:?} not in AllTops");
        }
    }
}

#[test]
fn pairs_are_sorted_and_unique_by_key() {
    let (_b, _g, _s, cat) = build(1);
    let keys: Vec<_> = cat.pairs().map(|p| (p.espair, p.e1, p.e2)).collect();
    for w in keys.windows(2) {
        assert!(
            w[0] < w[1],
            "pair keys strictly increasing by (espair, e1, e2): {:?} !< {:?}",
            w[0],
            w[1]
        );
    }
}

/// The order the regular plan stands on: it reads the query espair's
/// row range (found by binary search on the TID column) and merges σ(E1)
/// with that range's E1 column, so both tops tables must be strictly
/// ascending by (espair of TID, E1, E2, TID) — AllTops after `finalize`,
/// and LeftTops once `prune_catalog` has built it. Before that LeftTops
/// is empty: no copy of AllTops is made that pruning would replace.
fn assert_tops_are_clustered(cat: &Catalog, pruned: bool, label: &str) {
    let mut tables = vec![("AllTops", &cat.alltops)];
    if pruned {
        tables.push(("LeftTops", &cat.lefttops));
    } else {
        assert!(cat.lefttops.is_empty(), "{label}: LeftTops before pruning");
    }
    for (name, table) in tables {
        let keys: Vec<_> = table
            .rows()
            .map(|r| {
                let tid = r.as_int(2);
                (cat.meta(tid as u32).espair, r.as_int(0), r.as_int(1), tid)
            })
            .collect();
        assert!(!keys.is_empty(), "{label}: {name} is empty");
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "{label}: {name} rows out of order: {:?} !< {:?}", w[0], w[1]);
        }
    }
}

#[test]
fn tops_tables_are_clustered_by_espair_e1_e2_tid() {
    for seed in [1u64, 7, 99] {
        let (biozon, graph, schema, pruned) = build(seed);
        assert!(pruned.lefttops.len() < pruned.alltops.len(), "seed {seed}: nothing pruned");
        assert_tops_are_clustered(&pruned, true, &format!("seed {seed}, pruned"));

        // Straight out of `finalize`, serial and parallel, with the
        // espairs handed over in an order that is not the sorted one.
        let pairs = vec![
            EsPair::new(biozon.ids.dna, biozon.ids.unigene),
            EsPair::new(biozon.ids.protein, biozon.ids.interaction),
            EsPair::new(biozon.ids.protein, biozon.ids.dna),
        ];
        for parallel in [false, true] {
            let opts = ComputeOptions {
                es_pairs: Some(pairs.clone()),
                parallel,
                ..ComputeOptions::with_l(3)
            };
            let (mut cat, _) = compute_catalog(&biozon.db, &graph, &schema, &opts);
            let label = format!("seed {seed}, parallel {parallel}");
            assert_tops_are_clustered(&cat, false, &format!("{label}, finalized"));
            prune_catalog(&mut cat, PruneOptions { threshold: 10, max_pruned: 32 });
            assert_tops_are_clustered(&cat, true, &format!("{label}, pruned"));
        }
    }
}

#[test]
fn space_report_accounts_every_byte() {
    let (_b, _g, _s, cat) = build(7);
    let report = cat.space_report();
    assert!(!report.is_empty());
    for (espair, row) in &report {
        assert!(row.alltops_bytes > 0, "{espair:?}");
        assert!(
            row.lefttops_bytes <= row.alltops_bytes,
            "LeftTops can never exceed AllTops for {espair:?}"
        );
        // The paper's Table 1 headline: pruning shrinks storage.
        assert!(row.ratio() <= 1.0 + 1e-9);
    }
}

#[test]
fn catalog_build_is_deterministic_across_parallelism() {
    let biozon = biozon::generate(&biozon::BiozonConfig::default().scaled(0.08));
    let graph = graph::DataGraph::from_db(&biozon.db).expect("consistent");
    let schema = graph::SchemaGraph::from_db(&biozon.db);
    let pairs = vec![EsPair::new(biozon.ids.protein, biozon.ids.dna)];
    let serial = ComputeOptions { es_pairs: Some(pairs.clone()), ..ComputeOptions::with_l(3) };
    let parallel =
        ComputeOptions { es_pairs: Some(pairs), parallel: true, ..ComputeOptions::with_l(3) };
    let (c1, _) = compute_catalog(&biozon.db, &graph, &schema, &serial);
    let (c2, _) = compute_catalog(&biozon.db, &graph, &schema, &parallel);
    assert_eq!(c1.topology_count(), c2.topology_count());
    assert_eq!(c1.alltops.len(), c2.alltops.len());
    for (a, b) in c1.metas().iter().zip(c2.metas().iter()) {
        assert_eq!(a.code, b.code);
        assert_eq!(a.freq, b.freq);
    }
}

/// The TopInfo-by-score index against a from-scratch scan of the metas:
/// for every espair × scheme a permutation of the espair's topologies
/// in (score desc, id asc) order, the pruned list exactly the flagged
/// ones ascending, and ids only — under 1.5 % of the catalog's bytes
/// even at this scale (0.2 % at scale 1.0, where pairs outnumber
/// topologies 70 to 1). The catalog stores neither ExcpTops nor a
/// LeftTops before pruning, so here its ≈ 340 ids are 1.06–1.11 % of its
/// bytes.
fn assert_score_index_matches_metas(cat: &Catalog, label: &str) {
    let mut espairs: Vec<EsPair> = cat.metas().iter().map(|m| m.espair).collect();
    espairs.sort_unstable();
    espairs.dedup();
    let mut index_ids = 0usize;
    for &espair in &espairs {
        let of_pair = || cat.metas().iter().filter(move |m| m.espair == espair);
        for scheme in RankScheme::all() {
            let mut expected: Vec<(u32, f64)> =
                of_pair().map(|m| (m.id, m.scores[scheme.index()])).collect();
            expected.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let expected_ids: Vec<u32> = expected.iter().map(|&(t, _)| t).collect();
            assert_eq!(cat.ranked_ids(scheme, espair), expected_ids, "{label} {espair:?} {scheme}");
            assert_eq!(cat.ranked(scheme, espair), expected, "{label} {espair:?} {scheme}");
            index_ids += expected.len();
        }
        let pruned: Vec<u32> = of_pair().filter(|m| m.pruned).map(|m| m.id).collect();
        assert_eq!(cat.pruned_ids(espair), pruned, "{label} {espair:?}");
        index_ids += pruned.len();
    }
    let absent = EsPair::new(u16::MAX - 1, u16::MAX);
    assert!(cat.ranked_ids(RankScheme::Freq, absent).is_empty());
    assert!(cat.pruned_ids(absent).is_empty());
    assert!(
        index_ids * std::mem::size_of::<u32>() * 200 <= cat.heap_size() * 3,
        "{label}: {index_ids} index ids exceed 1.5 % of {} catalog bytes",
        cat.heap_size()
    );
}

#[test]
fn score_index_tracks_prune_and_score_in_any_order_and_on_reruns() {
    let (biozon, graph, schema, _) = build(7);
    let pairs = vec![
        EsPair::new(biozon.ids.protein, biozon.ids.dna),
        EsPair::new(biozon.ids.dna, biozon.ids.unigene),
    ];
    let opts = ComputeOptions { es_pairs: Some(pairs), ..ComputeOptions::with_l(3) };
    let fresh = || compute_catalog(&biozon.db, &graph, &schema, &opts).0;
    let prune = |cat: &mut Catalog, threshold| {
        prune_catalog(cat, PruneOptions { threshold, max_pruned: 32 });
    };
    let score = |cat: &mut Catalog| score_catalog(cat, &biozon::domain_scorer(&biozon.ids));

    // Unscored, unpruned: every score is 0.0, so rank order is id order.
    let mut a = fresh();
    assert_score_index_matches_metas(&a, "fresh");
    let digest = a.fnv_digest();
    let bytes = a.heap_size();

    prune(&mut a, 10);
    assert_score_index_matches_metas(&a, "prune");
    assert!(a.metas().iter().any(|m| m.pruned), "threshold 10 must prune something");
    score(&mut a);
    assert_score_index_matches_metas(&a, "prune, score");

    let mut b = fresh();
    score(&mut b);
    assert_score_index_matches_metas(&b, "score");
    prune(&mut b, 10);
    assert_score_index_matches_metas(&b, "score, prune");
    assert_eq!(a.fnv_digest(), b.fnv_digest(), "prune and score commute");

    // Re-runs: a different prune set, then a different scorer.
    prune(&mut b, u64::MAX);
    assert_score_index_matches_metas(&b, "re-prune to nothing");
    prune(&mut b, 0);
    assert_score_index_matches_metas(&b, "re-prune to everything eligible");
    score_catalog(&mut b, &ts_core::DomainScorer { w_cycle: -50.0, ..Default::default() });
    assert_score_index_matches_metas(&b, "re-score");

    // Derived data: counted in the footprint, absent from the digest.
    let mut c = fresh();
    assert_eq!((c.fnv_digest(), c.heap_size()), (digest, bytes));
    prune(&mut c, u64::MAX);
    assert_eq!(c.fnv_digest(), digest, "pruning nothing changes no logical content");
}
