//! Quickstart: generate a Biozon-shaped database, build the topology
//! catalog offline, and ask how proteins relate to DNAs.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use topology_search::prelude::*;
use ts_core::PruneOptions;
use ts_graph::render::motif_line;

fn main() {
    // 1. Synthetic Biozon (deterministic in the seed).
    let biozon = biozon::generate(&biozon::BiozonConfig::small(42));
    let db = &biozon.db;
    println!(
        "generated Biozon: {} proteins, {} DNAs, {} relationship tables",
        db.table_by_name("Protein").unwrap().len(),
        db.table_by_name("DNA").unwrap().len(),
        db.rel_sets().len()
    );

    // 2. Offline phase (Fig. 10 of the paper): compute AllTops, prune the
    //    frequent simple topologies, score.
    let graph = graph::DataGraph::from_db(db).expect("consistent db");
    let schema = graph::SchemaGraph::from_db(db);
    let (mut catalog, stats) =
        compute_catalog(db, &graph, &schema, &core::ComputeOptions::with_l(3));
    println!(
        "offline build: {} connected pairs, {} paths, {} topologies in {:.0} ms \
         (enumerate {:.1} ms, pairs {:.1} ms, canonicalize {:.1} ms, merge {:.1} ms, \
         finalize {:.1} ms)",
        stats.pairs,
        stats.paths,
        stats.topologies,
        stats.millis,
        stats.enumerate_ms,
        stats.pairs_ms,
        stats.canonicalize_ms,
        stats.merge_ms,
        stats.finalize_ms
    );
    let report = prune_catalog(&mut catalog, PruneOptions { threshold: 50, max_pruned: 32 });
    println!(
        "pruning: {} topologies pruned; AllTops {} rows -> LeftTops {} rows + {} exceptions",
        report.pruned.len(),
        report.alltops_rows,
        report.lefttops_rows,
        report.excptops_rows
    );
    score_catalog(&mut catalog, &biozon::domain_scorer(&biozon.ids));

    // 3. Online phase: the paper's flagship query shape — how are
    //    proteins related to DNAs? (Example 2.1 uses desc.ct('enzyme')
    //    and type = 'mRNA'.)
    let ctx = QueryContext { db, graph: &graph, schema: &schema, catalog: &catalog };
    let query = TopologyQuery::new(
        biozon.ids.protein,
        Predicate::contains(1, "kinase"),
        biozon.ids.dna,
        Predicate::eq(1, "mRNA"),
        3,
    )
    .with_k(5)
    .with_scheme(RankScheme::Domain);

    let outcome = Method::FastTopKOpt.eval(&ctx, &query);
    println!(
        "\ntop-{} topologies by Domain score ({}; {:.1} ms, {} work units):",
        query.k, outcome.detail, outcome.wall_ms, outcome.work
    );
    let type_name = |t: u16| ctx.db.entity_set(t as usize).name.clone();
    let rel_name = |r: u16| ctx.db.rel_set(r as usize).name.clone();
    for (tid, score) in &outcome.topologies {
        let meta = catalog.meta(*tid);
        println!(
            "  T{tid:<4} score {score:>8.2}  freq {:>5}  {}",
            meta.freq,
            motif_line(&meta.graph, &type_name, &rel_name)
        );
    }
}
