//! Table 2: performance of all nine strategies on Protein × Interaction
//! queries across the {selective, medium, unselective}² grid and the
//! three ranking schemes, top-10.
//!
//! Reproduction targets (shape, not absolute numbers):
//! * SQL is orders of magnitude slower than everything else;
//! * Fast-Top beats Full-Top for medium/unselective predicates and is
//!   more stable across selectivities;
//! * the ET methods win for unselective predicates and lose for
//!   selective ones;
//! * the Opt methods track the per-cell winner.

use ts_bench::{build_env, header, skip_sql, EnvOptions};
use ts_biozon::{selectivity_predicate, Selectivity};
use ts_core::{Method, RankScheme, TopologyQuery};

fn main() {
    let env = build_env(EnvOptions::default());
    header("Table 2 — performance of the nine strategies (ms; Protein x Interaction, top-10)");
    if skip_sql() {
        println!("(SQL baseline skipped: TS_BENCH_SKIP_SQL=1)");
    }

    let ctx = env.ctx();
    println!(
        "\n{:<14} {:<16} {:>10} {:>10} {:>10}   (columns = interaction selectivity)",
        "protein", "method", "selective", "medium", "unselective"
    );

    for ps in Selectivity::all() {
        for scheme in RankScheme::all() {
            println!("--- protein {ps}, scheme {scheme} ---");
            for method in Method::all() {
                if method == Method::Sql && skip_sql() {
                    continue;
                }
                let mut cells = Vec::new();
                for is in Selectivity::all() {
                    let q = TopologyQuery::new(
                        env.biozon.ids.protein,
                        selectivity_predicate(ps),
                        env.biozon.ids.interaction,
                        selectivity_predicate(is),
                        3,
                    )
                    .with_k(10)
                    .with_scheme(scheme);
                    // Warm run then measured run (paper: warm cache, mean
                    // of multiple runs).
                    let _ = method.eval(&ctx, &q);
                    let a = method.eval(&ctx, &q);
                    let b = method.eval(&ctx, &q);
                    cells.push(((a.wall_ms + b.wall_ms) / 2.0, a.work));
                }
                println!(
                    "{:<14} {:<16} {:>10.2} {:>10.2} {:>10.2}   work {:>9} {:>9} {:>9}",
                    ps.to_string(),
                    method.name(),
                    cells[0].0,
                    cells[1].0,
                    cells[2].0,
                    cells[0].1,
                    cells[1].1,
                    cells[2].1
                );
            }
        }
    }

    // Shape summary for EXPERIMENTS.md.
    header("Table 2 shape summary");
    let q_uns = TopologyQuery::new(
        env.biozon.ids.protein,
        selectivity_predicate(Selectivity::Unselective),
        env.biozon.ids.interaction,
        selectivity_predicate(Selectivity::Unselective),
        3,
    )
    .with_k(10);
    let q_sel = TopologyQuery::new(
        env.biozon.ids.protein,
        selectivity_predicate(Selectivity::Selective),
        env.biozon.ids.interaction,
        selectivity_predicate(Selectivity::Selective),
        3,
    )
    .with_k(10);
    let et_uns = Method::FastTopKEt.eval(&ctx, &q_uns).work;
    let tk_uns = Method::FastTopK.eval(&ctx, &q_uns).work;
    let opt_sel = Method::FastTopKOpt.eval(&ctx, &q_sel);
    let opt_uns = Method::FastTopKOpt.eval(&ctx, &q_uns);
    println!("unselective: ET work {et_uns} vs Fast-Top-k work {tk_uns} (paper: ET wins)");
    for (label, out) in [("selective  ", &opt_sel), ("unselective", &opt_uns)] {
        let choice = out.detail.opt.expect("*Opt records its decision");
        println!("opt @ {label} -> {choice}");
    }
}
