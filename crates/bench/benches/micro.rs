//! Criterion micro-benchmarks for the building blocks: canonical codes,
//! path enumeration and the Theorem-1 cost model. (Join operators are
//! timed by the `exec.*` per-layer rows of `benchmark/`.)

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ts_biozon::BiozonConfig;
use ts_graph::{canonical_code, DataGraph, LGraph, SchemaGraph};
use ts_optimizer::{et_stack_cost, DgjOpParams, DgjStackParams};

fn bench_canonical_code(c: &mut Criterion) {
    // Path graph (the common case) and a symmetric multi-path union (the
    // adversarial case for the backtracking search).
    let mut path = LGraph::new();
    let nodes: Vec<u8> = (0..6).map(|i| path.add_node(i % 3)).collect();
    for w in nodes.windows(2) {
        path.add_edge(w[0], w[1], 1);
    }
    path.normalize();

    let mut sym = LGraph::new();
    let p = sym.add_node(0);
    let d = sym.add_node(1);
    for _ in 0..4 {
        let u = sym.add_node(2);
        sym.add_edge(p, u, 3);
        sym.add_edge(u, d, 4);
    }
    sym.normalize();

    c.bench_function("canon/path6", |b| b.iter(|| canonical_code(black_box(&path))));
    c.bench_function("canon/parallel4", |b| b.iter(|| canonical_code(black_box(&sym))));
}

fn bench_path_enumeration(c: &mut Criterion) {
    let biozon = ts_biozon::generate(&BiozonConfig::default().scaled(0.1));
    let g = DataGraph::from_db(&biozon.db).expect("consistent");
    let schema = SchemaGraph::from_db(&biozon.db);
    let (p, d) = (biozon.ids.protein, biozon.ids.dna);
    c.bench_function("paths/enumerate_pd_l3", |b| {
        b.iter(|| ts_graph::enumerate_pair_paths(black_box(&g), &schema, p, d, 3).path_count())
    });
}

fn bench_cost_model(c: &mut Criterion) {
    let params = DgjStackParams {
        ops: vec![
            DgjOpParams { fanout: 1.0, rho: 0.5, probe_cost: 1.0 },
            DgjOpParams { fanout: 1.0, rho: 0.5, probe_cost: 1.0 },
        ],
        groups: (1..=500).map(|i| (i % 40 + 1) as f64).collect(),
    };
    c.bench_function("cost/theorem1_m500_k10", |b| {
        b.iter(|| et_stack_cost(black_box(&params), 10))
    });
}

criterion_group!(benches, bench_canonical_code, bench_path_enumeration, bench_cost_model);
criterion_main!(benches);
