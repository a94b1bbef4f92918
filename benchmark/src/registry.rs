//! The names the harness registers: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` must list exactly
//! these (`check-manifest`); `list --manifest` prints that file.

use crate::json::Json;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "topk_et",
        why: "Closed loop, the four early-termination and optimizer methods (paper 5.3/5.4): tiny metered work, so per-query fixed cost and IDGJ probes set the time.",
    },
    WorkloadDef {
        name: "full_scan",
        why: "Same database and queries through the four scan-join-sort methods (3.2/4.3/5.1): operator and column-scan work dominates, fixed cost does not.",
    },
    WorkloadDef {
        name: "build",
        why: "Full catalog rebuilds (compute, prune, score, snapshot): the write side of what the query workloads read, and the only path-enumeration-bound one.",
    },
    WorkloadDef {
        name: "serve_open",
        why: "Open-loop arrivals at 300/600/900/2400 qps into a one-worker ts-server: the only workload with admission, queueing and shedding, and the only one that saturates.",
    },
];

/// Methods each closed-loop query workload runs, by registry slug.
pub const METHOD_SLUGS: [&str; 8] = [
    "full_top",
    "fast_top",
    "full_top_k",
    "fast_top_k",
    "full_top_k_et",
    "fast_top_k_et",
    "full_top_k_opt",
    "fast_top_k_opt",
];

/// Arrival-rate rungs of `serve_open`, queries per second.
pub const RUNGS: [(&str, f64); 4] =
    [("r300", 300.0), ("r600", 600.0), ("r900", 900.0), ("r2400", 2400.0)];

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

fn m(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name: name.into(), unit, better, bound: None }
}

/// End-to-end metrics. Every workload reports every one of them; what
/// an "op" is on each workload is in the README's definitions table.
pub fn end_to_end() -> Vec<MetricDef> {
    let e = |name: &str, unit, better, bound| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        e("setup_s", "s", "lower", 0.25),
        e("op_p50_ms", "ms", "lower", 0.25),
        e("op_tail_ms", "ms", "lower", 0.25),
        e("throughput_per_s", "1/s", "higher", 0.25),
        e("good_share", "share", "higher", 0.05),
        e("catalog_bytes_per_pair", "B", "lower", 0.02),
        e("peak_rss_mib", "MiB", "lower", 0.10),
    ]
}

/// Per-layer metrics, from the traced run. A metric reads 0 on a
/// workload that never enters its layer (`server.*` off `serve_open`).
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = Vec::new();
    for slug in METHOD_SLUGS {
        v.push(m(format!("methods.{slug}.p50_ms"), "ms", "lower"));
        v.push(m(format!("methods.{slug}.mean_ms"), "ms", "lower"));
        v.push(m(format!("methods.{slug}.work_per_query"), "count", "lower"));
        v.push(m(format!("methods.{slug}.ns_per_work"), "ns", "lower"));
        v.push(m(format!("methods.{slug}.floor_us"), "us", "lower"));
    }
    v.push(m("methods.validate_ns", "ns", "lower"));

    v.push(m("optimizer.et_stack_cost_us", "us", "lower"));
    v.push(m("optimizer.opt_overhead_us", "us", "lower"));
    v.push(m("optimizer.et_chosen_share", "share", "higher"));
    v.push(m("optimizer.regret_share", "share", "lower"));
    v.push(m("optimizer.regret_work_ratio", "ratio", "lower"));

    for op in ["scan", "filter", "hash_join", "sort", "distinct", "idgj"] {
        v.push(m(format!("exec.{op}_rows_per_s"), "rows/s", "higher"));
    }
    v.push(m("exec.et_topk_us", "us", "lower"));
    v.push(m("exec.et_work_per_result", "count", "lower"));
    v.push(m("exec.tick_ns", "ns", "lower"));
    v.push(m("exec.tick_budgeted_ns", "ns", "lower"));

    v.push(m("storage.pk_probe_ns", "ns", "lower"));
    v.push(m("storage.index_probe_ns", "ns", "lower"));
    v.push(m("storage.pred_scan_rows_per_s", "rows/s", "higher"));
    v.push(m("storage.insert_ints_rows_per_s", "rows/s", "higher"));
    v.push(m("storage.index_build_ms", "ms", "lower"));
    v.push(m("storage.alltops_bytes_per_row", "B", "lower"));

    v.push(m("graph.data_graph_ms", "ms", "lower"));
    v.push(m("graph.schema_graph_ms", "ms", "lower"));
    v.push(m("graph.paths_per_s", "1/s", "higher"));
    v.push(m("graph.canon_codes_per_s", "1/s", "higher"));

    for t in ["compute_serial_ms", "compute_parallel_ms", "prune_ms", "score_ms"] {
        v.push(m(format!("core.{t}"), "ms", "lower"));
    }
    v.push(m("core.parallel_speedup", "ratio", "higher"));
    v.push(m("core.ns_per_path", "ns", "lower"));
    v.push(m("core.canon_hit_rate", "share", "higher"));
    for c in [
        "pairs",
        "paths",
        "topologies",
        "sig_hashes",
        "truncated_pairs",
        "alltops_rows",
        "lefttops_rows",
        "pruned_topologies",
    ] {
        v.push(m(format!("core.{c}"), "count", "lower"));
    }
    v.push(m("core.catalog_bytes", "B", "lower"));
    v.push(m("core.pair_bytes", "B", "lower"));

    for (rung, _) in RUNGS {
        v.push(m(format!("server.{rung}.p50_ms"), "ms", "lower"));
        v.push(m(format!("server.{rung}.p99_ms"), "ms", "lower"));
        v.push(m(format!("server.{rung}.queue_wait_p50_ms"), "ms", "lower"));
        v.push(m(format!("server.{rung}.good_share"), "share", "higher"));
        v.push(m(format!("server.{rung}.shed_share"), "share", "lower"));
        v.push(m(format!("server.{rung}.busy_share"), "share", "higher"));
    }
    v.push(m("server.submit_ns", "ns", "lower"));
    v.push(m("server.hop_overhead_us", "us", "lower"));
    v.push(m("server.max_good_rate_qps", "1/s", "higher"));
    v.push(m("server.degraded_share", "share", "lower"));
    v.push(m("server.degraded_share_r2400", "share", "lower"));

    v.push(m("biozon.generate_ms", "ms", "lower"));
    v.push(m("biozon.query_mix_us", "us", "lower"));
    v.push(m("harness.clock_probe_us", "us", "lower"));
    v.push(m("harness.trace_overhead_share", "share", "lower"));
    v.push(m("harness.gen_late_p99_ms", "ms", "lower"));
    v.push(m("harness.raw_p50_ms", "ms", "lower"));
    v.push(m("harness.raw_p99_ms", "ms", "lower"));
    v
}

/// How long one run measures, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u64 = 26;

/// The `BENCHMARK.json` this registry implies.
pub fn manifest() -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::Str(s.to_string())).collect());
    let metric = |d: &MetricDef| {
        let mut members = vec![
            ("name", Json::Str(d.name.clone())),
            ("unit", Json::Str(d.unit.to_string())),
            ("better", Json::Str(d.better.to_string())),
        ];
        if let Some(b) = d.bound {
            members.push(("bound", Json::Num(b)));
        }
        Json::obj(members)
    };
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.to_string())),
                            ("why", Json::Str(w.why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(end_to_end().iter().map(metric).collect())),
        ("per_layer", Json::Arr(per_layer().iter().map(metric).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest_check::check_manifest;

    #[test]
    fn the_registry_passes_its_own_manifest_check() {
        check_manifest(&manifest()).expect("registry is self-consistent");
    }

    #[test]
    fn whys_fit_the_contract() {
        for w in WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why is {} chars", w.name, w.why.len());
            assert!(!w.why.contains('\n'));
        }
    }
}
