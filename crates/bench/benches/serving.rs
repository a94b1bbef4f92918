//! Serving-layer benchmark with a machine-readable trajectory.
//!
//! Where `compute_catalog` times the offline build, this bench times
//! the *online* side the paper's evaluation presupposes: concurrent
//! topology queries answered from a shared catalog snapshot. It spins
//! up a [`ts_server::Server`], replays the deterministic
//! `ts_biozon::workload::query_mix` through the closed-loop
//! [`ts_server::run_stress`] driver, and writes `BENCH_serving.json`
//! (throughput, tail latency, shed and degraded rates) so every PR
//! records the serving trajectory alongside the build one.
//!
//! Knobs:
//!
//! * `TS_BENCH_SIZES` — comma-separated subset of `tiny,small,medium`
//!   (default `medium`; CI runs `tiny`).
//! * `TS_BENCH_JSON` — output path (default: `BENCH_serving.json` at
//!   the workspace root, independent of cargo's bench cwd).
//! * `TS_BENCH_SCALE` — extra multiplier on every size (ts-bench wide).

use ts_bench::{build_env, header, EnvOptions};
use ts_core::Snapshot;
use ts_server::{run_stress, BudgetSpec, Server, ServerConfig, StressOptions, StressReport};

struct SizeSpec {
    name: &'static str,
    scale: f64,
    clients: usize,
    queries: usize,
}

const SIZES: &[SizeSpec] = &[
    SizeSpec { name: "tiny", scale: 0.05, clients: 4, queries: 120 },
    SizeSpec { name: "small", scale: 0.1, clients: 4, queries: 240 },
    SizeSpec { name: "medium", scale: 0.25, clients: 6, queries: 360 },
];

struct Row {
    size: &'static str,
    scale: f64,
    workers: usize,
    clients: usize,
    report: StressReport,
}

fn run_size(spec: &SizeSpec) -> Row {
    let env = build_env(EnvOptions { scale: spec.scale, ..EnvOptions::default() });
    let ids = env.biozon.ids;
    let snapshot = Snapshot::new(env.biozon.db, env.graph, env.schema, env.catalog);

    // Budgets tight enough that the degrade ladder actually shows up in
    // the figures (a serving bench where nothing ever degrades proves
    // nothing about degradation), loose enough that most queries land Ok.
    let config = ServerConfig {
        workers: 4,
        queue_cap: 64,
        default_budget: BudgetSpec {
            deadline_ms: Some(2_000),
            step_quota: Some(3_000),
            row_quota: None,
        },
    };
    let workers = config.workers;
    let server = Server::new(snapshot, config);

    let opts = StressOptions { clients: spec.clients, queries: spec.queries, seed: 0xB10_0AD5 };
    let report = run_stress(&server, &ids, &opts);
    let shutdown = server.shutdown();
    assert!(
        shutdown.worker_panics.is_empty(),
        "serving bench saw worker panics: {:?}",
        shutdown.worker_panics
    );

    println!(
        "  {:<8} qps {:>8.1}  p50 {:>7}us  p99 {:>7}us  ok {:>4}  degraded {:>3}  shed {:>3}  ({:.0}ms wall)",
        spec.name,
        report.qps,
        report.p50_us,
        report.p99_us,
        report.ok,
        report.degraded,
        report.shed,
        report.wall_ms
    );
    Row { size: spec.name, scale: spec.scale, workers, clients: spec.clients, report }
}

fn emit_json(rows: &[Row]) {
    // Cargo runs bench executables with cwd = the package dir
    // (crates/bench), so the default aims at the workspace root, where
    // the recorded trajectory lives.
    let path = std::env::var("TS_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json").into()
    });
    let mut out = String::from("{\n  \"bench\": \"serving\",\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let r = &row.report;
        out.push_str(&format!(
            "    {{\"size\": \"{}\", \"scale\": {}, \"workers\": {}, \"clients\": {}, \
             \"attempted\": {}, \"completed\": {}, \"ok\": {}, \"degraded\": {}, \
             \"rejected\": {}, \"failed\": {}, \"shed\": {}, \"qps\": {:.1}, \
             \"p50_us\": {}, \"p99_us\": {}, \"shed_rate\": {:.4}, \
             \"degraded_rate\": {:.4}, \"wall_ms\": {:.1}}}{}\n",
            row.size,
            row.scale,
            row.workers,
            row.clients,
            r.attempted,
            r.completed,
            r.ok,
            r.degraded,
            r.rejected,
            r.failed,
            r.shed,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.shed_rate,
            r.degraded_rate,
            r.wall_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out).expect("write bench json");
    println!("\nwrote {path}");
}

fn main() {
    header("serving: concurrent queries over a shared catalog snapshot");
    let sizes = std::env::var("TS_BENCH_SIZES").unwrap_or_else(|_| "medium".into());
    let mut rows = Vec::new();
    for spec in SIZES {
        if !sizes.split(',').any(|s| s.trim() == spec.name) {
            continue;
        }
        rows.push(run_size(spec));
    }
    assert!(!rows.is_empty(), "TS_BENCH_SIZES selected no size (tiny,small,medium)");
    emit_json(&rows);
}
