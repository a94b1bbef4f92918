//! Printing and writing results: the metric table a person reads, the
//! one-line JSON the driver reads, and the files under `benchmark/out/`.

use crate::json::Json;
use crate::registry::{self, MetricDef};
use crate::run::{out_dir, provenance, RunConfig, RunOutput};
use crate::trace::Tracer;

/// The metrics a run of this kind reports: end-to-end ones when tracing
/// is off, per-layer ones when it is on.
pub fn reported_defs(trace: bool) -> Vec<MetricDef> {
    if trace {
        registry::per_layer()
    } else {
        registry::end_to_end()
    }
}

/// `{name: {value, unit}}` for every metric this kind of run reports. A
/// per-layer metric the workload never measured reads 0: the workload
/// does not enter that layer.
fn metrics_json(cfg: &RunConfig, out: &RunOutput) -> Json {
    Json::obj(reported_defs(cfg.trace).into_iter().map(|d| {
        let value = out.metrics.get(&d.name).unwrap_or(0.0);
        (d.name, Json::obj([("value", Json::Num(value)), ("unit", Json::Str(d.unit.to_string()))]))
    }))
}

/// The result line: the last line of standard output.
pub fn result_line(cfg: &RunConfig, out: &RunOutput) -> String {
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(cfg, out)),
    ])
    .to_line()
}

/// The full record of one run, as written to `benchmark/out/`.
pub fn result_doc(cfg: &RunConfig, out: &RunOutput) -> Json {
    Json::obj([
        ("provenance", provenance(cfg, out)),
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(cfg, out)),
        ("notes", Json::Arr(out.notes.iter().cloned().map(Json::Str).collect())),
    ])
}

/// Every reported metric by name with its unit, then the digests.
pub fn print_table(cfg: &RunConfig, out: &RunOutput) {
    println!(
        "# {} seed {} scale {} trace {} passes {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.scale(),
        u8::from(cfg.trace),
        out.passes
    );
    for d in reported_defs(cfg.trace) {
        match out.metrics.get(&d.name) {
            Some(v) => println!("{:<40} {:>18.6} {}", d.name, v, d.unit),
            None => println!("{:<40} {:>18} {}  (layer not entered)", d.name, 0, d.unit),
        }
    }
    println!("{:<40} {:>18}", "attempted", out.attempted);
    println!("{:<40} {:>18}", "failed", out.failed);
    println!(
        "{:<40} {:>18.6} share",
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!("{:<40} {:016x}", "ops_digest", out.ops_digest);
    println!("{:<40} {:016x}", "answers_digest", out.answers_digest);
    for note in &out.notes {
        println!("note: {note}");
    }
}

/// Write the run's record; a failure to write is reported, not fatal —
/// the result line on standard output is the result.
pub fn write_result_file(cfg: &RunConfig, out: &RunOutput) {
    let kind = if cfg.trace { ".trace" } else { "" };
    let path = out_dir().join(format!("{}{kind}.json", cfg.workload.name()));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, result_doc(cfg, out).to_pretty()));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Write the span file of a traced run. Returns notes for the run.
pub fn write_spans(cfg: &RunConfig, out: &RunOutput, tracer: &Tracer) -> Vec<String> {
    let path = out_dir().join(format!("{}.spans.jsonl", cfg.workload.name()));
    match tracer.write_jsonl(&path, &provenance(cfg, out)) {
        Ok(()) => {
            let mut notes = vec![format!("{} spans in {}", tracer.spans().len(), path.display())];
            for (name, t) in tracer.summary() {
                notes.push(format!(
                    "span {name}: n {} total {:.3} ms self {:.3} ms",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                ));
            }
            notes
        }
        Err(e) => vec![format!("could not write {}: {e}", path.display())],
    }
}
