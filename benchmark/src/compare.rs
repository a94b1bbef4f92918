//! `compare A.json B.json`: per workload × end-to-end metric, B's
//! median against A's, judged by the bound the benchmark fixed.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::registry::{self, MetricDef};
use crate::stats::{median, quartile_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The run-to-run spread is wider than the bound, and B's runs do
    /// not all beat A's: the files cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B's median is, as a share of A's (negative: better).
    pub worse_by: f64,
    /// The wider of the two sides' quartile spreads, where a side has
    /// the runs to show one.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// A worsening exactly at the bound is allowed; this absorbs the
/// rounding of the division that computes it.
const BOUND_EPSILON: f64 = 1e-9;

/// Judge one metric from each side's runs.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, Option<f64>, Verdict) {
    let bound = def.bound.expect("only end-to-end metrics are compared");
    let (ma, mb) = (median(a), median(b));
    let higher_is_better = def.better == "higher";
    let worse_by = if ma == 0.0 {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let spread = match (quartile_spread(a), quartile_spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let b_always_better = if higher_is_better {
        b.iter().all(|&y| a.iter().all(|&x| y > x))
    } else {
        b.iter().all(|&y| a.iter().all(|&x| y < x))
    };
    let verdict = if spread.is_some_and(|s| s > bound) && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound + BOUND_EPSILON {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// workload → metric → one value per run.
pub type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Read a result file: one run's record, or `{"runs": [records]}`.
pub fn samples(doc: &Json) -> Result<Samples, String> {
    let runs: Vec<&Json> = match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    };
    let mut out = Samples::new();
    for run in runs {
        let workload = run
            .get("provenance")
            .and_then(|p| p.get("workload"))
            .and_then(Json::as_str)
            .ok_or("a run has no provenance.workload")?;
        let metrics =
            run.get("metrics").and_then(Json::as_obj).ok_or("a run has no metrics object")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Every (workload, end-to-end metric) present on both sides.
pub fn compare(a: &Samples, b: &Samples) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in registry::WORKLOADS {
        let (Some(ma), Some(mb)) = (a.get(w.name), b.get(w.name)) else { continue };
        for def in registry::end_to_end() {
            let (Some(va), Some(vb)) = (ma.get(&def.name), mb.get(&def.name)) else { continue };
            let (worse_by, spread, verdict) = judge(&def, va, vb);
            rows.push(Row {
                workload: w.name.to_string(),
                metric: def.name.clone(),
                a: median(va),
                b: median(vb),
                worse_by,
                spread,
                bound: def.bound.expect("end-to-end metrics have bounds"),
                verdict,
            });
        }
    }
    rows
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<11} {:<24} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<11} {:<24} {:>14.4} {:>14.4} {:>+8.2}% {:>8} {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread.map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0)),
            r.bound * 100.0,
            r.verdict.label()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricDef {
        MetricDef { name: "op_p50_ms".into(), unit: "ms", better: "lower", bound: Some(bound) }
    }

    fn higher(bound: f64) -> MetricDef {
        MetricDef {
            name: "throughput_per_s".into(),
            unit: "1/s",
            better: "higher",
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_at_inside_and_outside_a_bound() {
        // Lower is better, bound 10 %. 2.0 → 2.2 is exactly at the bound.
        assert_eq!(judge(&lower(0.10), &[2.0], &[2.1]).2, Verdict::Ok);
        assert_eq!(judge(&lower(0.10), &[2.0], &[2.2]).2, Verdict::Ok);
        assert_eq!(judge(&lower(0.10), &[2.0], &[2.25]).2, Verdict::Regression);
        assert_eq!(judge(&lower(0.10), &[2.0], &[1.0]).2, Verdict::Ok);
        // Higher is better: a drop is what worsens.
        assert_eq!(judge(&higher(0.10), &[1000.0], &[900.0]).2, Verdict::Ok);
        assert_eq!(judge(&higher(0.10), &[1000.0], &[880.0]).2, Verdict::Regression);
        assert_eq!(judge(&higher(0.10), &[1000.0], &[1500.0]).2, Verdict::Ok);
    }

    #[test]
    fn worse_by_is_signed_by_direction() {
        let (worse, spread, _) = judge(&lower(0.10), &[2.0], &[2.1]);
        assert!((worse - 0.05).abs() < 1e-12);
        assert_eq!(spread, None);
        let (worse, _, _) = judge(&higher(0.10), &[1000.0], &[1100.0]);
        assert!((worse + 0.10).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        // A's own runs range ±25 %: a 10 % bound cannot be resolved …
        let noisy = [1.5, 2.0, 2.5, 1.6, 2.4];
        assert_eq!(judge(&lower(0.10), &noisy, &[2.0, 2.1, 1.9, 2.2, 1.8]).2, Verdict::Unresolved);
        assert_eq!(judge(&lower(0.10), &noisy, &[3.0, 3.1, 2.9, 3.2, 2.8]).2, Verdict::Unresolved);
        // … unless every run of B beats every run of A.
        assert_eq!(judge(&lower(0.10), &noisy, &[1.0, 1.1, 0.9, 1.2, 1.4]).2, Verdict::Ok);
        // Tight runs on both sides resolve either way.
        let tight = [2.0, 2.01, 1.99, 2.02, 1.98];
        assert_eq!(judge(&lower(0.10), &tight, &tight).2, Verdict::Ok);
        assert_eq!(
            judge(&lower(0.10), &tight, &[2.5, 2.51, 2.49, 2.52, 2.48]).2,
            Verdict::Regression
        );
    }

    #[test]
    fn samples_group_runs_by_workload() {
        let run = |w: &str, v: f64| {
            Json::obj([
                ("provenance", Json::obj([("workload", Json::Str(w.into()))])),
                ("metrics", Json::obj([("op_p50_ms", Json::obj([("value", Json::Num(v))]))])),
            ])
        };
        let doc = Json::obj([(
            "runs",
            Json::Arr(vec![run("build", 1.0), run("build", 1.01), run("topk_et", 3.0)]),
        )]);
        let s = samples(&doc).unwrap();
        assert_eq!(s["build"]["op_p50_ms"], vec![1.0, 1.01]);
        assert_eq!(s["topk_et"]["op_p50_ms"], vec![3.0]);
        let rows = compare(&s, &s);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok && r.worse_by == 0.0));
    }
}
