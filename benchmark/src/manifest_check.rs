//! `check-manifest`: `BENCHMARK.json` must name exactly what the
//! harness registers, within the limits the benchmark contract sets.

use crate::json::Json;
use crate::registry::{self, MetricDef};

const MAX_WORKLOADS: usize = 8;
const MAX_END_TO_END: usize = 16;
const MAX_PER_LAYER: usize = 128;
const MAX_BOUND: f64 = 0.25;

/// A name starts with a letter or digit and is made of at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

fn section<'a>(doc: &'a Json, key: &str, problems: &mut Vec<String>) -> &'a [Json] {
    match doc.get(key).and_then(Json::as_arr) {
        Some(items) => items,
        None => {
            problems.push(format!("`{key}` is missing or not a list"));
            &[]
        }
    }
}

fn check_metrics(
    key: &str,
    listed: &[Json],
    registered: &[MetricDef],
    limit: usize,
    problems: &mut Vec<String>,
) {
    if listed.len() > limit {
        problems.push(format!("{key}: {} metrics, at most {limit}", listed.len()));
    }
    let mut names = Vec::new();
    for item in listed {
        let Some(name) = item.get("name").and_then(Json::as_str) else {
            problems.push(format!("{key}: an entry has no name"));
            continue;
        };
        names.push(name);
        if !valid_name(name) {
            problems.push(format!("{key}: `{name}` is not a valid name"));
        }
        let Some(def) = registered.iter().find(|d| d.name == name) else {
            problems.push(format!("{key}: `{name}` is not registered by the harness"));
            continue;
        };
        let unit = item.get("unit").and_then(Json::as_str).unwrap_or("");
        if unit != def.unit || !valid_unit(unit) {
            problems
                .push(format!("{key}: `{name}` has unit `{unit}`, harness reports `{}`", def.unit));
        }
        if item.get("better").and_then(Json::as_str) != Some(def.better) {
            problems.push(format!("{key}: `{name}` should be better = {}", def.better));
        }
        let bound = item.get("bound").and_then(Json::as_f64);
        if bound != def.bound {
            problems
                .push(format!("{key}: `{name}` has bound {bound:?}, harness has {:?}", def.bound));
        }
        if bound.is_some_and(|b| !(0.0..=MAX_BOUND).contains(&b)) {
            problems.push(format!("{key}: `{name}` bound is outside 0..={MAX_BOUND}"));
        }
    }
    for def in registered {
        if !names.contains(&def.name.as_str()) {
            problems.push(format!("{key}: registered metric `{}` is not listed", def.name));
        }
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != names.len() {
        problems.push(format!("{key}: a name is listed twice"));
    }
}

/// Every disagreement between a manifest document and the registry.
pub fn check_manifest(doc: &Json) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();

    let workloads = section(doc, "workloads", &mut problems);
    if !(2..=MAX_WORKLOADS).contains(&workloads.len()) {
        problems.push(format!("{} workloads, need 2 to {MAX_WORKLOADS}", workloads.len()));
    }
    let listed: Vec<&str> =
        workloads.iter().filter_map(|w| w.get("name").and_then(Json::as_str)).collect();
    let registered: Vec<&str> = registry::WORKLOADS.iter().map(|w| w.name).collect();
    if listed != registered {
        problems.push(format!("workloads {listed:?}, harness registers {registered:?}"));
    }
    for name in &listed {
        if !valid_name(name) {
            problems.push(format!("workload `{name}` is not a valid name"));
        }
    }

    let e2e = section(doc, "end_to_end", &mut problems);
    check_metrics("end_to_end", e2e, &registry::end_to_end(), MAX_END_TO_END, &mut problems);
    if !e2e.iter().any(|m| m.get("name").and_then(Json::as_str) == Some("setup_s")) {
        problems.push("end_to_end must include setup_s".to_string());
    }
    let layers = section(doc, "per_layer", &mut problems);
    check_metrics("per_layer", layers, &registry::per_layer(), MAX_PER_LAYER, &mut problems);

    if doc.get("run_seconds").and_then(Json::as_f64) != Some(registry::RUN_SECONDS as f64) {
        problems.push(format!("run_seconds should be {}", registry::RUN_SECONDS));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("methods.full_top_k_et.p50_ms"));
        assert!(valid_name("r400"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn a_renamed_or_missing_metric_is_reported() {
        let mut doc = registry::manifest();
        let Json::Obj(members) = &mut doc else { panic!("manifest is an object") };
        let (_, Json::Arr(e2e)) = members.iter_mut().find(|(k, _)| k == "end_to_end").unwrap()
        else {
            panic!("end_to_end is a list")
        };
        e2e.pop();
        let problems = check_manifest(&doc).unwrap_err();
        assert!(problems.iter().any(|p| p.contains("peak_rss_mib")), "{problems:?}");
    }
}
