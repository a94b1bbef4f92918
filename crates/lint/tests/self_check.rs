//! Fixture-corpus self-test.
//!
//! Every file under `tests/fixtures/fire/` carries `//~ FIRE <rule>`
//! markers on the exact lines a finding must anchor to; the linter must
//! produce those findings and nothing else. Every file under
//! `tests/fixtures/clean/` exercises the tricky spans (strings,
//! comments, `#[cfg(test)]` regions, justified allow directives) and
//! must produce zero findings.
//!
//! Each fixture is linted with only the rule its file name encodes
//! enabled (`narrowing_cast.rs` → `narrowing-cast`), so corpus files
//! stay focused; the meta rules (`bad-allow`, `unused-allow`) always
//! run and have their own fire fixtures.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use ts_lint::{Config, FileCtx, FileKind, Linter};

const MARKER: &str = "//~ FIRE ";

/// Rules to enable for a fixture, from its file stem.
fn rules_for(stem: &str) -> Vec<&'static str> {
    match stem {
        "std_hash" => vec!["std-hash-in-hot-path"],
        "nondet" => vec!["nondeterministic-source"],
        "narrowing_cast" => vec!["narrowing-cast"],
        "unwrap_in_lib" => vec!["unwrap-in-lib"],
        "undocumented_unsafe" => vec!["undocumented-unsafe"],
        "bare_join_expect" => vec!["bare-join-expect"],
        "catch_unwind_audit" => vec!["catch-unwind-audit"],
        "unmetered_loop" => vec!["unmetered-loop"],
        "panic_on_worker_path" => vec!["panic-on-worker-path"],
        "determinism_taint" => vec!["determinism-taint"],
        // Meta-rule fixtures: bad-allow needs no base rule at all;
        // unused-allow needs one active rule its second case can miss.
        "bad_allow" => vec![],
        "unused_allow" => vec!["unwrap-in-lib"],
        other => panic!("fixture {other}.rs has no rule mapping; extend rules_for"),
    }
}

fn linter_for(stem: &str) -> Linter {
    let mut toml = String::new();
    for rule in rules_for(stem) {
        toml.push_str(&format!("[rules.{rule}]\ncrates = [\"fixture\"]\n"));
    }
    Linter::new(Config::parse(&toml).expect("generated fixture config parses"))
}

fn fixture_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(kind)
}

fn fixture_files(kind: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(fixture_dir(kind))
        .expect("fixture dir exists")
        .map(|e| e.expect("fixture dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no fixtures under tests/fixtures/{kind}");
    files
}

/// `(line, rule)` pairs declared by `//~ FIRE <rule>` markers.
fn expected_findings(text: &str) -> BTreeSet<(usize, String)> {
    let mut out = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find(MARKER) {
            rest = &rest[pos + MARKER.len()..];
            let rule: String =
                rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '-').collect();
            assert!(!rule.is_empty(), "empty FIRE marker on line {}", i + 1);
            out.insert((i + 1, rule));
        }
    }
    out
}

fn actual_findings(path: &Path, text: &str) -> BTreeSet<(usize, String)> {
    let stem = path.file_stem().expect("fixture has a stem").to_string_lossy().to_string();
    let ctx = FileCtx { crate_name: "fixture".to_string(), kind: FileKind::Lib };
    linter_for(&stem)
        .lint_source(&path.display().to_string(), text, &ctx)
        .into_iter()
        .map(|f| (f.violation.line, f.violation.rule.to_string()))
        .collect()
}

#[test]
fn fire_fixtures_fire_exactly_as_marked() {
    for path in fixture_files("fire") {
        let text = fs::read_to_string(&path).expect("fixture readable");
        let expected = expected_findings(&text);
        assert!(!expected.is_empty(), "{}: fire fixture has no FIRE markers", path.display());
        let actual = actual_findings(&path, &text);
        assert_eq!(
            actual,
            expected,
            "{}: findings (left) diverge from FIRE markers (right)",
            path.display()
        );
    }
}

#[test]
fn clean_fixtures_stay_silent() {
    for path in fixture_files("clean") {
        let text = fs::read_to_string(&path).expect("fixture readable");
        assert!(
            !text.contains(MARKER),
            "{}: clean fixture carries a FIRE marker; move it to fire/",
            path.display()
        );
        let actual = actual_findings(&path, &text);
        assert!(actual.is_empty(), "{}: expected silence, got {actual:?}", path.display());
    }
}

/// Every configurable rule must be pinned by at least one must-fire and
/// one must-not-fire fixture, so a rule can't silently rot.
#[test]
fn every_rule_has_fire_and_clean_coverage() {
    for kind in ["fire", "clean"] {
        let mut covered: BTreeSet<String> = BTreeSet::new();
        for path in fixture_files(kind) {
            let stem = path.file_stem().expect("stem").to_string_lossy().to_string();
            covered.extend(rules_for(&stem).iter().map(|r| r.to_string()));
        }
        for rule in ts_lint::RULES {
            assert!(covered.contains(rule.name), "rule {} lacks a {kind} fixture", rule.name);
        }
    }
}
