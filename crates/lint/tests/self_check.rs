//! Fixture-corpus self-test.
//!
//! Every file under `tests/fixtures/fire/` carries `//~ FIRE <rule>`
//! markers on the exact lines a finding must anchor to; the linter must
//! produce those findings and nothing else. Every file under
//! `tests/fixtures/clean/` exercises the tricky spans (strings,
//! comments, `#[cfg(test)]` regions, justified allow directives) and
//! must produce zero findings.
//!
//! Fixtures are linted as `ts-exec` library code, which both call-graph
//! rules cover, with every rule on: a fixture's file name says which
//! rule it pins (`unmetered_loop.rs` → `unmetered-loop`), and any
//! finding of another rule is a divergence from its markers too.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use ts_lint::{lint_source, FileCtx, FileKind};

const MARKER: &str = "//~ FIRE ";

/// The rules a fixture pins, from its file stem.
fn rules_for(stem: &str) -> Vec<&'static str> {
    match stem {
        "unmetered_loop" => vec!["unmetered-loop"],
        "panic_on_worker_path" => vec!["panic-on-worker-path"],
        "bad_allow" => vec!["bad-allow"],
        "unused_allow" => vec!["unused-allow"],
        other => panic!("fixture {other}.rs has no rule mapping; extend rules_for"),
    }
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
    let ctx = FileCtx { crate_name: "ts-exec".to_string(), kind: FileKind::Lib };
    lint_source(&path.display().to_string(), text, &ctx)
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

/// Both call-graph rules must be pinned by a must-fire and a
/// must-not-fire fixture, and each meta rule by a must-fire one, so no
/// rule can silently rot.
#[test]
fn every_rule_has_fire_and_clean_coverage() {
    let covered = |kind: &str| -> BTreeSet<&'static str> {
        fixture_files(kind)
            .iter()
            .flat_map(|p| rules_for(&p.file_stem().expect("stem").to_string_lossy()))
            .collect()
    };
    let (fire, clean) = (covered("fire"), covered("clean"));
    for rule in ts_lint::RULES {
        assert!(fire.contains(rule.name), "rule {} lacks a fire fixture", rule.name);
        assert!(clean.contains(rule.name), "rule {} lacks a clean fixture", rule.name);
    }
    for rule in ts_lint::META_RULES {
        assert!(fire.contains(rule.name), "meta rule {} lacks a fire fixture", rule.name);
    }
}
