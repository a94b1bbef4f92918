//! Negative self-test for `panic-on-worker-path`, on shipped code: every
//! `lint: allow(panic-on-worker-path)` directive in the real workspace
//! must be load-bearing. Stripping any single one (in memory, from the
//! workspace built once) must make the rule fire on exactly the line
//! that directive covered, and nowhere else.
//!
//! This pins the rule's sensitivity the way `meter_sensitivity.rs` pins
//! `unmetered-loop`'s: a regression that loses call-graph edges, drops
//! an entry point, or stops seeing a panic pattern would leave the
//! workspace "clean" while a reachable panic ships without its audit.

use std::path::Path;

use ts_lint::{build_workspace, lint_built};

const RULE: &str = "panic-on-worker-path";

/// The directives in the tree today. A change that adds or removes one
/// updates this count on purpose.
const SHIPPED_DIRECTIVES: usize = 14;

#[test]
fn stripping_any_single_allow_fires_on_its_line() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut ws = build_workspace(&root).expect("workspace scan succeeds");
    assert!(lint_built(&ws).is_clean(), "the pristine workspace must be lint-clean");

    let sites: Vec<(usize, usize)> = ws
        .files
        .iter()
        .enumerate()
        .flat_map(|(fi, f)| {
            f.src
                .allows
                .iter()
                .enumerate()
                .filter(|(_, a)| a.rule == RULE)
                .map(move |(ai, _)| (fi, ai))
        })
        .collect();
    assert_eq!(sites.len(), SHIPPED_DIRECTIVES, "panic-on-worker-path directives in the tree");

    for (fi, ai) in sites {
        let allow = ws.files[fi].src.allows.remove(ai);
        let found: Vec<(String, usize, &str)> = lint_built(&ws)
            .findings
            .into_iter()
            .map(|f| (f.path, f.violation.line, f.violation.rule))
            .collect();
        let path = ws.files[fi].path.clone();
        assert_eq!(
            found,
            vec![(path.clone(), allow.target, RULE)],
            "stripping the directive at {path}:{} should fire on exactly line {}",
            allow.line,
            allow.target
        );
        ws.files[fi].src.allows.insert(ai, allow);
    }
}
