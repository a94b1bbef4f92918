//! Docs/binary drift gate: the rule catalog in `docs/LINTS.md` must
//! name exactly the rules the binary registers (`--list-rules`) — a
//! rule added without documentation, or documentation for a rule that
//! was removed or renamed, fails here.

use std::collections::BTreeSet;

const LINTS_MD: &str = include_str!("../../../docs/LINTS.md");

/// Rule names documented as `### `rule-name`` headings.
fn documented() -> BTreeSet<String> {
    LINTS_MD
        .lines()
        .filter_map(|l| l.strip_prefix("### `"))
        .filter_map(|rest| rest.strip_suffix('`'))
        .map(|name| name.to_string())
        .collect()
}

#[test]
fn catalog_matches_registered_rules() {
    let registered: BTreeSet<String> =
        ts_lint::RULES.iter().chain(ts_lint::META_RULES).map(|r| r.name.to_string()).collect();
    let documented = documented();
    let missing: Vec<_> = registered.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&registered).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "docs/LINTS.md drifted from the registered rule set: \
         undocumented {missing:?}, stale headings {stale:?}"
    );
}
