//! Negative self-test for `unmetered-loop`: the rule must be sharp
//! enough that deleting any *single* budget poll (`Work::tick` /
//! `count_row`) from the real ts-exec driver source makes it fire.
//!
//! This pins the rule's sensitivity, not just its existence — a
//! regression that credits loops too generously (say, counting
//! `interrupted()` as a poll, or crediting through a metered callee)
//! would keep the workspace "clean" while letting an unpolled loop
//! ship. Each mutation below would be exactly such a bug slipping in.

use ts_lint::{lint_source, FileCtx, FileKind};

const DRIVER_SRC: &str = include_str!("../../exec/src/driver.rs");

fn unmetered_findings(text: &str) -> Vec<usize> {
    let ctx = FileCtx { crate_name: "ts-exec".to_string(), kind: FileKind::Lib };
    lint_source("crates/exec/src/driver.rs", text, &ctx)
        .into_iter()
        .filter(|f| f.violation.rule == "unmetered-loop")
        .map(|f| f.violation.line)
        .collect()
}

/// The shipped driver passes the rule as-is (its unbudgeted drains
/// carry reasoned allows; everything else polls).
#[test]
fn pristine_driver_is_clean() {
    assert_eq!(unmetered_findings(DRIVER_SRC), Vec::<usize>::new());
}

/// Deleting any single budget poll trips the rule.
#[test]
fn deleting_any_single_poll_fires() {
    let poll_lines: Vec<usize> = DRIVER_SRC
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains(".count_row(") || l.contains(".tick("))
        .map(|(i, _)| i)
        .collect();
    assert!(
        poll_lines.len() >= 2,
        "driver.rs should contain at least its two budget polls, found {}",
        poll_lines.len()
    );
    for &target in &poll_lines {
        let mutated: String = DRIVER_SRC
            .lines()
            .enumerate()
            .map(|(i, l)| if i == target { "" } else { l })
            .collect::<Vec<_>>()
            .join("\n");
        let findings = unmetered_findings(&mutated);
        assert!(
            !findings.is_empty(),
            "deleting the poll on line {} left every loop credited — \
             unmetered-loop lost its single-deletion sensitivity",
            target + 1
        );
    }
}
