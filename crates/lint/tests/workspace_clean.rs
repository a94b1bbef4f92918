//! The lint gate as a test: the workspace itself must be lint-clean, so
//! `cargo test` fails the same way CI's dedicated lint step would.
//! Every allow directive in the tree is also re-audited here — a stale
//! or reasonless one is a finding.

use std::path::Path;

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = ts_lint::lint_workspace(&root).expect("workspace scan succeeds");
    assert!(report.files > 50, "suspiciously small scan: {} files", report.files);
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        report.is_clean(),
        "workspace has {} lint finding(s):\n{}",
        report.findings.len(),
        rendered.join("\n")
    );
}
