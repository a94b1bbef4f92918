//! The two call-graph rules: budget-poll discipline (`unmetered-loop`)
//! and panic reachability from the serving path (`panic-on-worker-path`).
//!
//! Both consume the [`crate::graph::Workspace`] model. They are
//! conservative syntactic analyses, not type checkers: name resolution
//! fans out to every same-named fn. The documented direction of every
//! approximation is in `docs/LINTS.md`. What each rule checks — its
//! crates, functions and budget — is fixed here, beside its code.

use std::collections::{BTreeSet, VecDeque};

use crate::graph::{FnId, Workspace, WsFile};
use crate::parse::ItemTree;
use crate::rules::{FileKind, Violation};

/// Name of the budget-poll discipline rule.
pub const UNMETERED_LOOP: &str = "unmetered-loop";
/// Name of the panic-reachability rule.
pub const PANIC_ON_WORKER_PATH: &str = "panic-on-worker-path";

/// Crates `unmetered-loop` checks: the operators and plan drivers.
const METERED_CRATES: &[&str] = &["ts-exec"];

/// Functions whose loops must poll the budget: the operator pull method
/// and the plan drivers.
const METERED_FNS: &[&str] = &[
    "next_batch",
    "batch_collect_all",
    "batch_collect_all_budgeted",
    "batch_collect_distinct_topk",
    "batch_collect_distinct_topk_budgeted",
    "batch_distinct_topk",
];

/// Calls that advance the budget machinery. `interrupted` is
/// deliberately absent: it only *reads* the latched flag — a loop that
/// checks `interrupted()` but never ticks can spin past every deadline,
/// because deadline/cancel polling happens inside `tick` and quota
/// accounting inside `tick`/`count_row`.
const BUDGET_CALLS: &[&str] = &["tick", "count_row"];

/// Call-graph hops searched for a budget poll.
const HOPS: usize = 2;

/// Crates `panic-on-worker-path` checks: the serving closure outside
/// ts-core/ts-storage, whose panics `clippy::{unwrap_used, expect_used,
/// panic}` already police crate-wide.
const WORKER_PATH_CRATES: &[&str] = &["ts-exec", "ts-server", "ts-graph"];

/// Worker-path entry fns: the server worker loop and the nine-method
/// evaluator front doors.
const ENTRIES: &[&str] = &["worker_loop", "process", "eval_with", "try_eval_with"];

/// Panic sites, matched against sanitized code. Arithmetic overflow is
/// delegated to the release-checked CI profile (see docs/LINTS.md).
const PANIC_PATTERNS: [&str; 6] =
    [".unwrap()", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];

/// One cross-file finding, attributed to a file index.
pub type FileViolation = (usize, Violation);

/// Run both call-graph rules over the workspace.
pub fn run_flow_rules(ws: &Workspace) -> Vec<FileViolation> {
    let mut out = Vec::new();
    unmetered_loop(ws, &mut out);
    panic_on_worker_path(ws, &mut out);
    out
}

/// True when line `n` of `file` is non-test library code of one of
/// `crates`.
fn in_scope(crates: &[&str], file: &WsFile, n: usize) -> bool {
    crates.contains(&file.ctx.crate_name.as_str())
        && file.ctx.kind == FileKind::Lib
        && file.src.line(n).is_some_and(|l| !l.in_test)
}

// ------------------------------------------------------- unmetered-loop

fn unmetered_loop(ws: &Workspace, out: &mut Vec<FileViolation>) {
    for (fi, file) in ws.files.iter().enumerate() {
        for f in &file.items.fns {
            if !METERED_FNS.contains(&f.name.as_str()) || f.body.is_empty() {
                continue;
            }
            for lp in file.items.loops_in(f.body.clone()) {
                if !in_scope(METERED_CRATES, file, lp.line) {
                    continue;
                }
                let mut searched: Vec<String> = Vec::new();
                if loop_reaches_poll(ws, &file.items, lp.body.clone(), &mut searched) {
                    continue;
                }
                searched.sort();
                searched.dedup();
                out.push((
                    fi,
                    Violation {
                        rule: UNMETERED_LOOP,
                        line: lp.line,
                        message: format!(
                            "`{}` in `{}` never reaches a budget poll ({}) within {HOPS} \
                             call-graph hops; a plan stuck in this loop is invisible to the \
                             deadline/cancel machinery — tick the Work meter inside the loop, \
                             or allow with the reason the loop is bounded",
                            lp.keyword,
                            f.name,
                            BUDGET_CALLS.join("/"),
                        ),
                        notes: if searched.is_empty() {
                            vec!["loop body makes no resolvable calls".to_string()]
                        } else {
                            vec![format!(
                                "searched without finding a poll: {}",
                                searched.join(", ")
                            )]
                        },
                    },
                ));
            }
        }
    }
}

/// True when the loop body contains a budget call directly or through
/// [`HOPS`] levels of resolved calls. Credit is never taken *through*
/// another metered fn (each pull stage must poll for itself — that is
/// what makes deleting a driver's own poll a finding even though the
/// operators beneath it still tick).
fn loop_reaches_poll(
    ws: &Workspace,
    items: &ItemTree,
    body: std::ops::Range<usize>,
    searched: &mut Vec<String>,
) -> bool {
    let mut frontier: VecDeque<(FnId, usize)> = VecDeque::new();
    let mut seen: BTreeSet<FnId> = BTreeSet::new();
    for call in items.calls_in(body) {
        if BUDGET_CALLS.contains(&call.name.as_str()) {
            return true;
        }
        if METERED_FNS.contains(&call.name.as_str()) {
            continue;
        }
        for &id in ws.resolve(&call.name) {
            if seen.insert(id) {
                frontier.push_back((id, 1));
            }
        }
    }
    while let Some((id, depth)) = frontier.pop_front() {
        searched.push(ws.label(id));
        let file = &ws.files[id.file];
        let fn_body = file.items.fns[id.item].body.clone();
        for call in file.items.calls_in(fn_body) {
            if BUDGET_CALLS.contains(&call.name.as_str()) {
                return true;
            }
            if METERED_FNS.contains(&call.name.as_str()) || depth == HOPS {
                continue;
            }
            for &next in ws.resolve(&call.name) {
                if seen.insert(next) {
                    frontier.push_back((next, depth + 1));
                }
            }
        }
    }
    false
}

// ------------------------------------------------- panic-on-worker-path

fn panic_on_worker_path(ws: &Workspace, out: &mut Vec<FileViolation>) {
    let (reachable, parents) = ws.reachable_from(ENTRIES);
    let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &id in &reachable {
        let file = &ws.files[id.file];
        let f = &file.items.fns[id.item];
        let Some(end_tok) = f.body.end.checked_sub(1).and_then(|i| file.items.toks.get(i)) else {
            continue;
        };
        for line_no in f.line..=end_tok.line {
            let Some(line) = file.src.line(line_no) else { continue };
            if !in_scope(WORKER_PATH_CRATES, file, line_no) {
                continue;
            }
            let Some(pattern) = PANIC_PATTERNS.iter().find(|p| line.code.contains(*p)) else {
                continue;
            };
            if !reported.insert((id.file, line_no)) {
                continue;
            }
            let chain = ws.chain(&parents, id);
            out.push((
                id.file,
                Violation {
                    rule: PANIC_ON_WORKER_PATH,
                    line: line_no,
                    message: format!(
                        "`{}` is reachable from worker entry `{}` ({} call-graph hops); a \
                         panic here rides the per-query isolation boundary on every serve — \
                         return an error instead, or allow with the reason it cannot fire",
                        pattern.trim_start_matches('.').trim_end_matches('('),
                        chain.first().cloned().unwrap_or_default(),
                        chain.len().saturating_sub(1),
                    ),
                    notes: vec![format!("call chain: {}", chain.join(" -> "))],
                },
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileCtx;
    use crate::source::SourceFile;

    fn ws_of(text: &str) -> Workspace {
        let src = SourceFile::parse(text);
        let items = ItemTree::parse(&src);
        Workspace::build(vec![WsFile {
            path: "demo.rs".to_string(),
            ctx: FileCtx { crate_name: "ts-exec".to_string(), kind: FileKind::Lib },
            src,
            items,
        }])
    }

    #[test]
    fn loop_with_direct_tick_is_metered() {
        let ws = ws_of("fn next_batch(w: &Work) {\n    loop {\n        w.tick(1);\n    }\n}\n");
        let mut out = Vec::new();
        unmetered_loop(&ws, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unmetered_loop_fires_and_hop_credit_works() {
        let ws = ws_of(
            "fn next_batch(w: &Work) {\n    loop {\n        spin();\n    }\n}\n\
             fn batch_collect_all(w: &Work) {\n    loop {\n        helper(w);\n    }\n}\n\
             fn helper(w: &Work) { w.tick(1); }\nfn spin() {}\n",
        );
        let mut out = Vec::new();
        unmetered_loop(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].1.line, 2);
    }

    #[test]
    fn no_credit_through_other_metered_fns() {
        // The driver's loop pulls `next_batch()`, which ticks — but each
        // pull stage polls for itself, so the driver loop still fires.
        let ws = ws_of(
            "fn batch_collect_all(op: &mut Op) {\n    while let Some(b) = op.next_batch() {\n        keep(b);\n    }\n}\n\
             fn next_batch(w: &Work) -> Option<Batch> { w.tick(1); None }\nfn keep(_b: Batch) {}\n",
        );
        let mut out = Vec::new();
        unmetered_loop(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn panic_reachability_transitive_and_scoped() {
        let ws = ws_of(
            "fn worker_loop() { stage_one(); }\n\
             fn stage_one() { stage_two(); }\n\
             fn stage_two(x: Option<u32>) { x.unwrap(); }\n\
             fn unreached(y: Option<u32>) { y.unwrap(); }\n",
        );
        let mut out = Vec::new();
        panic_on_worker_path(&ws, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].1.line, 3);
        assert!(out[0].1.notes[0].contains("worker_loop -> "));
    }
}
