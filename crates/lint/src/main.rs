//! `ts-lint` CLI: lint the workspace, exit nonzero on findings.
//!
//! ```text
//! ts-lint [--list-rules] [ROOT]
//! ```
//!
//! `ROOT` defaults to `.`. Each finding prints with its evidence notes
//! (call chains) under it.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use ts_lint::{lint_workspace, META_RULES, RULES};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut list_rules = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--list-rules" => list_rules = true,
            _ if arg.starts_with('-') => {
                eprintln!("ts-lint: unknown flag {arg}\nusage: ts-lint [--list-rules] [ROOT]");
                return ExitCode::from(2);
            }
            _ => root = PathBuf::from(arg),
        }
    }

    if list_rules {
        for rule in RULES.iter().chain(META_RULES) {
            println!("{:<24} {}", rule.name, rule.summary);
        }
        return ExitCode::SUCCESS;
    }

    match lint_workspace(&root) {
        Ok(report) => {
            for finding in &report.findings {
                println!("{finding}");
            }
            if report.is_clean() {
                println!("ts-lint: clean ({} files)", report.files);
                ExitCode::SUCCESS
            } else {
                println!(
                    "ts-lint: {} finding(s) in {} scanned file(s)",
                    report.findings.len(),
                    report.files
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("ts-lint: scan failed: {e}");
            ExitCode::from(2)
        }
    }
}
