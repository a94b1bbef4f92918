//! Lexer/parser robustness suite.
//!
//! The v2 linter's recursive-descent parser is *total* by design: any
//! byte sequence must lex, item-scan, and lint without panicking, with
//! every reported span inside the file's bounds. This suite hammers
//! that contract three ways — raw byte soup, Rust-ish token soup
//! (deeply unbalanced braces, stray `fn`/`loop`/`!` fragments), and
//! real workspace sources under random byte-level mutation (deletions,
//! duplications, flips), which preserve enough structure to reach the
//! deeper parser paths that pure noise never hits.
//!
//! Run with `PROPTEST_CASES=512` in CI's release pass for real
//! coverage; the checked-in counts are sized for debug `cargo test`.

use proptest::prelude::*;
use ts_lint::{lint_source, FileCtx, FileKind, ItemTree, SourceFile};

/// The totality contract: lex + parse + full lint of `text` never
/// panics, and every span lands inside the file.
fn check_total(text: &str) {
    let src = SourceFile::parse(text);
    let tree = ItemTree::parse(&src);
    let ntoks = tree.toks.len();
    let nlines = text.lines().count() + 1; // lenient: EOF findings may point one past
    for f in &tree.fns {
        assert!(f.line >= 1 && f.line <= nlines, "fn line {} out of bounds", f.line);
        assert!(
            f.body.start <= f.body.end && f.body.end <= ntoks,
            "fn body {:?} escapes token stream of {ntoks}",
            f.body
        );
    }
    for call in tree.calls_in(0..ntoks) {
        assert!(call.line >= 1 && call.line <= nlines, "call line {} out of bounds", call.line);
    }
    // Linted as ts-exec, which both rules cover: the engine must survive
    // noise with every rule on, not just the parser.
    let ctx = FileCtx { crate_name: "ts-exec".to_string(), kind: FileKind::Lib };
    for finding in lint_source("fuzz.rs", text, &ctx) {
        let line = finding.violation.line;
        assert!(line >= 1 && line <= nlines, "finding line {line} out of bounds");
    }
}

/// Rust-ish fragments that stress item scanning: keywords, unbalanced
/// delimiters, attributes, comment and string openers left dangling.
const FRAGMENTS: [&str; 24] = [
    "fn",
    "loop",
    "while",
    "for",
    "in",
    "impl",
    "trait",
    "unsafe",
    "{",
    "}",
    "(",
    ")",
    "!",
    ".",
    "=",
    ";",
    "#[cfg(test)]",
    "let",
    "mut",
    "f",
    "next",
    "tick",
    "\"",
    "//",
];

/// Real sources mutated below: the linter's own densest files plus an
/// operator file full of the constructs the flow rules walk.
const REAL_SOURCES: [&str; 4] = [
    include_str!("../src/flow.rs"),
    include_str!("../src/parse.rs"),
    include_str!("../src/engine.rs"),
    include_str!("../../exec/src/join.rs"),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(0u8..=255u8, 0..512)) {
        check_total(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn token_soup_never_panics(
        picks in proptest::collection::vec((0usize..FRAGMENTS.len(), 0u8..4u8), 0..256),
    ) {
        let mut text = String::new();
        for (i, sep) in picks {
            text.push_str(FRAGMENTS[i]);
            text.push(if sep == 0 { '\n' } else { ' ' });
        }
        check_total(&text);
    }

    #[test]
    fn mutated_real_sources_never_panic(
        file in 0usize..REAL_SOURCES.len(),
        kind in 0u8..3u8,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        flip in 0u8..=255u8,
    ) {
        let base = REAL_SOURCES[file].as_bytes();
        let (mut lo, mut hi) =
            ((a * base.len() as f64) as usize, (b * base.len() as f64) as usize);
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let mut bytes = base.to_vec();
        match kind {
            0 => drop(bytes.drain(lo..hi)),          // delete a range
            1 => bytes.extend_from_slice(&base[lo..hi]), // duplicate a range at EOF
            _ => {
                if lo < bytes.len() {
                    bytes[lo] ^= flip;               // flip one byte
                }
            }
        }
        check_total(&String::from_utf8_lossy(&bytes));
    }
}
