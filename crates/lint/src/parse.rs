//! Syntactic model of one Rust source file: a hand-rolled,
//! dependency-free recursive-descent pass over the sanitized token
//! stream from [`crate::source`].
//!
//! This is deliberately *not* a Rust parser. It recognizes exactly the
//! shapes the call-graph rules need — `fn` items with brace-matched
//! bodies, call sites, and loop headers with their body extents — and
//! it is total: any byte soup produces *some* (possibly empty) item
//! tree, never a panic. Unbalanced delimiters clamp to the end of the
//! file; every recorded line is a real line of the input. The
//! parser-fuzz suite pins both properties.

use std::ops::Range;

use crate::source::SourceFile;

/// One token of sanitized code, tagged with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Word (identifier / keyword / number) or single punctuation char.
    pub kind: TokKind,
    /// 1-based source line the token starts on.
    pub line: usize,
}

/// Token payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier, keyword, or numeric literal.
    Word(String),
    /// Single non-whitespace punctuation character.
    Punct(char),
}

impl Tok {
    /// The word, if this is a word token.
    pub fn word(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Word(w) => Some(w),
            TokKind::Punct(_) => None,
        }
    }

    /// True when this token is the word `w`.
    pub fn is(&self, w: &str) -> bool {
        self.word() == Some(w)
    }

    /// True when this token is the punctuation char `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(&self.kind, TokKind::Punct(p) if *p == c)
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// 1-based line of the call.
    pub line: usize,
}

/// One `loop` / `while` / `for` site inside a function body.
#[derive(Debug, Clone)]
pub struct LoopSite {
    /// 1-based line of the loop keyword.
    pub line: usize,
    /// Loop keyword (`loop`, `while`, or `for`), for diagnostics.
    pub keyword: &'static str,
    /// Token range of the loop body (inside the braces). Nested loops'
    /// tokens are included — a poll anywhere inside counts.
    pub body: Range<usize>,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name (no path or impl-type qualification).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token range of the body (inside the braces). Empty for
    /// bodyless trait-method declarations and for empty `{}` bodies —
    /// [`FnItem::has_body`] distinguishes the two.
    pub body: Range<usize>,
    /// True when the item has a braced body (possibly empty), false
    /// for a bodyless trait-method declaration.
    pub has_body: bool,
    /// True when the definition line sits in a `#[cfg(test)]` region.
    pub is_test: bool,
}

/// The parsed item view of one file: a shared token stream plus every
/// `fn` item found in it (including fns nested in other bodies).
#[derive(Debug, Clone, Default)]
pub struct ItemTree {
    /// All tokens of the file, in order.
    pub toks: Vec<Tok>,
    /// All `fn` items, in source order.
    pub fns: Vec<FnItem>,
}

/// Rust keywords that can precede a `(` without being a call.
const NON_CALL_WORDS: [&str; 14] = [
    "if", "while", "for", "match", "loop", "return", "fn", "let", "in", "move", "else", "break",
    "continue", "as",
];

impl ItemTree {
    /// Lex and item-scan a sanitized source file.
    pub fn parse(src: &SourceFile) -> ItemTree {
        let toks = lex(src);
        let fns = scan_fns(&toks, src);
        ItemTree { toks, fns }
    }

    /// All call sites within a token range (typically a fn body or a
    /// loop body). Macro invocations (`name!(..)`) are not calls.
    pub fn calls_in(&self, range: Range<usize>) -> Vec<Call> {
        let mut out = Vec::new();
        let t = &self.toks;
        for i in range.start..range.end.min(t.len()) {
            let Some(w) = t[i].word() else { continue };
            if NON_CALL_WORDS.contains(&w) {
                continue;
            }
            // `name (` — but not `name !(` (macro; the `(` then sits
            // after the `!`, so the next-token test below already
            // rejects it) and not `fn name (`.
            if !t.get(i + 1).is_some_and(|x| x.is_punct('(')) {
                continue;
            }
            if i > 0 && t[i - 1].is("fn") {
                continue;
            }
            out.push(Call { name: w.to_string(), line: t[i].line });
        }
        out
    }

    /// All loop sites within a token range, recursively (a nested
    /// loop is its own site; its tokens also belong to the outer
    /// loop's body range).
    pub fn loops_in(&self, range: Range<usize>) -> Vec<LoopSite> {
        let mut out = Vec::new();
        let t = &self.toks;
        let end = range.end.min(t.len());
        let mut i = range.start;
        while i < end {
            let keyword = match t[i].word() {
                Some("loop") => Some("loop"),
                Some("while") => Some("while"),
                // `for<'a>` in a bound is not a loop.
                Some("for") if !t.get(i + 1).is_some_and(|x| x.is_punct('<')) => Some("for"),
                _ => None,
            };
            if let Some(kw) = keyword {
                // The body opens at the first `{` at paren depth 0
                // after the header (struct literals are not legal in
                // loop headers, so this brace is the body).
                if let Some(open) = find_body_open(t, i + 1, end) {
                    let close = match_brace(t, open);
                    out.push(LoopSite { line: t[i].line, keyword: kw, body: open + 1..close });
                }
            }
            i += 1;
        }
        out
    }
}

/// Tokenize the sanitized code lines of a file.
fn lex(src: &SourceFile) -> Vec<Tok> {
    let mut out = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        let n = idx + 1;
        let mut word = String::new();
        for c in line.code.chars() {
            if c.is_alphanumeric() || c == '_' {
                word.push(c);
            } else {
                if !word.is_empty() {
                    out.push(Tok { kind: TokKind::Word(std::mem::take(&mut word)), line: n });
                }
                if !c.is_whitespace() {
                    out.push(Tok { kind: TokKind::Punct(c), line: n });
                }
            }
        }
        if !word.is_empty() {
            out.push(Tok { kind: TokKind::Word(word), line: n });
        }
    }
    out
}

/// Find every `fn name` item and brace-match its body.
fn scan_fns(t: &[Tok], src: &SourceFile) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if t[i].is("fn") {
            if let Some(name) = t.get(i + 1).and_then(|x| x.word()) {
                let line = t[i].line;
                let is_test = src.line(line).map(|l| l.in_test).unwrap_or(false);
                // Walk the signature: the body opens at the first `{`
                // at paren depth 0; a `;` there first means a bodyless
                // trait declaration.
                let mut body = 0..0;
                let mut has_body = false;
                let mut j = i + 2;
                let mut paren: usize = 0;
                while j < t.len() {
                    if t[j].is_punct('(') || t[j].is_punct('[') {
                        paren += 1;
                    } else if t[j].is_punct(')') || t[j].is_punct(']') {
                        paren = paren.saturating_sub(1);
                    } else if paren == 0 && t[j].is_punct(';') {
                        break;
                    } else if paren == 0 && t[j].is_punct('{') {
                        let close = match_brace(t, j);
                        body = j + 1..close;
                        has_body = true;
                        break;
                    }
                    j += 1;
                }
                out.push(FnItem { name: name.to_string(), line, body, has_body, is_test });
            }
        }
        i += 1;
    }
    out
}

/// First `{` at paren/bracket depth 0 in `t[from..end]`.
fn find_body_open(t: &[Tok], from: usize, end: usize) -> Option<usize> {
    let mut depth: usize = 0;
    for (j, tok) in t.iter().enumerate().take(end).skip(from) {
        if tok.is_punct('(') || tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 {
            if tok.is_punct('{') {
                return Some(j);
            }
            // A `;` or `}` before the `{` means the header was
            // malformed (byte soup); give up on this site.
            if tok.is_punct(';') || tok.is_punct('}') {
                return None;
            }
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`; clamps to the end of
/// the stream when unbalanced (total on any input).
fn match_brace(t: &[Tok], open: usize) -> usize {
    let mut depth: usize = 0;
    for (j, tok) in t.iter().enumerate().skip(open) {
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    t.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(src: &str) -> ItemTree {
        ItemTree::parse(&SourceFile::parse(src))
    }

    #[test]
    fn fn_items_with_bodies() {
        let t = tree("fn alpha(x: u32) -> u32 { x + 1 }\nimpl S { fn beta(&self) { body(); } }\n");
        let names: Vec<&str> = t.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
        assert!(!t.fns[0].body.is_empty());
        assert_eq!(t.fns[0].line, 1);
        assert_eq!(t.fns[1].line, 2);
    }

    #[test]
    fn trait_decl_has_empty_body() {
        let t = tree("trait T { fn decl(&mut self) -> Option<Row>; }\nfn real() {}\n");
        assert_eq!(t.fns.len(), 2);
        assert!(!t.fns[0].has_body);
        assert!(t.fns[1].has_body);
        assert!(t.fns[1].body.is_empty());
    }

    #[test]
    fn calls_methods_and_macros() {
        let t = tree("fn f() { g(); x.h(); Work::tick(1); row![1]; maybe!(); }\n");
        let body = t.fns[0].body.clone();
        let calls: Vec<String> = t.calls_in(body).into_iter().map(|c| c.name).collect();
        assert_eq!(calls, vec!["g", "h", "tick"]);
    }

    #[test]
    fn loops_and_nesting() {
        let t = tree(
            "fn f() {\n    loop {\n        for x in xs {\n            g(x);\n        }\n    }\n    while a < b { h(); }\n}\n",
        );
        let loops = t.loops_in(t.fns[0].body.clone());
        assert_eq!(loops.len(), 3);
        assert_eq!(loops[0].keyword, "loop");
        assert_eq!(loops[1].keyword, "for");
        assert_eq!(loops[2].keyword, "while");
        // The outer loop's body contains the inner for's call.
        let outer_calls = t.calls_in(loops[0].body.clone());
        assert!(outer_calls.iter().any(|c| c.name == "g"));
    }

    #[test]
    fn while_let_header_finds_its_body() {
        let t = tree("fn f(op: &mut dyn Op) { while let Some(r) = op.next() { push(r); } }\n");
        let loops = t.loops_in(t.fns[0].body.clone());
        assert_eq!(loops.len(), 1);
        assert!(t.calls_in(loops[0].body.clone()).iter().any(|c| c.name == "push"));
    }

    #[test]
    fn hrtb_for_is_not_a_loop() {
        let t = tree("fn f<F: for<'a> Fn(&'a u32)>(g: F) { g(&1); }\n");
        assert!(t.loops_in(t.fns[0].body.clone()).is_empty());
    }

    #[test]
    fn tokenizer_splits_words_and_puncts() {
        let t = tree("fn f() { let x: FastMap<u32, Vec<u8>> = FastMap::default(); }\n");
        assert!(t.toks.iter().any(|x| x.is("FastMap")));
        assert!(t.toks.iter().any(|x| x.is_punct('<')));
        assert!(!t.toks.iter().any(|x| x.is("FastMap<")));
    }

    #[test]
    fn unbalanced_braces_clamp_to_eof() {
        let t = tree("fn f() { loop { g();\n");
        assert_eq!(t.fns.len(), 1);
        let loops = t.loops_in(t.fns[0].body.clone());
        assert_eq!(loops.len(), 1);
        assert!(t.calls_in(loops[0].body.clone()).iter().any(|c| c.name == "g"));
    }

    #[test]
    fn test_region_fns_are_flagged() {
        let t = tree("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n");
        assert!(!t.fns[0].is_test);
        assert!(t.fns[1].is_test);
    }
}
