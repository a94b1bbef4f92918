//! Lexical model of one Rust source file.
//!
//! The engine does not parse Rust — it *lexes* it, which is all the
//! rules need: every rule matches token patterns in code that is
//! guaranteed not to be a string literal, a character literal, or a
//! comment. [`SourceFile::parse`] runs three passes:
//!
//! 1. **sanitize** — a character-level state machine separates each
//!    line into `code` (literal contents and comments blanked with
//!    spaces, delimiters kept) and `comment` (the comment text, for
//!    allow directives). Handles nested block
//!    comments, raw strings with arbitrary `#` counts, byte strings,
//!    char literals vs. lifetimes, and escapes.
//! 2. **test regions** — brace tracking over the sanitized code marks
//!    every line inside a `#[cfg(test)]` or `#[test]` item, so rules
//!    scoped to library code skip inline test modules.
//! 3. **allow directives** — `// lint: allow(<rule>): <reason>`
//!    comments are collected and bound to the line they suppress (their
//!    own line if it has code, otherwise the next code-bearing line).

/// One suppression directive, bound to the code line it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule name inside `allow(...)`.
    pub rule: String,
    /// Reason text after the closing `):`. May be empty — the engine
    /// rejects that as `bad-allow`.
    pub reason: String,
    /// 1-based line of the directive comment itself.
    pub line: usize,
    /// 1-based code line the directive suppresses.
    pub target: usize,
}

/// One source line in the three synchronized views the rules consume.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Raw text (for diagnostics excerpts).
    pub raw: String,
    /// Sanitized code: comments and literal contents replaced by
    /// spaces, string/char delimiters kept. Same length as `raw`.
    pub code: String,
    /// Comment text on this line (comment markers kept, code blanked).
    pub comment: String,
    /// True when the line is inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: bool,
}

/// A lexed source file.
#[derive(Debug, Clone, Default)]
pub struct SourceFile {
    /// Lines, in order (index 0 is line 1).
    pub lines: Vec<Line>,
    /// All allow directives, bound to their target lines.
    pub allows: Vec<Allow>,
}

/// Lexer state for the sanitize pass.
enum State {
    Code,
    LineComment,
    BlockComment { depth: u32 },
    Str { raw_hashes: Option<usize> },
}

impl SourceFile {
    /// Lex `text` into the line views described in the module docs.
    pub fn parse(text: &str) -> SourceFile {
        let mut file = SourceFile::default();
        sanitize(text, &mut file);
        mark_test_regions(&mut file);
        collect_allows(&mut file);
        file
    }

    /// 1-based accessor used by the rules (`None` past the end).
    pub fn line(&self, n: usize) -> Option<&Line> {
        self.lines.get(n.checked_sub(1)?)
    }
}

/// Pass 1: split every line into sanitized code and comment text.
fn sanitize(text: &str, file: &mut SourceFile) {
    let chars: Vec<char> = text.chars().collect();
    let mut state = State::Code;
    let mut line = Line::default();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // A line comment ends at the newline; strings and block
            // comments continue across it.
            if matches!(state, State::LineComment) {
                state = State::Code;
            }
            file.lines.push(std::mem::take(&mut line));
            i += 1;
            continue;
        }
        line.raw.push(c);
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    line.code.push(' ');
                    line.comment.push(c);
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment { depth: 1 };
                    line.code.push(' ');
                    line.comment.push(c);
                } else if let Some(hashes) = raw_string_start(&chars, i) {
                    // Emit the full opener (`r`/`br`, hashes, quote) as
                    // code so the delimiter stays visible.
                    let opener_len = raw_opener_len(&chars, i);
                    for k in 0..opener_len {
                        if k > 0 {
                            line.raw.push(chars[i + k]);
                        }
                        line.code.push(chars[i + k]);
                        line.comment.push(' ');
                    }
                    i += opener_len;
                    state = State::Str { raw_hashes: Some(hashes) };
                    continue;
                } else if c == '"' || (c == 'b' && chars.get(i + 1) == Some(&'"')) {
                    if c == 'b' {
                        line.code.push('b');
                        line.comment.push(' ');
                        line.raw.push('"');
                        i += 1;
                    }
                    line.code.push('"');
                    line.comment.push(' ');
                    state = State::Str { raw_hashes: None };
                } else if c == '\'' {
                    if let Some(end) = char_literal_end(&chars, i) {
                        // Blank the contents, keep both delimiters.
                        line.code.push('\'');
                        line.comment.push(' ');
                        for &ch in &chars[i + 1..end] {
                            line.raw.push(ch);
                            line.code.push(' ');
                            line.comment.push(' ');
                        }
                        line.raw.push('\'');
                        line.code.push('\'');
                        line.comment.push(' ');
                        i = end + 1;
                        continue;
                    }
                    // A lifetime or label: plain code.
                    line.code.push(c);
                    line.comment.push(' ');
                } else {
                    line.code.push(c);
                    line.comment.push(' ');
                }
            }
            State::LineComment => {
                line.code.push(' ');
                line.comment.push(c);
            }
            State::BlockComment { depth } => {
                line.code.push(' ');
                line.comment.push(c);
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment { depth: depth + 1 };
                    line.raw.push('*');
                    line.code.push(' ');
                    line.comment.push('*');
                    i += 1;
                } else if c == '*' && chars.get(i + 1) == Some(&'/') {
                    line.raw.push('/');
                    line.code.push(' ');
                    line.comment.push('/');
                    i += 1;
                    state = if depth > 1 {
                        State::BlockComment { depth: depth - 1 }
                    } else {
                        State::Code
                    };
                }
            }
            State::Str { raw_hashes } => {
                line.comment.push(' ');
                match raw_hashes {
                    None => {
                        if c == '\\' {
                            // Skip the escaped character (it may be a
                            // quote); both chars blank to spaces.
                            line.code.push(' ');
                            if let Some(&n) = chars.get(i + 1) {
                                if n != '\n' {
                                    line.raw.push(n);
                                    line.code.push(' ');
                                    line.comment.push(' ');
                                    i += 1;
                                }
                            }
                        } else if c == '"' {
                            line.code.push('"');
                            state = State::Code;
                        } else {
                            line.code.push(' ');
                        }
                    }
                    Some(hashes) => {
                        if c == '"' && closes_raw(&chars, i, hashes) {
                            line.code.push('"');
                            for k in 1..=hashes {
                                line.raw.push(chars[i + k]);
                                line.code.push('#');
                                line.comment.push(' ');
                            }
                            i += hashes;
                            state = State::Code;
                        } else {
                            line.code.push(' ');
                        }
                    }
                }
            }
        }
        i += 1;
    }
    if !line.raw.is_empty() {
        file.lines.push(line);
    }
}

/// If a raw (byte) string starts at `i`, the number of `#`s it uses.
fn raw_string_start(chars: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some(hashes)
}

/// Length of the raw-string opener at `i` (`r`/`br` + hashes + quote).
fn raw_opener_len(chars: &[char], i: usize) -> usize {
    let prefix = if chars.get(i) == Some(&'b') { 2 } else { 1 };
    let mut hashes = 0;
    while chars.get(i + prefix + hashes) == Some(&'#') {
        hashes += 1;
    }
    prefix + hashes + 1
}

/// True when the quote at `i` is followed by `hashes` `#` characters.
fn closes_raw(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

/// End index (of the closing quote) when a character literal starts at
/// `i`; `None` when the `'` introduces a lifetime or loop label.
fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1)? {
        '\\' => {
            // Escaped literal: scan (bounded) for the closing quote.
            let mut j = i + 2;
            while j < chars.len() && j - i < 16 {
                match chars[j] {
                    '\'' => return Some(j),
                    '\\' => j += 2,
                    _ => j += 1,
                }
            }
            None
        }
        '\'' => None, // `''` never appears in valid code
        _ => (chars.get(i + 2) == Some(&'\'')).then_some(i + 2),
    }
}

/// Pass 2: mark lines inside `#[cfg(test)]` / `#[test]` brace blocks.
fn mark_test_regions(file: &mut SourceFile) {
    let mut depth: usize = 0;
    // Depths at which a test item's block was opened.
    let mut test_stack: Vec<usize> = Vec::new();
    let mut pending_attr = false;
    for li in 0..file.lines.len() {
        if !test_stack.is_empty() {
            file.lines[li].in_test = true;
        }
        let code = file.lines[li].code.clone();
        let bytes: Vec<char> = code.chars().collect();
        let mut k = 0;
        while k < bytes.len() {
            match bytes[k] {
                '#' => {
                    let rest: String = bytes[k..].iter().collect();
                    if rest.starts_with("#[cfg(test)]") || rest.starts_with("#[test]") {
                        pending_attr = true;
                    }
                }
                '{' => {
                    depth += 1;
                    if pending_attr {
                        test_stack.push(depth);
                        pending_attr = false;
                        // The block's own remainder lines are test code;
                        // the opening line keeps its current flag.
                    }
                }
                '}' => {
                    if test_stack.last() == Some(&depth) {
                        test_stack.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                // `#[cfg(test)] use ...;` — attribute spent without
                // a block.
                ';' if depth == 0 || test_stack.last() != Some(&depth) => {
                    pending_attr = false;
                }
                _ => {}
            }
            k += 1;
        }
    }
}

/// Pass 3: collect `// lint: allow(<rule>): <reason>` directives and
/// bind each to its target line.
fn collect_allows(file: &mut SourceFile) {
    let mut pending: Vec<Allow> = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let n = idx + 1;
        let mut here: Vec<Allow> = parse_directives(&line.comment, n);
        let has_code = !line.code.trim().is_empty();
        if has_code {
            // Code on this line: directives here and any pending ones
            // all target it.
            for mut a in pending.drain(..).chain(here.drain(..)) {
                a.target = n;
                allows.push(a);
            }
        } else {
            pending.append(&mut here);
        }
    }
    // Directives at EOF with no code after them: target themselves so
    // they surface as unused rather than vanishing.
    for a in pending {
        allows.push(a);
    }
    file.allows = allows;
}

/// Parse every directive in one line's comment text.
fn parse_directives(comment: &str, line: usize) -> Vec<Allow> {
    let mut out = Vec::new();
    // The directive must be the comment's own text: strip the comment
    // markers (`//`, `///`, `//!`, `/*`) and require `lint:` to lead.
    // Prose that merely *mentions* the syntax (like this crate's docs)
    // does not start with `lint:` after one marker strip and is
    // ignored.
    let trimmed = comment.trim_start();
    let body = trimmed
        .strip_prefix("/*")
        .or_else(|| trimmed.strip_prefix("//"))
        .map(|rest| rest.trim_start_matches(['/', '!']))
        .unwrap_or(trimmed);
    let body = body.trim_start();
    let Some(rest) = body.strip_prefix("lint:") else {
        return out;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return out;
    };
    let Some(close) = rest.find(')') else {
        return out;
    };
    let rule = rest[..close].trim().to_string();
    let after = rest[close + 1..].trim_start();
    let reason = after
        .strip_prefix(':')
        .map(|r| r.trim().trim_end_matches("*/").trim().to_string())
        .unwrap_or_default();
    out.push(Allow { rule, reason, line, target: line });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let f =
            SourceFile::parse("let x = \"for m.iter() as u32\"; // .unwrap() here\nlet y = 1;\n");
        assert!(!f.lines[0].code.contains("iter"));
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].comment.contains(".unwrap()"));
        assert!(f.lines[0].code.contains("let x ="));
        assert_eq!(f.lines[1].code.trim(), "let y = 1;");
    }

    #[test]
    fn raw_strings_with_hashes() {
        let f = SourceFile::parse("let s = r#\"as u32 \" still \"#; m.iter();\n");
        assert!(!f.lines[0].code.contains("as u32"));
        assert!(f.lines[0].code.contains("m.iter()"), "{:?}", f.lines[0].code);
    }

    #[test]
    fn multiline_strings_and_block_comments() {
        let f =
            SourceFile::parse("let s = \"line one\nas u32\"; /* as u16\nstill comment */ as i32\n");
        assert!(!f.lines[1].code.contains("as u32"));
        assert!(!f.lines[1].code.contains("as u16"));
        assert!(f.lines[2].code.contains("as i32"));
        assert!(f.lines[2].comment.contains("still comment"));
    }

    #[test]
    fn nested_block_comments() {
        let f = SourceFile::parse("/* outer /* inner */ still */ code()\n");
        assert!(f.lines[0].code.contains("code()"));
        assert!(!f.lines[0].code.contains("still"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let f = SourceFile::parse("fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\''; }\n");
        let code = &f.lines[0].code;
        assert!(code.contains("<'a>"));
        assert!(code.contains("&'a str"));
        // The quote characters inside the char literals must not open a
        // string state that eats the rest of the line.
        assert!(code.contains('}'));
    }

    #[test]
    fn cfg_test_regions() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let f = SourceFile::parse(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn cfg_test_attr_without_block_does_not_latch() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() { body(); }\n";
        let f = SourceFile::parse(src);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn allow_directive_trailing_and_standalone() {
        let src = "x.unwrap(); // lint: allow(panic-on-worker-path): infallible here\n\
                   // lint: allow(unmetered-loop): bounded by construction\n\
                   for y in ys {}\n";
        let f = SourceFile::parse(src);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].rule, "panic-on-worker-path");
        assert_eq!(f.allows[0].target, 1);
        assert_eq!(f.allows[1].rule, "unmetered-loop");
        assert_eq!(f.allows[1].reason, "bounded by construction");
        assert_eq!(f.allows[1].target, 3);
    }

    #[test]
    fn doc_prose_mentioning_syntax_is_not_a_directive() {
        let src = "/// Suppress with `// lint: allow(rule): reason`.\nfn f() {}\n";
        let f = SourceFile::parse(src);
        assert!(f.allows.is_empty());
    }
}
