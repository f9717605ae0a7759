//! A small Rust lexer: just enough token structure for pattern-based
//! lints, with exact line numbers and comment capture.
//!
//! The lexer understands everything that would otherwise produce false
//! positives in a grep-style scan: line and (nested) block comments,
//! string/raw-string/byte-string literals, raw identifiers (`r#type`),
//! char literals vs. lifetimes, and numeric literals with suffixes. It
//! does not build a syntax tree itself — [`crate::parser`] grows one on
//! top for the structural lints, while the token-sequence lints match
//! short runs (`Instant :: now`, `. unwrap (`) directly.

/// What kind of token this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character (multi-char operators arrive as
    /// consecutive glued punct tokens: `::` is `:` then a glued `:`).
    Punct,
    /// Lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// Numeric literal, suffix included (`0.5f64`).
    Num,
    /// String, raw-string, byte-string, or char literal.
    Literal,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Source text. For [`TokKind::Literal`] this is the raw literal
    /// including delimiters (`"abc"`, `r#"x"#`) — the token-sequence
    /// lints never match literals (they filter on kind), while the
    /// structural lints read string contents via `Tok::str_content`.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// True when no whitespace or comment separates this token from the
    /// previous one (`arr[` vs `arr  [`).
    pub glued: bool,
}

impl Tok {
    /// The inner text of a plain or raw *string* literal (escape
    /// sequences left as written — both sides of a structural
    /// comparison see the same spelling). `None` for non-literals,
    /// char literals, and byte/C strings.
    pub(crate) fn str_content(&self) -> Option<&str> {
        if self.kind != TokKind::Literal {
            return None;
        }
        let t = self.text.as_str();
        if let Some(rest) = t.strip_prefix('"') {
            return rest.strip_suffix('"').or(Some(rest));
        }
        if let Some(rest) = t.strip_prefix('r') {
            let hashes = rest.len() - rest.trim_start_matches('#').len();
            let rest = &rest[hashes..];
            let rest = rest.strip_prefix('"')?;
            let rest = rest.strip_suffix(&"#".repeat(hashes)).unwrap_or(rest);
            return rest.strip_suffix('"').or(Some(rest));
        }
        None
    }
}

/// A captured comment (line or block), for allowlist-directive parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Full comment text, delimiters included.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// Lexer output: the token stream plus every comment.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Tokens in source order.
    pub tokens: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
    /// 1-based lines that carry at least one token (used to resolve
    /// which line an allowlist comment targets).
    pub token_lines: Vec<u32>,
}

impl Lexed {
    /// The first token-bearing line strictly after `line`, if any.
    pub(crate) fn next_code_line_after(&self, line: u32) -> Option<u32> {
        self.token_lines.iter().copied().find(|&l| l > line)
    }

    /// Whether any token sits on `line`.
    pub(crate) fn has_tokens_on(&self, line: u32) -> bool {
        self.token_lines.binary_search(&line).is_ok()
    }
}

/// Lexes `source` into tokens and comments.
pub fn lex(source: &str) -> Lexed {
    let b = source.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    // Position one past the previous token's last byte, for `glued`.
    let mut prev_end = usize::MAX;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    text: source[start..i].to_string(),
                    line,
                });
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    text: source[start..i.min(b.len())].to_string(),
                    line: start_line,
                });
            }
            b'"' => {
                let glued = prev_end == i;
                let start = i;
                i = skip_string(b, i, &mut line);
                push(
                    &mut out,
                    TokKind::Literal,
                    source[start..i].to_string(),
                    line,
                    glued,
                );
                prev_end = i;
            }
            b'\'' => {
                let glued = prev_end == i;
                // Lifetime: 'ident not closed by a quote. Char literal
                // otherwise ('a', '\n', '\u{1F600}').
                let is_lifetime = i + 1 < b.len()
                    && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_')
                    && !(i + 2 < b.len() && b[i + 2] == b'\'');
                if is_lifetime {
                    let start = i + 1;
                    i += 1;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    push(
                        &mut out,
                        TokKind::Lifetime,
                        source[start..i].to_string(),
                        line,
                        glued,
                    );
                } else {
                    let start = i;
                    i = skip_char_literal(b, i, &mut line);
                    push(
                        &mut out,
                        TokKind::Literal,
                        source[start..i].to_string(),
                        line,
                        glued,
                    );
                }
                prev_end = i;
            }
            c if c.is_ascii_digit() => {
                let glued = prev_end == i;
                let start = i;
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        // Exponent sign: 1e-3, 2.5E+8.
                        if (d == b'e' || d == b'E')
                            && i + 1 < b.len()
                            && (b[i + 1] == b'+' || b[i + 1] == b'-')
                            && i + 2 < b.len()
                            && b[i + 2].is_ascii_digit()
                        {
                            i += 2;
                        }
                        i += 1;
                    } else if d == b'.' && i + 1 < b.len() && b[i + 1].is_ascii_digit() {
                        // Fractional part, but not a `0..n` range.
                        i += 1;
                    } else {
                        break;
                    }
                }
                push(
                    &mut out,
                    TokKind::Num,
                    source[start..i].to_string(),
                    line,
                    glued,
                );
                prev_end = i;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let glued = prev_end == i;
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let text = &source[start..i];
                // Raw/byte/C string prefixes: r"", r#""#, b"", br#""#, c"".
                if i < b.len()
                    && matches!(text, "r" | "b" | "c" | "br" | "rb" | "cr" | "rc")
                    && (b[i] == b'"' || (text.contains('r') && b[i] == b'#'))
                {
                    if let Some(end) = skip_raw_or_plain_string(b, i, &mut line) {
                        i = end;
                        push(
                            &mut out,
                            TokKind::Literal,
                            source[start..i].to_string(),
                            line,
                            glued,
                        );
                        prev_end = i;
                        continue;
                    }
                    // Not a raw string after all: `r#ident` is a raw
                    // identifier. Lex the identifier part so keywords
                    // escaped this way still tokenize as one Ident.
                    if text == "r"
                        && b[i] == b'#'
                        && i + 1 < b.len()
                        && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_')
                    {
                        i += 1;
                        let id_start = i;
                        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                            i += 1;
                        }
                        push(
                            &mut out,
                            TokKind::Ident,
                            source[id_start..i].to_string(),
                            line,
                            glued,
                        );
                        prev_end = i;
                        continue;
                    }
                }
                push(&mut out, TokKind::Ident, text.to_string(), line, glued);
                prev_end = i;
            }
            _ => {
                let glued = prev_end == i;
                push(
                    &mut out,
                    TokKind::Punct,
                    (c as char).to_string(),
                    line,
                    glued,
                );
                i += 1;
                prev_end = i;
            }
        }
    }
    out.token_lines.dedup();
    out
}

fn push(out: &mut Lexed, kind: TokKind, text: String, line: u32, glued: bool) {
    if out.token_lines.last() != Some(&line) {
        out.token_lines.push(line);
    }
    out.tokens.push(Tok {
        kind,
        text,
        line,
        glued,
    });
}

/// Skips a `"…"` string starting at `i` (the opening quote); returns the
/// index one past the closing quote.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // An escaped newline (line-continuation) still ends a
                // source line — keep the line counter honest.
                if i + 1 < b.len() && b[i + 1] == b'\n' {
                    *line += 1;
                }
                i += 2;
            }
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Skips a char literal starting at the opening `'`.
fn skip_char_literal(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// At `i` sits either `"` (plain string body after a `b`/`c` prefix) or
/// `#…#"` (raw string). Returns the index one past the closing delimiter,
/// or `None` if this is not actually a string start.
fn skip_raw_or_plain_string(b: &[u8], mut i: usize, line: &mut u32) -> Option<usize> {
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= b.len() || b[i] != b'"' {
        return None;
    }
    if hashes == 0 {
        return Some(skip_string(b, i, line));
    }
    // Raw string: scan for `"` followed by `hashes` hash marks.
    i += 1;
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if b[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < b.len() && b[j] == b'#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return Some(j);
            }
        }
        i += 1;
    }
    Some(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            // Instant::now in a comment
            /* HashMap in /* a nested */ block */
            let s = "thread_rng()";
            let r = r#"SystemTime::now()"#;
            let b = b"from_entropy";
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.iter().any(|t| t.contains("Instant")
            || t.contains("HashMap")
            || t.contains("thread_rng")
            || t.contains("SystemTime")
            || t.contains("from_entropy")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { 'x' }").tokens;
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Literal).count(),
            1
        );
    }

    #[test]
    fn numbers_keep_suffixes_and_ranges_split() {
        let toks = lex("fold(0.0f64, f64::max); for i in 0..10 {}").tokens;
        let nums: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, vec!["0.0f64", "0", "10"]);
    }

    #[test]
    fn lines_and_glue_are_tracked() {
        let toks = lex("a\n  b [0]\nc []").tokens;
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks.last().unwrap().line, 3);
        // `b [` is not glued; in `c []` the bracket follows a space too.
        let brackets: Vec<_> = toks.iter().filter(|t| t.text == "[").collect();
        assert!(brackets.iter().all(|t| !t.glued));
        let glued = lex("b[0]").tokens;
        assert!(glued.iter().any(|t| t.text == "[" && t.glued));
    }

    #[test]
    fn raw_strings_with_hashes_hide_contents_and_keep_lines() {
        // Hash counts 0–2, embedded quotes and hash runs shorter than
        // the delimiter, and a newline that must advance line tracking.
        let src = "let a = r\"Instant::now\";\nlet b = r#\"say \"hi\" HashMap\"#;\nlet c = r##\"one \"# two\nthree\"##;\nafter();";
        let lexed = lex(src);
        let ids: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert!(!ids.contains(&"Instant") && !ids.contains(&"HashMap"));
        let after = lexed.tokens.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 5, "raw-string newline must advance the line");
        let lits: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .map(|t| t.str_content().unwrap())
            .collect();
        assert_eq!(
            lits,
            vec!["Instant::now", "say \"hi\" HashMap", "one \"# two\nthree"]
        );
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let src = "/* a /* b /* c */ b */ a */ code(); /* tail */";
        let lexed = lex(src);
        let ids: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ids, vec!["code"]);
        assert_eq!(lexed.comments.len(), 2);
        // Unterminated nesting must not loop or panic.
        let open = lex("/* x /* y */ still-open\ncode();");
        assert!(open.tokens.is_empty());
    }

    #[test]
    fn lifetime_char_ambiguity_covers_the_edge_forms() {
        // `'a` (lifetime), `'a'` (char), `'_` (anonymous lifetime),
        // `'\''` and `'\n'` (escaped chars), `'static` (keyword lifetime).
        let toks = lex("fn f<'a>(x: &'_ u8) -> &'static str { ('a', '\\'', '\\n') }").tokens;
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "_", "static"]);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Literal).count(),
            3
        );
    }

    #[test]
    fn raw_identifiers_lex_as_single_idents() {
        let toks = lex("let r#fn = r#type + other;").tokens;
        let ids: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(ids, vec!["let", "fn", "type", "other"]);
        // And `r` alone, or `r` before `#` without an ident, stays split.
        let ids2: Vec<String> = lex("r + 1")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect();
        assert_eq!(ids2, vec!["r"]);
    }

    #[test]
    fn escaped_newline_in_string_advances_line() {
        let lexed = lex("let s = \"one \\\ntwo\";\nnext();");
        let next = lexed.tokens.iter().find(|t| t.text == "next").unwrap();
        assert_eq!(next.line, 3);
    }

    #[test]
    fn str_content_strips_delimiters_only_for_strings() {
        let toks = lex("(\"plain\", r\"raw\", r##\"h\"#sh\"##, 'c', b\"bytes\")").tokens;
        let contents: Vec<Option<&str>> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .map(|t| t.str_content())
            .collect();
        assert_eq!(
            contents,
            vec![Some("plain"), Some("raw"), Some("h\"#sh"), None, None]
        );
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let lexed = lex("x();\n// #[allow_atlarge(x, reason = \"y\")]\ny();");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("allow_atlarge"));
        assert_eq!(lexed.next_code_line_after(2), Some(3));
        assert!(lexed.has_tokens_on(1));
        assert!(!lexed.has_tokens_on(2));
    }
}
