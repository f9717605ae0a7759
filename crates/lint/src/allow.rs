//! The source-level allowlist: `#[allow_atlarge(...)]` comments.
//!
//! A diagnostic is suppressed by writing, on the offending line or the
//! line directly above it (comment lines in between are fine):
//!
//! ```text
//! // #[allow_atlarge(wall-clock-in-sim, reason = "profiler span; never reaches results")]
//! let t = Instant::now();
//! ```
//!
//! The directive is a *comment*, not a real attribute — the linter is
//! the only consumer, and rustc stays oblivious. Etiquette, enforced by
//! the linter itself:
//!
//! - **A reason is mandatory.** A directive without `reason = "..."`
//!   (or with an empty reason) suppresses nothing and raises
//!   `allowlist-invalid`.
//! - **Unknown lint ids are errors** (`allowlist-invalid`): a typo must
//!   not silently allow nothing.
//! - **Every directive must earn its keep.** One that suppresses no
//!   diagnostic raises `unused-allowlist`, so stale escapes rot away.

use crate::lexer::{Comment, Lexed};

/// One parsed `#[allow_atlarge(...)]` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// Lint ids the directive names.
    pub lints: Vec<String>,
    /// The written justification, if any.
    pub reason: Option<String>,
    /// 1-based line of the comment.
    pub line: u32,
    /// 1-based line of code the directive governs (the same line for a
    /// trailing comment, else the next token-bearing line).
    pub target_line: Option<u32>,
}

/// The marker that opens a directive inside a comment.
pub(crate) const MARKER: &str = "#[allow_atlarge(";

/// Parses a single directive body — the text between `#[allow_atlarge(`
/// and `)]` — into lint ids and an optional reason. Returns `None` when
/// the body is syntactically hopeless (unbalanced quotes).
pub(crate) fn parse_body(body: &str) -> Option<(Vec<String>, Option<String>)> {
    let mut lints = Vec::new();
    let mut reason = None;
    for item in split_top_level(body)? {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        if let Some(rest) = item.strip_prefix("reason") {
            let rest = rest.trim_start();
            let rest = rest.strip_prefix('=')?.trim_start();
            let rest = rest.strip_prefix('"')?;
            let end = rest.rfind('"')?;
            reason = Some(rest[..end].to_string());
        } else {
            lints.push(item.to_string());
        }
    }
    Some((lints, reason))
}

/// Splits `body` on commas that are outside double quotes.
fn split_top_level(body: &str) -> Option<Vec<String>> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for ch in body.chars() {
        if in_str {
            cur.push(ch);
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
            }
        } else if ch == '"' {
            in_str = true;
            cur.push(ch);
        } else if ch == ',' {
            parts.push(std::mem::take(&mut cur));
        } else {
            cur.push(ch);
        }
    }
    if in_str {
        return None;
    }
    parts.push(cur);
    Some(parts)
}

/// Finds the byte offset of the `)]` terminator in `s`, skipping over
/// double-quoted strings (a reason may legally contain `)]`).
fn find_close(s: &str) -> Option<usize> {
    let mut in_str = false;
    let mut escaped = false;
    let mut prev_close_paren = false;
    for (i, ch) in s.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
            }
            prev_close_paren = false;
        } else if ch == '"' {
            in_str = true;
            prev_close_paren = false;
        } else if ch == ']' && prev_close_paren {
            return Some(i - 1);
        } else {
            prev_close_paren = ch == ')';
        }
    }
    None
}

/// Extracts the directive from one comment, if it carries the marker.
/// Doc comments (`///`, `//!`, `/**`, `/*!`) never carry directives —
/// they are documentation *about* directives, like this sentence.
pub(crate) fn from_comment(c: &Comment, lexed: &Lexed) -> Option<AllowDirective> {
    if c.text.starts_with("///")
        || c.text.starts_with("//!")
        || c.text.starts_with("/**")
        || c.text.starts_with("/*!")
    {
        return None;
    }
    let at = c.text.find(MARKER)?;
    let body_start = at + MARKER.len();
    let close = find_close(&c.text[body_start..])? + body_start;
    let (lints, reason) = parse_body(&c.text[body_start..close])?;
    let target_line = if lexed.has_tokens_on(c.line) {
        Some(c.line)
    } else {
        lexed.next_code_line_after(c.line)
    };
    Some(AllowDirective {
        lints,
        reason,
        line: c.line,
        target_line,
    })
}

/// Collects every directive in a lexed file, in source order.
pub fn collect(lexed: &Lexed) -> Vec<AllowDirective> {
    lexed
        .comments
        .iter()
        .filter_map(|c| from_comment(c, lexed))
        .collect()
}

/// Renders a directive back to its canonical comment form — the
/// round-trip partner of `parse_body`, used by the property tests.
pub fn render(lints: &[String], reason: Option<&str>) -> String {
    let mut s = String::from("// #[allow_atlarge(");
    for (i, l) in lints.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(l);
    }
    if let Some(r) = reason {
        if !lints.is_empty() {
            s.push_str(", ");
        }
        s.push_str("reason = \"");
        s.push_str(&r.replace('\\', "\\\\").replace('"', "\\\""));
        s.push('"');
    }
    s.push_str(")]");
    s
}

/// Undoes [`render`]'s escaping of a reason string.
pub fn unescape_reason(r: &str) -> String {
    let mut out = String::with_capacity(r.len());
    let mut escaped = false;
    for ch in r.chars() {
        if escaped {
            out.push(ch);
            escaped = false;
        } else if ch == '\\' {
            escaped = true;
        } else {
            out.push(ch);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn parses_ids_and_reason() {
        let (lints, reason) =
            parse_body("wall-clock-in-sim, entropy-rng, reason = \"bench, not sim\"").unwrap();
        assert_eq!(lints, vec!["wall-clock-in-sim", "entropy-rng"]);
        assert_eq!(reason.as_deref(), Some("bench, not sim"));
    }

    #[test]
    fn missing_reason_is_none() {
        let (lints, reason) = parse_body("unordered-iteration").unwrap();
        assert_eq!(lints, vec!["unordered-iteration"]);
        assert!(reason.is_none());
    }

    #[test]
    fn directive_targets_next_code_line() {
        let lexed = lex("x();\n// #[allow_atlarge(entropy-rng, reason = \"r\")]\n\ny();");
        let ds = collect(&lexed);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].line, 2);
        assert_eq!(ds[0].target_line, Some(4));
    }

    #[test]
    fn trailing_directive_targets_its_own_line() {
        let lexed = lex("bad(); // #[allow_atlarge(entropy-rng, reason = \"r\")]");
        let ds = collect(&lexed);
        assert_eq!(ds[0].target_line, Some(1));
    }

    #[test]
    fn doc_comments_never_carry_directives() {
        let src = "\
/// example: `// #[allow_atlarge(entropy-rng, reason = \"x\")]`
//! // #[allow_atlarge(entropy-rng, reason = \"x\")]
/** #[allow_atlarge(entropy-rng, reason = \"x\")] */
/*! #[allow_atlarge(entropy-rng, reason = \"x\")] */
fn f() {}";
        assert!(collect(&lex(src)).is_empty());
    }

    #[test]
    fn render_parse_round_trip() {
        let lints = vec!["a-lint".to_string(), "b-lint".to_string()];
        let rendered = render(&lints, Some("why, \"quoted\", and \\slashed\\"));
        let lexed = lex(&format!("{rendered}\ncode();"));
        let ds = collect(&lexed);
        assert_eq!(ds[0].lints, lints);
        assert_eq!(
            ds[0].reason.as_deref().map(unescape_reason).as_deref(),
            Some("why, \"quoted\", and \\slashed\\")
        );
    }
}
