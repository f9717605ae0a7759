//! The analysis engine: walks the workspace, lexes and parses every
//! Rust file, runs the token and structural lint catalogues and the
//! workspace-wide [`crate::surface`] pass, applies allowlist
//! directives, and produces a stable-ordered diagnostic report.

use crate::allow::{self, AllowDirective};
use crate::config::LintConfig;
use crate::lexer::{self, Lexed, Tok, TokKind};
use crate::lints::{self, Finding};
use crate::parser::{self, Ast};
use crate::structural;
use crate::surface;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// One reportable diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative, `/`-separated file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Lint id.
    pub lint: String,
    /// Stable machine code (`ALnnn`), recorded in JSON output.
    pub code: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}

impl Diagnostic {
    /// `file:line: [lint] message` — the human rendering's first line.
    pub fn headline(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// The result of linting a workspace (or a single file).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Report {
    /// Gating diagnostics, sorted by (file, line, lint, message).
    pub diagnostics: Vec<Diagnostic>,
    /// Diagnostics suppressed by a reasoned allowlist directive.
    pub suppressed: usize,
    /// Rust files scanned.
    pub files: usize,
    /// Public items per library crate (the `dead-public-surface`
    /// scope), filled by a workspace run.
    pub public_items: BTreeMap<String, usize>,
}

impl Report {
    /// Whether the run is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// One source file, lexed and parsed.
#[derive(Debug)]
pub struct Parsed {
    /// Workspace-relative, `/`-separated path.
    pub path: String,
    /// Tokens and comments.
    pub lexed: Lexed,
    /// The parse tree.
    pub ast: Ast,
    /// Per token: inside `#[cfg(test)]`/`#[test]`-gated code.
    pub test_mask: Vec<bool>,
}

impl Parsed {
    /// Lexes and parses `source`, which lives at `rel_path`.
    pub fn new(rel_path: &str, source: &str) -> Self {
        let lexed = lexer::lex(source);
        let ast = parser::parse(&lexed.tokens);
        let test_mask = test_region_mask(&lexed.tokens);
        Parsed {
            path: rel_path.to_string(),
            lexed,
            ast,
            test_mask,
        }
    }
}

/// Lints one file's source text with the per-file lints. `rel_path`
/// must be workspace-relative with `/` separators (it drives
/// scope/exempt matching).
pub fn lint_source(rel_path: &str, source: &str, cfg: &LintConfig) -> Report {
    lint_parsed(&Parsed::new(rel_path, source), cfg, Vec::new())
}

/// Lints a set of files as one workspace: the per-file lints on each,
/// plus `dead-public-surface` across all of them. `(path, source)`
/// pairs under a `lint.toml` consumer-only root are read for names and
/// not linted.
pub fn lint_files(files: &[(String, String)], cfg: &LintConfig) -> Report {
    let parsed: Vec<Parsed> = files.iter().map(|(p, s)| Parsed::new(p, s)).collect();
    let directives: Vec<Vec<AllowDirective>> =
        parsed.iter().map(|f| allow::collect(&f.lexed)).collect();
    let surface = surface::run(&parsed, cfg, |fi, line| {
        suppressing_directive(&directives[fi], surface::ID, line).is_some()
    });
    let mut extra: Vec<Vec<Finding>> = parsed.iter().map(|_| Vec::new()).collect();
    for (fi, f) in surface.findings {
        extra[fi].push(f);
    }
    let mut report = Report {
        public_items: surface.counts,
        ..Report::default()
    };
    for (f, extra) in parsed.iter().zip(extra) {
        if cfg.is_consumer_only(&f.path) {
            continue;
        }
        let file_report = lint_parsed(f, cfg, extra);
        report.diagnostics.extend(file_report.diagnostics);
        report.suppressed += file_report.suppressed;
        report.files += 1;
    }
    report.diagnostics.sort();
    report
}

/// Runs the per-file lints over `f`, adds the workspace findings
/// `extra`, and applies the file's allowlist directives.
fn lint_parsed(f: &Parsed, cfg: &LintConfig, extra: Vec<Finding>) -> Report {
    let rel_path = f.path.as_str();
    let file_is_test = path_is_test(rel_path);

    let check = |lint_id: &'static str, tok_idx: usize| {
        let settings = cfg.settings(lint_id);
        if !settings.applies_to(rel_path) {
            return false;
        }
        if settings.include_tests {
            return true;
        }
        !(file_is_test || f.test_mask[tok_idx])
    };

    let mut findings = lints::run(&f.lexed.tokens, check);
    findings.extend(structural::run(
        &f.ast,
        &f.lexed.tokens,
        rel_path,
        &cfg.layers,
        check,
    ));
    findings.extend(extra);

    let directives = allow::collect(&f.lexed);
    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;
    // Usage is tracked per (directive, lint id): a multi-id directive
    // is stale id-by-id.
    let mut used: Vec<Vec<bool>> = directives
        .iter()
        .map(|d| vec![false; d.lints.len()])
        .collect();

    for f in findings {
        match suppressing_directive(&directives, f.lint, f.line) {
            Some((d, id)) => {
                used[d][id] = true;
                suppressed += 1;
            }
            None => diagnostics.push(Diagnostic {
                file: rel_path.to_string(),
                line: f.line,
                lint: f.lint.to_string(),
                code: lints::code_of(f.lint).to_string(),
                message: f.message,
                suggestion: f.suggestion,
            }),
        }
    }

    // Meta-lints: malformed and unused directives are diagnostics too.
    for (i, d) in directives.iter().enumerate() {
        let reasonless = d.reason.as_deref().is_none_or(|r| r.trim().is_empty());
        if reasonless {
            diagnostics.push(Diagnostic {
                file: rel_path.to_string(),
                line: d.line,
                lint: lints::ALLOWLIST_INVALID.to_string(),
                code: lints::code_of(lints::ALLOWLIST_INVALID).to_string(),
                message: "allow directive carries no reason; it suppresses nothing".into(),
                suggestion: "add `reason = \"...\"` explaining why the rule is safe to break here"
                    .into(),
            });
            continue;
        }
        if let Some(unknown) = d.lints.iter().find(|l| !lints::is_known(l)) {
            diagnostics.push(Diagnostic {
                file: rel_path.to_string(),
                line: d.line,
                lint: lints::ALLOWLIST_INVALID.to_string(),
                code: lints::code_of(lints::ALLOWLIST_INVALID).to_string(),
                message: format!("allow directive names unknown lint `{unknown}`"),
                suggestion: "run `atlarge-lint --list` for the lint catalogue".into(),
            });
            continue;
        }
        for (id_idx, lint_id) in d.lints.iter().enumerate() {
            if !used[i][id_idx] {
                diagnostics.push(Diagnostic {
                    file: rel_path.to_string(),
                    line: d.line,
                    lint: lints::UNUSED_ALLOWLIST.to_string(),
                    code: lints::code_of(lints::UNUSED_ALLOWLIST).to_string(),
                    message: format!("allow directive id `{lint_id}` suppresses no diagnostic"),
                    suggestion: "delete the stale id (the violation is gone) or move the directive next to the offending line".into(),
                });
            }
        }
    }

    diagnostics.sort();
    Report {
        diagnostics,
        suppressed,
        files: 1,
        public_items: BTreeMap::new(),
    }
}

/// The `(directive index, lint-id index)` suppressing `lint` at `line`,
/// if any. A directive only counts when it carries a non-empty reason
/// and names only known lints — malformed directives are inert and
/// reported instead.
fn suppressing_directive(
    directives: &[AllowDirective],
    lint: &str,
    line: u32,
) -> Option<(usize, usize)> {
    directives.iter().enumerate().find_map(|(i, d)| {
        if d.target_line != Some(line)
            || d.reason.as_deref().is_none_or(|r| r.trim().is_empty())
            || !d.lints.iter().all(|l| lints::is_known(l))
        {
            return None;
        }
        d.lints.iter().position(|l| l == lint).map(|id| (i, id))
    })
}

/// Whether the path is test code wholesale: under a `tests/` or
/// `benches/` directory.
pub(crate) fn path_is_test(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches")
}

/// Marks tokens inside `#[cfg(test)]`-gated or `#[test]`-gated `mod`/`fn`
/// items. Conservative: only brace-delimited bodies directly following
/// the attribute (plus any stacked attributes and a visibility) are
/// masked.
pub(crate) fn test_region_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct
            && toks[i].text == "#"
            && i + 1 < toks.len()
            && toks[i + 1].text == "["
        {
            let attr_end = match matching(toks, i + 1, "[", "]") {
                Some(e) => e,
                None => break,
            };
            if attr_is_test_gate(&toks[i + 1..attr_end]) {
                if let Some((open, close)) = gated_body(toks, attr_end + 1) {
                    for m in mask.iter_mut().take(close + 1).skip(open) {
                        *m = true;
                    }
                    i = attr_end + 1;
                    continue;
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Whether the attribute tokens (between `[` and `]`, exclusive) gate
/// on tests: `#[test]`, or a `cfg` whose predicate mentions `test` and
/// not `not`.
fn attr_is_test_gate(inner: &[Tok]) -> bool {
    let idents: Vec<&str> = inner
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    if idents == ["test"] {
        return true;
    }
    idents.first() == Some(&"cfg") && idents.contains(&"test") && !idents.contains(&"not")
}

/// After a test-gating attribute: skip further attributes and a
/// visibility, then return the `{`..`}` body span of the next `mod` or
/// `fn` item.
fn gated_body(toks: &[Tok], mut i: usize) -> Option<(usize, usize)> {
    loop {
        if i >= toks.len() {
            return None;
        }
        // Stacked attributes.
        if toks[i].text == "#" && i + 1 < toks.len() && toks[i + 1].text == "[" {
            i = matching(toks, i + 1, "[", "]")? + 1;
            continue;
        }
        // Visibility: `pub` or `pub(crate)` etc.
        if toks[i].text == "pub" {
            i += 1;
            if i < toks.len() && toks[i].text == "(" {
                i = matching(toks, i, "(", ")")? + 1;
            }
            continue;
        }
        break;
    }
    if !matches!(toks[i].text.as_str(), "mod" | "fn") {
        return None;
    }
    // Find the body's opening brace before any `;` (a `mod name;` has no
    // body to mask).
    let mut j = i + 1;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => {
                let close = matching(toks, j, "{", "}")?;
                return Some((j, close));
            }
            ";" => return None,
            _ => j += 1,
        }
    }
    None
}

/// Index of the token closing the delimiter opened at `open_idx`.
fn matching(toks: &[Tok], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        if t.kind == TokKind::Punct {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
    }
    None
}

/// Recursively collects `.rs` files under `root/<roots>` and the
/// consumer-only roots, sorted by path, honoring the exclude list.
pub(crate) fn collect_rust_files(root: &Path, cfg: &LintConfig) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for r in cfg.roots.iter().chain(&cfg.consumers) {
        walk(&root.join(r), root, cfg, &mut files);
    }
    files.sort();
    files.dedup();
    files
}

fn walk(dir: &Path, root: &Path, cfg: &LintConfig, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let rel = relative(&path, root);
        if cfg.is_excluded(&rel) {
            continue;
        }
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(&path, root, cfg, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// `path` relative to `root`, `/`-separated.
pub(crate) fn relative(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints every Rust file in the workspace rooted at `root`.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> Report {
    let files: Vec<(String, String)> = collect_rust_files(root, cfg)
        .into_iter()
        .filter_map(|path| Some((relative(&path, root), fs::read_to_string(&path).ok()?)))
        .collect();
    lint_files(&files, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LintConfig;

    fn cfg() -> LintConfig {
        LintConfig::default_config()
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = "fn hot() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn t() { let m: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        // unordered-iteration includes tests by default: all three
        // mentions fire (the use plus two in the test body).
        let r = lint_source("crates/x/src/lib.rs", src, &cfg());
        assert_eq!(r.diagnostics.len(), 3);
        // wall-clock (include_tests = false) would skip the same region.
        let src2 =
            "fn hot() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let i = Instant::now(); }\n}\n";
        let r2 = lint_source("crates/x/src/lib.rs", src2, &cfg());
        assert!(r2.is_clean(), "{:?}", r2.diagnostics);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn hot() { let i = Instant::now(); }\n";
        let r = lint_source("crates/x/src/lib.rs", src, &cfg());
        assert_eq!(r.diagnostics.len(), 1);
    }

    #[test]
    fn reasoned_allow_suppresses_and_counts() {
        let src = "// #[allow_atlarge(wall-clock-in-sim, reason = \"report-only\")]\nlet t = Instant::now();\n";
        let r = lint_source("crates/x/src/lib.rs", src, &cfg());
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn reasonless_allow_is_inert_and_flagged() {
        let src = "// #[allow_atlarge(wall-clock-in-sim)]\nlet t = Instant::now();\n";
        let r = lint_source("crates/x/src/lib.rs", src, &cfg());
        let lints: Vec<&str> = r.diagnostics.iter().map(|d| d.lint.as_str()).collect();
        assert_eq!(lints, vec!["allowlist-invalid", "wall-clock-in-sim"]);
    }

    #[test]
    fn unused_allow_is_flagged() {
        let src = "// #[allow_atlarge(entropy-rng, reason = \"stale\")]\nlet x = 3;\n";
        let r = lint_source("crates/x/src/lib.rs", src, &cfg());
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].lint, "unused-allowlist");
    }

    #[test]
    fn unknown_lint_in_allow_is_flagged() {
        let src =
            "// #[allow_atlarge(wall-clock-in-simm, reason = \"typo\")]\nlet t = Instant::now();\n";
        let r = lint_source("crates/x/src/lib.rs", src, &cfg());
        let lints: Vec<&str> = r.diagnostics.iter().map(|d| d.lint.as_str()).collect();
        assert_eq!(lints, vec!["allowlist-invalid", "wall-clock-in-sim"]);
    }

    #[test]
    fn multi_id_allow_is_tracked_per_id() {
        // One directive, two ids, only one of which suppresses anything:
        // the idle id is flagged stale by name.
        let src = "// #[allow_atlarge(wall-clock-in-sim, entropy-rng, reason = \"report-only\")]\nlet t = Instant::now();\n";
        let r = lint_source("crates/x/src/lib.rs", src, &cfg());
        assert_eq!(r.suppressed, 1);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].lint, "unused-allowlist");
        assert!(r.diagnostics[0].message.contains("`entropy-rng`"));
        // Both ids earning their keep: clean.
        let src2 = "// #[allow_atlarge(wall-clock-in-sim, entropy-rng, reason = \"report-only\")]\nlet t = Instant::now(); let r = thread_rng();\n";
        let r2 = lint_source("crates/x/src/lib.rs", src2, &cfg());
        assert!(r2.is_clean(), "{:?}", r2.diagnostics);
        assert_eq!(r2.suppressed, 2);
    }

    #[test]
    fn structural_lints_run_through_the_engine() {
        let src = "use atlarge_des::fel::FutureEventList;\nfn f(seed: u64) {\n    let a = split_labeled(seed, \"x\");\n    let b = split_labeled(seed, \"x\");\n}\n";
        let r = lint_source("crates/p2p/src/swarm.rs", src, &cfg());
        let lints: Vec<&str> = r.diagnostics.iter().map(|d| d.lint.as_str()).collect();
        assert_eq!(lints, vec!["layer-boundary", "seed-stream-aliasing"]);
        assert_eq!(r.diagnostics[0].code, "AL008");
        assert_eq!(r.diagnostics[1].code, "AL007");
        // The owning kernel crate may name its own internals.
        let r2 = lint_source(
            "crates/des/src/queue.rs",
            "use atlarge_des::fel::Fel;\n",
            &cfg(),
        );
        assert!(r2.is_clean(), "{:?}", r2.diagnostics);
    }

    #[test]
    fn seed_aliasing_respects_include_tests_default() {
        // include_tests = false by default: an aliased label inside a
        // #[cfg(test)] module stays quiet (seed.rs tests legitimately
        // reuse labels across different roots).
        let src = "#[cfg(test)]\nmod tests {\n    fn t(s: u64) { let a = split_labeled(s, \"x\"); let b = split_labeled(s, \"x\"); }\n}\n";
        let r = lint_source("crates/exp/src/seed.rs", src, &cfg());
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn consumer_only_files_are_read_not_linted() {
        let mut cfg = cfg();
        cfg.consumers = vec!["perfbench/src".into()];
        let files = [
            (
                "crates/a/src/lib.rs",
                "pub fn used() {}\npub fn unused() {}\n",
            ),
            (
                "perfbench/src/main.rs",
                "fn main() { a::used(); let _m: HashMap<u8, u8>; }\n",
            ),
        ]
        .map(|(p, s)| (p.to_string(), s.to_string()));
        let r = lint_files(&files, &cfg);
        let found: Vec<(&str, u32, &str)> = r
            .diagnostics
            .iter()
            .map(|d| (d.file.as_str(), d.line, d.code.as_str()))
            .collect();
        assert_eq!(found, vec![("crates/a/src/lib.rs", 2, "AL010")]);
        assert_eq!(r.files, 1);
        assert_eq!(r.public_items.get("a"), Some(&2));
    }

    #[test]
    fn scope_and_boundary_respected() {
        let src = "fn f() { let t = Instant::now(); x.unwrap(); }\n";
        // Telemetry is the wall-clock boundary; unwrap is outside the
        // kernel scope: clean.
        let r = lint_source("crates/telemetry/src/recorder.rs", src, &cfg());
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        // In the kernel both fire.
        let r2 = lint_source("crates/des/src/sim.rs", src, &cfg());
        assert_eq!(r2.diagnostics.len(), 2);
    }
}
