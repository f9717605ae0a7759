//! The self-test corpus: every `tests/ui/*.rs` fixture is linted under
//! the default configuration and its rendered diagnostics must match
//! the sibling `*.expected` file byte for byte.
//!
//! Each fixture's first line is a `//@ path: <virtual path>` header —
//! the workspace-relative path the file pretends to live at, which is
//! what drives per-lint scope and exemption matching. A fixture with
//! several headers is a small workspace, one virtual file per header,
//! linted as a whole (the workspace-wide `dead-public-surface` pass
//! included).
//!
//! Set `ATLARGE_LINT_BLESS=1` to rewrite the `.expected` files from the
//! current output instead of comparing (then review the diff).

use atlarge_lint::{lint_files, lint_source, LintConfig, Report};
use std::fs;
use std::path::PathBuf;

/// Renders a report the way the CLI's human printer does, minus the
/// trailing summary line (fixture-independent noise).
fn render(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&d.headline());
        out.push('\n');
        out.push_str("    = help: ");
        out.push_str(&d.suggestion);
        out.push('\n');
    }
    out
}

/// Splits a fixture at its `//@ path:` headers into `(path, source)`
/// pairs; each virtual file keeps its header line, so line numbers
/// count from the header.
fn virtual_files(source: &str) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = Vec::new();
    for line in source.split_inclusive('\n') {
        if let Some(virt) = line.strip_prefix("//@ path: ") {
            files.push((virt.trim().to_string(), String::new()));
        }
        if let Some((_, text)) = files.last_mut() {
            text.push_str(line);
        }
    }
    files
}

#[test]
fn ui_fixtures_match_expected() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/ui");
    let cfg = LintConfig::default_config();
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .expect("tests/ui exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rs"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 6,
        "expected a fixture per lint plus the allowlist corpus, found {}",
        entries.len()
    );

    let bless = std::env::var_os("ATLARGE_LINT_BLESS").is_some();
    for path in entries {
        let source = fs::read_to_string(&path).expect("fixture readable");
        let files = virtual_files(&source);
        assert!(
            source.starts_with("//@ path: "),
            "{}: missing `//@ path:` header",
            path.display()
        );
        let actual = match files.as_slice() {
            [(virt, _)] => render(&lint_source(virt, &source, &cfg)),
            _ => render(&lint_files(&files, &cfg)),
        };
        if bless {
            fs::write(path.with_extension("expected"), &actual).expect("bless writable");
            continue;
        }
        let expected = fs::read_to_string(path.with_extension("expected"))
            .unwrap_or_else(|_| panic!("{}: missing sibling .expected file", path.display()));
        assert_eq!(
            actual,
            expected,
            "fixture {} diverged from its .expected file",
            path.display()
        );
    }
}

/// The reasoned directive in the wall-clock fixture must actually
/// suppress (not merely hide) — the suppression count proves the
/// allowlist path ran.
#[test]
fn fixtures_report_suppressions() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/ui");
    let cfg = LintConfig::default_config();
    let source = fs::read_to_string(dir.join("wall_clock.rs")).expect("fixture readable");
    let report = lint_source("crates/des/src/wall_clock_fixture.rs", &source, &cfg);
    assert_eq!(report.suppressed, 1);
}
