//! `--format json` must emit valid, stable-ordered JSONL — one
//! standalone JSON object per line, diagnostics sorted by
//! (file, line, lint), closed by a `lint_summary` line — consumable by
//! the same parser `trace_lens` uses (`atlarge_obsv::jsonl`).

use atlarge_obsv::jsonl::{self, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn run_json(root: &Path) -> (Vec<Json>, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_atlarge-lint"))
        .args(["--format", "json", "--root"])
        .arg(root)
        .output()
        .expect("linter binary runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let lines = jsonl::parse_lines(&stdout).expect("every line is standalone JSON");
    (lines, stdout, out.status.code())
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The acceptance gate: linting the real workspace yields zero
/// non-allowlisted diagnostics and exit code 0, and the JSONL stream is
/// well-formed with a trailing summary.
#[test]
fn workspace_is_clean_and_json_is_valid() {
    let (lines, _, code) = run_json(&workspace_root());
    assert_eq!(code, Some(0), "workspace must lint clean");
    let summary = lines.last().expect("stream ends with a summary");
    assert_eq!(summary.str_field("kind"), Some("lint_summary"));
    assert_eq!(summary.u64_field("diagnostics"), Some(0));
    let scanned = summary.u64_field("files").expect("files count present");
    assert!(scanned > 100, "workspace scan saw only {scanned} files");
    // The public surface is counted per library crate and in total.
    let total = summary
        .u64_field("public_items")
        .expect("public item total");
    let by_crate = summary
        .get("public_items_by_crate")
        .expect("per-crate public items");
    let mut sum = 0;
    for krate in ["des", "exp", "lint", "serve", "telemetry"] {
        sum += by_crate.u64_field(krate).expect("library crate counted");
    }
    assert!(sum > 0 && sum <= total, "{sum} of {total}");
    for line in &lines[..lines.len() - 1] {
        assert_eq!(line.str_field("kind"), Some("diagnostic"));
    }
}

/// A scratch workspace seeded with known violations: the stream carries
/// one object per diagnostic with the full field set, in (file, line,
/// lint) order, the summary counts match, the exit code gates, and two
/// runs are byte-identical.
#[test]
fn violations_stream_as_stable_jsonl() {
    let dir = std::env::temp_dir().join(format!("atlarge-lint-json-{}", std::process::id()));
    let src = dir.join("src");
    std::fs::create_dir_all(&src).expect("scratch dir");
    std::fs::write(
        src.join("bad.rs"),
        "pub fn f() {\n    let _r = thread_rng();\n    let _m: HashMap<u8, u8> = HashMap::new();\n}\n",
    )
    .expect("scratch fixture");

    let (lines, stdout, code) = run_json(&dir);
    let (_, stdout2, _) = run_json(&dir);
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(code, Some(1), "diagnostics must gate the exit code");
    assert_eq!(stdout, stdout2, "output must be run-to-run stable");

    let diags: Vec<&Json> = lines
        .iter()
        .filter(|l| l.str_field("kind") == Some("diagnostic"))
        .collect();
    assert_eq!(diags.len(), 3, "thread_rng + two HashMap mentions");
    for d in &diags {
        for field in ["file", "lint", "code", "message", "suggestion"] {
            assert!(d.str_field(field).is_some(), "missing field {field}");
        }
        assert!(d.u64_field("line").is_some(), "missing field line");
        // `code` is the stable machine alias of `lint`.
        let expect = match d.str_field("lint") {
            Some("entropy-rng") => "AL002",
            Some("unordered-iteration") => "AL003",
            other => panic!("unexpected lint {other:?}"),
        };
        assert_eq!(d.str_field("code"), Some(expect));
    }
    let keys: Vec<(String, u64, String)> = diags
        .iter()
        .map(|d| {
            (
                d.str_field("file").unwrap_or_default().to_string(),
                d.u64_field("line").unwrap_or_default(),
                d.str_field("lint").unwrap_or_default().to_string(),
            )
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "diagnostics must be (file, line, lint)-sorted"
    );
    assert_eq!(keys[0].2, "entropy-rng");
    assert_eq!(keys[1].2, "unordered-iteration");

    let summary = lines.last().expect("summary line");
    assert_eq!(summary.str_field("kind"), Some("lint_summary"));
    assert_eq!(summary.u64_field("diagnostics"), Some(3));
    assert_eq!(summary.u64_field("files"), Some(1));
}
