//! The `atlarge-lint` CLI: lint the workspace, print diagnostics,
//! gate CI by exit code.

use atlarge_lint::config::LintConfig;
use atlarge_lint::engine::{lint_workspace, Report};
use atlarge_lint::lints;
use atlarge_telemetry::export::{json_object, json_str};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
atlarge-lint — workspace determinism & simulation-purity checks

USAGE:
    cargo run -p atlarge-lint [-- OPTIONS]

OPTIONS:
    --format human|json   Output style (default: human). `json` emits one
                          JSON object per line: diagnostics sorted by
                          (file, line, lint), then a lint_summary line.
    --root DIR            Workspace root (default: walk up from the
                          current directory to the first lint.toml /
                          workspace Cargo.toml).
    --config FILE         lint.toml path (default: <root>/lint.toml).
    --list                Print the lint catalogue (with codes) and exit.
    --explain LINT        Print a lint's rationale — the comment block
                          above its lint.toml section when present, the
                          built-in registry text otherwise — and exit.
    --help                This text.

EXIT CODES:
    0  zero non-allowlisted diagnostics
    1  diagnostics found
    2  usage or configuration error";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = "human".to_string();
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut explain: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some(f @ ("human" | "json")) => format = f.to_string(),
                    _ => return usage_error("--format takes `human` or `json`"),
                }
            }
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root = Some(PathBuf::from(p)),
                    None => return usage_error("--root takes a directory"),
                }
            }
            "--config" => {
                i += 1;
                match args.get(i) {
                    Some(p) => config_path = Some(PathBuf::from(p)),
                    None => return usage_error("--config takes a file"),
                }
            }
            "--list" => {
                for spec in lints::catalogue() {
                    println!("{} {:<26} {}", spec.code, spec.id, spec.summary);
                }
                println!(
                    "{} {:<26} allow directives must carry a reason and name known lints",
                    lints::code_of(lints::ALLOWLIST_INVALID),
                    lints::ALLOWLIST_INVALID
                );
                println!(
                    "{} {:<26} allow directives must suppress something",
                    lints::code_of(lints::UNUSED_ALLOWLIST),
                    lints::UNUSED_ALLOWLIST
                );
                return ExitCode::SUCCESS;
            }
            "--explain" => {
                i += 1;
                match args.get(i) {
                    Some(id) => explain = Some(id.clone()),
                    None => return usage_error("--explain takes a lint id"),
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => return usage_error(
            "no workspace root found (looked for lint.toml / [workspace] Cargo.toml); pass --root",
        ),
    };
    let config_file = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let mut toml_text: Option<String> = None;
    let cfg = if config_file.is_file() {
        match std::fs::read_to_string(&config_file) {
            Ok(text) => match LintConfig::from_toml(&text) {
                Ok(cfg) => {
                    toml_text = Some(text);
                    cfg
                }
                Err(e) => return usage_error(&format!("{}: {e}", config_file.display())),
            },
            Err(e) => return usage_error(&format!("{}: {e}", config_file.display())),
        }
    } else {
        LintConfig::default_config()
    };

    if let Some(id) = explain {
        return explain_lint(&id, toml_text.as_deref(), &cfg);
    }

    let report = lint_workspace(&root, &cfg);
    match format.as_str() {
        "json" => print_json(&report),
        _ => print_human(&report),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("atlarge-lint: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// `--explain <id>`: headline from the registry, rationale from the
/// `lint.toml` comment block above `[lint.<id>]` when one exists (the
/// checked-in, workspace-specific wording wins), the registry text
/// otherwise. `layer-boundary` additionally prints the active contract
/// table.
fn explain_lint(id: &str, toml_text: Option<&str>, cfg: &LintConfig) -> ExitCode {
    let Some(spec) = lints::catalogue().iter().find(|s| s.id == id) else {
        return usage_error(&format!(
            "unknown lint `{id}`; run --list for the catalogue"
        ));
    };
    println!("{} {}: {}", spec.code, spec.id, spec.summary);
    println!();
    let from_toml =
        toml_text.and_then(|t| atlarge_lint::config::section_rationale(t, &format!("lint.{id}")));
    match from_toml {
        Some(rationale) => println!("{rationale}"),
        None => println!("{}", spec.rationale),
    }
    if id == "layer-boundary" && !cfg.layers.is_empty() {
        println!("\nactive layer contracts:");
        for c in &cfg.layers {
            let scope = if c.scope.is_empty() {
                "workspace".to_string()
            } else {
                c.scope.join(", ")
            };
            println!("  [layer.{}]", c.name);
            println!("    scope:  {scope}");
            if !c.exempt.is_empty() {
                println!("    exempt: {}", c.exempt.join(", "));
            }
            println!("    forbid: {}", c.forbid.join(", "));
            if !c.note.is_empty() {
                println!("    note:   {}", c.note);
            }
        }
    }
    ExitCode::SUCCESS
}

/// Walks up from the current directory to the first directory holding a
/// `lint.toml`, or failing that a `Cargo.toml` declaring `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("lint.toml").is_file() || is_workspace_manifest(&dir.join("Cargo.toml")) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn is_workspace_manifest(path: &Path) -> bool {
    std::fs::read_to_string(path)
        .map(|t| t.contains("[workspace]"))
        .unwrap_or(false)
}

fn print_human(report: &Report) {
    for d in &report.diagnostics {
        println!("{}", d.headline());
        println!("    = help: {}", d.suggestion);
    }
    let by_crate: Vec<String> = report
        .public_items
        .iter()
        .map(|(krate, n)| format!("{krate} {n}"))
        .collect();
    println!(
        "atlarge-lint: {} diagnostic{} ({} suppressed by allowlist) across {} files; {} public items ({})",
        report.diagnostics.len(),
        if report.diagnostics.len() == 1 {
            ""
        } else {
            "s"
        },
        report.suppressed,
        report.files,
        report.public_items.values().sum::<usize>(),
        by_crate.join(", ")
    );
}

/// JSONL: one diagnostic object per line in stable (file, line, lint)
/// order, closed by a `lint_summary` line that also carries the public
/// item counts — every line is standalone JSON, the shape
/// `trace_lens`'s reader ingests.
fn print_json(report: &Report) {
    for d in &report.diagnostics {
        println!(
            "{}",
            json_object(&[
                ("kind", json_str("diagnostic")),
                ("file", json_str(&d.file)),
                ("line", d.line.to_string()),
                ("lint", json_str(&d.lint)),
                ("code", json_str(&d.code)),
                ("message", json_str(&d.message)),
                ("suggestion", json_str(&d.suggestion)),
            ])
        );
    }
    println!(
        "{}",
        json_object(&[
            ("kind", json_str("lint_summary")),
            ("diagnostics", report.diagnostics.len().to_string()),
            ("suppressed", report.suppressed.to_string()),
            ("files", report.files.to_string()),
            (
                "public_items",
                report.public_items.values().sum::<usize>().to_string(),
            ),
            (
                "public_items_by_crate",
                json_object(
                    &report
                        .public_items
                        .iter()
                        .map(|(krate, n)| (krate.as_str(), n.to_string()))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    );
}
