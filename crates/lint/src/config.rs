//! `lint.toml` — per-workspace, per-lint configuration.
//!
//! The workspace root carries a `lint.toml` declaring scan roots and,
//! per lint, the path scopes where it applies (`scope`), the boundary
//! crates exempt from it (`exempt`), and whether test code is checked
//! (`include_tests`). The parser is a deliberately small TOML subset —
//! `[section]` headers, string / bool / integer / string-array values,
//! `#` comments — because the offline build environment has no TOML
//! crate and the configuration needs nothing more.

use std::collections::BTreeMap;

/// A parsed configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `"text"`
    Str(String),
    /// `true` / `false`
    Bool(bool),
    /// `42`
    Int(i64),
    /// `["a", "b"]`
    List(Vec<String>),
}

/// A parse failure, with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending entry.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

/// Parses the TOML subset into `section -> key -> value`. Keys before
/// the first `[section]` land in the `""` section.
pub(crate) fn parse_toml_subset(
    text: &str,
) -> Result<BTreeMap<String, BTreeMap<String, Value>>, ParseError> {
    let mut sections: BTreeMap<String, BTreeMap<String, Value>> = BTreeMap::new();
    let mut current = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            current = name.trim().to_string();
            sections.entry(current.clone()).or_default();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ParseError {
                line: line_no,
                message: format!("expected `key = value`, got `{line}`"),
            });
        };
        let value = parse_value(value.trim()).ok_or_else(|| ParseError {
            line: line_no,
            message: format!("unsupported value `{}`", value.trim()),
        })?;
        sections
            .entry(current.clone())
            .or_default()
            .insert(key.trim().to_string(), value);
    }
    Ok(sections)
}

/// Extracts the `#`-comment block immediately above `[section]` in
/// `lint.toml` text — the checked-in rationale that `--explain` prints.
/// Returns the comment lines with their `#` markers stripped.
pub fn section_rationale(text: &str, section: &str) -> Option<String> {
    let header = format!("[{section}]");
    let lines: Vec<&str> = text.lines().collect();
    let at = lines.iter().position(|l| l.trim() == header)?;
    let mut block = Vec::new();
    for line in lines[..at].iter().rev() {
        let trimmed = line.trim();
        let Some(comment) = trimmed.strip_prefix('#') else {
            break;
        };
        block.push(comment.trim());
    }
    if block.is_empty() {
        return None;
    }
    block.reverse();
    Some(block.join("\n"))
}

/// Drops a trailing `#` comment that is outside double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, ch) in line.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
            }
        } else if ch == '"' {
            in_str = true;
        } else if ch == '#' {
            return &line[..i];
        }
    }
    line
}

fn parse_value(v: &str) -> Option<Value> {
    if v == "true" {
        return Some(Value::Bool(true));
    }
    if v == "false" {
        return Some(Value::Bool(false));
    }
    if let Some(inner) = v.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        let mut items = Vec::new();
        for item in inner.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            items.push(item.strip_prefix('"')?.strip_suffix('"')?.to_string());
        }
        return Some(Value::List(items));
    }
    if let Some(s) = v.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
        return Some(Value::Str(s.to_string()));
    }
    v.parse::<i64>().ok().map(Value::Int)
}

/// Per-lint settings after merging `lint.toml` over the built-in
/// defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintSettings {
    /// Whether the lint runs at all.
    pub enabled: bool,
    /// Whether test code (`tests/`, `benches/`, `#[cfg(test)]` modules)
    /// is checked.
    pub include_tests: bool,
    /// Workspace-relative path prefixes the lint is confined to; empty
    /// means everywhere.
    pub scope: Vec<String>,
    /// Workspace-relative path prefixes exempt from the lint — the
    /// sanctioned boundary crates.
    pub exempt: Vec<String>,
}

impl LintSettings {
    /// Whether `rel_path` (workspace-relative, `/`-separated) falls
    /// under this lint.
    pub(crate) fn applies_to(&self, rel_path: &str) -> bool {
        if !self.enabled {
            return false;
        }
        if !self.scope.is_empty() && !self.scope.iter().any(|p| path_has_prefix(rel_path, p)) {
            return false;
        }
        !self.exempt.iter().any(|p| path_has_prefix(rel_path, p))
    }
}

/// Prefix match on whole path components: `crates/des` covers
/// `crates/des/src/sim.rs` but not `crates/des2/...`.
pub(crate) fn path_has_prefix(path: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    path == prefix || (path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/'))
}

/// One `[layer.<name>]` dependency contract, consumed by the
/// `layer-boundary` lint: files under `scope` (minus `exempt`) may not
/// `use` or name any path whose `::`-segments start with a `forbid`
/// prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerContract {
    /// Contract name (the `[layer.<name>]` section).
    pub name: String,
    /// Workspace-relative path prefixes the contract covers; empty means
    /// the whole workspace.
    pub scope: Vec<String>,
    /// Path prefixes on the sanctioned side of the boundary — the crates
    /// that own the forbidden module.
    pub exempt: Vec<String>,
    /// `::`-separated Rust path prefixes that must not be named.
    pub forbid: Vec<String>,
    /// One-line rationale, echoed in the diagnostic.
    pub note: String,
}

impl LayerContract {
    /// Whether the contract covers `rel_path` (workspace-relative,
    /// `/`-separated).
    pub(crate) fn applies_to(&self, rel_path: &str) -> bool {
        if !self.scope.is_empty() && !self.scope.iter().any(|p| path_has_prefix(rel_path, p)) {
            return false;
        }
        !self.exempt.iter().any(|p| path_has_prefix(rel_path, p))
    }
}

/// The built-in layer contracts (mirrored, with commentary, in the
/// checked-in `lint.toml`).
fn default_layers() -> Vec<LayerContract> {
    vec![
        LayerContract {
            name: "sealed-fel".into(),
            scope: vec![],
            exempt: vec!["crates/des".into(), "crates/bench".into(), "crates/lint".into()],
            forbid: vec![
                "atlarge_des::fel".into(),
                "atlarge_des::calendar".into(),
                "des::fel".into(),
                "des::calendar".into(),
            ],
            note: "the future-event list is a sealed kernel internal; domain code must go through EventQueue / Simulation so FEL implementations stay swappable".into(),
        },
        LayerContract {
            name: "shard-boundary".into(),
            scope: vec![],
            exempt: vec!["crates/des".into(), "crates/lint".into()],
            forbid: vec!["atlarge_des::shard::sync".into(), "des::shard::sync".into()],
            note: "conservative-sync machinery is a sealed kernel internal; domain code partitions through Partition / ShardedSimulation so the windowing protocol stays swappable".into(),
        },
        LayerContract {
            name: "wall-clock-types".into(),
            scope: vec![],
            exempt: vec![
                "crates/telemetry".into(),
                "crates/bench".into(),
                "crates/lint".into(),
            ],
            forbid: vec![
                "std::time::Instant".into(),
                "std::time::SystemTime".into(),
                "time::Instant".into(),
                "time::SystemTime".into(),
            ],
            note: "only the telemetry boundary may hold wall-clock types; simulation results must not depend on machine speed".into(),
        },
    ]
}

/// The whole linter configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Workspace-relative directories to scan.
    pub roots: Vec<String>,
    /// Workspace-relative path prefixes never scanned (fixture corpora,
    /// build output).
    pub exclude: Vec<String>,
    /// Workspace-relative directories read only for the names they use
    /// (`dead-public-surface` consumers), never linted.
    pub consumers: Vec<String>,
    /// Per-lint settings, keyed by lint id.
    pub lints: BTreeMap<String, LintSettings>,
    /// Layer dependency contracts for the `layer-boundary` lint.
    pub layers: Vec<LayerContract>,
}

impl LintConfig {
    /// The built-in defaults (see `lint.toml` at the workspace root for
    /// the checked-in, commented version).
    pub fn default_config() -> Self {
        let mut lints = BTreeMap::new();
        for spec in crate::lints::catalogue() {
            lints.insert(
                spec.id.to_string(),
                LintSettings {
                    enabled: true,
                    include_tests: spec.default_include_tests,
                    scope: spec.default_scope.iter().map(|s| s.to_string()).collect(),
                    exempt: spec.default_exempt.iter().map(|s| s.to_string()).collect(),
                },
            );
        }
        LintConfig {
            roots: vec![
                "crates".into(),
                "src".into(),
                "examples".into(),
                "tests".into(),
            ],
            exclude: vec!["crates/lint/tests/ui".into()],
            consumers: Vec::new(),
            lints,
            layers: default_layers(),
        }
    }

    /// Parses `lint.toml` text, merging it over the defaults.
    pub fn from_toml(text: &str) -> Result<Self, ParseError> {
        let table = parse_toml_subset(text)?;
        let mut cfg = Self::default_config();
        if let Some(ws) = table.get("workspace") {
            if let Some(Value::List(roots)) = ws.get("roots") {
                cfg.roots = roots.clone();
            }
            if let Some(Value::List(exclude)) = ws.get("exclude") {
                cfg.exclude = exclude.clone();
            }
            if let Some(Value::List(consumers)) = ws.get("consumers") {
                cfg.consumers = consumers.clone();
            }
        }
        for (section, entries) in &table {
            if let Some(name) = section.strip_prefix("layer.") {
                // A `[layer.<name>]` section replaces the built-in
                // contract of the same name, or declares a new one.
                let contract = match cfg.layers.iter_mut().find(|c| c.name == name) {
                    Some(c) => c,
                    None => {
                        cfg.layers.push(LayerContract {
                            name: name.to_string(),
                            scope: vec![],
                            exempt: vec![],
                            forbid: vec![],
                            note: String::new(),
                        });
                        cfg.layers.last_mut().expect("just pushed")
                    }
                };
                for (key, value) in entries {
                    match (key.as_str(), value) {
                        ("scope", Value::List(l)) => contract.scope = l.clone(),
                        ("exempt", Value::List(l)) => contract.exempt = l.clone(),
                        ("forbid", Value::List(l)) => contract.forbid = l.clone(),
                        ("note", Value::Str(s)) => contract.note = s.clone(),
                        _ => {
                            return Err(ParseError {
                                line: 0,
                                message: format!("unknown key `{key}` in [{section}]"),
                            })
                        }
                    }
                }
                continue;
            }
            let Some(id) = section.strip_prefix("lint.") else {
                continue;
            };
            let settings = cfg.lints.entry(id.to_string()).or_insert(LintSettings {
                enabled: true,
                include_tests: false,
                scope: vec![],
                exempt: vec![],
            });
            for (key, value) in entries {
                match (key.as_str(), value) {
                    ("enabled", Value::Bool(b)) => settings.enabled = *b,
                    ("include_tests", Value::Bool(b)) => settings.include_tests = *b,
                    ("scope", Value::List(l)) => settings.scope = l.clone(),
                    ("exempt", Value::List(l)) => settings.exempt = l.clone(),
                    _ => {
                        return Err(ParseError {
                            line: 0,
                            message: format!("unknown key `{key}` in [{section}]"),
                        })
                    }
                }
            }
        }
        Ok(cfg)
    }

    /// Settings for `lint_id`; disabled settings when unknown.
    pub(crate) fn settings(&self, lint_id: &str) -> LintSettings {
        self.lints.get(lint_id).cloned().unwrap_or(LintSettings {
            enabled: true,
            include_tests: true,
            scope: vec![],
            exempt: vec![],
        })
    }

    /// Whether `rel_path` is excluded from scanning entirely.
    pub(crate) fn is_excluded(&self, rel_path: &str) -> bool {
        self.exclude.iter().any(|p| path_has_prefix(rel_path, p))
    }

    /// Whether `rel_path` lies under a consumer-only root.
    pub(crate) fn is_consumer_only(&self, rel_path: &str) -> bool {
        self.consumers.iter().any(|p| path_has_prefix(rel_path, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_values_and_comments() {
        let t = parse_toml_subset(
            "# header\n[workspace]\nroots = [\"crates\", \"src\"] # trailing\nx = 3\n\n[lint.a-b]\nenabled = false\nname = \"x # not a comment\"\n",
        )
        .unwrap();
        assert_eq!(
            t["workspace"]["roots"],
            Value::List(vec!["crates".into(), "src".into()])
        );
        assert_eq!(t["workspace"]["x"], Value::Int(3));
        assert_eq!(t["lint.a-b"]["enabled"], Value::Bool(false));
        assert_eq!(
            t["lint.a-b"]["name"],
            Value::Str("x # not a comment".into())
        );
    }

    #[test]
    fn bad_lines_error_with_line_numbers() {
        let err = parse_toml_subset("[x]\nnot a kv line\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn config_merges_over_defaults() {
        let cfg = LintConfig::from_toml(
            "[lint.wall-clock-in-sim]\nexempt = [\"crates/telemetry\"]\n[lint.panic-in-kernel]\nscope = [\"crates/des\"]\ninclude_tests = false\n",
        )
        .unwrap();
        let wc = cfg.settings("wall-clock-in-sim");
        assert!(wc.applies_to("crates/exp/src/campaign.rs"));
        assert!(!wc.applies_to("crates/telemetry/src/recorder.rs"));
        let pk = cfg.settings("panic-in-kernel");
        assert!(pk.applies_to("crates/des/src/sim.rs"));
        assert!(!pk.applies_to("crates/exp/src/executor.rs"));
    }

    #[test]
    fn layer_sections_override_or_extend_defaults() {
        let cfg = LintConfig::from_toml(
            "[layer.sealed-fel]\nexempt = [\"crates/des\"]\nforbid = [\"atlarge_des::fel\"]\nnote = \"sealed\"\n[layer.executor-only]\nscope = [\"crates/serve\"]\nforbid = [\"atlarge_exp::executor\"]\nnote = \"serve has its own pool\"\n",
        )
        .unwrap();
        // Same-name section replaces the built-in contract (one entry).
        let fel: Vec<&LayerContract> = cfg
            .layers
            .iter()
            .filter(|c| c.name == "sealed-fel")
            .collect();
        assert_eq!(fel.len(), 1);
        assert_eq!(fel[0].exempt, vec!["crates/des".to_string()]);
        assert_eq!(fel[0].note, "sealed");
        // New names append; built-ins not mentioned survive.
        assert!(cfg.layers.iter().any(|c| c.name == "executor-only"));
        assert!(cfg.layers.iter().any(|c| c.name == "wall-clock-types"));
        let new = cfg
            .layers
            .iter()
            .find(|c| c.name == "executor-only")
            .unwrap();
        assert!(new.applies_to("crates/serve/src/server.rs"));
        assert!(!new.applies_to("crates/exp/src/executor.rs"));
    }

    #[test]
    fn unknown_layer_key_is_rejected() {
        let err = LintConfig::from_toml("[layer.x]\nforbids = [\"a\"]\n").unwrap_err();
        assert!(err.message.contains("unknown key"));
    }

    #[test]
    fn rationale_is_the_comment_block_above_a_section() {
        let toml = "# file header\n\n# Reads of the host clock make results\n# machine-dependent.\n[lint.wall-clock-in-sim]\nenabled = true\n\n[lint.entropy-rng]\n";
        assert_eq!(
            section_rationale(toml, "lint.wall-clock-in-sim").unwrap(),
            "Reads of the host clock make results\nmachine-dependent."
        );
        assert_eq!(section_rationale(toml, "lint.entropy-rng"), None);
        assert_eq!(section_rationale(toml, "lint.missing"), None);
    }

    #[test]
    fn prefix_matching_respects_component_boundaries() {
        assert!(path_has_prefix("crates/des/src/sim.rs", "crates/des"));
        assert!(!path_has_prefix("crates/des2/src/sim.rs", "crates/des"));
        assert!(path_has_prefix("crates/des", "crates/des"));
    }
}
