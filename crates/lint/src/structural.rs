//! Structural lints: rules that need the [`crate::parser`] tree, not
//! just token runs.
//!
//! Three rules live here, each protecting an invariant the
//! token-sequence catalogue cannot see:
//!
//! - **`capsule-field-coverage`** — for every `impl Evolvable`, the set
//!   of capsule field names written in `capture()` must equal the set
//!   read back in `resume()`. Drift in either direction makes a live
//!   policy swap lose state (write-only field) or fail at handoff
//!   (read-only field) — and both compile fine.
//! - **`seed-stream-aliasing`** — two `split_labeled` calls in one
//!   function sharing a string label derive the *same* seed: two
//!   "independent" sub-studies silently correlated (the exact bug the
//!   campaign engine's PR fixed by hand in the p2p table-5 studies).
//! - **`layer-boundary`** — `lint.toml`-declared dependency contracts
//!   ([`LayerContract`]) enforced over the parsed `use` graph and
//!   inline qualified paths: e.g. domain crates must not name the DES
//!   kernel's sealed `fel`/`calendar` internals, and only the telemetry
//!   crate may import wall-clock types.

use crate::config::LayerContract;
use crate::lexer::{Tok, TokKind};
use crate::lints::Finding;
use crate::parser::{path_has_seg_prefix, Ast};
use std::collections::BTreeMap;

/// Capsule builder methods that write a named field in `capture()`.
const CAPSULE_WRITERS: &[&str] = &["with", "with_u32", "with_u64", "with_f64", "with_str"];
/// Generic writers (`push`/`set`) that also name fields when the first
/// argument is a string literal — but are too common to treat a
/// non-literal first argument as evidence of dynamic field names.
const GENERIC_WRITERS: &[&str] = &["push", "set"];
/// Typed getters that read a named field in `resume()`.
const CAPSULE_READERS: &[&str] = &[
    "u32_field",
    "u64_field",
    "f64_field",
    "str_field",
    "f64_table_field",
    "named_f64s_field",
];

/// Runs the structural lints over one parsed file. `check` is the same
/// applicability closure the token lints use (scope/exempt paths and
/// the test-region mask, keyed by token index); `rel_path` additionally
/// drives per-contract scope matching for `layer-boundary`.
pub fn run(
    ast: &Ast,
    toks: &[Tok],
    rel_path: &str,
    layers: &[LayerContract],
    check: impl Fn(&'static str, usize) -> bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    capsule_field_coverage(ast, toks, &check, &mut out);
    seed_stream_aliasing(ast, toks, &check, &mut out);
    layer_boundary(ast, rel_path, layers, &check, &mut out);
    out
}

/// One named-field access found in a fn body: `(line, tok_idx)` of the
/// call, keyed by field name; `dynamic` records a capsule call whose
/// field name is not a string literal (coverage is then unverifiable).
#[derive(Debug, Default)]
struct FieldAccesses {
    fields: BTreeMap<String, (u32, usize)>,
    dynamic: bool,
}

/// Collects `.method("name", …)` calls in `toks[span]` for the given
/// method-name sets.
fn field_calls(
    toks: &[Tok],
    span: (usize, usize),
    strict_methods: &[&str],
    lenient_methods: &[&str],
) -> FieldAccesses {
    let mut acc = FieldAccesses::default();
    let (open, close) = span;
    let mut i = open;
    while i + 2 <= close {
        let is_call = toks[i].kind == TokKind::Punct
            && toks[i].text == "."
            && toks[i + 1].kind == TokKind::Ident
            && i + 2 <= close
            && toks[i + 2].kind == TokKind::Punct
            && toks[i + 2].text == "(";
        if is_call {
            let name = toks[i + 1].text.as_str();
            let strict = strict_methods.contains(&name);
            if strict || lenient_methods.contains(&name) {
                let arg = toks.get(i + 3);
                match arg.and_then(|t| t.str_content()) {
                    Some(field) => {
                        acc.fields
                            .entry(field.to_string())
                            .or_insert((toks[i + 1].line, i + 1));
                    }
                    // A capsule-specific method with a computed field
                    // name: the name set is not statically knowable.
                    None if strict => acc.dynamic = true,
                    None => {}
                }
                i += 3;
                continue;
            }
        }
        i += 1;
    }
    acc
}

fn capsule_field_coverage(
    ast: &Ast,
    toks: &[Tok],
    check: &impl Fn(&'static str, usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for imp in &ast.impls {
        let is_evolvable = imp
            .trait_path
            .as_deref()
            .is_some_and(|p| crate::parser::last_segment(p) == "Evolvable");
        if !is_evolvable {
            continue;
        }
        let body_of = |fn_name: &str| {
            imp.fns
                .iter()
                .map(|&fi| &ast.fns[fi])
                .find(|f| f.name == fn_name)
                .and_then(|f| f.body)
        };
        let (Some(cap_span), Some(res_span)) = (body_of("capture"), body_of("resume")) else {
            continue;
        };
        let written = field_calls(toks, cap_span, CAPSULE_WRITERS, GENERIC_WRITERS);
        let read = field_calls(toks, res_span, CAPSULE_READERS, &[]);
        if written.dynamic || read.dynamic {
            // Computed field names: coverage cannot be proven or
            // refuted statically; stay silent rather than guess.
            continue;
        }
        for (field, &(line, tok_idx)) in &written.fields {
            if !read.fields.contains_key(field) && check("capsule-field-coverage", tok_idx) {
                out.push(Finding {
                    lint: "capsule-field-coverage",
                    line,
                    message: format!(
                        "capsule field `{field}` is written in `{}::capture` but never read in `resume`; a live swap would silently drop that state",
                        imp.self_ty
                    ),
                    suggestion: "read the field back with its typed getter in resume(), or stop capturing it".into(),
                });
            }
        }
        for (field, &(line, tok_idx)) in &read.fields {
            if !written.fields.contains_key(field) && check("capsule-field-coverage", tok_idx) {
                out.push(Finding {
                    lint: "capsule-field-coverage",
                    line,
                    message: format!(
                        "capsule field `{field}` is read in `{}::resume` but never written in `capture`; every handoff would fail with MissingField",
                        imp.self_ty
                    ),
                    suggestion: "push the field in capture(), or delete the stale getter".into(),
                });
            }
        }
    }
}

fn seed_stream_aliasing(
    ast: &Ast,
    toks: &[Tok],
    check: &impl Fn(&'static str, usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for f in &ast.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        // Nested fns are their own scope; their spans are scanned in
        // their own iteration, so skip them here.
        let nested: Vec<(usize, usize)> = ast
            .fns
            .iter()
            .filter_map(|g| g.body)
            .filter(|&(o, c)| o > open && c < close)
            .collect();
        let mut labels: BTreeMap<String, u32> = BTreeMap::new();
        let mut i = open;
        while i < close {
            if let Some(&(_, nc)) = nested.iter().find(|&&(no, nc)| i >= no && i <= nc) {
                i = nc + 1;
                continue;
            }
            let is_call = toks[i].kind == TokKind::Ident
                && toks[i].text == "split_labeled"
                && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Punct && t.text == "(")
                // Skip the definition itself (`fn split_labeled(...)`).
                && !(i > 0 && toks[i - 1].kind == TokKind::Ident && toks[i - 1].text == "fn");
            if !is_call {
                i += 1;
                continue;
            }
            // String literals at the top level of this call's argument
            // list are stream labels.
            let args_open = i + 1;
            let mut depth = 0i32;
            let mut j = args_open;
            while j <= close {
                let t = &toks[j];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                } else if depth == 1 && t.kind == TokKind::Literal {
                    if let Some(label) = t.str_content() {
                        match labels.get(label) {
                            Some(&first) if check("seed-stream-aliasing", j) => {
                                out.push(Finding {
                                    lint: "seed-stream-aliasing",
                                    line: t.line,
                                    message: format!(
                                        "seed-stream label \"{label}\" is reused within `{}` (first used on line {first}); the two derived streams are byte-identical, so the sub-studies are correlated",
                                        f.name
                                    ),
                                    suggestion: "give every derived sub-stream a distinct label, or hoist the shared stream into one variable".into(),
                                });
                            }
                            Some(_) => {}
                            None => {
                                labels.insert(label.to_string(), t.line);
                            }
                        }
                    }
                }
                j += 1;
            }
            i = j + 1;
        }
    }
}

fn layer_boundary(
    ast: &Ast,
    rel_path: &str,
    layers: &[LayerContract],
    check: &impl Fn(&'static str, usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for contract in layers {
        if !contract.applies_to(rel_path) {
            continue;
        }
        let refs = ast
            .uses
            .iter()
            .map(|u| (u.path.as_str(), u.line, u.tok_idx))
            .chain(
                ast.paths
                    .iter()
                    .map(|p| (p.path.as_str(), p.line, p.tok_idx)),
            );
        for (path, line, tok_idx) in refs {
            let hit = contract
                .forbid
                .iter()
                .any(|f| path_has_seg_prefix(path, f) || path == format!("{f}::*").as_str());
            if hit && check("layer-boundary", tok_idx) {
                out.push(Finding {
                    lint: "layer-boundary",
                    line,
                    message: format!(
                        "`{path}` crosses the `{}` layer boundary: {}",
                        contract.name, contract.note
                    ),
                    suggestion: format!(
                        "reach through the sanctioned API instead; the contract is declared as [layer.{}] in lint.toml",
                        contract.name
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser;

    fn findings(src: &str, rel_path: &str, layers: &[LayerContract]) -> Vec<Finding> {
        let lexed = lex(src);
        let ast = parser::parse(&lexed.tokens);
        run(&ast, &lexed.tokens, rel_path, layers, |_, _| true)
    }

    fn no_layers() -> Vec<LayerContract> {
        vec![]
    }

    #[test]
    fn capsule_drift_fires_both_directions() {
        let src = r#"
impl Evolvable for Drifty {
    fn capsule_kind(&self) -> &'static str { "t.drifty" }
    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new(self.capsule_kind(), 1)
            .with_f64("kept", self.kept)
            .with_u64("dropped", self.dropped)
    }
    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())?;
        self.kept = capsule.f64_field("kept")?;
        self.ghost = capsule.u32_field("ghost")?;
        Ok(())
    }
}
"#;
        let f = findings(src, "crates/x/src/lib.rs", &no_layers());
        let msgs: Vec<&str> = f.iter().map(|f| f.lint).collect();
        assert_eq!(
            msgs,
            vec!["capsule-field-coverage", "capsule-field-coverage"]
        );
        assert!(f[0].message.contains("`dropped`") || f[1].message.contains("`dropped`"));
        assert!(f.iter().any(|f| f.message.contains("`ghost`")));
    }

    #[test]
    fn symmetric_capsules_and_push_set_are_clean() {
        let src = r#"
impl atlarge_evolve::Evolvable for Ok1 {
    fn capture(&self, _now: f64) -> Capsule {
        let mut c = Capsule::new("k", 1);
        c.push("a", Value::U32(self.a));
        c.set("b", Value::F64(self.b));
        let mut scratch = Vec::new();
        scratch.push(self.a);
        c
    }
    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        self.a = capsule.u32_field("a")?;
        self.b = capsule.f64_field("b")?;
        Ok(())
    }
}
"#;
        assert!(findings(src, "crates/x/src/lib.rs", &no_layers()).is_empty());
    }

    #[test]
    fn dynamic_field_names_silence_the_coverage_check() {
        let src = r#"
impl Evolvable for Dyn {
    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new("k", 1).with_u64(self.field_name(), 1).with_u64("lit", 2)
    }
    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        Ok(())
    }
}
"#;
        assert!(findings(src, "crates/x/src/lib.rs", &no_layers()).is_empty());
    }

    #[test]
    fn non_evolvable_impls_are_ignored() {
        let src = r#"
impl Builder for NotACapsule {
    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new("k", 1).with_u64("only-written", 1)
    }
    fn resume(&mut self, _c: &Capsule, _now: f64) -> Result<(), CapsuleError> { Ok(()) }
}
"#;
        assert!(findings(src, "crates/x/src/lib.rs", &no_layers()).is_empty());
    }

    #[test]
    fn aliased_seed_labels_fire_per_function() {
        let src = r#"
fn correlated(seed: u64) {
    let a = split_labeled(seed, "ecosystem");
    let b = split_labeled(seed, "ecosystem");
}
fn fine(seed: u64) {
    let a = split_labeled(seed, "ecosystem");
    let b = split_labeled(seed, "flashcrowd");
}
fn also_fine(seed: u64) {
    // Re-using a label in a *different* function is a different scope.
    let a = split_labeled(seed, "ecosystem");
}
"#;
        let f = findings(src, "crates/x/src/lib.rs", &no_layers());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "seed-stream-aliasing");
        assert_eq!(f[0].line, 4);
        assert!(f[0].message.contains("line 3"));
    }

    #[test]
    fn split_labeled_definition_does_not_fire() {
        let src = "pub fn split_labeled(root: u64, label: &str) -> u64 { root }";
        assert!(findings(src, "crates/exp/src/seed.rs", &no_layers()).is_empty());
    }

    #[test]
    fn layer_contracts_fire_on_uses_and_inline_paths() {
        let layers = vec![LayerContract {
            name: "sealed-fel".into(),
            scope: vec![],
            exempt: vec!["crates/des".into()],
            forbid: vec!["atlarge_des::fel".into()],
            note: "the FEL is sealed behind EventQueue".into(),
        }];
        let src = "use atlarge_des::fel::FutureEventList;\nfn f() { let q = atlarge_des::fel::BinaryHeapFel::new(); }\nuse atlarge_des::EventQueue;";
        let f = findings(src, "crates/p2p/src/swarm.rs", &layers);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.lint == "layer-boundary"));
        // The exempt crate is free to name its own internals.
        assert!(findings(src, "crates/des/src/queue.rs", &layers).is_empty());
    }
}
