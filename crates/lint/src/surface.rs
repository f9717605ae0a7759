//! `dead-public-surface` (AL010): the one workspace-wide lint.
//!
//! A library crate's `pub` surface should be exactly what code outside
//! its library target uses. Every other lint judges one file; this one
//! reads them all at once, because whether a public item is used is a
//! fact about the rest of the workspace.
//!
//! - **In scope:** a `pub` fn, struct, enum, trait, const, static or
//!   type alias in a library crate's public module tree
//!   (`crates/<name>/src/lib.rs` and the `pub mod` chain under it), and
//!   the `pub` methods and consts of inherent impls whose self type is
//!   such an item. Items in private modules are already crate-visible;
//!   `#[cfg(test)]` code is no surface.
//! - **Consumers:** every file outside the crate's library target:
//!   other crates (any target), the crate's own `tests/`, `benches/`
//!   and `src/main.rs`, the workspace's own `src/`, `examples/` and
//!   `tests/`, the `lint.toml` consumer-only roots, and the Rust code
//!   blocks of doc comments anywhere (doc tests compile outside the
//!   crate).
//! - **Live:** an item whose name a consumer mentions as an
//!   identifier; a trait one of whose member names a consumer mentions
//!   (a glob import brings trait methods in unnamed); an allowlisted
//!   item; and any type named in the signature or public fields of a
//!   live item.
//!
//! The check is by name and deliberately conservative: any mention of
//! the name counts as a use, so it can miss a dead item but never flags
//! a live one.

use crate::config::LintConfig;
use crate::engine::Parsed;
use crate::lexer::{self, Tok, TokKind};
use crate::lints::Finding;
use crate::parser::{Ast, ItemKind, Owner, Vis};
use std::collections::{BTreeMap, BTreeSet};

/// The lint id.
pub(crate) const ID: &str = "dead-public-surface";

/// The workspace pass's result.
#[derive(Debug, Default)]
pub struct Surface {
    /// Findings, each with the index of the file it belongs to.
    pub findings: Vec<(usize, Finding)>,
    /// Public items per library crate, dead ones included.
    pub counts: BTreeMap<String, usize>,
}

/// One in-scope public item.
struct PubItem {
    file: usize,
    name: String,
    what: &'static str,
    line: u32,
    /// Whether a signature mention makes it live (types only).
    is_type: bool,
    /// Identifiers of its interface: signature, public fields, variants.
    interface: BTreeSet<String>,
    /// Member names whose mention by a consumer keeps a trait live.
    members: Vec<String>,
}

/// Runs the lint over every parsed file; a file outside every library
/// crate (a consumer-only root included) is read for names only.
/// `allowed(i, line)` reports whether a reasoned directive allowlists
/// the item at that line of file `i`.
pub fn run(files: &[Parsed], cfg: &LintConfig, allowed: impl Fn(usize, u32) -> bool) -> Surface {
    let owner_of: Vec<Option<&str>> = files.iter().map(|f| library_crate(&f.path)).collect();
    // name -> the library crates (or `None`: no library) mentioning it.
    let mut mentions: BTreeMap<&str, BTreeSet<Option<&str>>> = BTreeMap::new();
    let mut doc_names: BTreeSet<String> = BTreeSet::new();
    for (f, owner) in files.iter().zip(&owner_of) {
        for t in &f.lexed.tokens {
            if t.kind == TokKind::Ident {
                mentions.entry(t.text.as_str()).or_default().insert(*owner);
            }
        }
        doc_test_idents(f, &mut doc_names);
    }
    let used_outside = |krate: &str, name: &str| {
        doc_names.contains(name)
            || mentions
                .get(name)
                .is_some_and(|m| m.iter().any(|o| *o != Some(krate)))
    };

    let settings = cfg.settings(ID);
    let mut crates: BTreeMap<&str, Vec<PubItem>> = BTreeMap::new();
    for (krate, public_files) in public_module_tree(files) {
        let items = crates.entry(krate).or_default();
        for &fi in &public_files {
            if settings.applies_to(&files[fi].path) {
                module_items(files, fi, items);
            }
        }
        let type_names: BTreeSet<String> = items
            .iter()
            .filter(|i| i.is_type)
            .map(|i| i.name.clone())
            .collect();
        for (fi, owner) in owner_of.iter().enumerate() {
            if *owner == Some(krate) && settings.applies_to(&files[fi].path) {
                inherent_items(&files[fi], fi, &type_names, items);
            }
        }
    }

    let mut out = Surface::default();
    for (krate, items) in &crates {
        out.counts.insert(krate.to_string(), items.len());
        let used: Vec<bool> = items
            .iter()
            .map(|i| {
                used_outside(krate, &i.name) || i.members.iter().any(|m| used_outside(krate, m))
            })
            .collect();
        // Types named by the interface of a used or allowlisted item are
        // live too. An allowlisted item itself still yields its finding,
        // which its directive then suppresses.
        let mut live: Vec<bool> = items
            .iter()
            .zip(&used)
            .map(|(i, &u)| u || allowed(i.file, i.line))
            .collect();
        let mut reached = vec![false; items.len()];
        let mut changed = true;
        while changed {
            changed = false;
            let named: BTreeSet<&str> = items
                .iter()
                .zip(&live)
                .filter(|(_, &l)| l)
                .flat_map(|(i, _)| i.interface.iter().map(String::as_str))
                .collect();
            for (k, i) in items.iter().enumerate() {
                if !reached[k] && i.is_type && named.contains(i.name.as_str()) {
                    reached[k] = true;
                    changed |= !live[k];
                    live[k] = true;
                }
            }
        }
        for (k, i) in items.iter().enumerate() {
            if used[k] || reached[k] {
                continue;
            }
            out.findings.push((
                i.file,
                Finding {
                    lint: ID,
                    line: i.line,
                    message: format!(
                        "`pub {} {}` is named by no code outside crate `{krate}`'s library",
                        i.what, i.name
                    ),
                    suggestion: "make it `pub(crate)` or private, delete it if only the crate's own tests call it, or keep a deliberate API with `// #[allow_atlarge(dead-public-surface, reason = \"...\")]` above it".into(),
                },
            ));
        }
    }
    out
}

/// The library crate whose library target holds `path`:
/// `crates/<name>/src/**` minus `src/main.rs` and `src/bin/`.
fn library_crate(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, rest) = rest.split_once('/')?;
    let src = rest.strip_prefix("src/")?;
    (src != "main.rs" && !src.starts_with("bin/")).then_some(name)
}

/// For each library crate with a `src/lib.rs`, the indices of the
/// files in its public module tree: `lib.rs`, then every file a `pub
/// mod name;` reaches through a chain of `pub` modules.
fn public_module_tree(files: &[Parsed]) -> BTreeMap<&str, Vec<usize>> {
    let by_path: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.as_str(), i))
        .collect();
    let mut out: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for f in files {
        let Some(krate) = library_crate(&f.path) else {
            continue;
        };
        if f.path != format!("crates/{krate}/src/lib.rs") {
            continue;
        }
        let mut queue = vec![by_path[f.path.as_str()]];
        let mut seen = Vec::new();
        while let Some(fi) = queue.pop() {
            seen.push(fi);
            let file = &files[fi];
            let dir = match file.path.strip_suffix("/lib.rs") {
                Some(d) => d.to_string(),
                None => match file.path.strip_suffix("/mod.rs") {
                    Some(d) => d.to_string(),
                    None => file.path.trim_end_matches(".rs").to_string(),
                },
            };
            for m in &file.ast.items {
                let out_of_line = m.kind == ItemKind::Mod
                    && m.vis == Vis::Pub
                    && file.lexed.tokens.get(m.end).is_some_and(|t| t.text == ";");
                let Some(chain) = out_of_line
                    .then(|| public_chain(&file.ast, m.owner))
                    .flatten()
                else {
                    continue;
                };
                let base = format!("{dir}/{}{}", chain, m.name);
                for candidate in [format!("{base}.rs"), format!("{base}/mod.rs")] {
                    if let Some(&child) = by_path.get(candidate.as_str()) {
                        queue.push(child);
                    }
                }
            }
        }
        seen.sort_unstable();
        out.insert(krate, seen);
    }
    out
}

/// The `a/b/` directory prefix of the inline modules enclosing
/// `owner`, when every one of them is `pub`; `None` otherwise.
fn public_chain(ast: &Ast, mut owner: Owner) -> Option<String> {
    let mut names = Vec::new();
    loop {
        match owner {
            Owner::Module(None) => break,
            Owner::Module(Some(m)) => {
                let item = &ast.items[m];
                if item.vis != Vis::Pub {
                    return None;
                }
                names.push(item.name.as_str());
                owner = item.owner;
            }
            Owner::Impl(_) | Owner::Nested => return None,
        }
    }
    names.reverse();
    Some(names.iter().map(|n| format!("{n}/")).collect())
}

/// The public free items of one file in a public module.
fn module_items(files: &[Parsed], fi: usize, out: &mut Vec<PubItem>) {
    let f = &files[fi];
    let toks = &f.lexed.tokens;
    let visible = |vis: Vis, tok_idx: usize, owner: Owner| {
        vis == Vis::Pub && !f.test_mask[tok_idx] && public_chain(&f.ast, owner).is_some()
    };
    for func in &f.ast.fns {
        if visible(func.vis, func.tok_idx, func.owner) {
            out.push(PubItem {
                file: fi,
                name: func.name.clone(),
                what: "fn",
                line: func.line,
                is_type: false,
                interface: idents(toks, func.tok_idx + 2, func.sig_end),
                members: Vec::new(),
            });
        }
    }
    for item in &f.ast.items {
        if item.kind == ItemKind::Mod || !visible(item.vis, item.tok_idx, item.owner) {
            continue;
        }
        let name_at = (item.tok_idx + 1..item.end)
            .find(|&j| toks[j].text == item.name)
            .unwrap_or(item.tok_idx);
        let (what, interface, members) = match item.kind {
            ItemKind::Struct => (
                "struct",
                struct_interface(toks, name_at + 1, item.end),
                vec![],
            ),
            ItemKind::Enum => ("enum", idents(toks, name_at + 1, item.end), vec![]),
            ItemKind::Trait => {
                let methods: Vec<_> = f
                    .ast
                    .fns
                    .iter()
                    .filter(|g| g.tok_idx > item.tok_idx && g.tok_idx < item.end)
                    .collect();
                // The trait's own declarations, default bodies excluded.
                let mut interface = BTreeSet::new();
                let mut j = name_at + 1;
                for g in methods.iter().filter(|g| g.owner == Owner::Nested) {
                    if g.tok_idx >= j {
                        interface.extend(idents(toks, j, g.sig_end));
                        j = g.body.map_or(g.sig_end, |(_, close)| close);
                    }
                }
                interface.extend(idents(toks, j, item.end));
                let members = methods.iter().map(|g| g.name.clone()).collect();
                ("trait", interface, members)
            }
            ItemKind::Type => ("type", idents(toks, name_at + 1, item.end), vec![]),
            ItemKind::Const | ItemKind::Static => {
                let eq = (name_at..item.end)
                    .find(|&j| toks[j].kind == TokKind::Punct && toks[j].text == "=")
                    .unwrap_or(item.end);
                let what = if item.kind == ItemKind::Const {
                    "const"
                } else {
                    "static"
                };
                (what, idents(toks, name_at + 1, eq), vec![])
            }
            ItemKind::Mod => continue,
        };
        out.push(PubItem {
            file: fi,
            name: item.name.clone(),
            what,
            line: item.line,
            is_type: matches!(
                item.kind,
                ItemKind::Struct | ItemKind::Enum | ItemKind::Trait | ItemKind::Type
            ),
            interface,
            members,
        });
    }
}

/// The `pub` methods and consts of one file's inherent impls whose self
/// type is one of the crate's public types.
fn inherent_items(f: &Parsed, fi: usize, types: &BTreeSet<String>, out: &mut Vec<PubItem>) {
    let toks = &f.lexed.tokens;
    let inherent = |owner: Owner| match owner {
        Owner::Impl(k) => {
            let imp = &f.ast.impls[k];
            imp.trait_path.is_none()
                && !f.test_mask[imp.tok_idx]
                && types.contains(crate::parser::last_segment(&imp.self_ty))
        }
        _ => false,
    };
    for func in &f.ast.fns {
        if func.vis == Vis::Pub && inherent(func.owner) {
            out.push(PubItem {
                file: fi,
                name: func.name.clone(),
                what: "fn",
                line: func.line,
                is_type: false,
                interface: idents(toks, func.tok_idx + 2, func.sig_end),
                members: Vec::new(),
            });
        }
    }
    for item in &f.ast.items {
        if item.kind == ItemKind::Const && item.vis == Vis::Pub && inherent(item.owner) {
            out.push(PubItem {
                file: fi,
                name: item.name.clone(),
                what: "const",
                line: item.line,
                is_type: false,
                interface: BTreeSet::new(),
                members: Vec::new(),
            });
        }
    }
}

/// Identifiers in `toks[from..to)`.
fn idents(toks: &[Tok], from: usize, to: usize) -> BTreeSet<String> {
    toks.get(from..to.min(toks.len()))
        .unwrap_or_default()
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect()
}

/// A struct's interface from just past its name to its end: the header
/// (generics, where clause) and the `pub` fields of its body.
fn struct_interface(toks: &[Tok], from: usize, end: usize) -> BTreeSet<String> {
    let Some(open) = (from..end).find(|&j| matches!(toks[j].text.as_str(), "{" | "(")) else {
        return idents(toks, from, end);
    };
    let mut out = idents(toks, from, open);
    let mut depth = 0i32;
    let mut field_start = open + 1;
    for j in open..=end.min(toks.len() - 1) {
        let t = &toks[j];
        if t.kind != TokKind::Punct {
            continue;
        }
        let after_dash = t.glued && j > 0 && toks[j - 1].text == "-";
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ">" if after_dash => {}
            ")" | "]" | "}" | ">" => depth -= 1,
            "," if depth == 1 => {}
            _ => continue,
        }
        if depth == 0 || (depth == 1 && t.text == ",") {
            // One field: `#[attr] pub name: Type` or `pub Type`.
            let mut k = field_start;
            while toks.get(k).is_some_and(|t| t.text == "#") {
                k = (k..j).find(|&m| toks[m].text == "]").map_or(j, |m| m + 1);
            }
            let is_pub = toks.get(k).is_some_and(|t| t.text == "pub")
                && toks.get(k + 1).is_none_or(|t| t.text != "(");
            if is_pub {
                out.extend(idents(toks, k + 1, j));
            }
            field_start = j + 1;
            if depth == 0 {
                break;
            }
        }
    }
    out
}

/// Adds the identifiers of every Rust code block in `f`'s doc comments:
/// doc tests compile as code outside the crate.
fn doc_test_idents(f: &Parsed, out: &mut BTreeSet<String>) {
    let mut block: Option<(bool, String)> = None;
    for c in &f.lexed.comments {
        let Some(text) = c
            .text
            .strip_prefix("///")
            .or_else(|| c.text.strip_prefix("//!"))
        else {
            continue;
        };
        let text = text.strip_prefix(' ').unwrap_or(text);
        if let Some(info) = text.trim_start().strip_prefix("```") {
            match block.take() {
                Some((true, code)) => out.extend(
                    lexer::lex(&code)
                        .tokens
                        .into_iter()
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text),
                ),
                Some((false, _)) => {}
                None => block = Some((is_rust_block(info), String::new())),
            }
            continue;
        }
        if let Some((true, code)) = &mut block {
            code.push_str(text);
            code.push('\n');
        }
    }
}

/// Whether a fenced block's info string makes rustdoc compile it: an
/// empty one, or only rustdoc's own attributes.
fn is_rust_block(info: &str) -> bool {
    info.split(|c: char| c == ',' || c.is_whitespace())
        .filter(|w| !w.is_empty())
        .all(|w| {
            matches!(
                w,
                "rust" | "ignore" | "no_run" | "should_panic" | "compile_fail" | "test_harness"
            ) || w.starts_with("edition")
        })
}
