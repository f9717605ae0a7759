//! A lightweight recursive-descent parser over the [`crate::lexer`]
//! token stream — just enough syntax tree for structural lints.
//!
//! The parser recognizes the item shapes the structural lints need and
//! is deliberately tolerant of everything else: `use` declarations
//! (group trees flattened into full paths), `fn` items with their
//! brace-delimited bodies as token spans, `impl` blocks (trait and self
//! type) with their method children, named items (`struct`, `enum`,
//! `trait`, `const`, `static`, `type`, `mod`) with their visibility and
//! span, and inline qualified paths (`atlarge_des::fel::Entry`
//! appearing in expression or type position). Unrecognized constructs
//! are skipped token by token — a
//! file that rustc rejects still parses into *some* tree, so the
//! linter never blocks on exotic syntax.

use crate::lexer::{Tok, TokKind};

/// One flattened `use` path (`use a::{b, c::d};` yields `a::b` and
/// `a::c::d`). Renames keep the *source* path (`use x as y` records
/// `x`): layer contracts are about what a file reaches into, not what
/// it calls the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsePath {
    /// Full `::`-joined path. Glob imports end in `::*`.
    pub path: String,
    /// 1-based line of the path's last segment.
    pub line: u32,
    /// Index of the path's first token (drives test-region masking).
    pub tok_idx: usize,
}

/// Declared visibility of an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// No visibility keyword.
    Private,
    /// Bare `pub`.
    Pub,
    /// `pub(crate)`, `pub(super)` or `pub(in …)`.
    Restricted,
}

/// Where an item is declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// At module level: the index into [`Ast::items`] of the enclosing
    /// inline `mod`, or `None` at file level.
    Module(Option<usize>),
    /// Inside an `impl` block (index into [`Ast::impls`]).
    Impl(usize),
    /// Inside a trait body or a fn body.
    Nested,
}

/// A `fn` item: name plus the token spans of its signature and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Function name (raw identifiers arrive unescaped: `r#fn` → `fn`).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Index of the `fn` keyword token.
    pub tok_idx: usize,
    /// Index of the token ending the signature: the body's `{`, or the
    /// `;` of a bodyless signature.
    pub sig_end: usize,
    /// Token-index span `(open_brace, close_brace)` of the body;
    /// `None` for bodyless signatures (trait methods, extern fns).
    pub body: Option<(usize, usize)>,
    /// Declared visibility.
    pub vis: Vis,
    /// Enclosing module, impl block or nested scope.
    pub owner: Owner,
}

/// The item keywords recorded as [`Item`]s (`fn`, `impl` and `use`
/// have their own records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `struct`
    Struct,
    /// `enum`
    Enum,
    /// `trait`
    Trait,
    /// `const` (not `const fn`)
    Const,
    /// `static`
    Static,
    /// `type`
    Type,
    /// `mod`
    Mod,
}

/// A named item other than a `fn`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Which keyword declared it.
    pub kind: ItemKind,
    /// Item name.
    pub name: String,
    /// Declared visibility.
    pub vis: Vis,
    /// 1-based line of the keyword.
    pub line: u32,
    /// Index of the keyword token.
    pub tok_idx: usize,
    /// Index of the item's last token: its closing `}` or `;`.
    pub end: usize,
    /// Enclosing module, impl block or nested scope.
    pub owner: Owner,
}

/// An `impl` block: optional trait, self type, and its methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplItem {
    /// Trait path for `impl Trait for Type` (generics stripped:
    /// `evolve::Evolvable<'a>` → `evolve::Evolvable`); `None` for
    /// inherent impls.
    pub trait_path: Option<String>,
    /// Self type path, generics stripped.
    pub self_ty: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Index of the `impl` keyword token.
    pub tok_idx: usize,
    /// Indices into [`Ast::fns`] of the methods declared in this block.
    pub fns: Vec<usize>,
}

/// An inline qualified path (two or more `::`-joined segments) seen
/// outside `use` declarations — expression calls, type annotations,
/// turbofish heads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathRef {
    /// The `::`-joined segments.
    pub path: String,
    /// 1-based line of the first segment.
    pub line: u32,
    /// Index of the first segment's token.
    pub tok_idx: usize,
}

/// The parse result: a flat, span-carrying view of one file.
#[derive(Debug, Default)]
pub struct Ast {
    /// Flattened `use` declarations.
    pub uses: Vec<UsePath>,
    /// Every `fn` item, in source order (impl methods included).
    pub fns: Vec<FnItem>,
    /// Every `impl` block, in source order.
    pub impls: Vec<ImplItem>,
    /// Every named non-fn item, in source order.
    pub items: Vec<Item>,
    /// Inline qualified paths, in source order.
    pub paths: Vec<PathRef>,
}

/// The last `::`-separated segment of a path.
pub(crate) fn last_segment(path: &str) -> &str {
    path.rsplit("::").next().unwrap_or(path)
}

/// Whether `path` equals `prefix` or begins with `prefix::` on a
/// segment boundary (`a::b` covers `a::b::c`, not `a::bc`).
pub(crate) fn path_has_seg_prefix(path: &str, prefix: &str) -> bool {
    path == prefix || (path.starts_with(prefix) && path[prefix.len()..].starts_with("::"))
}

/// Parses a lexed token stream into an [`Ast`].
pub fn parse(toks: &[Tok]) -> Ast {
    let mut p = Parser {
        toks,
        ast: Ast::default(),
    };
    p.items(0, toks.len(), Owner::Module(None));
    p.ast
}

struct Parser<'a> {
    toks: &'a [Tok],
    ast: Ast,
}

impl<'a> Parser<'a> {
    fn ident_at(&self, i: usize, text: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
    }

    fn punct_at(&self, i: usize, ch: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == ch)
    }

    /// `::` at `i` (two adjacent colon puncts, the second glued).
    fn path_sep_at(&self, i: usize) -> bool {
        self.punct_at(i, ":")
            && self.punct_at(i + 1, ":")
            && self.toks.get(i + 1).is_some_and(|t| t.glued)
    }

    /// Index of the token closing the delimiter opened at `open`.
    fn matching(&self, open: usize, oc: &str, cc: &str) -> Option<usize> {
        let mut depth = 0i32;
        for (j, t) in self
            .toks
            .iter()
            .enumerate()
            .skip(open)
            .take(self.toks.len() - open)
        {
            if t.kind == TokKind::Punct {
                if t.text == oc {
                    depth += 1;
                } else if t.text == cc {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
            }
            let _ = j;
        }
        None
    }

    /// Skips a generics list starting at the `<` at `i`, returning the
    /// index just past the matching `>`. `->` and `>>` are handled via
    /// the lexer's glue flags (`>` glued to a `-` never closes).
    fn skip_generics(&self, mut i: usize) -> usize {
        let mut depth = 0i32;
        while i < self.toks.len() {
            let t = &self.toks[i];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        let after_dash = i > 0
                            && t.glued
                            && self.toks[i - 1].kind == TokKind::Punct
                            && self.toks[i - 1].text == "-";
                        if !after_dash {
                            depth -= 1;
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                    }
                    // A brace or semicolon inside generics means we
                    // mis-guessed; bail rather than overrun the item.
                    "{" | ";" => return i,
                    _ => {}
                }
            }
            i += 1;
        }
        i
    }

    /// Reads a path (`seg::seg::…`) starting at the ident at `i`,
    /// skipping inline generic arguments. Returns the `::`-joined
    /// segments and the index just past the path.
    fn read_path(&self, mut i: usize) -> (String, usize) {
        let mut segs: Vec<&str> = Vec::new();
        while let Some(t) = self.toks.get(i) {
            if t.kind != TokKind::Ident {
                break;
            }
            segs.push(&t.text);
            i += 1;
            if self.punct_at(i, "<") {
                i = self.skip_generics(i);
            }
            if self.path_sep_at(i) {
                i += 2;
                // Turbofish (`::<`) ends the segment list.
                if self.punct_at(i, "<") {
                    i = self.skip_generics(i);
                    break;
                }
            } else {
                break;
            }
        }
        (segs.join("::"), i)
    }

    /// Index of the token closing the delimiter opened at `open`, or
    /// `end` when unbalanced.
    fn close_of(&self, open: usize, oc: &str, cc: &str, end: usize) -> usize {
        self.matching(open, oc, cc).unwrap_or(end).min(end)
    }

    /// From `i`, the index of the item's last token: the `;` at bracket
    /// depth zero, or the `}` closing its first brace block (a block
    /// after `=` is part of a value and does not end the item).
    fn item_end(&self, mut i: usize, end: usize) -> usize {
        let mut after_eq = false;
        while i < end {
            if self.punct_at(i, "(") {
                i = self.close_of(i, "(", ")", end) + 1;
            } else if self.punct_at(i, "[") {
                i = self.close_of(i, "[", "]", end) + 1;
            } else if self.punct_at(i, "{") {
                let close = self.close_of(i, "{", "}", end);
                if !after_eq {
                    return close;
                }
                i = close + 1;
            } else if self.punct_at(i, ";") {
                return i;
            } else {
                after_eq |= self.punct_at(i, "=");
                i += 1;
            }
        }
        end.saturating_sub(1)
    }

    /// Parses the item sequence in `toks[start..end]` declared under
    /// `owner` (impl blocks link their `fn` children through it).
    fn items(&mut self, start: usize, end: usize, owner: Owner) {
        let mut i = start;
        let mut vis = Vis::Private;
        while i < end {
            let t = &self.toks[i];
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "pub" => {
                        i += 1;
                        vis = Vis::Pub;
                        if self.punct_at(i, "(") {
                            i = self.close_of(i, "(", ")", end) + 1;
                            vis = Vis::Restricted;
                        }
                        continue;
                    }
                    // Qualifiers between a visibility and its item.
                    "async" | "unsafe" | "extern" | "default" => {
                        i += 1;
                        if self.toks.get(i).is_some_and(|t| t.kind == TokKind::Literal) {
                            i += 1;
                        }
                        continue;
                    }
                    "const"
                        if ["fn", "unsafe", "async", "extern"]
                            .iter()
                            .any(|k| self.ident_at(i + 1, k)) =>
                    {
                        i += 1;
                        continue;
                    }
                    "use" => {
                        i = self.use_decl(i + 1, end);
                        vis = Vis::Private;
                        continue;
                    }
                    "fn" => {
                        i = self.fn_item(i, end, vis, owner);
                        vis = Vis::Private;
                        continue;
                    }
                    "impl" if !matches!(owner, Owner::Impl(_)) => {
                        i = self.impl_block(i, end);
                        vis = Vis::Private;
                        continue;
                    }
                    kw @ ("struct" | "enum" | "trait" | "const" | "static" | "type" | "mod")
                        if self.item_name(i + 1).is_some() =>
                    {
                        let kind = match kw {
                            "struct" => ItemKind::Struct,
                            "enum" => ItemKind::Enum,
                            "trait" => ItemKind::Trait,
                            "const" => ItemKind::Const,
                            "static" => ItemKind::Static,
                            "type" => ItemKind::Type,
                            _ => ItemKind::Mod,
                        };
                        let name_idx = self.item_name(i + 1).unwrap_or(i + 1);
                        let item_end = self.item_end(name_idx + 1, end);
                        self.ast.items.push(Item {
                            kind,
                            name: self.toks[name_idx].text.clone(),
                            vis,
                            line: t.line,
                            tok_idx: i,
                            end: item_end,
                            owner,
                        });
                        vis = Vis::Private;
                        // Module and trait bodies hold items of their
                        // own (same grammar); `mod name;` has none.
                        if matches!(kind, ItemKind::Mod | ItemKind::Trait)
                            && self.punct_at(item_end, "}")
                        {
                            let open = (name_idx..item_end)
                                .find(|&j| self.punct_at(j, "{"))
                                .unwrap_or(item_end);
                            let inner = if kind == ItemKind::Mod {
                                Owner::Module(Some(self.ast.items.len() - 1))
                            } else {
                                Owner::Nested
                            };
                            self.items(open + 1, item_end, inner);
                            i = item_end + 1;
                        } else {
                            i = name_idx + 1;
                        }
                        continue;
                    }
                    _ => {
                        // Any other ident followed by `::` starts an
                        // inline path (a turbofish truncates it to the
                        // head segment, which is still the reached-into
                        // name).
                        if self.path_sep_at(i + 1) {
                            let (path, next) = self.read_path(i);
                            if !path.is_empty() {
                                self.ast.paths.push(PathRef {
                                    path,
                                    line: t.line,
                                    tok_idx: i,
                                });
                                i = next.max(i + 1);
                                vis = Vis::Private;
                                continue;
                            }
                        }
                    }
                }
            }
            vis = Vis::Private;
            i += 1;
        }
    }

    /// The index of an item's name after its keyword at `i - 1`
    /// (`static mut NAME` skips the `mut`), if an identifier is there.
    fn item_name(&self, i: usize) -> Option<usize> {
        let i = if self.ident_at(i, "mut") { i + 1 } else { i };
        self.toks
            .get(i)
            .filter(|t| t.kind == TokKind::Ident && t.text != "_")
            .map(|_| i)
    }

    /// Parses one `use` declaration starting just past the `use`
    /// keyword; flattens group trees; returns the index past the `;`.
    fn use_decl(&mut self, start: usize, end: usize) -> usize {
        // Find the terminating `;` (never inside quotes — `use` trees
        // carry no literals — so a flat scan with brace depth is safe).
        let mut close = start;
        let mut depth = 0i32;
        while close < end {
            if self.punct_at(close, "{") {
                depth += 1;
            } else if self.punct_at(close, "}") {
                depth -= 1;
            } else if self.punct_at(close, ";") && depth <= 0 {
                break;
            }
            close += 1;
        }
        let mut prefix: Vec<String> = Vec::new();
        self.use_tree(start, close, &mut prefix);
        close + 1
    }

    /// Recursively flattens one `use` tree in `toks[i..end)` under
    /// `prefix`. Handles `a::b`, groups `{…}`, globs `*`, and `as`
    /// renames (recording the source path).
    fn use_tree(&mut self, mut i: usize, end: usize, prefix: &mut Vec<String>) {
        let depth0 = prefix.len();
        let mut first_tok = None;
        while i < end {
            let t = &self.toks[i];
            match t.kind {
                TokKind::Ident if t.text == "as" => {
                    // Skip the rename ident.
                    i += 2;
                }
                TokKind::Ident => {
                    first_tok.get_or_insert(i);
                    prefix.push(t.text.clone());
                    i += 1;
                }
                TokKind::Punct => match t.text.as_str() {
                    ":" => i += 1,
                    "*" => {
                        // A glob terminates this subtree; emit and stop
                        // so the trailing-path emit does not double up.
                        prefix.push("*".to_string());
                        self.emit_use(prefix, t.line, first_tok.unwrap_or(i));
                        prefix.truncate(depth0);
                        return;
                    }
                    "{" => {
                        // Each comma-separated subtree re-enters with
                        // the current prefix.
                        let close = self.matching(i, "{", "}").unwrap_or(end).min(end);
                        let mut item_start = i + 1;
                        let mut j = i + 1;
                        let mut d = 0i32;
                        while j <= close {
                            let is_comma = self.punct_at(j, ",") && d == 0;
                            let is_close = j == close;
                            if self.punct_at(j, "{") {
                                d += 1;
                            } else if self.punct_at(j, "}") && j != close {
                                d -= 1;
                            }
                            if is_comma || is_close {
                                if item_start < j {
                                    let mut sub = prefix.clone();
                                    self.use_tree(item_start, j, &mut sub);
                                }
                                item_start = j + 1;
                            }
                            j += 1;
                        }
                        prefix.truncate(depth0);
                        return;
                    }
                    "," | "}" => break,
                    _ => i += 1,
                },
                _ => i += 1,
            }
        }
        if prefix.len() > depth0 {
            let line = self.toks.get(i.saturating_sub(1)).map_or(1, |t| t.line);
            self.emit_use(prefix, line, first_tok.unwrap_or(i.saturating_sub(1)));
        }
        prefix.truncate(depth0);
    }

    fn emit_use(&mut self, segs: &[String], line: u32, tok_idx: usize) {
        if segs.is_empty() {
            return;
        }
        self.ast.uses.push(UsePath {
            path: segs.join("::"),
            line,
            tok_idx,
        });
    }

    /// Parses one `fn` item starting at the `fn` keyword; returns the
    /// index just past the body (or the `;`).
    fn fn_item(&mut self, fn_idx: usize, end: usize, vis: Vis, owner: Owner) -> usize {
        let name_idx = fn_idx + 1;
        let Some(name_tok) = self.toks.get(name_idx) else {
            return fn_idx + 1;
        };
        if name_tok.kind != TokKind::Ident {
            return fn_idx + 1;
        }
        // From the name, scan to the body `{` or a `;` at bracket depth
        // zero. Parens and brackets in the signature (generic bounds
        // like `Fn(u32)`, array types) are skipped via matching.
        let mut i = name_idx + 1;
        let mut body = None;
        let mut sig_end = end.saturating_sub(1);
        while i < end {
            if self.punct_at(i, "(") {
                i = self.matching(i, "(", ")").map_or(end, |c| c + 1);
                continue;
            }
            if self.punct_at(i, "[") {
                i = self.matching(i, "[", "]").map_or(end, |c| c + 1);
                continue;
            }
            if self.punct_at(i, "{") {
                let close = self.matching(i, "{", "}").unwrap_or(end);
                body = Some((i, close.min(end)));
                sig_end = i;
                i = close.min(end) + 1;
                break;
            }
            if self.punct_at(i, ";") {
                sig_end = i;
                i += 1;
                break;
            }
            i += 1;
        }
        self.ast.fns.push(FnItem {
            name: name_tok.text.clone(),
            line: self.toks[fn_idx].line,
            tok_idx: fn_idx,
            sig_end,
            body,
            vis,
            owner,
        });
        if let Owner::Impl(fi) = owner {
            let fn_pos = self.ast.fns.len() - 1;
            self.ast.impls[fi].fns.push(fn_pos);
        }
        // Recurse into the body so nested items, `use` declarations and
        // inline qualified paths inside it are collected. Nested fns
        // are free items, not methods of the enclosing impl.
        if let Some((open, close)) = body {
            self.items(open + 1, close, Owner::Nested);
        }
        i
    }

    /// Parses one `impl` block starting at the `impl` keyword; returns
    /// the index just past the closing brace.
    fn impl_block(&mut self, impl_idx: usize, end: usize) -> usize {
        let line = self.toks[impl_idx].line;
        let mut i = impl_idx + 1;
        if self.punct_at(i, "<") {
            i = self.skip_generics(i);
        }
        // Tolerate negative impls (`impl !Send for X`).
        if self.punct_at(i, "!") {
            i += 1;
        }
        let (first, after_first) = self.read_path(i);
        if first.is_empty() {
            return impl_idx + 1;
        }
        i = after_first;
        let (trait_path, self_ty) = if self.ident_at(i, "for") {
            i += 1;
            // `impl Trait for &mut Type` / `for dyn Type`.
            while self.punct_at(i, "&") || self.ident_at(i, "mut") || self.ident_at(i, "dyn") {
                i += 1;
            }
            let (ty, after_ty) = self.read_path(i);
            i = after_ty;
            (Some(first), ty)
        } else {
            (None, first)
        };
        // Skip a where clause to the block's opening brace.
        while i < end && !self.punct_at(i, "{") && !self.punct_at(i, ";") {
            i += 1;
        }
        if !self.punct_at(i, "{") {
            return i + 1;
        }
        let close = self.matching(i, "{", "}").unwrap_or(end).min(end);
        self.ast.impls.push(ImplItem {
            trait_path,
            self_ty,
            line,
            tok_idx: impl_idx,
            fns: Vec::new(),
        });
        let idx = self.ast.impls.len() - 1;
        self.items(i + 1, close, Owner::Impl(idx));
        close + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src).tokens)
    }

    #[test]
    fn use_groups_flatten_to_full_paths() {
        let ast = parse_src(
            "use std::time::{Instant, SystemTime};\nuse atlarge_des::{fel::Entry, EventQueue};\nuse x::y as z;\nuse a::b::*;",
        );
        let paths: Vec<&str> = ast.uses.iter().map(|u| u.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "std::time::Instant",
                "std::time::SystemTime",
                "atlarge_des::fel::Entry",
                "atlarge_des::EventQueue",
                "x::y",
                "a::b::*",
            ]
        );
        assert_eq!(ast.uses[0].line, 1);
        assert_eq!(ast.uses[2].line, 2);
    }

    #[test]
    fn nested_use_groups_flatten() {
        let ast = parse_src("use a::{b::{c, d}, e};");
        let paths: Vec<&str> = ast.uses.iter().map(|u| u.path.as_str()).collect();
        assert_eq!(paths, vec!["a::b::c", "a::b::d", "a::e"]);
    }

    #[test]
    fn fns_carry_body_spans_and_impl_links() {
        let ast = parse_src(
            "fn free(x: u32) -> u32 { x + 1 }\nimpl Evolvable for Hist {\n    fn capture(&self) -> Capsule { Capsule::new(\"k\", 1) }\n    fn resume(&mut self) {}\n}\ntrait T { fn sig(&self); }",
        );
        let names: Vec<&str> = ast.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["free", "capture", "resume", "sig"]);
        assert!(ast.fns[0].body.is_some() && ast.fns[0].owner == Owner::Module(None));
        assert!(ast.fns[3].body.is_none());
        assert_eq!(ast.impls.len(), 1);
        assert_eq!(ast.impls[0].trait_path.as_deref(), Some("Evolvable"));
        assert_eq!(ast.impls[0].self_ty, "Hist");
        assert_eq!(ast.impls[0].fns, vec![1, 2]);
    }

    #[test]
    fn generic_impls_and_fn_bound_parens_parse() {
        let ast = parse_src(
            "impl<T: Fn(u32) -> u32> evolve::Evolvable<T> for Wrapper<'a, T> {\n    fn capture<F: Fn(u8)>(&self, f: F) -> Capsule { f(1) }\n}",
        );
        assert_eq!(ast.impls.len(), 1);
        assert_eq!(
            ast.impls[0].trait_path.as_deref(),
            Some("evolve::Evolvable")
        );
        assert_eq!(ast.impls[0].self_ty, "Wrapper");
        assert_eq!(ast.fns.len(), 1);
        assert!(ast.fns[0].body.is_some());
    }

    #[test]
    fn inline_paths_are_collected_outside_uses() {
        let ast = parse_src(
            "fn f() { let q = atlarge_des::fel::BinaryHeapFel::new(); let v = Vec::<u8>::new(); x.get(0); }",
        );
        let paths: Vec<&str> = ast.paths.iter().map(|p| p.path.as_str()).collect();
        assert!(paths.contains(&"atlarge_des::fel::BinaryHeapFel::new"));
        assert!(paths.contains(&"Vec"));
        assert!(!paths.iter().any(|p| p.contains("get")));
    }

    #[test]
    fn mods_recurse_and_bodyless_mods_skip() {
        let ast = parse_src("mod outer { mod inner { fn deep() {} } }\nmod decl;");
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "deep");
    }

    #[test]
    fn items_carry_visibility_and_owner() {
        let ast = parse_src(
            "pub struct A { pub x: u32 }\npub(crate) const fn f() {}\npub mod m { pub const C: u8 = 1; }\nimpl A { pub fn g(&self) {} }",
        );
        let items: Vec<(&str, ItemKind, Vis, Owner)> = ast
            .items
            .iter()
            .map(|i| (i.name.as_str(), i.kind, i.vis, i.owner))
            .collect();
        assert_eq!(
            items,
            vec![
                ("A", ItemKind::Struct, Vis::Pub, Owner::Module(None)),
                ("m", ItemKind::Mod, Vis::Pub, Owner::Module(None)),
                ("C", ItemKind::Const, Vis::Pub, Owner::Module(Some(1))),
            ]
        );
        let fns: Vec<(&str, Vis, Owner)> = ast
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.vis, f.owner))
            .collect();
        assert_eq!(
            fns,
            vec![
                ("f", Vis::Restricted, Owner::Module(None)),
                ("g", Vis::Pub, Owner::Impl(0)),
            ]
        );
    }

    #[test]
    fn seg_prefix_matching_is_boundary_aware() {
        assert!(path_has_seg_prefix("a::b::c", "a::b"));
        assert!(path_has_seg_prefix("a::b", "a::b"));
        assert!(!path_has_seg_prefix("a::bc", "a::b"));
        assert_eq!(last_segment("a::b::c"), "c");
        assert_eq!(last_segment("solo"), "solo");
    }
}
