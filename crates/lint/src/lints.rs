//! The determinism lint catalogue.
//!
//! Each lint turns one coding rule of the workspace's reproducibility
//! contract (serial ≡ parallel, same seed ⇒ same bytes) into a
//! machine-checked invariant. Lints match short token sequences over
//! the [`crate::lexer`] stream; they are deliberately syntactic — the
//! rules are phrased so that a syntactic match *is* the violation, and
//! the sanctioned exceptions live in path scopes (`lint.toml`) or
//! carry a written `#[allow_atlarge(...)]` reason.

use crate::lexer::{Tok, TokKind};

/// Static description of one lint.
#[derive(Debug, Clone, Copy)]
pub struct LintSpec {
    /// Stable kebab-case id (what allow directives and `lint.toml` name).
    pub id: &'static str,
    /// Stable machine code (`ALnnn`), recorded in JSON output.
    pub code: &'static str,
    /// One-line rule statement.
    pub summary: &'static str,
    /// Why the rule exists — printed by `--explain` when `lint.toml`
    /// carries no comment block for the lint.
    pub rationale: &'static str,
    /// Whether test code is checked by default.
    pub default_include_tests: bool,
    /// Default path scope (empty = whole workspace).
    pub default_scope: &'static [&'static str],
    /// Default exempt path prefixes (the sanctioned boundary).
    pub default_exempt: &'static [&'static str],
}

/// Id of the meta-lint for malformed allow directives.
pub const ALLOWLIST_INVALID: &str = "allowlist-invalid";
/// Id of the meta-lint for directives that suppress nothing.
pub const UNUSED_ALLOWLIST: &str = "unused-allowlist";

/// Every source lint (the two allowlist meta-lints are hardwired in the
/// engine and not configurable).
pub fn catalogue() -> &'static [LintSpec] {
    &[
        LintSpec {
            id: "wall-clock-in-sim",
            code: "AL001",
            summary: "simulation code must not read the host clock",
            rationale: "Instant::now / SystemTime::now make results depend on machine speed and load; a replay on different hardware diverges. Simulated time (Ctx::now) is the only clock the kernel trusts, and wall-clock measurement is quarantined behind atlarge_telemetry::wall.",
            default_include_tests: false,
            default_scope: &[],
            default_exempt: &["crates/telemetry", "crates/lint"],
        },
        LintSpec {
            id: "entropy-rng",
            code: "AL002",
            summary: "all randomness must derive from campaign seeds, never ambient entropy",
            rationale: "OS entropy (thread_rng, from_entropy, OsRng, getrandom) is unreproducible by construction: the same campaign re-run yields different draws. Every RNG must be seeded from the campaign root via atlarge_exp::seed so that serial and parallel runs stay byte-identical.",
            default_include_tests: true,
            default_scope: &[],
            default_exempt: &[],
        },
        LintSpec {
            id: "unordered-iteration",
            code: "AL003",
            summary:
                "hashed collections have unspecified iteration order; results must not depend on it",
            rationale: "HashMap/HashSet iteration order is randomized per process (RandomState); anything it touches — result rows, traces, JSONL — differs across runs even with fixed seeds. BTree collections and sorted Vecs iterate canonically.",
            default_include_tests: true,
            default_scope: &[],
            default_exempt: &[],
        },
        LintSpec {
            id: "panic-in-kernel",
            code: "AL004",
            summary: "the DES kernel's hot paths must not contain panicking shortcuts",
            rationale: "unwrap/expect/panic!/indexing in the event loop turn a recoverable modelling error into an aborted campaign shard; partial campaign output is itself a reproducibility hazard. Kernel paths return typed errors.",
            default_include_tests: false,
            default_scope: &["crates/des"],
            default_exempt: &[],
        },
        LintSpec {
            id: "float-accumulation-order",
            code: "AL005",
            summary: "float accumulation over merged results must use order-fixed aggregation",
            rationale: "Float addition is not associative: summing shard results in arrival order makes serial and parallel campaigns disagree in the last bits. Aggregation goes through atlarge_stats, which accumulates in canonical order.",
            default_include_tests: false,
            default_scope: &["crates/exp", "crates/obsv"],
            default_exempt: &["crates/stats"],
        },
        LintSpec {
            id: "capsule-field-coverage",
            code: "AL006",
            summary:
                "every capsule field written in capture() must be read back in resume(), and vice versa",
            rationale: "A live policy swap is only identity-preserving when the state capsule round-trips: a field pushed in capture() but never read in resume() is silently dropped on swap, and a getter for a field capture() never writes fails every handoff with MissingField. Both drift classes compile cleanly; this lint diffs the field-name sets structurally per impl Evolvable.",
            default_include_tests: true,
            default_scope: &[],
            default_exempt: &[],
        },
        LintSpec {
            id: "seed-stream-aliasing",
            code: "AL007",
            summary: "seed-stream labels must be unique within a function",
            rationale: "split_labeled(root, label) derives a sub-stream deterministically from its label: two calls with the same label in one scope produce byte-identical streams, so the 'independent' sub-studies they feed are perfectly correlated (the PR 3 bug class, fixed by hand in the p2p studies). Distinct labels are free; reuse is almost always a copy-paste error.",
            default_include_tests: false,
            default_scope: &[],
            default_exempt: &[],
        },
        LintSpec {
            id: "layer-boundary",
            code: "AL008",
            summary: "crates must respect the lint.toml-declared layer contracts",
            rationale: "The kernel stays swappable (and the determinism surface auditable) only while domain code depends on sealed APIs: the future-event list lives behind EventQueue, wall clocks behind telemetry. Each [layer.<name>] section in lint.toml declares scope/exempt path prefixes and forbidden ::-path prefixes; this lint checks the parsed use-graph and inline qualified paths of every file against them.",
            default_include_tests: true,
            default_scope: &[],
            default_exempt: &[],
        },
        LintSpec {
            id: "dead-public-surface",
            code: "AL010",
            summary: "a library crate's pub items must be named by code outside its library target",
            rationale: "A crate's public surface is its design record: every pub item is a promise to other code. An item nothing outside the crate names is a promise to no one, and it hides which entry points the workspace really uses. The lint reads the whole workspace at once: a pub item (fn, inherent method, struct, enum, trait, const, static, type alias) in a library crate's public module tree is live when code outside that crate's library target names it (other crates, the crate's own tests, benches and main.rs, the root src/, examples/ and tests/, lint.toml's consumer-only roots, and doc-test code), or when it is a type named by a live item's signature or public fields. The check is by name, so it can miss a dead item but never flags a live one. Fix a finding by narrowing the item to pub(crate) or private, by deleting it when only its own unit tests call it, or by allowlisting a deliberate API (an oracle, paper content) with a reason. The lint_summary line counts the public items per crate.",
            default_include_tests: false,
            default_scope: &[],
            default_exempt: &[],
        },
    ]
}

/// Looks up a lint id in the catalogue (meta-lints included).
pub(crate) fn is_known(id: &str) -> bool {
    id == ALLOWLIST_INVALID || id == UNUSED_ALLOWLIST || catalogue().iter().any(|s| s.id == id)
}

/// The stable `ALnnn` code for a lint id (`AL000` for unknown ids,
/// which cannot reach output under normal operation).
pub fn code_of(id: &str) -> &'static str {
    match id {
        ALLOWLIST_INVALID => "AL101",
        UNUSED_ALLOWLIST => "AL102",
        _ => catalogue()
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.code)
            .unwrap_or("AL000"),
    }
}

/// One raw finding inside a file, before allowlist filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint id.
    pub lint: &'static str,
    /// 1-based line.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}

fn ident(t: &Tok, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

fn punct(t: &Tok, ch: &str) -> bool {
    t.kind == TokKind::Punct && t.text == ch
}

/// Whether tokens at `i` spell `name :: member`.
fn path2(toks: &[Tok], i: usize, name: &str, member: &str) -> bool {
    ident(&toks[i], name)
        && toks.len() > i + 3
        && punct(&toks[i + 1], ":")
        && punct(&toks[i + 2], ":")
        && ident(&toks[i + 3], member)
}

/// Runs every applicable source lint over one file's tokens.
///
/// `check(lint_id, token_index)` decides whether the lint applies at
/// that token — the engine closes over the file path (scope/exempt)
/// and the test-code mask there.
pub fn run(toks: &[Tok], check: impl Fn(&'static str, usize) -> bool) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident && t.kind != TokKind::Punct {
            continue;
        }

        // --- wall-clock-in-sim ---------------------------------------
        if check("wall-clock-in-sim", i)
            && (path2(toks, i, "Instant", "now") || path2(toks, i, "SystemTime", "now"))
        {
            out.push(Finding {
                lint: "wall-clock-in-sim",
                line: t.line,
                message: format!(
                    "`{}::now` reads the host clock; simulation results must not depend on machine speed",
                    t.text
                ),
                suggestion: "use simulated time (Ctx::now / critical-path cost) or route measurement through atlarge_telemetry::wall::Stopwatch".into(),
            });
        }

        // --- entropy-rng ---------------------------------------------
        if check("entropy-rng", i) && t.kind == TokKind::Ident {
            if let Some(what) = match t.text.as_str() {
                "thread_rng" => Some("`thread_rng()` seeds from thread-local OS entropy"),
                "from_entropy" => Some("`SeedableRng::from_entropy` draws an OS-entropy seed"),
                "from_os_rng" => Some("`SeedableRng::from_os_rng` draws an OS-entropy seed"),
                "OsRng" => Some("`OsRng` is a direct OS entropy source"),
                "getrandom" => Some("`getrandom` is a direct OS entropy source"),
                _ => None,
            } {
                out.push(Finding {
                    lint: "entropy-rng",
                    line: t.line,
                    message: format!("{what}; replays would diverge"),
                    suggestion: "derive every RNG from the campaign root seed (atlarge_exp::seed::derive_seed / split_labeled) and seed with StdRng::seed_from_u64".into(),
                });
            }
        }

        // --- unordered-iteration -------------------------------------
        if check("unordered-iteration", i)
            && t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "HashMap" | "HashSet" | "FxHashMap" | "FxHashSet" | "AHashMap" | "AHashSet"
            )
        {
            out.push(Finding {
                lint: "unordered-iteration",
                line: t.line,
                message: format!(
                    "`{}` iterates in unspecified (and RandomState-randomized) order, which can leak into results, traces, or JSONL",
                    t.text
                ),
                suggestion: "use BTreeMap/BTreeSet or a Vec sorted on a canonical key".into(),
            });
        }

        // --- panic-in-kernel -----------------------------------------
        if check("panic-in-kernel", i) {
            if punct(t, ".")
                && toks.len() > i + 2
                && toks[i + 1].kind == TokKind::Ident
                && matches!(toks[i + 1].text.as_str(), "unwrap" | "expect")
                && punct(&toks[i + 2], "(")
            {
                out.push(Finding {
                    lint: "panic-in-kernel",
                    line: toks[i + 1].line,
                    message: format!(
                        "`.{}()` can panic in a kernel hot path",
                        toks[i + 1].text
                    ),
                    suggestion:
                        "return a typed error, or handle the None/Err arm gracefully (debug_assert! for invariants)"
                            .into(),
                });
            }
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && toks.len() > i + 1
                && punct(&toks[i + 1], "!")
            {
                out.push(Finding {
                    lint: "panic-in-kernel",
                    line: t.line,
                    message: format!("`{}!` aborts the simulation from a kernel path", t.text),
                    suggestion:
                        "convert to a typed error or a debug_assert!-guarded graceful fallback"
                            .into(),
                });
            }
            // Indexing: `recv[`, `)(…)[`, `][` — a glued `[` after a
            // value-producing token is a potential panic site.
            if punct(t, "[")
                && t.glued
                && i > 0
                && (toks[i - 1].kind == TokKind::Ident
                    || punct(&toks[i - 1], ")")
                    || punct(&toks[i - 1], "]"))
                && !matches!(
                    toks[i - 1].text.as_str(),
                    // Type-position idents that commonly precede `[`.
                    "dyn" | "mut" | "in"
                )
            {
                out.push(Finding {
                    lint: "panic-in-kernel",
                    line: t.line,
                    message: "indexing can panic on out-of-bounds in a kernel hot path".into(),
                    suggestion: "use .get()/.get_mut() and handle the miss".into(),
                });
            }
        }

        // --- float-accumulation-order --------------------------------
        if check("float-accumulation-order", i) {
            if ident(t, "sum")
                && toks.len() > i + 5
                && punct(&toks[i + 1], ":")
                && punct(&toks[i + 2], ":")
                && punct(&toks[i + 3], "<")
                && matches!(toks[i + 4].text.as_str(), "f64" | "f32")
                && punct(&toks[i + 5], ">")
            {
                out.push(Finding {
                    lint: "float-accumulation-order",
                    line: t.line,
                    message: format!(
                        "`.sum::<{}>()` accumulates in iteration order; over parallel-merged results the order must be pinned",
                        toks[i + 4].text
                    ),
                    suggestion: "aggregate through atlarge_stats (Summary/Histogram accumulate in canonical order) or sort the inputs first".into(),
                });
            }
            if punct(t, ".")
                && toks.len() > i + 3
                && ident(&toks[i + 1], "fold")
                && punct(&toks[i + 2], "(")
                && toks[i + 3].kind == TokKind::Num
                && is_float_literal(&toks[i + 3].text)
                && !fold_is_order_insensitive(toks, i + 3)
            {
                out.push(Finding {
                    lint: "float-accumulation-order",
                    line: toks[i + 1].line,
                    message: "`.fold` with a float accumulator depends on iteration order".into(),
                    suggestion: "use f64::max/f64::min (order-insensitive) or aggregate through atlarge_stats".into(),
                });
            }
        }
    }
    out
}

fn is_float_literal(text: &str) -> bool {
    text.contains('.') || text.ends_with("f64") || text.ends_with("f32")
}

/// After the float accumulator at `start`, an `f64::max` / `f64::min` /
/// bare `max` / `min` combiner makes the fold order-insensitive.
fn fold_is_order_insensitive(toks: &[Tok], start: usize) -> bool {
    // Scan at most a handful of tokens past the separating comma.
    let window = &toks[start..toks.len().min(start + 8)];
    let mut after_comma = false;
    for t in window {
        if punct(t, ",") {
            after_comma = true;
            continue;
        }
        if after_comma && t.kind == TokKind::Ident && matches!(t.text.as_str(), "max" | "min") {
            return true;
        }
        if after_comma && punct(t, ")") {
            break;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings(src: &str) -> Vec<Finding> {
        run(&lex(src).tokens, |_, _| true)
    }

    fn lints_of(src: &str) -> Vec<&'static str> {
        findings(src).into_iter().map(|f| f.lint).collect()
    }

    #[test]
    fn wall_clock_fires_on_both_clocks() {
        assert_eq!(
            lints_of("let t = Instant::now(); let s = SystemTime::now();"),
            vec!["wall-clock-in-sim", "wall-clock-in-sim"]
        );
        assert!(lints_of("let d = Instant::elapsed(&t);").is_empty());
    }

    #[test]
    fn entropy_fires_on_all_sources() {
        assert_eq!(
            lints_of("let r = thread_rng(); let s = StdRng::from_entropy(); OsRng.fill(&mut b);")
                .len(),
            3
        );
        assert!(lints_of("let r = StdRng::seed_from_u64(7);").is_empty());
    }

    #[test]
    fn unordered_fires_on_hash_collections_only() {
        assert_eq!(
            lints_of("let m: HashMap<u32, u32> = HashMap::new();").len(),
            2
        );
        assert!(lints_of("let m: BTreeMap<u32, u32> = BTreeMap::new();").is_empty());
    }

    #[test]
    fn panic_lint_catches_shortcuts_and_indexing() {
        let found = lints_of(
            "let x = opt.unwrap(); let y = res.expect(\"m\"); panic!(\"no\"); let z = v[0];",
        );
        assert_eq!(found.len(), 4);
        assert!(
            lints_of("let x = opt.unwrap_or(3); let a = [0u8; 4]; let s: &[u8] = &a;").is_empty()
        );
        assert!(lints_of("debug_assert!(ok); assert!(ok);").is_empty());
    }

    #[test]
    fn float_lint_exempts_minmax_folds() {
        assert_eq!(
            lints_of("let s = xs.iter().sum::<f64>(); let t = ys.fold(0.0, |a, b| a + b);").len(),
            2
        );
        assert!(lints_of("let m = xs.iter().fold(0.0, f64::max);").is_empty());
        assert!(lints_of("let n = xs.iter().copied().fold(f64::INFINITY, f64::min);").is_empty());
        assert!(lints_of("let c = xs.iter().fold(0u64, |a, _| a + 1);").is_empty());
    }
}
