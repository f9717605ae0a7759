//! `atlarge-lint` — workspace determinism & simulation-purity static
//! analysis.
//!
//! The AtLarge reproduction stakes everything on sound, repeatable
//! experiments: the campaign engine guarantees serial ≡ parallel
//! byte-identical results, the DES kernel guarantees same seed ⇒ same
//! trace. Those guarantees rest on coding rules — no wall-clock reads
//! in simulation code, no ambient entropy, no hash-order iteration
//! reaching results, no panicking shortcuts in kernel hot paths, no
//! order-sensitive float accumulation over merged results. This crate
//! turns the rules into machine-checked invariants, the same way
//! METHODA argues experiment toolchains need automated soundness gates.
//!
//! # Pipeline
//!
//! 1. [`lexer`] — a small Rust lexer: comments, strings, lifetimes and
//!    numeric literals are understood, so lints never fire inside a
//!    string or doc comment.
//! 2. [`lints`] — the catalogue: `wall-clock-in-sim`, `entropy-rng`,
//!    `unordered-iteration`, `panic-in-kernel`,
//!    `float-accumulation-order`.
//! 3. [`allow`] — the `#[allow_atlarge(lint, reason = "...")]` comment
//!    allowlist; reasons are mandatory, stale directives are flagged.
//! 4. [`config`] — `lint.toml`: scan roots plus per-lint `scope` /
//!    `exempt` path prefixes and `include_tests`.
//! 5. [`surface`] — `dead-public-surface`, the one workspace-wide
//!    lint: every `pub` item of a library crate must be named by code
//!    outside its library target.
//! 6. [`engine`] — walks the workspace, masks `#[cfg(test)]` regions,
//!    applies directives, and emits a stable-ordered [`engine::Report`].
//!
//! # Running
//!
//! ```sh
//! cargo run -p atlarge-lint                  # human diagnostics
//! cargo run -p atlarge-lint -- --format json # JSONL for tooling
//! ```
//!
//! Exit code 0 means zero non-allowlisted diagnostics; 1 means the
//! determinism contract has a hole; 2 means usage error.

pub mod allow;
pub mod config;
pub mod engine;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod structural;
pub mod surface;

pub use config::LintConfig;
pub use engine::{lint_files, lint_source, lint_workspace, Diagnostic, Report};
