//@ path: crates/alpha/src/lib.rs
//! A doc test compiles outside the crate, so its code names items:
//!
//! ```
//! alpha::doc_named();
//! ```
//!
//! ```sh
//! shell_named
//! ```

pub mod shapes;
mod hidden;

/// Named by nothing outside the crate: flagged.
pub fn dead_entry() {}

/// Called by another crate.
pub fn used_by_beta() {}

/// Called by the crate's own integration test.
pub fn used_by_own_tests() {}

/// Called only by the benchmark harness, a consumer-only root.
pub fn used_by_perfbench() {}

/// Called only by a doc test.
pub fn doc_named() {}

/// A shell block is no doc test: flagged.
pub fn shell_named() {}

/// Its caller names it only through this signature.
pub fn make_report() -> Report {
    Report { detail: Detail }
}

/// Named only by `make_report`'s signature: live.
pub struct Report {
    /// Named only by this public field: live.
    pub detail: Detail,
}

/// See `Report::detail`.
pub struct Detail;

// #[allow_atlarge(dead-public-surface, reason = "an oracle the tests compare against")]
pub fn oracle() {}

pub(crate) fn narrowed() {}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
//@ path: crates/alpha/src/shapes.rs
pub struct Circle;

impl Circle {
    /// An inherent method nobody names: flagged.
    pub fn dead_method(&self) {}

    /// Named by the integration test.
    pub fn area(&self) -> f64 {
        0.0
    }
}
//@ path: crates/alpha/src/hidden.rs
/// In a private module, so already crate-visible: out of scope.
pub fn hidden_helper() {}
//@ path: crates/alpha/tests/it.rs
#[test]
fn uses_alpha() {
    alpha::used_by_own_tests();
    let _ = alpha::shapes::Circle.area();
}
//@ path: crates/beta/src/main.rs
fn main() {
    alpha::used_by_beta();
    let _ = alpha::make_report().detail;
}
//@ path: perfbench/src/main.rs
fn main() {
    alpha::used_by_perfbench();
}
