//! `atlarge-evolve` — live policy evolution with versioned state
//! capsules.
//!
//! The paper's vicissitude and portfolio-scheduling stories (§2–§4) are
//! about ecosystems that *change while running*: bottlenecks shift,
//! policies are retired and replaced, and the replacement must pick up
//! where its predecessor left off. This crate is the enabling mechanism —
//! Theseus-style component swaps behind versioned, capture/resume-able
//! interfaces:
//!
//! - [`capsule`] — the [`Capsule`] state container: a schema-versioned,
//!   ordered snapshot of a component's state.
//! - [`Evolvable`] — the object-safe capture → resume contract a
//!   live-swappable component implements.
//! - [`swap`] — swap orchestration: [`SwapPlan`]s parsed from compact
//!   specs (`"token@1200"`, `"adapt@peak12"`), sequenced triggers
//!   (scheduled sim-time or metric threshold), and [`Live`], the one
//!   orchestrator every surface runs its policy through: it checks
//!   names against the roster, polls the plan, hands the retiring
//!   component's capsule to its successor, and logs each swap.
//!
//! The correctness keystone is the *identity swap*: replacing a policy
//! with itself mid-run must be observationally free — byte-identical
//! event streams and outputs versus never swapping (the swap's own
//! tracer span aside). The domain crates prove this with their
//! equivalence harnesses.
//!
//! # Examples
//!
//! ```
//! use atlarge_evolve::{Capsule, CapsuleError, Evolvable, Live, SwapPlan};
//!
//! #[derive(Debug, PartialEq)]
//! struct Counter {
//!     count: u64,
//! }
//!
//! impl Evolvable for Counter {
//!     fn capsule_kind(&self) -> &'static str {
//!         "example.counter"
//!     }
//!     fn capture(&self, _now: f64) -> Capsule {
//!         Capsule::new(self.capsule_kind(), 1).with_u64("count", self.count)
//!     }
//!     fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
//!         capsule.expect_kind(self.capsule_kind())?;
//!         self.count = capsule.u64_field("count")?;
//!         Ok(())
//!     }
//! }
//!
//! fn roster(name: &str) -> Option<Box<Counter>> {
//!     (name == "counter").then(|| Box::new(Counter { count: 0 }))
//! }
//!
//! let plan = SwapPlan::parse("counter@1200").unwrap();
//! let mut live = Live::new("counter", roster, "counter", plan).unwrap();
//! live.current_mut().count = 41;
//! assert!(live.swap_due(100.0, 0.0).is_none());
//! let label = live.swap_due(1200.0, 0.0).unwrap();
//! assert_eq!(label, "evolve.swap(counter->counter)");
//! live.apply_swap(1200.0);
//! assert!(live.swap_log()[0].resumed);
//! assert_eq!(live.current().count, 41);
//! ```

pub mod capsule;
pub mod swap;

pub use capsule::{Capsule, CapsuleError, Value};
pub use swap::{Live, SwapPlan, SwapRecord, SwapSpec, SwapTrigger};

/// A component whose state can be captured into a [`Capsule`] and
/// resumed from one — the contract behind every live swap.
///
/// The trait is object-safe so orchestrators hold `Box<dyn …>` rosters.
/// Capsules carry the component's *full* serializable state,
/// configuration included: a successor that resumes a capsule becomes a
/// continuation of its predecessor.
///
/// Implementations must be deterministic: capturing the same state twice
/// yields equal capsules, field order included, and
/// `capture` → `resume` on a fresh instance reproduces the original
/// behavior exactly.
pub trait Evolvable {
    /// Identifies the component implementation (e.g.
    /// `"autoscaler.token"`). Capture and resume only connect when the
    /// kinds match; a cross-kind swap starts the successor fresh.
    fn capsule_kind(&self) -> &'static str;

    /// The capsule schema version this component writes, bumped when the
    /// field layout changes so `resume` can tell old capsules apart.
    fn capsule_version(&self) -> u32 {
        1
    }

    /// Snapshots the component's state at simulated time `now`.
    fn capture(&self, now: f64) -> Capsule;

    /// Restores state from `capsule` at simulated time `now`. Must
    /// verify the capsule kind ([`Capsule::expect_kind`]) and reject
    /// fields it cannot adopt.
    fn resume(&mut self, capsule: &Capsule, now: f64) -> Result<(), CapsuleError>;
}
