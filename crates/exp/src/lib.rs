//! `atlarge-exp` — the replicated, parallel experiment-campaign engine.
//!
//! The paper's Sections 4–5 cast design as a *process*: declare a
//! design space, sweep it, replicate, compare (the Graphalytics
//! campaigns of §6.5 are the template). This crate is that process as
//! infrastructure, shared by every Section-6 domain:
//!
//! - [`Scenario`] — one experiment as a pure `(config, seed) → outcome`
//!   function, optionally narrated to a `Tracer`.
//! - [`FactorGrid`] — declared factors × levels, enumerated in one
//!   canonical order.
//! - [`seed`] — SplitMix64 derivation of independent per-cell,
//!   per-replication streams from a single root seed.
//! - [`Campaign`] — the builder tying them together, with a
//!   work-stealing `std::thread` executor that guarantees
//!   **byte-identical aggregation between serial and parallel runs**.
//! - [`CampaignResult`] — outcomes in canonical cell order, aggregated
//!   through `atlarge-stats` (mean/CI/quantiles per cell) and stamped
//!   with an `atlarge-telemetry` [`RunManifest`](atlarge_telemetry::RunManifest)
//!   so `atlarge-obsv` can gate campaign-level regressions.
//! - [`StudyTable`] — a declared table of reproduced studies (the
//!   paper's Tables 5–7): one value that is both a [`Scenario`] and a
//!   servable [`CellScenario`].
//!
//! # Example
//!
//! ```
//! use atlarge_exp::{Campaign, Scenario};
//! use atlarge_telemetry::tracer::Tracer;
//!
//! struct NoisySquare;
//! impl Scenario for NoisySquare {
//!     type Config = f64;
//!     type Outcome = f64;
//!     fn run(&self, x: &f64, seed: u64, _t: &dyn Tracer) -> f64 {
//!         x * x + (seed % 7) as f64 * 0.01
//!     }
//! }
//!
//! let result = Campaign::new("squares", NoisySquare)
//!     .factor("x", ["2", "3"])
//!     .replications(5)
//!     .root_seed(2026)
//!     .run(|cell| cell.level("x").parse().unwrap());
//!
//! let means = result.summarize(|&y| y);
//! assert_eq!(means.len(), 2);
//! assert!(means[0].summary.mean() >= 4.0);
//! ```

pub mod campaign;
pub mod cancel;
pub mod executor;
pub mod grid;
pub mod interop;
pub mod registry;
pub mod scenario;
pub mod seed;
pub mod study;

pub use campaign::{
    Campaign, CampaignResult, CellResult, CellRun, CellSummary, NamedMetric, SeedMode,
};
pub use cancel::CancelToken;
pub use grid::{CellSpec, Factor, FactorGrid};
pub use registry::{CellOutput, CellScenario, ParamSpec, Registry};
pub use scenario::Scenario;
pub use seed::{derive_seed, split_labeled};
pub use study::{StudyRow, StudyTable};
