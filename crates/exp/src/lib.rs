//! `atlarge-exp` — the replicated, parallel experiment-campaign engine.
//!
//! The paper's Sections 4–5 cast design as a *process*: declare a
//! design space, sweep it, replicate, compare (the Graphalytics
//! campaigns of §6.5 are the template). This crate is that process as
//! infrastructure, shared by every Section-6 domain:
//!
//! - [`FactorGrid`] — declared factors × levels, enumerated in one
//!   canonical order.
//! - [`seed`] — SplitMix64 derivation of independent per-cell,
//!   per-replication streams from a single root seed.
//! - [`Campaign`] — the builder tying them together: it sweeps one
//!   experiment, a pure `(config, seed) → outcome` run function, on
//!   scoped `std::thread` workers that claim jobs from one counter, and
//!   guarantees **byte-identical aggregation between serial and
//!   parallel runs**.
//! - [`CampaignResult`] — outcomes in canonical cell order, aggregated
//!   through `atlarge-stats` (mean/CI/quantiles per cell) and stamped
//!   with an `atlarge-telemetry` [`RunManifest`](atlarge_telemetry::RunManifest)
//!   so `atlarge-obsv` can gate campaign-level regressions.
//! - [`CellScenario`] — the served, object-safe view of one domain,
//!   which a [`Registry`] looks up by name; its replications call the
//!   domain campaign's run function on a single-cell campaign's seeds.
//! - [`StudyTable`] — a declared table of reproduced studies (the
//!   paper's Tables 5–7): one value that runs as a campaign and serves
//!   as a [`CellScenario`].
//!
//! # Example
//!
//! ```
//! use atlarge_exp::Campaign;
//!
//! let noisy_square = |x: &f64, seed: u64| x * x + (seed % 7) as f64 * 0.01;
//! let result = Campaign::new("squares", noisy_square)
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
pub mod seed;
pub mod study;

pub use campaign::{
    Campaign, CampaignResult, CellResult, CellRun, CellSummary, NamedMetric, SeedMode,
};
pub use cancel::CancelToken;
pub use grid::{CellSpec, FactorGrid};
pub use registry::{CellOutput, CellScenario, ParamSpec, Registry};
pub use seed::{derive_seed, split_labeled};
pub use study::{StudyRow, StudyTable};
