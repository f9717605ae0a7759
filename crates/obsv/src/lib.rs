//! `atlarge-obsv` — analysis over the telemetry substrate.
//!
//! `atlarge-telemetry` *produces*: bounded causal event traces, metric
//! streams, and run manifests, exported as JSONL. This crate *consumes*
//! them, which is the other half of the observability story the AtLarge
//! vision asks for (§6.5's Granula moved Graphalytics from shallow to
//! deep performance analysis; the Massivizing agenda wants ecosystems
//! that can explain themselves):
//!
//! - [`trace`] / [`jsonl`] — typed readers for the export dialect. No
//!   serde in the workspace, so the hand-written writer has a matching
//!   hand-written reader.
//! - [`causal`] — critical-path extraction over the `(id, parent)`
//!   edges the kernel stamps on every event: the longest causal chain
//!   by simulated time, with a span-tree fallback for span-only traces
//!   (e.g. replayed Granula operation trees).
//! - [`profile`] — hierarchical profiling: Chrome-trace-event JSON
//!   (loadable in Perfetto / `about:tracing`), text flamegraphs, and
//!   top-k self-time tables.
//! - [`series`] — windowed aggregation and exported-histogram
//!   quantiles (p50/p95/p99) over metric time series.
//! - [`diff`] — cross-run regression detection: align two metrics
//!   exports by name, report relative deltas against a threshold,
//!   keyed on `same_run_as` manifest fingerprints (wall-clock fields
//!   excluded, so identical logical runs diff to zero).
//! - [`fingerprint`] — the canonical manifest rendering behind those
//!   fingerprints, exposed as a public, injective cache key
//!   ([`fingerprint::canonical_key`]) for result caches and services.
//!
//! The user-facing entry point is the `trace_lens` example binary:
//! `trace_lens critical-path|profile|diff <jsonl>…`.

pub mod causal;
pub mod diff;
pub mod fingerprint;
pub mod jsonl;
pub mod profile;
pub mod series;
pub mod trace;

pub use causal::{critical_path, CriticalPath, PathSource, PathStep};
pub use diff::{diff_exports, MetricDelta, RunDiff};
pub use fingerprint::canonical_key;
pub use profile::{flamegraph_text, self_times, to_chrome_json};
pub use series::{HistogramLine, PulseLine, SeriesLine};
pub use trace::{parse_trace, ManifestInfo, Trace, TraceLine};
