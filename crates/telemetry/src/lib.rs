//! `atlarge-telemetry` — tracing, metrics, and run manifests for every
//! simulator in the workspace.
//!
//! The paper's principle **P4** demands "various sources of information to
//! achieve local and global self-awareness", and challenge **C3** names
//! *calibration and reproducibility* as preconditions for simulation-based
//! design-space exploration. This crate supplies both concerns as one
//! subsystem:
//!
//! - [`tracer::Tracer`] — the hook interface the DES kernel calls on every
//!   schedule/dispatch and around instrumented spans. The default is no
//!   tracer at all (an `Option` in the kernel), so an untraced run pays a
//!   single branch per event; a tracer reporting itself disabled via
//!   [`tracer::Tracer::is_enabled`] (like [`tracer::NullTracer`]) is
//!   dropped at attach time, so "tracing off" is the untraced path itself.
//! - [`metrics`] — counters, time-weighted gauges, and tallies: the monitor
//!   vocabulary previously embedded in `atlarge-des`, with the zero-duration
//!   and empty-sample edge cases defined rather than panicking.
//! - [`recorder::Recorder`] — a cloneable, shared implementation of
//!   [`tracer::Tracer`] that aggregates a metric registry, per-span
//!   simulated- and wall-time profiles, and a bounded ring buffer of raw
//!   trace records.
//! - [`manifest::RunManifest`] — the reproducibility receipt of a run: model
//!   name, seed, configuration digest, event counts, simulated horizon, and
//!   wall time. Two runs of the same model and seed produce manifests equal
//!   under [`manifest::RunManifest::same_run_as`].
//! - [`export`] — hand-rolled JSON/JSONL encoding (no external
//!   dependencies) so traces and metrics land in machine-readable files.
//!
//! Tracing never feeds back into the simulation: a [`tracer::Tracer`] only
//! observes, so a traced run and an untraced run of the same model and seed
//! reach identical final states. The workspace test suite asserts this
//! property.

pub mod export;
pub mod hist;
pub mod manifest;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod tracer;
pub mod wall;

pub use hist::{HistogramSnapshot, ShardedHistogram};
pub use manifest::RunManifest;
pub use metrics::{Gauge, Tally};
pub use recorder::{Recorder, SpanStats, TraceKind, TraceRecord};
pub use sink::JsonlSink;
pub use tracer::{EventLabel, NullTracer, Tracer};
