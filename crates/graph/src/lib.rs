//! `atlarge-graph` — the Graphalytics ecosystem reproduction (§6.5,
//! Table 8).
//!
//! The Graphalytics line began with a curiosity-driven study that found
//! *the PAD triangle* — graph-processing performance depends on the
//! interaction of **P**latform, **A**lgorithm, and **D**ataset — "a law!",
//! later refined to HPAD when heterogeneous hardware entered the picture.
//! The reproduction implements the whole measurement apparatus:
//!
//! - [`csr`] — compressed sparse row graphs with out- and in-adjacency.
//! - [`generators`] — datasets: preferential-attachment (power-law),
//!   Erdős–Rényi, and 2-D grid graphs (low/high diameter, skewed/uniform
//!   degrees — the properties that drive the "D" of PAD).
//! - [`algorithms`] — the six LDBC Graphalytics algorithms: BFS, PageRank,
//!   WCC, CDLP, LCC, SSSP, expressed as synchronous vertex programs plus
//!   direct implementations used as cross-checks.
//! - [`platforms`] — executors with genuinely different execution
//!   strategies: sequential pull, parallel pull over modelled workers,
//!   edge-centric scan, and a heterogeneous accelerator model — each
//!   reporting a deterministic work/critical-path cost and simulated
//!   wall time.
//! - [`granula`] — Granula-style per-phase performance breakdown.
//! - [`experiments`] — the PAD factorial sweep with variance
//!   decomposition (the law test), and the HPAD extension.
//!
//! # Examples
//!
//! ```
//! use atlarge_graph::csr::Csr;
//! use atlarge_graph::algorithms::bfs_levels;
//!
//! let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)], false);
//! let levels = bfs_levels(&g, 0);
//! assert_eq!(levels, vec![Some(0), Some(1), Some(2), Some(3)]);
//! ```

pub mod algorithms;
pub mod csr;
pub mod experiments;
pub mod generators;
pub mod granula;
pub mod platforms;

pub use csr::Csr;
pub use platforms::{Algorithm, Platform};
