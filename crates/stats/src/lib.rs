//! Shared statistics toolkit for the AtLarge reproduction.
//!
//! Every experiment in the workspace reports through the types in this crate:
//! descriptive summaries ([`descriptive::Summary`]), histograms
//! ([`histogram::Histogram`]), violin-plot statistics for Figure 3
//! ([`violin::ViolinSummary`]), linear regression
//! ([`regression`]), rank aggregation for the autoscaling head-to-head
//! comparisons of §6.7 ([`ranking`]), factorial effect analysis for the
//! PAD law of §6.5 ([`factorial`]), and reproducible random-variate
//! generation ([`dist`]).
//!
//! # Examples
//!
//! ```
//! use atlarge_stats::descriptive::Summary;
//!
//! let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.mean(), 2.5);
//! assert_eq!(s.median(), 2.5);
//! ```

pub mod descriptive;
pub mod dist;
pub mod factorial;
pub mod histogram;
pub mod ranking;
pub mod regression;
pub mod timeseries;
pub mod violin;

pub use descriptive::Summary;
pub use histogram::Histogram;
pub use violin::ViolinSummary;
