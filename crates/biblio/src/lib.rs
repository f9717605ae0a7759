//! `atlarge-biblio` — bibliometric evidence (Figures 1–3), on synthetic
//! data.
//!
//! The paper's quantitative motivation rests on three analyses: keyword
//! presence in top systems venues (Figure 1), counts of design articles in
//! 5-year blocks since 1980 (Figure 2), and violin plots of review scores
//! at an anonymized top conference (Figure 3). The underlying corpora are
//! proprietary (DBLP crawls, confidential review data), so this crate
//! substitutes *generative models calibrated to the paper's stated
//! findings* and re-runs the identical analyses on them:
//!
//! - [`corpus`] — a synthetic publication corpus with venue/year/keyword
//!   structure: the probability an article is a design article rises after
//!   2000, as Figure 2 reports.
//! - [`keywords`] — the Figure-1 analysis: per-venue keyword presence.
//! - [`trends`] — the Figure-2 analysis: design-article counts per venue
//!   per 5-year block (handling censored venues that started late).
//! - [`reviews`] — the Figure-3 generative review model (3+ reviewers,
//!   integer scores 1–4 on merit/quality/topic) and the violin analysis
//!   recovering the paper's findings (1) and (2).
//!
//! # Examples
//!
//! ```
//! use atlarge_biblio::corpus::Corpus;
//! use atlarge_biblio::trends::design_counts_by_block;
//!
//! let corpus = Corpus::generate(42);
//! let table = design_counts_by_block(&corpus);
//! assert!(!table.rows.is_empty());
//! ```

pub mod corpus;
pub mod keywords;
pub mod reviews;
pub mod trends;

pub use corpus::{Article, Corpus};
