//! `atlarge-core` — the ATLARGE design framework as an executable engine.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Sections 3–5): instead of prose about how to design distributed
//! ecosystems, every framework element is a type with behaviour that the
//! test suite and the experiment harness exercise:
//!
//! - [`reasoning`] — Dorst's reasoning model (Figure 5): deduction,
//!   induction, two kinds of abduction, and the paper's added
//!   *unreasoning*, implemented as inference over a concept/relationship/
//!   outcome knowledge base.
//! - [`space`] — design spaces: an abstract trait plus a rugged synthetic
//!   landscape and a factored technology space on which exploration runs.
//! - [`exploration`] — the four design-space exploration processes of
//!   Figure 6 (Free, Fix-the-What, Fix-the-How, Co-Evolving) and the
//!   co-evolution trajectories of Figure 7.
//! - [`problem`] — problem structure (well-structured / ill-structured /
//!   wicked, §2.4) and the problem-finding archetypes P1–P5 with sources
//!   S1–S3 (§3.4).
//! - [`process`] — the Basic Design Cycle and hierarchical Overall Process
//!   of Figure 8, with skippable stages and the five stopping criteria.
//! - [`catalog`] — Tables 1–3 as data: the framework overview, the 8 core
//!   principles, the 10 challenges, with machine-checked cross-links.
//! - [`ideation`] — Shah-style ideation-effectiveness metrics (quantity,
//!   quality, novelty, variety) over design sets (challenge C2).
//! - [`quality`] — what-is-good-design instruments (challenge C2):
//!   Altshuller's creativity and performance levels, review criteria, and
//!   the design-document rubric behind Figure 4.
//! - [`provenance`] — a decision-log formalism for documenting designs
//!   and tracing their evolution (challenge C8).
//! - [`dissemination`] — §3.6's article/software/data dissemination
//!   processes.
//!
//! # Examples
//!
//! Run a co-evolving exploration on a rugged design space:
//!
//! ```
//! use atlarge_core::exploration::{ExplorationProcess, Explorer};
//! use atlarge_core::space::RuggedSpace;
//!
//! let space = RuggedSpace::new(12, 3, 7);
//! let report = Explorer::new(ExplorationProcess::CoEvolving, 2_000)
//!     .run(&space, 0.75, 99);
//! assert!(report.evaluations_used <= 2_000);
//! ```

pub mod catalog;
pub mod dissemination;
pub mod exploration;
pub mod ideation;
pub mod problem;
pub mod process;
pub mod provenance;
pub mod quality;
pub mod reasoning;
pub mod space;

pub use catalog::{Challenge, Principle};
pub use exploration::{ExplorationProcess, ExplorationReport, Explorer};
pub use problem::{Problem, ProblemArchetype, Wickedness};
pub use process::{BasicDesignCycle, BdcStage, StoppingCriterion};
pub use space::{DesignSpace, RuggedSpace};
