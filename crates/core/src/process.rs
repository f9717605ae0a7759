//! The Basic Design Cycle and Overall Process (Figure 8, §3.5).
//!
//! The BDC is an eight-element iterative loop. Two properties distinguish
//! it from rigid stage-gate processes, and both are first-class here:
//! *every stage can be skipped in any iteration* (tailoring each iteration
//! to the remaining problem), and the loop stops against an explicit set of
//! *five stopping criteria* — satisficing, portfolio, systematic design,
//! design-space exhaustion, or budget exhaustion (which is why "BDC can,
//! but does not guarantee success").
//!
//! The Overall Process is hierarchical: complex stages (implementation,
//! experimental analysis, dissemination) expand into nested BDCs, which
//! [`OverallProcess`] composes and reports on.

use std::collections::BTreeMap;
use std::fmt;

/// The eight elements of the Basic Design Cycle (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BdcStage {
    /// (1) Formulate requirements.
    FormulateRequirements,
    /// (2) Understand alternatives.
    UnderstandAlternatives,
    /// (3) Bootstrap the creative process.
    BootstrapCreative,
    /// (4) High-level and low-level design.
    Design,
    /// (5) Implementation: analysis code, simulators, prototypes.
    Implementation,
    /// (6) Conceptual analysis of the design.
    ConceptualAnalysis,
    /// (7) Experimental analysis of the design.
    ExperimentalAnalysis,
    /// (8) Result summarizing and dissemination.
    Dissemination,
}

impl BdcStage {
    /// All stages in loop order.
    pub fn all() -> [BdcStage; 8] {
        [
            BdcStage::FormulateRequirements,
            BdcStage::UnderstandAlternatives,
            BdcStage::BootstrapCreative,
            BdcStage::Design,
            BdcStage::Implementation,
            BdcStage::ConceptualAnalysis,
            BdcStage::ExperimentalAnalysis,
            BdcStage::Dissemination,
        ]
    }

    /// The paper's 1-based element number.
    pub fn number(&self) -> u8 {
        BdcStage::all()
            .iter()
            .position(|s| s == self)
            .expect("stage is in the canonical list") as u8
            + 1
    }

    /// Whether Figure 8 marks this stage as expandable into its own BDC.
    pub(crate) fn expandable(&self) -> bool {
        matches!(
            self,
            BdcStage::Implementation | BdcStage::ExperimentalAnalysis | BdcStage::Dissemination
        )
    }
}

impl fmt::Display for BdcStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BdcStage::FormulateRequirements => "formulate requirements",
            BdcStage::UnderstandAlternatives => "understand alternatives",
            BdcStage::BootstrapCreative => "bootstrap creative process",
            BdcStage::Design => "high/low-level design",
            BdcStage::Implementation => "implementation",
            BdcStage::ConceptualAnalysis => "conceptual analysis",
            BdcStage::ExperimentalAnalysis => "experimental analysis",
            BdcStage::Dissemination => "summarize and disseminate",
        };
        f.write_str(name)
    }
}

/// The five stopping criteria of §3.5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoppingCriterion {
    /// (1) One answer that satisfices (quality ≥ threshold).
    Satisfice {
        /// The satisficing quality threshold.
        threshold: f64,
    },
    /// (2) A few answers forming a portfolio for a human reviewer.
    Portfolio {
        /// How many satisficing answers the portfolio needs.
        count: usize,
        /// The satisficing quality threshold.
        threshold: f64,
    },
    /// (3) Many answers forming a systematic design.
    Systematic {
        /// How many satisficing answers count as systematic.
        count: usize,
        /// The satisficing quality threshold.
        threshold: f64,
    },
    /// (4) All answers: design-space exhaustion (signalled by the model).
    Exhaustion,
    /// (5) Out of time or other resources: an iteration budget.
    Budget {
        /// Maximum iterations before stopping.
        iterations: usize,
    },
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A satisficing answer was found (criterion 1).
    Satisficed,
    /// The portfolio filled (criterion 2).
    PortfolioComplete,
    /// The systematic-design quota filled (criterion 3).
    SystematicComplete,
    /// The space was exhausted (criterion 4).
    SpaceExhausted,
    /// The budget ran out (criterion 5) — no guarantee of success.
    BudgetExhausted,
}

/// What a stage did in one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutcome {
    /// The stage's action ran.
    Executed,
    /// The stage was skipped this iteration.
    Skipped,
}

/// Per-iteration context handed to stage actions: where candidate designs
/// and exhaustion signals are reported.
#[derive(Debug, Default)]
pub struct CycleCtx {
    iteration: usize,
    qualities: Vec<f64>,
    exhausted: bool,
    nested_reports: Vec<CycleReport>,
}

impl CycleCtx {
    /// Current iteration (0-based).
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Reports a candidate design of the given quality.
    ///
    /// # Panics
    ///
    /// Panics unless quality lies in `[0, 1]`.
    pub fn report_design(&mut self, quality: f64) {
        assert!((0.0..=1.0).contains(&quality), "quality in [0,1]");
        self.qualities.push(quality);
    }

    /// Signals that the design space has been exhausted (criterion 4).
    // #[allow_atlarge(dead-public-surface, reason = "the only way a stage action triggers stopping criterion 4 (space exhausted)")]
    pub fn report_exhausted(&mut self) {
        self.exhausted = true;
    }

    /// Attaches a nested BDC's report (hierarchical Overall Process).
    pub(crate) fn attach_nested(&mut self, report: CycleReport) {
        self.nested_reports.push(report);
    }
}

/// The record of one full BDC run.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleReport {
    /// Why the loop stopped.
    pub reason: StopReason,
    /// Iterations executed.
    pub iterations: usize,
    /// Per-(iteration, stage) outcomes in execution order.
    pub stage_log: Vec<(usize, BdcStage, StageOutcome)>,
    /// Qualities of all reported designs.
    pub qualities: Vec<f64>,
    /// Reports of nested BDCs run by expandable stages.
    pub nested: Vec<CycleReport>,
}

/// Type of a stage action over model `S`.
pub(crate) type StageActionFn<'a, S> = Box<dyn FnMut(&mut S, &mut CycleCtx) + 'a>;

/// Type of a stage-skip predicate: `(model, stage, iteration) -> skip?`.
pub(crate) type SkipFn<'a, S> = Box<dyn FnMut(&S, BdcStage, usize) -> bool + 'a>;

/// The Basic Design Cycle over a design model `S`.
///
/// Register actions per stage; unregistered stages are implicit no-ops
/// (recorded as executed — the paper's stages always exist, the work in
/// them varies). A skip predicate may skip any stage in any iteration.
///
/// # Examples
///
/// ```
/// use atlarge_core::process::*;
///
/// let mut bdc = BasicDesignCycle::new(vec![
///     StoppingCriterion::Satisfice { threshold: 0.8 },
///     StoppingCriterion::Budget { iterations: 10 },
/// ]);
/// bdc.on(BdcStage::Design, |quality: &mut f64, ctx| {
///     *quality += 0.3;
///     ctx.report_design(quality.min(1.0));
/// });
/// let report = bdc.run(&mut 0.0);
/// assert_eq!(report.reason, StopReason::Satisficed);
/// assert_eq!(report.iterations, 3);
/// ```
pub struct BasicDesignCycle<'a, S> {
    actions: BTreeMap<BdcStage, StageActionFn<'a, S>>,
    skip: SkipFn<'a, S>,
    criteria: Vec<StoppingCriterion>,
}

impl<S> fmt::Debug for BasicDesignCycle<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BasicDesignCycle")
            .field("stages_with_actions", &self.actions.len())
            .field("criteria", &self.criteria)
            .finish()
    }
}

impl<'a, S> BasicDesignCycle<'a, S> {
    /// Creates a cycle with the given stopping criteria.
    ///
    /// # Panics
    ///
    /// Panics if `criteria` is empty: a BDC without stopping criteria
    /// would never terminate, which §3.5 explicitly rules out.
    pub fn new(criteria: Vec<StoppingCriterion>) -> Self {
        assert!(!criteria.is_empty(), "BDC needs stopping criteria");
        BasicDesignCycle {
            actions: BTreeMap::new(),
            skip: Box::new(|_, _, _| false),
            criteria,
        }
    }

    /// Registers the action of a stage.
    pub fn on<F>(&mut self, stage: BdcStage, action: F) -> &mut Self
    where
        F: FnMut(&mut S, &mut CycleCtx) + 'a,
    {
        self.actions.insert(stage, Box::new(action));
        self
    }

    /// Installs a skip predicate: `skip(state, stage, iteration)`.
    // #[allow_atlarge(dead-public-surface, reason = "Figure 8 lets a BDC skip stages per iteration; this installs that rule")]
    pub fn skip_when<F>(&mut self, predicate: F) -> &mut Self
    where
        F: FnMut(&S, BdcStage, usize) -> bool + 'a,
    {
        self.skip = Box::new(predicate);
        self
    }

    fn stop_reason(&self, ctx: &CycleCtx, iterations_done: usize) -> Option<StopReason> {
        for c in &self.criteria {
            match *c {
                StoppingCriterion::Satisfice { threshold } => {
                    if ctx.qualities.iter().any(|&q| q >= threshold) {
                        return Some(StopReason::Satisficed);
                    }
                }
                StoppingCriterion::Portfolio { count, threshold } => {
                    if ctx.qualities.iter().filter(|&&q| q >= threshold).count() >= count {
                        return Some(StopReason::PortfolioComplete);
                    }
                }
                StoppingCriterion::Systematic { count, threshold } => {
                    if ctx.qualities.iter().filter(|&&q| q >= threshold).count() >= count {
                        return Some(StopReason::SystematicComplete);
                    }
                }
                StoppingCriterion::Exhaustion => {
                    if ctx.exhausted {
                        return Some(StopReason::SpaceExhausted);
                    }
                }
                StoppingCriterion::Budget { iterations } => {
                    if iterations_done >= iterations {
                        return Some(StopReason::BudgetExhausted);
                    }
                }
            }
        }
        None
    }

    /// Runs the loop to a stopping criterion.
    ///
    /// If no budget criterion is present a conservative default of 10 000
    /// iterations guards against non-termination (and reports
    /// [`StopReason::BudgetExhausted`] if hit).
    pub fn run(&mut self, state: &mut S) -> CycleReport {
        let mut ctx = CycleCtx::default();
        let mut stage_log = Vec::new();
        let has_budget = self
            .criteria
            .iter()
            .any(|c| matches!(c, StoppingCriterion::Budget { .. }));
        let fallback = 10_000;
        let reason = loop {
            for stage in BdcStage::all() {
                if (self.skip)(state, stage, ctx.iteration) {
                    stage_log.push((ctx.iteration, stage, StageOutcome::Skipped));
                    continue;
                }
                if let Some(action) = self.actions.get_mut(&stage) {
                    action(state, &mut ctx);
                }
                stage_log.push((ctx.iteration, stage, StageOutcome::Executed));
            }
            ctx.iteration += 1;
            if let Some(r) = self.stop_reason(&ctx, ctx.iteration) {
                break r;
            }
            if !has_budget && ctx.iteration >= fallback {
                break StopReason::BudgetExhausted;
            }
        };
        CycleReport {
            reason,
            iterations: ctx.iteration,
            stage_log,
            qualities: ctx.qualities,
            nested: ctx.nested_reports,
        }
    }
}

/// The hierarchical Overall Process: a root BDC whose expandable stages
/// (implementation, experimental analysis, dissemination) each run a
/// nested BDC built by a factory.
///
/// The same BDC machinery drives both levels — which is the paper's point:
/// "once a practitioner has learned the BDC, they can apply it several
/// times in the OP".
#[derive(Debug)]
// #[allow_atlarge(dead-public-surface, reason = "Figure 8's overall process: BDCs nested in the expandable stages")]
pub struct OverallProcess {
    criteria: Vec<StoppingCriterion>,
    nested_budget: usize,
}

impl OverallProcess {
    /// Creates an overall process with root criteria and a per-nested-BDC
    /// iteration budget.
    ///
    /// # Panics
    ///
    /// Panics if `criteria` is empty or `nested_budget == 0`.
    pub fn new(criteria: Vec<StoppingCriterion>, nested_budget: usize) -> Self {
        assert!(!criteria.is_empty(), "OP needs stopping criteria");
        assert!(nested_budget > 0, "nested budget must be positive");
        OverallProcess {
            criteria,
            nested_budget,
        }
    }

    /// Runs the OP over `state`. `design_step` advances the design each
    /// root iteration and reports candidate qualities; each expandable
    /// stage runs a nested single-purpose BDC whose design stage invokes
    /// `nested_step` with the stage being expanded.
    pub fn run<S, D, N>(&self, state: &mut S, mut design_step: D, nested_step: N) -> CycleReport
    where
        D: FnMut(&mut S, &mut CycleCtx),
        N: Fn(&mut S, BdcStage) + Copy,
    {
        let nested_budget = self.nested_budget;
        let mut bdc = BasicDesignCycle::new(self.criteria.clone());
        bdc.on(BdcStage::Design, move |s: &mut S, ctx| {
            design_step(s, ctx);
        });
        for stage in BdcStage::all().into_iter().filter(BdcStage::expandable) {
            bdc.on(stage, move |s: &mut S, ctx| {
                let mut nested = BasicDesignCycle::new(vec![StoppingCriterion::Budget {
                    iterations: nested_budget,
                }]);
                nested.on(BdcStage::Design, |s: &mut S, _ctx| nested_step(s, stage));
                let report = nested.run(s);
                ctx.attach_nested(report);
            });
        }
        bdc.run(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total stages skipped across iterations.
    fn skipped(report: &CycleReport) -> usize {
        report
            .stage_log
            .iter()
            .filter(|(_, _, o)| *o == StageOutcome::Skipped)
            .count()
    }

    /// Designs at or above `threshold`.
    fn satisficing_count(report: &CycleReport, threshold: f64) -> usize {
        report.qualities.iter().filter(|&&q| q >= threshold).count()
    }

    #[test]
    fn stage_numbers_match_paper() {
        assert_eq!(BdcStage::FormulateRequirements.number(), 1);
        assert_eq!(BdcStage::Implementation.number(), 5);
        assert_eq!(BdcStage::Dissemination.number(), 8);
        assert_eq!(BdcStage::all().len(), 8);
    }

    #[test]
    fn expandable_stages_are_5_7_8() {
        let nums: Vec<u8> = BdcStage::all()
            .into_iter()
            .filter(BdcStage::expandable)
            .map(|s| s.number())
            .collect();
        assert_eq!(nums, vec![5, 7, 8]);
    }

    #[test]
    fn satisficing_stops_early() {
        let mut bdc = BasicDesignCycle::new(vec![
            StoppingCriterion::Satisfice { threshold: 0.5 },
            StoppingCriterion::Budget { iterations: 100 },
        ]);
        bdc.on(BdcStage::Design, |q: &mut f64, ctx| {
            *q += 0.2;
            ctx.report_design(q.min(1.0));
        });
        let r = bdc.run(&mut 0.0);
        assert_eq!(r.reason, StopReason::Satisficed);
        assert_eq!(r.iterations, 3);
    }

    #[test]
    fn portfolio_needs_multiple_answers() {
        let mut bdc = BasicDesignCycle::new(vec![
            StoppingCriterion::Portfolio {
                count: 3,
                threshold: 0.5,
            },
            StoppingCriterion::Budget { iterations: 100 },
        ]);
        bdc.on(BdcStage::Design, |_: &mut (), ctx| ctx.report_design(0.9));
        let r = bdc.run(&mut ());
        assert_eq!(r.reason, StopReason::PortfolioComplete);
        assert_eq!(r.iterations, 3);
        assert_eq!(satisficing_count(&r, 0.5), 3);
    }

    #[test]
    fn exhaustion_signal_stops() {
        let mut bdc = BasicDesignCycle::new(vec![
            StoppingCriterion::Exhaustion,
            StoppingCriterion::Budget { iterations: 100 },
        ]);
        bdc.on(BdcStage::UnderstandAlternatives, |n: &mut u32, ctx| {
            *n += 1;
            if *n == 4 {
                ctx.report_exhausted();
            }
        });
        let r = bdc.run(&mut 0);
        assert_eq!(r.reason, StopReason::SpaceExhausted);
        assert_eq!(r.iterations, 4);
    }

    #[test]
    fn budget_does_not_guarantee_success() {
        let mut bdc = BasicDesignCycle::new(vec![
            StoppingCriterion::Satisfice { threshold: 0.99 },
            StoppingCriterion::Budget { iterations: 5 },
        ]);
        bdc.on(BdcStage::Design, |_: &mut (), ctx| ctx.report_design(0.1));
        let r = bdc.run(&mut ());
        assert_eq!(r.reason, StopReason::BudgetExhausted);
        assert_eq!(satisficing_count(&r, 0.99), 0);
    }

    #[test]
    fn stages_can_be_skipped_per_iteration() {
        let mut bdc = BasicDesignCycle::new(vec![StoppingCriterion::Budget { iterations: 3 }]);
        bdc.on(BdcStage::Implementation, |count: &mut u32, _| *count += 1);
        // Skip implementation except on the last iteration.
        bdc.skip_when(|_, stage, iter| stage == BdcStage::Implementation && iter < 2);
        let mut impl_runs = 0u32;
        let r = bdc.run(&mut impl_runs);
        assert_eq!(impl_runs, 1);
        assert_eq!(skipped(&r), 2);
    }

    #[test]
    fn stage_log_covers_all_iterations() {
        let mut bdc = BasicDesignCycle::new(vec![StoppingCriterion::Budget { iterations: 2 }]);
        let r = bdc.run(&mut ());
        assert_eq!(r.stage_log.len(), 16); // 2 iterations × 8 stages
                                           // Stages appear in canonical order each iteration.
        for (i, chunk) in r.stage_log.chunks(8).enumerate() {
            for (j, &(iter, stage, _)) in chunk.iter().enumerate() {
                assert_eq!(iter, i);
                assert_eq!(stage, BdcStage::all()[j]);
            }
        }
    }

    #[test]
    fn fallback_prevents_infinite_loops() {
        let mut bdc = BasicDesignCycle::new(vec![StoppingCriterion::Satisfice { threshold: 1.0 }]);
        let r = bdc.run(&mut ());
        assert_eq!(r.reason, StopReason::BudgetExhausted);
        assert_eq!(r.iterations, 10_000);
    }

    #[test]
    fn overall_process_nests_bdcs() {
        let op = OverallProcess::new(
            vec![
                StoppingCriterion::Satisfice { threshold: 0.8 },
                StoppingCriterion::Budget { iterations: 10 },
            ],
            2,
        );
        let mut quality = 0.0f64;
        let report = op.run(
            &mut quality,
            |q, ctx| {
                *q += 0.3;
                ctx.report_design(q.min(1.0));
            },
            |_q, _stage| {},
        );
        assert_eq!(report.reason, StopReason::Satisficed);
        // Each root iteration runs 3 expandable stages => 3 nested reports.
        assert_eq!(report.nested.len(), report.iterations * 3);
        for n in &report.nested {
            assert_eq!(n.reason, StopReason::BudgetExhausted);
            assert_eq!(n.iterations, 2);
        }
    }
}
