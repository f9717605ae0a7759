//! Dissemination processes (§3.6): articles, software, data.
//!
//! Element (8) of the BDC expands into separate design processes for
//! publishing articles, free open-source software (FOSS), and FAIR / free
//! open-access data (FOAD). Each artifact kind here carries a checklist
//! derived from the practices §3.6 names.

use crate::process::{BasicDesignCycle, BdcStage, CycleReport, StoppingCriterion};

/// The three dissemination artifact kinds of §3.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A peer-reviewed article.
    Article,
    /// Free open-source software.
    Software,
    /// FAIR / free open-access data.
    Data,
}

impl ArtifactKind {
    /// All kinds.
    pub fn all() -> [ArtifactKind; 3] {
        [
            ArtifactKind::Article,
            ArtifactKind::Software,
            ArtifactKind::Data,
        ]
    }

    /// The best-practice checklist §3.6 associates with this kind.
    pub(crate) fn checklist(&self) -> Vec<&'static str> {
        match self {
            ArtifactKind::Article => vec![
                "collaborative editing set up",
                "structured reporting process followed",
                "claims backed by experiments",
                "reproducibility information included",
            ],
            ArtifactKind::Software => vec![
                "repository public",
                "continuous integration configured",
                "releases tagged",
                "documentation for users",
            ],
            ArtifactKind::Data => vec![
                "findable: persistent identifier and metadata",
                "accessible: open retrieval protocol",
                "interoperable: documented format",
                "reusable: license and provenance",
            ],
        }
    }
}

/// A dissemination artifact in preparation.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// What kind of artifact.
    pub kind: ArtifactKind,
    /// Title or name.
    pub title: String,
    /// Checklist items already completed.
    pub completed: Vec<String>,
}

impl Artifact {
    /// Creates an artifact with nothing completed yet.
    pub fn new(kind: ArtifactKind, title: &str) -> Self {
        Artifact {
            kind,
            title: title.to_string(),
            completed: Vec::new(),
        }
    }

    /// Marks a checklist item completed.
    pub fn complete(&mut self, item: &str) {
        if !self.completed.iter().any(|c| c == item) {
            self.completed.push(item.to_string());
        }
    }

    /// Fraction of the kind's checklist completed.
    pub fn readiness(&self) -> f64 {
        let list = self.kind.checklist();
        let done = list
            .iter()
            .filter(|item| self.completed.iter().any(|c| c == *item))
            .count();
        done as f64 / list.len() as f64
    }
}

/// Runs the §3.6 dissemination process for an artifact as a miniature BDC:
/// each iteration completes the next open checklist item; the cycle stops
/// when the artifact satisfices (readiness 1.0) or the budget runs out.
pub fn disseminate(artifact: &mut Artifact, budget: usize) -> CycleReport {
    let mut bdc = BasicDesignCycle::new(vec![
        StoppingCriterion::Satisfice { threshold: 1.0 },
        StoppingCriterion::Budget { iterations: budget },
    ]);
    bdc.on(BdcStage::Design, |a: &mut Artifact, ctx| {
        let list = a.kind.checklist();
        if let Some(next) = list
            .iter()
            .find(|item| !a.completed.iter().any(|c| c == *item))
        {
            a.complete(next);
        }
        ctx.report_design(a.readiness());
    });
    bdc.run(artifact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::StopReason;

    #[test]
    fn every_kind_has_a_checklist() {
        for kind in ArtifactKind::all() {
            assert_eq!(kind.checklist().len(), 4);
        }
    }

    #[test]
    fn readiness_tracks_checklist() {
        let mut a = Artifact::new(ArtifactKind::Software, "graphalytics");
        assert_eq!(a.readiness(), 0.0);
        a.complete("repository public");
        a.complete("repository public"); // idempotent
        assert_eq!(a.readiness(), 0.25);
        assert_eq!(a.completed.len(), 1);
    }

    #[test]
    fn dissemination_bdc_completes_artifact() {
        let mut a = Artifact::new(ArtifactKind::Data, "p2p trace archive");
        let report = disseminate(&mut a, 10);
        assert_eq!(report.reason, StopReason::Satisficed);
        assert_eq!(a.readiness(), 1.0);
        assert_eq!(report.iterations, 4);
    }

    #[test]
    fn dissemination_can_run_out_of_budget() {
        let mut a = Artifact::new(ArtifactKind::Article, "vision paper");
        let report = disseminate(&mut a, 2);
        assert_eq!(report.reason, StopReason::BudgetExhausted);
        assert!(a.readiness() < 1.0);
    }
}
