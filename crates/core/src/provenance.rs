//! A formalism for documenting designs (challenge C8).
//!
//! C8 asks for "a formalism for documenting designs" that can "trace the
//! evolution of designs" — including the decisions behind closed doors
//! and their provenance — "without hamper\[ing\] the creative process".
//! This module provides a lightweight decision log: every design decision
//! records the iteration and BDC stage it was taken in, the chosen
//! option, the alternatives considered, a free-form rationale, and an
//! optional link to the decision it supersedes. The log serializes to a
//! line-oriented text formalism and derives the
//! Blaauw-&-Brooks-style evolution chains the paper's serverless history
//! \[60\] used.

use crate::process::BdcStage;

/// One recorded design decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Unique id within the log.
    pub id: u32,
    /// BDC iteration the decision was taken in.
    pub iteration: usize,
    /// BDC stage it belongs to.
    pub stage: BdcStage,
    /// The chosen option.
    pub chosen: String,
    /// The alternatives that were considered and rejected.
    pub alternatives: Vec<String>,
    /// Why — the intangible the paper says is usually lost.
    pub rationale: String,
    /// The earlier decision this one supersedes, if any (evolution edge).
    pub supersedes: Option<u32>,
}

/// A design's decision log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DesignLog {
    decisions: Vec<Decision>,
}

fn stage_tag(stage: BdcStage) -> &'static str {
    match stage {
        BdcStage::FormulateRequirements => "requirements",
        BdcStage::UnderstandAlternatives => "alternatives",
        BdcStage::BootstrapCreative => "bootstrap",
        BdcStage::Design => "design",
        BdcStage::Implementation => "implementation",
        BdcStage::ConceptualAnalysis => "conceptual",
        BdcStage::ExperimentalAnalysis => "experimental",
        BdcStage::Dissemination => "dissemination",
    }
}

impl DesignLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a decision; returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `supersedes` references an id not yet in the log (the
    /// evolution graph must stay acyclic and backward-pointing).
    pub fn record(
        &mut self,
        iteration: usize,
        stage: BdcStage,
        chosen: &str,
        alternatives: &[&str],
        rationale: &str,
        supersedes: Option<u32>,
    ) -> u32 {
        if let Some(prev) = supersedes {
            assert!(
                self.decisions.iter().any(|d| d.id == prev),
                "supersedes must reference an earlier decision"
            );
        }
        let id = self.decisions.len() as u32;
        self.decisions.push(Decision {
            id,
            iteration,
            stage,
            chosen: chosen.to_string(),
            alternatives: alternatives.iter().map(|s| s.to_string()).collect(),
            rationale: rationale.to_string(),
            supersedes,
        });
        id
    }

    /// All decisions, in recording order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// The *current* decisions: those not superseded by any later one.
    pub fn current(&self) -> Vec<&Decision> {
        let superseded: Vec<u32> = self.decisions.iter().filter_map(|d| d.supersedes).collect();
        self.decisions
            .iter()
            .filter(|d| !superseded.contains(&d.id))
            .collect()
    }

    /// The evolution chain ending at decision `id`: oldest ancestor
    /// first. Empty if the id is unknown.
    pub fn evolution_chain(&self, id: u32) -> Vec<&Decision> {
        let mut chain = Vec::new();
        let mut cur = self.decisions.iter().find(|d| d.id == id);
        while let Some(d) = cur {
            chain.push(d);
            cur = d
                .supersedes
                .and_then(|p| self.decisions.iter().find(|x| x.id == p));
        }
        chain.reverse();
        chain
    }

    /// Count of design-space alternatives explicitly considered across
    /// the log — C3's "the alternatives considered and eliminated ...
    /// are rarely discussed"; this formalism counts them.
    pub fn alternatives_considered(&self) -> usize {
        self.decisions.iter().map(|d| d.alternatives.len()).sum()
    }

    /// Serializes to the line formalism:
    ///
    /// ```text
    /// id|iteration|stage|chosen|alt1;alt2|rationale|supersedes
    /// ```
    ///
    /// Field separators inside free text are replaced by `,`.
    pub fn to_formalism(&self) -> String {
        let clean = |s: &str| s.replace(['|', ';'], ",");
        self.decisions
            .iter()
            .map(|d| {
                format!(
                    "{}|{}|{}|{}|{}|{}|{}\n",
                    d.id,
                    d.iteration,
                    stage_tag(d.stage),
                    clean(&d.chosen),
                    d.alternatives
                        .iter()
                        .map(|a| clean(a))
                        .collect::<Vec<_>>()
                        .join(";"),
                    clean(&d.rationale),
                    d.supersedes.map_or("-".to_string(), |p| p.to_string())
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DesignLog {
        let mut log = DesignLog::new();
        let a = log.record(
            0,
            BdcStage::Design,
            "zoning architecture",
            &["full replication", "client-side simulation"],
            "zoning matches the team's operational experience",
            None,
        );
        let b = log.record(
            2,
            BdcStage::ExperimentalAnalysis,
            "area of simulation",
            &["zoning architecture"],
            "zoning failed the RTS interaction benchmark",
            Some(a),
        );
        log.record(
            3,
            BdcStage::Dissemination,
            "publish AoS article",
            &[],
            "results satisfice the NFR budget",
            Some(b),
        );
        log
    }

    #[test]
    fn evolution_chain_orders_ancestors_first() {
        let log = sample();
        let chain = log.evolution_chain(2);
        let chosen: Vec<&str> = chain.iter().map(|d| d.chosen.as_str()).collect();
        assert_eq!(
            chosen,
            vec![
                "zoning architecture",
                "area of simulation",
                "publish AoS article"
            ]
        );
    }

    #[test]
    fn current_excludes_superseded() {
        let log = sample();
        let current: Vec<u32> = log.current().iter().map(|d| d.id).collect();
        assert_eq!(current, vec![2]);
    }

    #[test]
    fn alternatives_are_counted() {
        assert_eq!(sample().alternatives_considered(), 3);
    }

    #[test]
    #[should_panic(expected = "earlier decision")]
    fn forward_supersedes_rejected() {
        let mut log = DesignLog::new();
        log.record(0, BdcStage::Design, "x", &[], "r", Some(7));
    }

    #[test]
    fn free_text_separators_are_sanitized() {
        let mut log = DesignLog::new();
        log.record(0, BdcStage::Design, "a|b;c", &["d|e"], "why|not;this", None);
        let text = log.to_formalism();
        assert_eq!(text.matches('|').count(), 6, "{text}");
        assert!(text.contains("|a,b,c|d,e|why,not,this|"), "{text}");
    }
}
