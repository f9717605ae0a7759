//! Dorst's reasoning model (Figure 5), executably.
//!
//! The reasoning universe consists of *concepts* ("What?"), *relationships*
//! ("How?"), and *outcomes*. A [`KnowledgeBase`] stores known triples
//! `(what, how) → outcome`. Each reasoning mode of Figure 5 is then a query
//! shape over the base:
//!
//! | Mode | Given | Sought |
//! |---|---|---|
//! | Deduction | what + how | outcome |
//! | Induction | what + outcome | how |
//! | Abduction (problem solving) | how + outcome | what |
//! | Abduction (design) | outcome | what + how |
//! | Unreasoning | nothing need hold | anything |
//!
//! Design abduction — the paper's central observation — is the
//! under-constrained mode: many `(what, how)` pairs may produce the same
//! outcome, so [`KnowledgeBase::design_abduction`] returns *all* candidate
//! pairs and the framework's exploration processes (Figure 6) exist to
//! search that set when it is too large to enumerate.

use std::collections::BTreeSet;

/// A concept: the "What?" of Dorst's model (objects, people, technology).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Concept(pub String);

/// A relationship: the "How?" (laws, principles, patterns).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Relationship(pub String);

/// An outcome: an observable phenomenon or working system.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Outcome(pub String);

/// The reasoning modes of Figure 5 (with the paper's added unreasoning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReasoningMode {
    /// Popperian science: what + how → predict outcome.
    Deduction,
    /// The scientific method: what + outcome → infer how.
    Induction,
    /// Normal abduction, as in everyday engineering: how + outcome → what.
    AbductionProblemSolving,
    /// Design abduction: outcome → (what, how). The designerly mode.
    AbductionDesign,
    /// "Facts don't matter": anything goes. Included as the degenerate
    /// extreme the paper warns about.
    Unreasoning,
}

impl ReasoningMode {
    /// All modes in the order of Figure 5's rows.
    pub fn all() -> [ReasoningMode; 5] {
        [
            ReasoningMode::Deduction,
            ReasoningMode::Induction,
            ReasoningMode::AbductionProblemSolving,
            ReasoningMode::AbductionDesign,
            ReasoningMode::Unreasoning,
        ]
    }

    /// How many of the three slots (what, how, outcome) are unknown in
    /// this mode — design abduction's two unknowns are what makes it the
    /// hardest constrained mode.
    pub fn unknowns(&self) -> usize {
        match self {
            ReasoningMode::Deduction
            | ReasoningMode::Induction
            | ReasoningMode::AbductionProblemSolving => 1,
            ReasoningMode::AbductionDesign => 2,
            ReasoningMode::Unreasoning => 3,
        }
    }
}

/// A known triple: applying `how` to `what` yields `outcome`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Triple {
    /// The concept.
    pub what: Concept,
    /// The relationship.
    pub how: Relationship,
    /// The produced outcome.
    pub outcome: Outcome,
}

/// A knowledge base of `(what, how) → outcome` triples.
///
/// # Examples
///
/// ```
/// use atlarge_core::reasoning::*;
///
/// let mut kb = KnowledgeBase::new();
/// kb.insert("turing-machine", "deterministic-algorithm", "computed-result");
/// let out = kb.deduce(
///     &Concept("turing-machine".into()),
///     &Relationship("deterministic-algorithm".into()),
/// );
/// assert_eq!(out, vec![Outcome("computed-result".into())]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KnowledgeBase {
    triples: BTreeSet<Triple>,
}

impl KnowledgeBase {
    /// Creates an empty base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a triple from string shorthand.
    pub fn insert(&mut self, what: &str, how: &str, outcome: &str) {
        self.triples.insert(Triple {
            what: Concept(what.into()),
            how: Relationship(how.into()),
            outcome: Outcome(outcome.into()),
        });
    }

    /// Number of known triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Whether the base is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Deduction: all outcomes known to follow from `(what, how)`.
    pub fn deduce(&self, what: &Concept, how: &Relationship) -> Vec<Outcome> {
        self.triples
            .iter()
            .filter(|t| &t.what == what && &t.how == how)
            .map(|t| t.outcome.clone())
            .collect()
    }

    /// Induction: all relationships that connect `what` to `outcome`.
    // #[allow_atlarge(dead-public-surface, reason = "a Figure 5 reasoning mode; paper content its tests exercise")]
    pub fn induce(&self, what: &Concept, outcome: &Outcome) -> Vec<Relationship> {
        self.triples
            .iter()
            .filter(|t| &t.what == what && &t.outcome == outcome)
            .map(|t| t.how.clone())
            .collect()
    }

    /// Problem-solving abduction: all concepts that, under `how`, yield
    /// `outcome`.
    // #[allow_atlarge(dead-public-surface, reason = "a Figure 5 reasoning mode; paper content its tests exercise")]
    pub fn abduce_what(&self, how: &Relationship, outcome: &Outcome) -> Vec<Concept> {
        self.triples
            .iter()
            .filter(|t| &t.how == how && &t.outcome == outcome)
            .map(|t| t.what.clone())
            .collect()
    }

    /// Design abduction: *all* `(what, how)` pairs that yield `outcome`.
    ///
    /// This is the designerly query: typically many candidates exist, and
    /// for a desired outcome not yet in the base the answer is empty — the
    /// designer must *extend the base* (create), which is exactly why the
    /// paper argues design is not reducible to normal engineering.
    pub fn design_abduction(&self, outcome: &Outcome) -> Vec<(Concept, Relationship)> {
        self.triples
            .iter()
            .filter(|t| &t.outcome == outcome)
            .map(|t| (t.what.clone(), t.how.clone()))
            .collect()
    }

    /// Unreasoning: returns an arbitrary triple regardless of the query —
    /// any concept, relationship, and outcome "put together". Present to
    /// make Figure 5's degenerate row testable; no framework process uses
    /// it.
    // #[allow_atlarge(dead-public-surface, reason = "a Figure 5 reasoning mode; paper content its tests exercise")]
    pub fn unreason(&self) -> Option<&Triple> {
        self.triples.iter().next()
    }

    /// Consistency check used in tests: deduction of any stored triple's
    /// inputs must include its outcome.
    // #[allow_atlarge(dead-public-surface, reason = "a Figure 5 reasoning mode; paper content its tests exercise")]
    pub fn is_consistent(&self) -> bool {
        self.triples
            .iter()
            .all(|t| self.deduce(&t.what, &t.how).contains(&t.outcome))
    }
}

/// A small distributed-systems seed base used by examples and tests:
/// classic mechanisms and the outcomes they produce.
pub fn seed_distributed_systems_base() -> KnowledgeBase {
    let mut kb = KnowledgeBase::new();
    kb.insert("cache", "lookup-before-compute", "low-latency-reads");
    kb.insert("replica-set", "quorum-consensus", "fault-tolerant-writes");
    kb.insert("replica-set", "async-replication", "eventual-consistency");
    kb.insert("load-balancer", "round-robin", "even-load");
    kb.insert("load-balancer", "least-connections", "even-load");
    kb.insert("autoscaler", "feedback-control", "elastic-capacity");
    kb.insert("scheduler", "backfilling", "high-utilization");
    kb.insert("p2p-swarm", "tit-for-tat", "incentivized-sharing");
    kb.insert("cdn", "geo-replication", "low-latency-reads");
    kb
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> KnowledgeBase {
        seed_distributed_systems_base()
    }

    #[test]
    fn deduction_finds_unique_outcome() {
        let out = kb().deduce(
            &Concept("scheduler".into()),
            &Relationship("backfilling".into()),
        );
        assert_eq!(out, vec![Outcome("high-utilization".into())]);
    }

    #[test]
    fn induction_finds_relationship() {
        let how = kb().induce(
            &Concept("replica-set".into()),
            &Outcome("eventual-consistency".into()),
        );
        assert_eq!(how, vec![Relationship("async-replication".into())]);
    }

    #[test]
    fn problem_solving_abduction_finds_concepts() {
        let what = kb().abduce_what(
            &Relationship("geo-replication".into()),
            &Outcome("low-latency-reads".into()),
        );
        assert_eq!(what, vec![Concept("cdn".into())]);
    }

    #[test]
    fn design_abduction_is_underdetermined() {
        // Two distinct designs produce low-latency reads: this multiplicity
        // is the point of Figure 5's design-abduction row.
        let pairs = kb().design_abduction(&Outcome("low-latency-reads".into()));
        assert_eq!(pairs.len(), 2);
        // "even-load" also has two mechanisms through one concept.
        let pairs = kb().design_abduction(&Outcome("even-load".into()));
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn novel_outcome_has_no_design_yet() {
        let pairs = kb().design_abduction(&Outcome("quantum-speedup".into()));
        assert!(pairs.is_empty(), "the base cannot design what it lacks");
    }

    #[test]
    fn unknown_counts_match_figure5() {
        assert_eq!(ReasoningMode::Deduction.unknowns(), 1);
        assert_eq!(ReasoningMode::AbductionDesign.unknowns(), 2);
        assert_eq!(ReasoningMode::Unreasoning.unknowns(), 3);
        assert_eq!(ReasoningMode::all().len(), 5);
    }

    #[test]
    fn base_is_consistent() {
        assert!(kb().is_consistent());
        assert!(!kb().is_empty());
        assert_eq!(kb().len(), 9);
    }

    #[test]
    fn unreason_returns_something_arbitrary() {
        assert!(kb().unreason().is_some());
        assert!(KnowledgeBase::new().unreason().is_none());
    }
}
