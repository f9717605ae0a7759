//! Problem structure and the problem-finding process (§2.4, §3.4).
//!
//! Simon's criteria separate well-structured from ill-structured problems;
//! Rittel & Webber's wicked problems lack final formulation altogether. The
//! ATLARGE framework does not claim to find all problems; it proposes five
//! *problem archetypes* (P1–P5) and three *sources* (S1–S3), implemented
//! here as a generative catalog the experiments and examples draw from.

use std::fmt;

/// Simon's five characteristics of a well-structured problem (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StructureChecklist {
    /// (1) A criterion exists to automatically evaluate results.
    pub automatic_evaluation: bool,
    /// (2) Goal, states, and legal transitions are unambiguous.
    pub unambiguous_representation: bool,
    /// (3) All domain knowledge can be represented clearly.
    pub complete_domain_knowledge: bool,
    /// (4) Interaction with the natural world can be captured accurately.
    pub accurate_nature_interface: bool,
    /// (5) The problem is tractable.
    pub tractable: bool,
}

impl StructureChecklist {
    /// How many of the five characteristics hold.
    pub(crate) fn satisfied(&self) -> usize {
        [
            self.automatic_evaluation,
            self.unambiguous_representation,
            self.complete_domain_knowledge,
            self.accurate_nature_interface,
            self.tractable,
        ]
        .iter()
        .filter(|&&b| b)
        .count()
    }
}

/// Degree of problem structure (§2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Wickedness {
    /// All five Simon characteristics hold.
    WellStructured,
    /// At least one characteristic fails but stakeholders agree on what
    /// success means.
    IllStructured,
    /// No clear/final formulation; competing stakeholder interests; no
    /// universal success criterion.
    Wicked,
}

impl Wickedness {
    /// Classifies a problem from its checklist and stakeholder agreement.
    pub fn classify(checklist: &StructureChecklist, stakeholders_agree: bool) -> Self {
        if !stakeholders_agree {
            Wickedness::Wicked
        } else if checklist.satisfied() == 5 {
            Wickedness::WellStructured
        } else {
            Wickedness::IllStructured
        }
    }
}

impl fmt::Display for Wickedness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Wickedness::WellStructured => "well-structured",
            Wickedness::IllStructured => "ill-structured",
            Wickedness::Wicked => "wicked",
        })
    }
}

/// The five problem archetypes of §3.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProblemArchetype {
    /// P1: ecosystem life-cycle problems (new/emerging processes,
    /// services, ecosystems).
    EcosystemLifecycle,
    /// P2: new/emerging needs of clients and operators; phenomena; new
    /// technology.
    EmergingNeeds,
    /// P3: leveraging and maintaining legacy components.
    Legacy,
    /// P4: understanding how technology works in practice (ecosystem
    /// morphology, natural-science style).
    Morphology,
    /// P5: previously unexplored parts of the design space
    /// (mathematics-style curiosity).
    UnexploredSpace,
}

impl ProblemArchetype {
    /// All archetypes P1–P5.
    pub fn all() -> [ProblemArchetype; 5] {
        [
            ProblemArchetype::EcosystemLifecycle,
            ProblemArchetype::EmergingNeeds,
            ProblemArchetype::Legacy,
            ProblemArchetype::Morphology,
            ProblemArchetype::UnexploredSpace,
        ]
    }

    /// The paper's index (P1..P5).
    pub fn index(&self) -> u8 {
        match self {
            ProblemArchetype::EcosystemLifecycle => 1,
            ProblemArchetype::EmergingNeeds => 2,
            ProblemArchetype::Legacy => 3,
            ProblemArchetype::Morphology => 4,
            ProblemArchetype::UnexploredSpace => 5,
        }
    }

    /// The sources §3.4 recommends for this archetype.
    // #[allow_atlarge(dead-public-surface, reason = "§3.4's information sources per problem archetype (S1–S3); paper content its tests check")]
    pub fn sources(&self) -> Vec<ProblemSource> {
        match self {
            ProblemArchetype::EcosystemLifecycle
            | ProblemArchetype::EmergingNeeds
            | ProblemArchetype::Legacy => vec![
                ProblemSource::PeerReviewedStudies,
                ProblemSource::ExpertDiscussion,
                ProblemSource::ThoughtAndLabExperiments,
            ],
            ProblemArchetype::Morphology => vec![ProblemSource::EmpiricalScience],
            ProblemArchetype::UnexploredSpace => vec![ProblemSource::MorphologicalAnalysis],
        }
    }
}

/// Where problems come from (§3.4: S1–S3, plus the P4/P5 processes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProblemSource {
    /// S1: qualitative/quantitative studies on ecosystems.
    PeerReviewedStudies,
    /// S2: experts, technical reports, best-practice books.
    ExpertDiscussion,
    /// S3: own thought and lab experiments on trends and limitations.
    ThoughtAndLabExperiments,
    /// P4 process: data-driven empirical science over workloads and
    /// operations.
    EmpiricalScience,
    /// P5 process: morphological analysis to spot unoccupied niches.
    MorphologicalAnalysis,
}

/// A design problem: statement, archetype, structure, and the satisficing
/// threshold its solutions must reach.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// One-line problem statement.
    pub statement: String,
    /// Which archetype the problem instantiates.
    pub archetype: ProblemArchetype,
    /// Structure classification.
    pub wickedness: Wickedness,
    /// Quality a design must reach to satisfice, in `[0, 1]`.
    pub satisficing_threshold: f64,
}

impl Problem {
    /// Creates a problem.
    ///
    /// # Panics
    ///
    /// Panics unless the threshold lies in `[0, 1]`.
    pub fn new(
        statement: &str,
        archetype: ProblemArchetype,
        wickedness: Wickedness,
        satisficing_threshold: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&satisficing_threshold),
            "threshold in [0,1]"
        );
        Problem {
            statement: statement.to_string(),
            archetype,
            wickedness,
            satisficing_threshold,
        }
    }
}

/// The problem catalog: one seeded problem per archetype, drawn from the
/// paper's own case studies. Used by examples and the Fig-8 experiment.
pub fn catalog() -> Vec<Problem> {
    vec![
        Problem::new(
            "orchestrate fragmented cloud workloads across providers",
            ProblemArchetype::EcosystemLifecycle,
            Wickedness::Wicked,
            0.7,
        ),
        Problem::new(
            "meet elasticity NFRs for workflow-based cloud workloads",
            ProblemArchetype::EmergingNeeds,
            Wickedness::IllStructured,
            0.7,
        ),
        Problem::new(
            "keep non-cloud-native legacy services operating efficiently",
            ProblemArchetype::Legacy,
            Wickedness::IllStructured,
            0.65,
        ),
        Problem::new(
            "characterize the global BitTorrent ecosystem's operation",
            ProblemArchetype::Morphology,
            Wickedness::WellStructured,
            0.75,
        ),
        Problem::new(
            "explore scheduling-portfolio designs nobody has tried",
            ProblemArchetype::UnexploredSpace,
            Wickedness::IllStructured,
            0.7,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fully well-structured checklist.
    fn all_true() -> StructureChecklist {
        StructureChecklist {
            automatic_evaluation: true,
            unambiguous_representation: true,
            complete_domain_knowledge: true,
            accurate_nature_interface: true,
            tractable: true,
        }
    }

    #[test]
    fn classification_matches_simon() {
        let all = all_true();
        assert_eq!(Wickedness::classify(&all, true), Wickedness::WellStructured);
        let mut partial = all;
        partial.tractable = false;
        assert_eq!(
            Wickedness::classify(&partial, true),
            Wickedness::IllStructured
        );
        assert_eq!(Wickedness::classify(&all, false), Wickedness::Wicked);
    }

    #[test]
    fn checklist_counts() {
        assert_eq!(all_true().satisfied(), 5);
        assert_eq!(StructureChecklist::default().satisfied(), 0);
    }

    #[test]
    fn archetypes_indexed_p1_to_p5() {
        let idx: Vec<u8> = ProblemArchetype::all().iter().map(|a| a.index()).collect();
        assert_eq!(idx, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn p1_to_p3_use_s1_to_s3() {
        for a in [
            ProblemArchetype::EcosystemLifecycle,
            ProblemArchetype::EmergingNeeds,
            ProblemArchetype::Legacy,
        ] {
            assert_eq!(a.sources().len(), 3);
        }
        assert_eq!(
            ProblemArchetype::Morphology.sources(),
            vec![ProblemSource::EmpiricalScience]
        );
        assert_eq!(
            ProblemArchetype::UnexploredSpace.sources(),
            vec![ProblemSource::MorphologicalAnalysis]
        );
    }

    #[test]
    fn catalog_covers_every_archetype() {
        let cat = catalog();
        for a in ProblemArchetype::all() {
            assert!(
                cat.iter().any(|p| p.archetype == a),
                "archetype {a:?} missing from catalog"
            );
        }
    }

    #[test]
    fn wickedness_orders_by_difficulty() {
        assert!(Wickedness::WellStructured < Wickedness::IllStructured);
        assert!(Wickedness::IllStructured < Wickedness::Wicked);
        assert_eq!(Wickedness::Wicked.to_string(), "wicked");
    }
}
