//! What is good design? (challenge C2, Figure 3, Figure 4).
//!
//! Three instruments:
//!
//! - Altshuller's five *levels of creativity* and four *performance
//!   levels* (§5.1/C2), as ordered enums with classification helpers.
//! - The review-criteria triple (merit / quality / topic, integer scores
//!   1–4) behind Figure 3.
//! - A [`DesignDocument`] rubric encoding the specific defects the paper
//!   reads off the student design of Figure 4 (missing interconnections,
//!   no layering, no component descriptions, …).

/// Altshuller's five levels of creativity, ordered by long-term impact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CreativityLevel {
    /// (1) Using an existing design, minimally adapted.
    Trivial,
    /// (2) Selecting one of several designs and adapting it after careful
    /// reasoning.
    Normal,
    /// (3) Significant adaptation of an existing design.
    Novel,
    /// (4) A new design or important feature (e.g. big data, serverless).
    Fundamental,
    /// (5) A completely new ecosystem with major scientific advance
    /// (e.g. the Internet, the cloud).
    Outstanding,
}

impl CreativityLevel {
    /// All levels, lowest impact first.
    pub fn all() -> [CreativityLevel; 5] {
        [
            CreativityLevel::Trivial,
            CreativityLevel::Normal,
            CreativityLevel::Novel,
            CreativityLevel::Fundamental,
            CreativityLevel::Outstanding,
        ]
    }

    /// Altshuller's 1-based level number.
    pub fn level(&self) -> u8 {
        *self as u8 + 1
    }

    /// Classifies a design from how much of it is new (`new_fraction` in
    /// `[0,1]`) and whether it founded a new ecosystem.
    pub fn classify(new_fraction: f64, founds_new_ecosystem: bool) -> Self {
        assert!((0.0..=1.0).contains(&new_fraction), "fraction in [0,1]");
        if founds_new_ecosystem {
            CreativityLevel::Outstanding
        } else if new_fraction >= 0.75 {
            CreativityLevel::Fundamental
        } else if new_fraction >= 0.4 {
            CreativityLevel::Novel
        } else if new_fraction >= 0.1 {
            CreativityLevel::Normal
        } else {
            CreativityLevel::Trivial
        }
    }
}

/// Altshuller's four performance baselines a design is judged against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PerformanceBaseline {
    /// Better than a random design.
    VsRandom,
    /// Better than a naïve design.
    VsNaive,
    /// Better than current practice.
    VsCurrentPractice,
    /// Close to the ideal or optimal alternative.
    VsOptimal,
}

impl PerformanceBaseline {
    /// All baselines, weakest first.
    pub fn all() -> [PerformanceBaseline; 4] {
        [
            PerformanceBaseline::VsRandom,
            PerformanceBaseline::VsNaive,
            PerformanceBaseline::VsCurrentPractice,
            PerformanceBaseline::VsOptimal,
        ]
    }

    /// Highest baseline a design clears given its quality and the
    /// qualities of the four reference designs.
    pub fn highest_cleared(
        design: f64,
        random: f64,
        naive: f64,
        practice: f64,
        optimal: f64,
    ) -> Option<Self> {
        let mut best = None;
        if design > random {
            best = Some(PerformanceBaseline::VsRandom);
        }
        if design > naive {
            best = Some(PerformanceBaseline::VsNaive);
        }
        if design > practice {
            best = Some(PerformanceBaseline::VsCurrentPractice);
        }
        if design >= 0.95 * optimal {
            best = Some(PerformanceBaseline::VsOptimal);
        }
        best
    }
}

/// A design document, scored by the rubric of Figure 4's critique.
///
/// The paper lists what the typical early student design lacks: a
/// believable solving description, interconnections (in the geo-distributed
/// datacenter and between stakeholders), layering, system packaging,
/// component descriptions, and a competent visual depiction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DesignDocument {
    /// A believable description of how the design solves (part of) the
    /// problem.
    pub believable_solving_description: bool,
    /// Interconnections within the geo-distributed infrastructure.
    pub infrastructure_interconnections: bool,
    /// Interconnections between stakeholders.
    pub stakeholder_interconnections: bool,
    /// Layering of the architecture.
    pub layering: bool,
    /// System packaging.
    pub system_packaging: bool,
    /// Descriptions of (sub)components.
    pub component_descriptions: bool,
    /// A legible visual depiction.
    pub legible_visuals: bool,
    /// Explicit treatment of non-functional requirements.
    pub addresses_nfrs: bool,
}

impl DesignDocument {
    /// Rubric score in `[0, 1]`: the fraction of criteria satisfied.
    pub fn score(&self) -> f64 {
        let checks = [
            self.believable_solving_description,
            self.infrastructure_interconnections,
            self.stakeholder_interconnections,
            self.layering,
            self.system_packaging,
            self.component_descriptions,
            self.legible_visuals,
            self.addresses_nfrs,
        ];
        checks.iter().filter(|&&c| c).count() as f64 / checks.len() as f64
    }

    /// The criteria a document fails, by name.
    pub fn missing(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if !self.believable_solving_description {
            out.push("believable solving description");
        }
        if !self.infrastructure_interconnections {
            out.push("infrastructure interconnections");
        }
        if !self.stakeholder_interconnections {
            out.push("stakeholder interconnections");
        }
        if !self.layering {
            out.push("layering");
        }
        if !self.system_packaging {
            out.push("system packaging");
        }
        if !self.component_descriptions {
            out.push("component descriptions");
        }
        if !self.legible_visuals {
            out.push("legible visuals");
        }
        if !self.addresses_nfrs {
            out.push("non-functional requirements");
        }
        out
    }

    /// The typical early student design of Figure 4: a high-level sketch
    /// with legible intent but none of the structural criteria.
    pub fn student_example() -> Self {
        DesignDocument::default()
    }

    /// A design produced after framework training: all criteria addressed.
    pub fn trained_example() -> Self {
        DesignDocument {
            believable_solving_description: true,
            infrastructure_interconnections: true,
            stakeholder_interconnections: true,
            layering: true,
            system_packaging: true,
            component_descriptions: true,
            legible_visuals: true,
            addresses_nfrs: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creativity_levels_are_ordered() {
        assert!(CreativityLevel::Trivial < CreativityLevel::Outstanding);
        assert_eq!(CreativityLevel::Fundamental.level(), 4);
        assert_eq!(CreativityLevel::all().len(), 5);
    }

    #[test]
    fn classification_by_new_fraction() {
        assert_eq!(
            CreativityLevel::classify(0.0, false),
            CreativityLevel::Trivial
        );
        assert_eq!(
            CreativityLevel::classify(0.2, false),
            CreativityLevel::Normal
        );
        assert_eq!(
            CreativityLevel::classify(0.5, false),
            CreativityLevel::Novel
        );
        assert_eq!(
            CreativityLevel::classify(0.9, false),
            CreativityLevel::Fundamental
        );
        assert_eq!(
            CreativityLevel::classify(0.1, true),
            CreativityLevel::Outstanding
        );
    }

    #[test]
    fn performance_baseline_ladder() {
        // Beats practice but not near-optimal.
        let b = PerformanceBaseline::highest_cleared(0.8, 0.3, 0.5, 0.7, 1.0);
        assert_eq!(b, Some(PerformanceBaseline::VsCurrentPractice));
        // Near-optimal.
        let b = PerformanceBaseline::highest_cleared(0.96, 0.3, 0.5, 0.7, 1.0);
        assert_eq!(b, Some(PerformanceBaseline::VsOptimal));
        // Worse than random.
        let b = PerformanceBaseline::highest_cleared(0.1, 0.3, 0.5, 0.7, 1.0);
        assert_eq!(b, None);
    }

    #[test]
    fn student_design_fails_rubric_trained_passes() {
        let student = DesignDocument::student_example();
        let trained = DesignDocument::trained_example();
        assert_eq!(student.score(), 0.0);
        assert_eq!(trained.score(), 1.0);
        assert_eq!(student.missing().len(), 8);
        assert!(trained.missing().is_empty());
        // The specific Figure-4 critique items are reported.
        assert!(student
            .missing()
            .contains(&"infrastructure interconnections"));
        assert!(student.missing().contains(&"layering"));
    }

    #[test]
    fn partial_document_scores_fractionally() {
        let doc = DesignDocument {
            layering: true,
            component_descriptions: true,
            ..DesignDocument::default()
        };
        assert_eq!(doc.score(), 0.25);
        assert_eq!(doc.missing().len(), 6);
    }
}
