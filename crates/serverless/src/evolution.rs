//! "Serverless is More": the evolution argument (\[60\]).
//!
//! The paper's "main finding was clear: though serverless technologies
//! leverage and overlap many historical efforts, its emergence could not
//! have happened ten years ago." \[60\] captured that with a Blaauw &
//! Brooks-style historical evolutionary graph. The timeline here encodes
//! serverless computing's prerequisite technologies with their maturity
//! years and dependency edges, and the analysis derives the earliest
//! feasible emergence year.

/// A technology node on the evolution graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Technology {
    /// Name.
    pub name: &'static str,
    /// Year the technology became production-mature.
    pub matured: u32,
    /// Names of technologies it builds on.
    pub depends_on: Vec<&'static str>,
}

/// The serverless evolution timeline (a condensation of \[60\]'s graph).
pub(crate) fn timeline() -> Vec<Technology> {
    vec![
        Technology {
            name: "virtualization",
            matured: 2003,
            depends_on: vec![],
        },
        Technology {
            name: "utility-billing",
            matured: 2006,
            depends_on: vec!["virtualization"],
        },
        Technology {
            name: "iaas-clouds",
            matured: 2008,
            depends_on: vec!["virtualization", "utility-billing"],
        },
        Technology {
            name: "paas",
            matured: 2011,
            depends_on: vec!["iaas-clouds"],
        },
        Technology {
            name: "os-containers",
            matured: 2013,
            depends_on: vec!["virtualization"],
        },
        Technology {
            name: "container-orchestration",
            matured: 2015,
            depends_on: vec!["os-containers", "iaas-clouds"],
        },
        Technology {
            name: "microservices",
            matured: 2014,
            depends_on: vec!["os-containers", "paas"],
        },
        Technology {
            name: "event-driven-billing",
            matured: 2014,
            depends_on: vec!["utility-billing", "paas"],
        },
        Technology {
            name: "faas",
            matured: 2016,
            depends_on: vec![
                "container-orchestration",
                "microservices",
                "event-driven-billing",
            ],
        },
    ]
}

/// Earliest year `name` could have emerged: the maximum maturity year on
/// any dependency path (including its own).
///
/// Returns `None` for unknown technologies.
pub(crate) fn earliest_feasible(timeline: &[Technology], name: &str) -> Option<u32> {
    let tech = timeline.iter().find(|t| t.name == name)?;
    let dep_years: Vec<u32> = tech
        .depends_on
        .iter()
        .filter_map(|d| earliest_feasible(timeline, d))
        .collect();
    Some(dep_years.into_iter().fold(tech.matured, u32::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks the timeline's dependency references all resolve.
    fn is_well_formed(timeline: &[Technology]) -> bool {
        timeline.iter().all(|t| {
            t.depends_on
                .iter()
                .all(|d| timeline.iter().any(|x| x.name == *d))
        })
    }

    #[test]
    fn timeline_is_well_formed() {
        assert!(is_well_formed(&timeline()));
    }

    #[test]
    fn serverless_could_not_emerge_ten_years_earlier() {
        // [60]'s main finding: FaaS' earliest feasible year is well after
        // 2006 (ten years before the 2016 emergence the paper discusses).
        let tl = timeline();
        let year = earliest_feasible(&tl, "faas").unwrap();
        assert!(year >= 2015, "feasible year {year}");
        assert!(year - 10 > 2003, "the 2000s lacked the prerequisites");
    }

    #[test]
    fn dependencies_bound_feasibility() {
        // A technology can never be feasible before its dependencies.
        let tl = timeline();
        for t in &tl {
            let y = earliest_feasible(&tl, t.name).unwrap();
            for d in &t.depends_on {
                let dy = earliest_feasible(&tl, d).unwrap();
                assert!(y >= dy, "{} ({y}) before dep {d} ({dy})", t.name);
            }
        }
    }

    #[test]
    fn unknown_technology_is_none() {
        assert!(earliest_feasible(&timeline(), "quantum-faas").is_none());
    }
}
