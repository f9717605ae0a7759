//! The evolving reference architecture of Figure 9.
//!
//! Figure 9 (top) shows the 2011–2016 big-data reference architecture:
//! four conceptual layers (High-Level Language, Programming Model,
//! Execution Engine, Storage Engine). Figure 9 (bottom) shows the revised
//! 2016-onward architecture for the entire datacenter ecosystem: five core
//! layers plus an orthogonal DevOps layer, with sub-layers in the Front-end
//! and Back-end capturing the "intense specialization" the paper observed.

use std::fmt;

/// Layers of the original (2011–2016) big-data reference architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BigDataLayer {
    /// SQL-ish and scripting front languages (Pig, Hive).
    HighLevelLanguage,
    /// The programming abstraction (MapReduce).
    ProgrammingModel,
    /// Job execution and runtime management (Hadoop).
    ExecutionEngine,
    /// Data persistence (HDFS).
    StorageEngine,
}

impl BigDataLayer {
    /// All four layers, top to bottom.
    pub fn all() -> [BigDataLayer; 4] {
        [
            BigDataLayer::HighLevelLanguage,
            BigDataLayer::ProgrammingModel,
            BigDataLayer::ExecutionEngine,
            BigDataLayer::StorageEngine,
        ]
    }
}

impl fmt::Display for BigDataLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BigDataLayer::HighLevelLanguage => "High-Level Language",
            BigDataLayer::ProgrammingModel => "Programming Model",
            BigDataLayer::ExecutionEngine => "Execution Engine",
            BigDataLayer::StorageEngine => "Storage Engine",
        })
    }
}

/// Layers of the revised (2016-onward) full-datacenter architecture.
///
/// Numbers follow the paper: (5) Front-end, (4) Back-end, (3) Resources,
/// (2) Operations Service, (1) Infrastructure, (6) DevOps orthogonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DcLayer {
    /// (5) Application-level functionality.
    FrontEnd,
    /// (4) Task/resource/service management on behalf of the application.
    BackEnd,
    /// (3) Management on behalf of the cloud operator.
    Resources,
    /// (2) Distributed-OS-style basic services.
    OperationsService,
    /// (1) Physical and virtual resource management.
    Infrastructure,
    /// (6) Orthogonal: monitoring, logging, benchmarking.
    DevOps,
}

impl DcLayer {
    /// All six layers.
    pub fn all() -> [DcLayer; 6] {
        [
            DcLayer::FrontEnd,
            DcLayer::BackEnd,
            DcLayer::Resources,
            DcLayer::OperationsService,
            DcLayer::Infrastructure,
            DcLayer::DevOps,
        ]
    }

    /// The paper's layer number.
    pub fn number(&self) -> u8 {
        match self {
            DcLayer::FrontEnd => 5,
            DcLayer::BackEnd => 4,
            DcLayer::Resources => 3,
            DcLayer::OperationsService => 2,
            DcLayer::Infrastructure => 1,
            DcLayer::DevOps => 6,
        }
    }

    /// Whether the layer is orthogonal to the service stack.
    // #[allow_atlarge(dead-public-surface, reason = "Figure 9 reference-architecture content; its tests check the paper's claims about both architectures")]
    pub fn orthogonal(&self) -> bool {
        matches!(self, DcLayer::DevOps)
    }
}

impl fmt::Display for DcLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DcLayer::FrontEnd => "Front-end",
            DcLayer::BackEnd => "Back-end",
            DcLayer::Resources => "Resources",
            DcLayer::OperationsService => "Operations Service",
            DcLayer::Infrastructure => "Infrastructure",
            DcLayer::DevOps => "DevOps",
        })
    }
}

/// A concrete ecosystem component mapped into an architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Component name (e.g. "Hadoop").
    pub name: &'static str,
    /// Layer names this component occupies (a component may span layers,
    /// the figure's ★).
    pub layers: Vec<&'static str>,
    /// Whether it belongs to the minimal MapReduce execution set the
    /// figure highlights.
    pub mapreduce_core: bool,
}

/// A reference architecture: named layers plus mapped components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceArchitecture {
    /// Architecture name.
    pub name: &'static str,
    /// Layer names, top to bottom (orthogonal layers last).
    pub layers: Vec<String>,
    /// Mapped components.
    pub components: Vec<Component>,
}

impl ReferenceArchitecture {
    /// Finds a component by name.
    pub fn find(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Whether every component's layers exist in this architecture.
    // #[allow_atlarge(dead-public-surface, reason = "Figure 9 reference-architecture content; its tests check the paper's claims about both architectures")]
    pub fn is_well_mapped(&self) -> bool {
        self.components
            .iter()
            .all(|c| c.layers.iter().all(|l| self.layers.iter().any(|x| x == l)))
    }

    /// The components of the minimal MapReduce execution set.
    // #[allow_atlarge(dead-public-surface, reason = "Figure 9 reference-architecture content; its tests check the paper's claims about both architectures")]
    pub fn mapreduce_core(&self) -> Vec<&Component> {
        self.components
            .iter()
            .filter(|c| c.mapreduce_core)
            .collect()
    }

    /// Can this architecture place a component needing the given layer
    /// kinds? Returns the unplaceable layer names.
    // #[allow_atlarge(dead-public-surface, reason = "Figure 9 reference-architecture content; its tests check the paper's claims about both architectures")]
    pub fn unplaceable(&self, required_layers: &[&str]) -> Vec<String> {
        required_layers
            .iter()
            .filter(|l| !self.layers.iter().any(|x| x == *l))
            .map(|l| l.to_string())
            .collect()
    }
}

/// The 2011–2016 big-data reference architecture (Figure 9 top) with the
/// MapReduce ecosystem mapped in.
pub fn big_data_refarch() -> ReferenceArchitecture {
    let layers: Vec<String> = BigDataLayer::all().iter().map(|l| l.to_string()).collect();
    ReferenceArchitecture {
        name: "big-data (2011-2016)",
        layers,
        components: vec![
            Component {
                name: "Pig",
                layers: vec!["High-Level Language"],
                mapreduce_core: false,
            },
            Component {
                name: "Hive",
                layers: vec!["High-Level Language"],
                mapreduce_core: false,
            },
            Component {
                name: "MapReduce",
                layers: vec!["Programming Model"],
                mapreduce_core: true,
            },
            Component {
                name: "Hadoop",
                layers: vec!["Execution Engine"],
                mapreduce_core: true,
            },
            Component {
                name: "HDFS",
                layers: vec!["Storage Engine"],
                mapreduce_core: true,
            },
        ],
    }
}

/// The 2016-onward full-datacenter reference architecture (Figure 9
/// bottom), with the MapReduce sample mapping plus the components the old
/// architecture could not capture.
pub fn full_datacenter_refarch() -> ReferenceArchitecture {
    let layers: Vec<String> = DcLayer::all().iter().map(|l| l.to_string()).collect();
    ReferenceArchitecture {
        name: "datacenter (2016-)",
        layers,
        components: vec![
            // The MapReduce sample mapping of Figure 9 (bottom).
            Component {
                name: "Pig",
                layers: vec!["Front-end"],
                mapreduce_core: false,
            },
            Component {
                name: "Hive",
                layers: vec!["Front-end"],
                mapreduce_core: false,
            },
            Component {
                name: "MapReduce",
                layers: vec!["Front-end"],
                mapreduce_core: true,
            },
            Component {
                name: "Hadoop",
                layers: vec!["Back-end"],
                mapreduce_core: true,
            },
            Component {
                name: "HDFS",
                layers: vec!["Back-end"],
                mapreduce_core: true,
            },
            Component {
                name: "YARN",
                layers: vec!["Resources"],
                mapreduce_core: false,
            },
            Component {
                name: "Mesos",
                layers: vec!["Resources"],
                mapreduce_core: false,
            },
            Component {
                name: "ZooKeeper",
                layers: vec!["Operations Service"],
                mapreduce_core: false,
            },
            Component {
                name: "KVM",
                layers: vec!["Infrastructure"],
                mapreduce_core: false,
            },
            // What the old architecture could not place (§6.3's critique).
            Component {
                name: "MemEFS",
                layers: vec!["Back-end", "Operations Service"],
                mapreduce_core: false,
            },
            Component {
                name: "Pocket",
                layers: vec!["Back-end", "Operations Service"],
                mapreduce_core: false,
            },
            Component {
                name: "Crail",
                layers: vec!["Operations Service"],
                mapreduce_core: false,
            },
            Component {
                name: "FlashNet",
                layers: vec!["Operations Service", "Infrastructure"],
                mapreduce_core: false,
            },
            Component {
                name: "Graphalytics",
                layers: vec!["DevOps"],
                mapreduce_core: false,
            },
            Component {
                name: "Granula",
                layers: vec!["DevOps"],
                mapreduce_core: false,
            },
        ],
    }
}

/// An industry ecosystem to validate coverage against, as the paper did
/// ("we have mapped to the new reference architecture a large number of
/// well-known industry ecosystems").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndustryStack {
    /// Ecosystem owner.
    pub name: &'static str,
    /// Layer kinds its components require.
    pub required_layers: Vec<&'static str>,
}

/// Sample industry stacks with the layer kinds their components need.
// #[allow_atlarge(dead-public-surface, reason = "Figure 9 reference-architecture content; its tests check the paper's claims about both architectures")]
pub fn industry_stacks() -> Vec<IndustryStack> {
    vec![
        IndustryStack {
            name: "Google-like",
            required_layers: vec![
                "Front-end",
                "Back-end",
                "Resources",
                "Operations Service",
                "Infrastructure",
                "DevOps",
            ],
        },
        IndustryStack {
            name: "Netflix-like",
            required_layers: vec!["Front-end", "Back-end", "Resources", "DevOps"],
        },
        IndustryStack {
            name: "Uber-like",
            required_layers: vec!["Front-end", "Back-end", "Operations Service", "DevOps"],
        },
        IndustryStack {
            name: "Apache-big-data",
            required_layers: vec!["Front-end", "Back-end", "Resources", "Operations Service"],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_architectures_are_well_mapped() {
        assert!(big_data_refarch().is_well_mapped());
        assert!(full_datacenter_refarch().is_well_mapped());
    }

    #[test]
    fn mapreduce_core_maps_to_both() {
        // Figure 9's point: "the core ecosystem maps well to both our
        // reference architectures".
        let old_core: Vec<&str> = big_data_refarch()
            .mapreduce_core()
            .iter()
            .map(|c| c.name)
            .collect();
        let new_core: Vec<&str> = full_datacenter_refarch()
            .mapreduce_core()
            .iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(old_core, vec!["MapReduce", "Hadoop", "HDFS"]);
        assert_eq!(new_core, vec!["MapReduce", "Hadoop", "HDFS"]);
    }

    #[test]
    fn old_architecture_misses_new_components() {
        // §6.3: the old architecture "does not capture in-memory file
        // systems such as MemEFS and Pocket, high-performance ... engines
        // such as Crail and FlashNet, DevOps tools such as Graphalytics and
        // Granula".
        let old = big_data_refarch();
        for missing in [
            "MemEFS",
            "Pocket",
            "Crail",
            "FlashNet",
            "Graphalytics",
            "Granula",
        ] {
            assert!(old.find(missing).is_none(), "{missing} should be absent");
        }
        let new = full_datacenter_refarch();
        for present in [
            "MemEFS",
            "Pocket",
            "Crail",
            "FlashNet",
            "Graphalytics",
            "Granula",
        ] {
            assert!(new.find(present).is_some(), "{present} should be present");
        }
    }

    #[test]
    fn old_architecture_cannot_place_devops() {
        let old = big_data_refarch();
        assert_eq!(old.unplaceable(&["DevOps"]), vec!["DevOps".to_string()]);
        let new = full_datacenter_refarch();
        assert!(new.unplaceable(&["DevOps"]).is_empty());
    }

    #[test]
    fn layer_numbers_match_paper() {
        assert_eq!(DcLayer::FrontEnd.number(), 5);
        assert_eq!(DcLayer::Infrastructure.number(), 1);
        assert_eq!(DcLayer::DevOps.number(), 6);
        assert!(DcLayer::DevOps.orthogonal());
        assert!(!DcLayer::BackEnd.orthogonal());
    }

    #[test]
    fn new_architecture_encompasses_industry_stacks() {
        // "Our experience suggests the reference architecture does
        // encompass these industry ecosystems."
        let new = full_datacenter_refarch();
        for stack in industry_stacks() {
            assert!(
                new.unplaceable(&stack.required_layers).is_empty(),
                "{} not covered",
                stack.name
            );
        }
    }

    #[test]
    fn old_architecture_fails_some_industry_stacks() {
        let old = big_data_refarch();
        let failures = industry_stacks()
            .iter()
            .filter(|s| !old.unplaceable(&s.required_layers).is_empty())
            .count();
        assert_eq!(failures, industry_stacks().len());
    }

    #[test]
    fn spanning_components_span() {
        let new = full_datacenter_refarch();
        let memefs = new.find("MemEFS").unwrap();
        assert!(memefs.layers.len() > 1, "MemEFS spans layer boundaries");
    }
}
