//! The named execution environments of Table 9.
//!
//! Table 9's environment column spans: CL (own cluster), G+CD (grid +
//! public cloud), GDC (geo-distributed datacenters), MCD (multi-cluster
//! datacenter), and CD (public cloud). Each environment here builds its
//! cluster set with capacity, cost, and inter-cluster latency parameters,
//! so the scheduling and autoscaling reproductions sweep the same axis the
//! paper's studies did.

use crate::cluster::Cluster;

/// The environments of Table 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Environment {
    /// CL: a single self-owned cluster (\[114\], \[116\], \[120\]).
    OwnCluster,
    /// G+CD: a grid plus public-cloud burst capacity (\[115\]).
    GridPlusCloud,
    /// GDC: geo-distributed datacenters (\[117\]).
    GeoDistributed,
    /// MCD: a multi-cluster datacenter (\[118\]).
    MultiCluster,
    /// CD: a public cloud (\[119\]).
    PublicCloud,
}

impl Environment {
    /// All environments in Table 9 order of first appearance.
    pub fn all() -> [Environment; 5] {
        [
            Environment::OwnCluster,
            Environment::GridPlusCloud,
            Environment::GeoDistributed,
            Environment::MultiCluster,
            Environment::PublicCloud,
        ]
    }

    /// Table 9's abbreviation.
    pub fn abbrev(&self) -> &'static str {
        match self {
            Environment::OwnCluster => "CL",
            Environment::GridPlusCloud => "G+CD",
            Environment::GeoDistributed => "GDC",
            Environment::MultiCluster => "MCD",
            Environment::PublicCloud => "CD",
        }
    }

    /// Builds the environment's clusters.
    pub fn build(&self) -> Vec<Cluster> {
        match self {
            Environment::OwnCluster => vec![Cluster::homogeneous("own", 16, 8)],
            Environment::GridPlusCloud => vec![
                Cluster::homogeneous("grid-a", 8, 8),
                Cluster::homogeneous("grid-b", 8, 4),
                Cluster::homogeneous("cloud", 12, 8),
            ],
            Environment::GeoDistributed => vec![
                Cluster::homogeneous("us-east", 10, 8),
                Cluster::homogeneous("eu-west", 10, 8),
                Cluster::homogeneous("ap-south", 6, 8),
            ],
            Environment::MultiCluster => vec![
                Cluster::homogeneous("rack-1", 8, 8),
                Cluster::homogeneous("rack-2", 8, 8),
                Cluster::homogeneous("rack-3", 8, 8),
                Cluster::homogeneous("rack-4", 8, 8),
            ],
            Environment::PublicCloud => vec![Cluster::homogeneous("cloud", 24, 8)],
        }
    }

    /// Whether capacity can be provisioned elastically (clouds can).
    pub fn elastic(&self) -> bool {
        matches!(self, Environment::GridPlusCloud | Environment::PublicCloud)
    }

    /// Total cores across the environment's clusters.
    pub fn total_cores(&self) -> u32 {
        self.build().iter().map(Cluster::total_cores).sum()
    }
}

impl std::fmt::Display for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abbrevs_match_table9() {
        let a: Vec<&str> = Environment::all().iter().map(|e| e.abbrev()).collect();
        assert_eq!(a, vec!["CL", "G+CD", "GDC", "MCD", "CD"]);
    }

    #[test]
    fn every_environment_builds_clusters() {
        for e in Environment::all() {
            let clusters = e.build();
            assert!(!clusters.is_empty(), "{e} builds no clusters");
            assert!(e.total_cores() > 0);
        }
    }

    #[test]
    fn only_clouds_are_elastic() {
        assert!(Environment::PublicCloud.elastic());
        assert!(Environment::GridPlusCloud.elastic());
        assert!(!Environment::OwnCluster.elastic());
        assert!(!Environment::GeoDistributed.elastic());
    }
}
