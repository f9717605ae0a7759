//! The Distributed Systems Memex (challenge C6).
//!
//! The paper posits "that archiving large amounts of operational traces
//! collected from the distributed systems that currently underpin our
//! society can be highly beneficial for MCS design", and extends the idea
//! to "the preservation of original designs and of their origins". The
//! Memex here is an archive of [`JobTrace`]s tagged with system kind,
//! collection period, and provenance, queryable along exactly the axes
//! the paper asks about ("What data? Which types of distributed
//! systems?"), with a heritage check that refuses entries whose origins
//! would be lost.

use crate::trace::JobTrace;

/// The system kinds the Memex catalogs (the paper's case-study domains).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SystemKind {
    /// Peer-to-peer file sharing.
    PeerToPeer,
    /// Online gaming.
    Gaming,
    /// Datacenter/cluster batch computing.
    Datacenter,
    /// Serverless / FaaS platforms.
    Serverless,
    /// Graph-processing platforms.
    GraphProcessing,
}

impl SystemKind {
    /// All kinds.
    pub fn all() -> [SystemKind; 5] {
        [
            SystemKind::PeerToPeer,
            SystemKind::Gaming,
            SystemKind::Datacenter,
            SystemKind::Serverless,
            SystemKind::GraphProcessing,
        ]
    }
}

/// One archived entry.
#[derive(Debug, Clone, PartialEq)]
pub struct MemexEntry {
    /// System kind the trace was collected from.
    pub kind: SystemKind,
    /// Collection year (provenance in time).
    pub collected_in: u32,
    /// The trace itself, with its FAIR metadata.
    pub trace: JobTrace,
}

/// Reasons an entry is refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemexError {
    /// The trace's FAIR metadata lacks a source — its origin would be
    /// lost, exactly the heritage loss C6 warns about.
    MissingProvenance,
    /// The trace lacks a license, making reuse impossible.
    MissingLicense,
    /// The trace lacks a name, making it unfindable.
    Unfindable,
}

impl std::fmt::Display for MemexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MemexError::MissingProvenance => "entry has no provenance (source)",
            MemexError::MissingLicense => "entry has no license",
            MemexError::Unfindable => "entry has no name",
        })
    }
}

impl std::error::Error for MemexError {}

/// The Memex: a heritage-preserving archive of operational traces.
///
/// # Examples
///
/// ```
/// use atlarge_workload::job::{Job, JobId, Task};
/// use atlarge_workload::memex::{Memex, SystemKind};
/// use atlarge_workload::trace::{JobTrace, TraceMeta};
///
/// let mut memex = Memex::new();
/// let trace = JobTrace::new(
///     TraceMeta {
///         name: "grid-2006".into(),
///         source: "cluster monitor".into(),
///         license: "CC-BY-4.0".into(),
///         description: "doc example".into(),
///     },
///     vec![Job::new(JobId(1), 0.0, vec![Task::new(5.0, 1)])],
/// );
/// memex.archive(SystemKind::Datacenter, 2006, trace).unwrap();
/// assert_eq!(memex.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Memex {
    entries: Vec<MemexEntry>,
}

impl Memex {
    /// Creates an empty Memex.
    pub fn new() -> Self {
        Self::default()
    }

    /// Archives a trace, enforcing the heritage checks.
    ///
    /// # Errors
    ///
    /// Returns a [`MemexError`] if the trace's metadata would lose its
    /// origins (no name, source, or license).
    pub fn archive(
        &mut self,
        kind: SystemKind,
        collected_in: u32,
        trace: JobTrace,
    ) -> Result<(), MemexError> {
        if trace.meta.name.trim().is_empty() {
            return Err(MemexError::Unfindable);
        }
        if trace.meta.source.trim().is_empty() {
            return Err(MemexError::MissingProvenance);
        }
        if trace.meta.license.trim().is_empty() {
            return Err(MemexError::MissingLicense);
        }
        self.entries.push(MemexEntry {
            kind,
            collected_in,
            trace,
        });
        Ok(())
    }

    /// Number of archived entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the Memex is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries of a system kind.
    pub(crate) fn by_kind(&self, kind: SystemKind) -> Vec<&MemexEntry> {
        self.entries.iter().filter(|e| e.kind == kind).collect()
    }

    /// Finds an entry by trace name.
    pub fn find(&self, name: &str) -> Option<&MemexEntry> {
        self.entries.iter().find(|e| e.trace.meta.name == name)
    }

    /// Coverage report: which system kinds have at least one trace —
    /// the "which types of distributed systems?" question.
    pub fn coverage(&self) -> Vec<(SystemKind, usize)> {
        SystemKind::all()
            .into_iter()
            .map(|k| (k, self.by_kind(k).len()))
            .collect()
    }

    /// Total jobs preserved across all traces.
    pub fn total_jobs(&self) -> usize {
        self.entries.iter().map(|e| e.trace.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobId, Task};
    use crate::trace::TraceMeta;

    fn trace(name: &str, source: &str, license: &str) -> JobTrace {
        JobTrace::new(
            TraceMeta {
                name: name.into(),
                source: source.into(),
                license: license.into(),
                description: "test".into(),
            },
            vec![Job::new(JobId(1), 0.0, vec![Task::new(1.0, 1)])],
        )
    }

    #[test]
    fn archives_and_queries_by_kind_and_period() {
        let mut m = Memex::new();
        m.archive(
            SystemKind::PeerToPeer,
            2005,
            trace("bt-2005", "multiprobe", "CC"),
        )
        .unwrap();
        m.archive(SystemKind::Gaming, 2008, trace("rs-2008", "crawler", "CC"))
            .unwrap();
        m.archive(
            SystemKind::PeerToPeer,
            2010,
            trace("bt-2010", "btworld", "CC"),
        )
        .unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.by_kind(SystemKind::PeerToPeer).len(), 2);
        assert!(m.find("rs-2008").is_some());
        assert_eq!(m.total_jobs(), 3);
    }

    #[test]
    fn heritage_checks_refuse_unsourced_entries() {
        let mut m = Memex::new();
        assert_eq!(
            m.archive(SystemKind::Gaming, 2012, trace("x", "", "CC")),
            Err(MemexError::MissingProvenance)
        );
        assert_eq!(
            m.archive(SystemKind::Gaming, 2012, trace("x", "src", "")),
            Err(MemexError::MissingLicense)
        );
        assert_eq!(
            m.archive(SystemKind::Gaming, 2012, trace("", "src", "CC")),
            Err(MemexError::Unfindable)
        );
        assert!(m.is_empty());
    }

    #[test]
    fn coverage_spans_all_kinds() {
        let mut m = Memex::new();
        for (i, k) in SystemKind::all().into_iter().enumerate() {
            m.archive(k, 2000 + i as u32, trace(&format!("t{i}"), "s", "CC"))
                .unwrap();
        }
        let cov = m.coverage();
        assert_eq!(cov.len(), 5);
        assert!(cov.iter().all(|&(_, n)| n == 1));
    }
}
