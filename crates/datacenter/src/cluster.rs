//! Clusters of hosts with core-granular allocation.

use atlarge_telemetry::metrics::Gauge;
use atlarge_telemetry::recorder::Recorder;

/// Identifier of a host within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostId(pub usize);

/// One physical or virtual host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Host {
    cores: u32,
    free: u32,
}

impl Host {
    /// Creates a host with the given core count.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: u32) -> Self {
        assert!(cores > 0, "hosts need at least one core");
        Host { cores, free: cores }
    }

    /// Total cores.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Currently free cores.
    pub fn free(&self) -> u32 {
        self.free
    }
}

/// A cluster: a set of hosts plus a utilization monitor.
///
/// Allocation is first-fit over hosts; a task's cores must fit on one host
/// (the usual rigid-task model in datacenter scheduling studies).
///
/// # Examples
///
/// ```
/// use atlarge_datacenter::cluster::Cluster;
///
/// let mut c = Cluster::homogeneous("cl0", 2, 4);
/// let h = c.try_allocate(3, 0.0).expect("fits on one host");
/// assert_eq!(c.free_cores(), 5);
/// c.release(h, 3, 10.0);
/// assert_eq!(c.free_cores(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    name: String,
    hosts: Vec<Host>,
    utilization: Gauge,
    recorder: Option<Recorder>,
}

// Telemetry attachment is observational and excluded from equality: two
// clusters are the same cluster whether or not someone is watching them.
impl PartialEq for Cluster {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.hosts == other.hosts
            && self.utilization == other.utilization
    }
}

impl Cluster {
    /// Creates a cluster of identical hosts.
    ///
    /// # Panics
    ///
    /// Panics if `hosts == 0` or `cores_per_host == 0`.
    pub fn homogeneous(name: &str, hosts: usize, cores_per_host: u32) -> Self {
        assert!(hosts > 0, "cluster needs hosts");
        Cluster {
            name: name.to_string(),
            hosts: (0..hosts).map(|_| Host::new(cores_per_host)).collect(),
            utilization: Gauge::new(0.0),
            recorder: None,
        }
    }

    /// Attaches a telemetry recorder: allocations, releases, and failed
    /// allocations count under `<name>.allocations` / `.releases` /
    /// `.alloc_failures`, and utilization mirrors into the
    /// `<name>.utilization` gauge.
    pub(crate) fn attach_recorder(&mut self, recorder: &Recorder) {
        self.recorder = Some(recorder.clone());
    }

    fn note_utilization(&self, now: f64) {
        if let Some(rec) = &self.recorder {
            let used = f64::from(self.used_cores());
            let util = used / f64::from(self.total_cores());
            rec.gauge_set(&format!("{}.utilization", self.name), now, util);
        }
    }

    fn count(&self, what: &str) {
        if let Some(rec) = &self.recorder {
            rec.incr(&format!("{}.{what}", self.name));
        }
    }

    /// Cluster name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total cores across hosts.
    pub fn total_cores(&self) -> u32 {
        self.hosts.iter().map(Host::cores).sum()
    }

    /// Free cores across hosts.
    pub fn free_cores(&self) -> u32 {
        self.hosts.iter().map(Host::free).sum()
    }

    /// Cores in use.
    pub(crate) fn used_cores(&self) -> u32 {
        self.total_cores() - self.free_cores()
    }

    /// First-fit allocation of `cores` on one host at simulated time
    /// `now`. Returns the chosen host, or `None` if no host fits.
    pub fn try_allocate(&mut self, cores: u32, now: f64) -> Option<HostId> {
        assert!(cores > 0, "allocations need at least one core");
        let Some(idx) = self.hosts.iter().position(|h| h.free >= cores) else {
            self.count("alloc_failures");
            return None;
        };
        self.hosts[idx].free -= cores;
        let used = self.used_cores() as f64;
        self.utilization.set(now, used / self.total_cores() as f64);
        self.count("allocations");
        self.note_utilization(now);
        Some(HostId(idx))
    }

    /// Releases `cores` on `host` at simulated time `now`.
    ///
    /// # Panics
    ///
    /// Panics if the release would exceed the host's capacity (a
    /// double-release bug in the caller).
    pub fn release(&mut self, host: HostId, cores: u32, now: f64) {
        let h = &mut self.hosts[host.0];
        assert!(
            h.free + cores <= h.cores,
            "release exceeds capacity on host {host:?}"
        );
        h.free += cores;
        let used = self.used_cores() as f64;
        self.utilization.set(now, used / self.total_cores() as f64);
        self.count("releases");
        self.note_utilization(now);
    }

    /// Time-weighted utilization monitor.
    pub fn utilization(&self) -> &Gauge {
        &self.utilization
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_allocates_and_releases() {
        let mut c = Cluster::homogeneous("c", 3, 4);
        let a = c.try_allocate(4, 0.0).unwrap();
        let b = c.try_allocate(2, 0.0).unwrap();
        assert_ne!(a, b);
        assert_eq!(c.free_cores(), 6);
        c.release(a, 4, 1.0);
        assert_eq!(c.free_cores(), 10);
    }

    #[test]
    fn rigid_tasks_need_one_host() {
        let mut c = Cluster::homogeneous("c", 2, 4);
        c.try_allocate(3, 0.0).unwrap();
        c.try_allocate(3, 0.0).unwrap();
        // 2 cores free in total but max 1 per host: a 2-core task fails.
        assert_eq!(c.free_cores(), 2);
        assert!(c.try_allocate(2, 0.0).is_none());
        assert!(c.try_allocate(1, 0.0).is_some());
    }

    #[test]
    #[should_panic(expected = "release exceeds capacity")]
    fn double_release_panics() {
        let mut c = Cluster::homogeneous("c", 1, 4);
        let h = c.try_allocate(2, 0.0).unwrap();
        c.release(h, 2, 1.0);
        c.release(h, 2, 1.0);
    }

    #[test]
    fn utilization_gauge_tracks_time() {
        let mut c = Cluster::homogeneous("c", 1, 4);
        let h = c.try_allocate(4, 0.0).unwrap();
        c.release(h, 4, 10.0);
        // Busy 100% for [0,10), idle after.
        assert!((c.utilization().time_average(0.0, 20.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_attachment_counts_and_mirrors_utilization() {
        let rec = Recorder::new();
        let mut c = Cluster::homogeneous("c", 1, 4);
        c.attach_recorder(&rec);
        let h = c.try_allocate(4, 0.0).unwrap();
        assert!(c.try_allocate(1, 1.0).is_none());
        c.release(h, 4, 10.0);
        assert_eq!(rec.counter("c.allocations"), 1);
        assert_eq!(rec.counter("c.alloc_failures"), 1);
        assert_eq!(rec.counter("c.releases"), 1);
        let util = rec.gauge("c.utilization").expect("gauge recorded");
        assert!((util.time_average(0.0, 20.0) - 0.5).abs() < 1e-12);
        // Attachment is observational: the cluster still equals a twin that
        // made the same moves unobserved.
        let mut twin = Cluster::homogeneous("c", 1, 4);
        let th = twin.try_allocate(4, 0.0).unwrap();
        assert!(twin.try_allocate(1, 1.0).is_none());
        twin.release(th, 4, 10.0);
        assert_eq!(c, twin);
    }
}
