//! Individual scheduling policies.
//!
//! Policies order the pending-task queue; the simulator starts tasks in
//! policy order as long as they fit (EASY backfilling additionally lets
//! short tasks jump a blocked queue head under a reservation guarantee).
//!
//! The open surface is the [`SchedulingPolicy`] trait — the same
//! object-safe shape as `autoscaling::Autoscaler` — so external crates
//! register custom policies without touching the [`Policy`] enum; the
//! enum survives as the built-in portfolio and implements the trait.

use atlarge_evolve::{Capsule, CapsuleError, Evolvable};
use std::cmp::Ordering;
use std::sync::Arc;

/// An ordering policy as the simulator consumes it: object-safe, so
/// custom policies from other crates plug into the [`Chooser`] layer,
/// the portfolio, and live evolution without extending [`Policy`].
///
/// [`Chooser`]: crate::simulator::Chooser
///
/// # Examples
///
/// ```
/// use atlarge_scheduling::policy::{PolicyRef, QueuedTask, SchedulingPolicy};
///
/// #[derive(Debug)]
/// struct Lifo;
/// impl SchedulingPolicy for Lifo {
///     fn name(&self) -> &'static str {
///         "lifo"
///     }
///     fn order(&self, queue: &mut [QueuedTask]) {
///         queue.sort_by(|a, b| b.submit.total_cmp(&a.submit));
///     }
/// }
///
/// let custom: PolicyRef = std::sync::Arc::new(Lifo);
/// assert_eq!(custom.name(), "lifo");
/// assert!(!custom.backfills());
/// ```
pub trait SchedulingPolicy: Send + Sync + std::fmt::Debug {
    /// Short display name. It identifies the ordering: two policies with
    /// one name must order alike. It is also the portfolio's score key.
    fn name(&self) -> &'static str;

    /// Whether the policy uses backfilling semantics in the simulator.
    fn backfills(&self) -> bool {
        false
    }

    /// Sorts the queue into this policy's service order: a stable sort by
    /// task fields only, so ordering an ordered queue leaves it unchanged.
    /// The simulator relies on that: removals keep a queue in order, so it
    /// re-orders only when a task joined or the chosen policy's name changed.
    fn order(&self, queue: &mut [QueuedTask]);
}

/// A shared handle to a policy object; cheap to clone, safe to hand to
/// the simulator from any thread.
pub type PolicyRef = Arc<dyn SchedulingPolicy>;

impl From<Policy> for PolicyRef {
    /// Clones this thread's one handle to `p`, so choosers allocate none.
    fn from(p: Policy) -> PolicyRef {
        thread_local! {
            static BUILT_IN: [PolicyRef; 7] = Policy::all().map(|p| Arc::new(p) as PolicyRef);
        }
        BUILT_IN.with(|all| all[p as usize].clone())
    }
}

impl SchedulingPolicy for Policy {
    fn name(&self) -> &'static str {
        Policy::name(self)
    }

    fn backfills(&self) -> bool {
        Policy::backfills(self)
    }

    fn order(&self, queue: &mut [QueuedTask]) {
        Policy::order(self, queue)
    }
}

impl Evolvable for Policy {
    /// Each variant is its own capsule kind, so a live policy swap is
    /// same-kind (an identity swap, resume) exactly when the successor
    /// is the same policy, and cross-kind (fresh start) otherwise.
    fn capsule_kind(&self) -> &'static str {
        match self {
            Policy::Fcfs => "sched.policy.fcfs",
            Policy::Sjf => "sched.policy.sjf",
            Policy::Ljf => "sched.policy.ljf",
            Policy::WidestFirst => "sched.policy.widest",
            Policy::NarrowestFirst => "sched.policy.narrowest",
            Policy::Random => "sched.policy.random",
            Policy::EasyBackfilling => "sched.policy.easy-bf",
        }
    }

    fn capture(&self, _now: f64) -> Capsule {
        // Built-in policies are stateless orderings: the capsule carries
        // identity only.
        Capsule::new(self.capsule_kind(), self.capsule_version())
    }

    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())
    }
}

/// A pending task as the policies see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedTask {
    /// Owning job (for fairness and metrics).
    pub job: u64,
    /// Submission time of the owning job.
    pub submit: f64,
    /// True runtime (the simulator uses this to schedule completions).
    pub runtime: f64,
    /// Runtime estimate available to the scheduler (may be wrong; the
    /// portfolio's Achilles heel for big-data workloads, \[120\]).
    pub estimate: f64,
    /// Cores required.
    pub cpus: u32,
}

/// The scheduling policies of the portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// First-come, first-served.
    Fcfs,
    /// Shortest (estimated) task first.
    Sjf,
    /// Longest (estimated) task first.
    Ljf,
    /// Widest task first (most cores).
    WidestFirst,
    /// Narrowest task first (fewest cores) — drains small tasks fast.
    NarrowestFirst,
    /// Seeded pseudo-random order (Altshuller's "vs random" baseline).
    Random,
    /// FCFS with EASY backfilling: the head holds a reservation; later
    /// tasks may start only if they do not delay it (by estimate).
    EasyBackfilling,
}

impl Policy {
    /// All policies, the portfolio's full set.
    pub fn all() -> [Policy; 7] {
        [
            Policy::Fcfs,
            Policy::Sjf,
            Policy::Ljf,
            Policy::WidestFirst,
            Policy::NarrowestFirst,
            Policy::Random,
            Policy::EasyBackfilling,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs",
            Policy::Sjf => "sjf",
            Policy::Ljf => "ljf",
            Policy::WidestFirst => "widest",
            Policy::NarrowestFirst => "narrowest",
            Policy::Random => "random",
            Policy::EasyBackfilling => "easy-bf",
        }
    }

    /// Whether the policy uses backfilling semantics in the simulator.
    pub fn backfills(&self) -> bool {
        matches!(self, Policy::EasyBackfilling)
    }

    /// Looks a built-in policy up by its display name.
    pub fn by_name(name: &str) -> Option<Policy> {
        Policy::all().into_iter().find(|p| p.name() == name)
    }

    /// Sorts the queue into this policy's service order (stable, so equal
    /// keys keep arrival order).
    pub fn order(&self, queue: &mut [QueuedTask]) {
        let cmp: fn(&QueuedTask, &QueuedTask) -> Ordering = match self {
            Policy::Fcfs | Policy::EasyBackfilling => |a, b| cmp_times(a.submit, b.submit),
            Policy::Sjf => |a, b| cmp_times(a.estimate, b.estimate),
            Policy::Ljf => |a, b| cmp_times(b.estimate, a.estimate),
            Policy::WidestFirst => |a, b| b.cpus.cmp(&a.cpus),
            Policy::NarrowestFirst => |a, b| a.cpus.cmp(&b.cpus),
            Policy::Random => |a, b| hash_task(a).cmp(&hash_task(b)),
        };
        queue.sort_by(cmp);
    }
}

fn cmp_times(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).expect("finite task times")
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Deterministic hash for the random policy's order (independent of
/// arrival order, reproducible across runs).
fn hash_task(t: &QueuedTask) -> u64 {
    let mut z = t
        .job
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(t.runtime.to_bits())
        .wrapping_add(u64::from(t.cpus) << 32);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(job: u64, submit: f64, est: f64, cpus: u32) -> QueuedTask {
        QueuedTask {
            job,
            submit,
            runtime: est,
            estimate: est,
            cpus,
        }
    }

    #[test]
    fn fcfs_orders_by_submit() {
        let mut q = vec![task(2, 5.0, 1.0, 1), task(1, 1.0, 9.0, 1)];
        Policy::Fcfs.order(&mut q);
        assert_eq!(q[0].job, 1);
    }

    #[test]
    fn sjf_and_ljf_are_opposites() {
        let mut q = vec![
            task(1, 0.0, 5.0, 1),
            task(2, 0.0, 1.0, 1),
            task(3, 0.0, 3.0, 1),
        ];
        Policy::Sjf.order(&mut q);
        let sjf: Vec<u64> = q.iter().map(|t| t.job).collect();
        Policy::Ljf.order(&mut q);
        let ljf: Vec<u64> = q.iter().map(|t| t.job).collect();
        assert_eq!(sjf, vec![2, 3, 1]);
        assert_eq!(ljf, vec![1, 3, 2]);
    }

    #[test]
    fn width_policies_sort_by_cpus() {
        let mut q = vec![
            task(1, 0.0, 1.0, 2),
            task(2, 0.0, 1.0, 8),
            task(3, 0.0, 1.0, 4),
        ];
        Policy::WidestFirst.order(&mut q);
        assert_eq!(q[0].job, 2);
        Policy::NarrowestFirst.order(&mut q);
        assert_eq!(q[0].job, 1);
    }

    #[test]
    fn random_is_deterministic_but_shuffled() {
        let mut a = vec![
            task(1, 0.0, 1.0, 1),
            task(2, 1.0, 1.0, 1),
            task(3, 2.0, 1.0, 1),
        ];
        let mut b = a.clone();
        Policy::Random.order(&mut a);
        Policy::Random.order(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn only_easy_backfills() {
        assert!(Policy::EasyBackfilling.backfills());
        assert!(!Policy::Sjf.backfills());
    }

    #[test]
    fn by_name_round_trips() {
        for p in Policy::all() {
            assert_eq!(Policy::by_name(p.name()), Some(p));
        }
        assert_eq!(Policy::by_name("no-such-policy"), None);
    }

    #[test]
    fn enum_behaves_identically_through_the_trait_object() {
        let mut direct = vec![
            task(1, 0.0, 5.0, 1),
            task(2, 0.0, 1.0, 1),
            task(3, 0.0, 3.0, 1),
        ];
        let mut boxed = direct.clone();
        let obj: PolicyRef = Policy::Sjf.into();
        Policy::Sjf.order(&mut direct);
        obj.order(&mut boxed);
        assert_eq!(direct, boxed);
        assert_eq!(obj.name(), "sjf");
        assert!(!obj.backfills());
        let bf: PolicyRef = Policy::EasyBackfilling.into();
        assert!(bf.backfills());
        for p in Policy::all() {
            assert_eq!(PolicyRef::from(p).name(), p.name(), "shared handle of {p}");
        }
    }

    #[test]
    fn all_policies_have_unique_names() {
        let names: std::collections::BTreeSet<&str> =
            Policy::all().iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), Policy::all().len());
    }
}
