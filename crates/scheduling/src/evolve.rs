//! Live scheduling-policy evolution.
//!
//! [`EvolvingChooser`] is a [`Chooser`] that serves its current policy
//! and executes a [`SwapPlan`] against it mid-simulation: at each
//! scheduling point the simulator polls [`Chooser::swap_due`] with the
//! queue depth, and when a trigger fires — a sim-time or a backlog
//! threshold — the retiring policy's capsule is handed to the successor
//! under an `evolve.swap(from->to)` span. Built-in policies are
//! stateless orderings, so a cross-kind swap is a clean A/B cut-over and
//! an identity swap is provably free (the simulator's event stream
//! stays byte-identical).

use crate::policy::{Policy, PolicyRef, QueuedTask};
use crate::simulator::{Chooser, RunningTask};
use atlarge_evolve::{Live, SwapPlan};

/// A built-in policy retired mid-run per a [`SwapPlan`] (trigger
/// metric: queue depth).
pub type EvolvingChooser = Live<Policy>;

/// An [`EvolvingChooser`] starting from the built-in policy named
/// `initial`; every successor in `plan` must name a built-in policy too.
// #[allow_atlarge(dead-public-surface, reason = "the scheduler's live-evolution entry point; its tests pin identity swap = no swap for Table 9's policies")]
pub fn evolving_chooser(initial: &str, plan: SwapPlan) -> Result<EvolvingChooser, String> {
    Live::new(
        "policy",
        |name| Policy::by_name(name).map(Box::new),
        initial,
        plan,
    )
}

impl Chooser for EvolvingChooser {
    fn choose(&mut self, _: f64, _: &[QueuedTask], _: u32, _: &[RunningTask]) -> PolicyRef {
        PolicyRef::from(*self.current())
    }

    fn swap_due(&mut self, now: f64, queue_len: f64) -> Option<String> {
        Live::swap_due(self, now, queue_len)
    }

    fn apply_swap(&mut self, now: f64) {
        Live::apply_swap(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::PortfolioScheduler;
    use crate::simulator::{simulate, SimConfig, SimMetrics};
    use atlarge_evolve::{Evolvable, SwapRecord};
    use atlarge_telemetry::Recorder;
    use atlarge_workload::job::{Job, JobId, Task};

    fn perfect() -> SimConfig {
        SimConfig {
            estimate_sigma: 0.0,
            seed: 1,
        }
    }

    /// Simulates `jobs` under `initial` with `plan` executing live,
    /// through a lent chooser; returns the metrics and the swap log.
    fn run_swapping(
        jobs: &[Job],
        pool_cores: &[u32],
        initial: &str,
        plan: &str,
        rec: Option<&Recorder>,
    ) -> (SimMetrics, Vec<SwapRecord>) {
        let plan = SwapPlan::parse(plan).unwrap();
        let mut chooser = evolving_chooser(initial, plan).unwrap();
        let m = simulate(jobs, pool_cores, &mut chooser, &perfect(), &[], rec);
        (m, chooser.swap_log().to_vec())
    }

    fn jobs(n: u64, gap: f64) -> Vec<Job> {
        (0..n)
            .map(|i| {
                Job::new(
                    JobId(i),
                    i as f64 * gap,
                    vec![Task::new(20.0 + (i % 4) as f64 * 15.0, 1 + (i % 2) as u32)],
                )
            })
            .collect()
    }

    #[test]
    fn identity_swap_is_observationally_free_for_every_policy() {
        for policy in Policy::all() {
            let baseline = simulate(&jobs(20, 4.0), &[4], policy, &perfect(), &[], None);
            let plan = format!("{}@60", policy.name());
            let (swapped, log) = run_swapping(&jobs(20, 4.0), &[4], policy.name(), &plan, None);
            assert_eq!(log.len(), 1, "{policy}: swap must fire");
            assert!(log[0].resumed, "{policy}: same-kind swap must resume");
            assert_eq!(baseline, swapped, "{policy}: identity swap changed the run");
        }
    }

    #[test]
    fn identity_swap_leaves_the_event_stream_byte_identical() {
        let base_rec = Recorder::new();
        let baseline = simulate(
            &jobs(20, 4.0),
            &[4],
            Policy::Sjf,
            &perfect(),
            &[],
            Some(&base_rec),
        );
        let swap_rec = Recorder::new();
        let (swapped, log) = run_swapping(&jobs(20, 4.0), &[4], "sjf", "sjf@60", Some(&swap_rec));
        assert_eq!(log.len(), 1);
        assert_eq!(baseline, swapped);
        let strip = |rec: &Recorder| -> Vec<String> {
            rec.trace()
                .into_iter()
                .filter(|r| !r.label.starts_with("evolve.swap("))
                .map(|r| r.to_json())
                .collect()
        };
        assert_eq!(strip(&base_rec), strip(&swap_rec));
        assert_eq!(
            swap_rec
                .trace()
                .iter()
                .filter(|r| r.label == "evolve.swap(sjf->sjf)")
                .count(),
            2
        );
    }

    #[test]
    fn backlog_triggered_swap_changes_the_schedule() {
        // A tight pool builds a queue; past depth 8 the policy flips from
        // FCFS to SJF, which reorders the backlog and cuts mean response.
        let baseline = simulate(&jobs(40, 1.0), &[2], Policy::Fcfs, &perfect(), &[], None);
        let (swapped, log) = run_swapping(&jobs(40, 1.0), &[2], "fcfs", "sjf@peak8", None);
        assert_eq!(log.len(), 1, "queue must exceed 8 tasks");
        assert_eq!(log[0].from, "fcfs");
        assert_eq!(log[0].to, "sjf");
        assert!(!log[0].resumed, "cross-kind swap starts fresh");
        assert_eq!(baseline.jobs_completed, swapped.jobs_completed);
        assert_ne!(
            baseline.mean_response, swapped.mean_response,
            "reordering a deep backlog must move the metrics"
        );
    }

    #[test]
    fn chained_swaps_fire_in_order() {
        let (_, log) = run_swapping(&jobs(40, 1.0), &[2], "fcfs", "sjf@30+widest@90", None);
        assert_eq!(log.len(), 2);
        assert_eq!((log[0].from.as_str(), log[0].to.as_str()), ("fcfs", "sjf"));
        assert_eq!(
            (log[1].from.as_str(), log[1].to.as_str()),
            ("sjf", "widest")
        );
        assert!(log[0].time <= log[1].time);
    }

    #[test]
    fn unknown_names_are_rejected_up_front() {
        let err = evolving_chooser("nope", SwapPlan::none()).unwrap_err();
        assert_eq!(err, "unknown policy 'nope'");
        let plan = SwapPlan::parse("nope@10").unwrap();
        let err = evolving_chooser("fcfs", plan).unwrap_err();
        assert_eq!(err, "unknown policy 'nope' in swap plan");
    }

    /// A portfolio captured mid-run and resumed into a fresh instance
    /// continues exactly where the original left off: same commitments,
    /// same learned scores, same reflection clock.
    #[test]
    fn portfolio_capsule_resumes_the_selector_mid_flight() {
        let qt = |job: u64, est: f64| QueuedTask {
            job,
            submit: 0.0,
            runtime: est,
            estimate: est,
            cpus: 1,
        };
        let queue: Vec<QueuedTask> = (0..12)
            .map(|i| qt(i, 10.0 + (i % 5) as f64 * 40.0))
            .collect();
        let mut original = PortfolioScheduler::new(Policy::all().to_vec(), 3, 50.0);
        for step in 0..6 {
            original.choose(step as f64 * 60.0, &queue, 2, &[]);
        }
        let capsule = original.capture(360.0);
        let mut resumed = PortfolioScheduler::new(Policy::all().to_vec(), 7, 999.0);
        resumed.resume(&capsule, 360.0).unwrap();
        assert_eq!(resumed.active_set_size(), 3);
        assert_eq!(resumed.current().name(), original.current().name());
        assert_eq!(resumed.decisions(), original.decisions());
        assert_eq!(resumed.lookahead_events(), original.lookahead_events());
        // Both instances make identical choices from here on.
        for step in 6..12 {
            let a = original.choose(step as f64 * 60.0, &queue, 2, &[]);
            let b = resumed.choose(step as f64 * 60.0, &queue, 2, &[]);
            assert_eq!(a.name(), b.name(), "diverged at step {step}");
        }
        assert_eq!(original.decisions(), resumed.decisions());
    }

    #[test]
    fn portfolio_rejects_foreign_and_degenerate_capsules() {
        let mut p = PortfolioScheduler::new(Policy::all().to_vec(), 3, 50.0);
        let foreign = Policy::Fcfs.capture(0.0);
        assert!(p.resume(&foreign, 0.0).is_err());
        // A capsule committed to a policy this portfolio does not hold.
        let small = PortfolioScheduler::new(vec![Policy::Sjf], 1, 50.0);
        let mut capsule = PortfolioScheduler::new(vec![Policy::Fcfs], 1, 50.0).capture(0.0);
        assert!(small.clone().resume(&capsule, 0.0).is_err());
        // Degenerate config fields are rejected.
        capsule.set("current", atlarge_evolve::Value::Str("sjf".into()));
        capsule.set("active_set_size", atlarge_evolve::Value::U64(0));
        assert!(small.clone().resume(&capsule, 0.0).is_err());
    }
}
