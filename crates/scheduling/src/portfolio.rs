//! The portfolio scheduler (§6.6).
//!
//! At each reflection point the portfolio simulates candidate policies
//! over the current queue snapshot — using the scheduler's (imperfect)
//! runtime estimates — and commits to the predicted-best policy until the
//! next reflection. Two of the paper's findings are mechanical here:
//!
//! - *Online cost*: the lookahead cost grows with the number of policies
//!   simulated (\[114\]'s problem), counted in `lookahead_events`; the
//!   *active set* of \[115\] caps the candidates per reflection, trading
//!   decision quality for online feasibility.
//! - *Prediction sensitivity*: selections are made on estimates, so
//!   workloads with hard-to-predict runtimes (big data, \[120\]) can make
//!   the portfolio choose sub-optimally.

use crate::policy::{PolicyRef, QueuedTask, SchedulingPolicy};
use crate::simulator::{Chooser, RunningTask};
use atlarge_evolve::{Capsule, CapsuleError, Evolvable, Value};
use std::collections::{BTreeMap, VecDeque};

/// The portfolio scheduler: an online policy selector.
///
/// The portfolio holds [`PolicyRef`] trait objects, so custom policies
/// registered outside this crate compete alongside the built-in enum.
///
/// # Examples
///
/// ```
/// use atlarge_scheduling::portfolio::PortfolioScheduler;
/// use atlarge_scheduling::policy::Policy;
///
/// let p = PortfolioScheduler::new(Policy::all().to_vec(), 3, 500.0);
/// assert_eq!(p.active_set_size(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PortfolioScheduler {
    policies: Vec<PolicyRef>,
    active_set_size: usize,
    reflection_interval: f64,
    explore_every: u64,
    last_reflection: f64,
    reflections: u64,
    current: PolicyRef,
    /// EWMA of predicted mean slowdown per policy (lower is better).
    scores: BTreeMap<&'static str, f64>,
    lookahead_events: u64,
    decisions: u64,
}

impl PortfolioScheduler {
    /// Creates a portfolio over `policies`, simulating at most
    /// `active_set_size` candidates per reflection, reflecting every
    /// `reflection_interval` simulated seconds. Accepts built-in
    /// [`Policy`](crate::policy::Policy) values or [`PolicyRef`] handles to
    /// custom policies.
    ///
    /// # Panics
    ///
    /// Panics if `policies` is empty, `active_set_size == 0`, or the
    /// interval is not positive.
    pub fn new<P: Into<PolicyRef>>(
        policies: Vec<P>,
        active_set_size: usize,
        reflection_interval: f64,
    ) -> Self {
        let policies: Vec<PolicyRef> = policies.into_iter().map(Into::into).collect();
        assert!(!policies.is_empty(), "portfolio needs policies");
        assert!(active_set_size > 0, "active set must be non-empty");
        assert!(reflection_interval > 0.0, "interval must be positive");
        let current = policies[0].clone();
        PortfolioScheduler {
            policies,
            active_set_size,
            reflection_interval,
            explore_every: 5,
            last_reflection: f64::NEG_INFINITY,
            reflections: 0,
            current,
            scores: BTreeMap::new(),
            lookahead_events: 0,
            decisions: 0,
        }
    }

    /// The configured active-set size.
    pub fn active_set_size(&self) -> usize {
        self.active_set_size
    }

    /// How often (in reflections) the full portfolio is re-explored
    /// instead of only the active set (default 5).
    pub fn explore_every(mut self, n: u64) -> Self {
        assert!(n > 0, "exploration period must be positive");
        self.explore_every = n;
        self
    }

    /// The policy currently committed to.
    pub fn current(&self) -> PolicyRef {
        self.current.clone()
    }

    fn candidates(&self) -> Vec<PolicyRef> {
        if self.reflections.is_multiple_of(self.explore_every)
            || self.scores.len() < self.policies.len()
        {
            // Exploration round: simulate the whole portfolio.
            return self.policies.clone();
        }
        // Exploitation round: only the active set (best-scored k).
        let score = |p: &PolicyRef| self.scores.get(p.name()).copied().unwrap_or(f64::MAX);
        let mut scored: Vec<(f64, &PolicyRef)> =
            self.policies.iter().map(|p| (score(p), p)).collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite scores"));
        let active = scored.into_iter().take(self.active_set_size);
        active.map(|(_, p)| p.clone()).collect()
    }
}

impl Evolvable for PortfolioScheduler {
    fn capsule_kind(&self) -> &'static str {
        "sched.portfolio"
    }

    /// The capsule carries the full selector state — commitment, learned
    /// score EWMAs, reflection clock, cost counters — plus the scalar
    /// configuration. The policy roster itself is structural (trait
    /// objects) and stays with the resuming instance.
    fn capture(&self, _now: f64) -> Capsule {
        let scores: Vec<(String, f64)> = self
            .scores
            .iter()
            .map(|(name, s)| ((*name).to_string(), *s))
            .collect();
        Capsule::new(self.capsule_kind(), self.capsule_version())
            .with_str("current", self.current.name())
            .with_f64("last_reflection", self.last_reflection)
            .with_u64("reflections", self.reflections)
            .with_u64("lookahead_events", self.lookahead_events)
            .with_u64("decisions", self.decisions)
            .with_u64("explore_every", self.explore_every)
            .with_u64("active_set_size", self.active_set_size as u64)
            .with_f64("reflection_interval", self.reflection_interval)
            .with("scores", Value::NamedF64s(scores))
    }

    /// Restores the selector state. The committed policy is looked up by
    /// name in this instance's roster (unknown → [`CapsuleError::BadValue`]);
    /// score entries whose names are absent from the roster are dropped.
    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())?;
        let current = capsule.str_field("current")?;
        let current = self
            .policies
            .iter()
            .find(|p| p.name() == current)
            .cloned()
            .ok_or_else(|| {
                CapsuleError::BadValue(format!("policy '{current}' not in this portfolio"))
            })?;
        let explore_every = capsule.u64_field("explore_every")?;
        if explore_every == 0 {
            return Err(CapsuleError::BadValue(
                "explore_every must be positive".into(),
            ));
        }
        let active_set_size = capsule.u64_field("active_set_size")?;
        if active_set_size == 0 {
            return Err(CapsuleError::BadValue(
                "active set must be non-empty".into(),
            ));
        }
        let reflection_interval = capsule.f64_field("reflection_interval")?;
        if reflection_interval <= 0.0 || reflection_interval.is_nan() {
            return Err(CapsuleError::BadValue("interval must be positive".into()));
        }
        let mut scores = BTreeMap::new();
        for (name, score) in capsule.named_f64s_field("scores")? {
            if let Some(p) = self.policies.iter().find(|p| p.name() == *name) {
                scores.insert(p.name(), *score);
            }
        }
        self.current = current;
        self.last_reflection = capsule.f64_field("last_reflection")?;
        self.reflections = capsule.u64_field("reflections")?;
        self.lookahead_events = capsule.u64_field("lookahead_events")?;
        self.decisions = capsule.u64_field("decisions")?;
        self.explore_every = explore_every;
        self.active_set_size = active_set_size as usize;
        self.reflection_interval = reflection_interval;
        self.scores = scores;
        Ok(())
    }
}

impl Chooser for PortfolioScheduler {
    fn choose(
        &mut self,
        now: f64,
        queue: &[QueuedTask],
        free_cores: u32,
        running: &[RunningTask],
    ) -> PolicyRef {
        if now - self.last_reflection < self.reflection_interval {
            return self.current.clone();
        }
        self.last_reflection = now;
        self.reflections += 1;
        let releases = releases(running, now);
        let mut best = self.current.clone();
        let mut best_score = f64::INFINITY;
        for p in self.candidates() {
            let (score, events) = simulate_ahead(p.as_ref(), queue, free_cores, &releases, now);
            self.lookahead_events += events;
            self.decisions += 1;
            let e = self.scores.entry(p.name()).or_insert(score);
            *e = 0.7 * *e + 0.3 * score;
            if score < best_score {
                best_score = score;
                best = p;
            }
        }
        self.current = best.clone();
        best
    }

    fn lookahead_events(&self) -> u64 {
        self.lookahead_events
    }

    fn decisions(&self) -> u64 {
        self.decisions
    }
}

/// Fast in-chooser simulation: predicts the mean bounded slowdown of the
/// queued tasks under `policy`, trusting the runtime *estimates*. Returns
/// `(predicted mean slowdown, simulated events)`.
///
/// The aggregate-core model (one pool of `free_cores` plus cores freed by
/// `running` at their estimated finishes) keeps the lookahead cheap enough
/// to contemplate running online — the crux of §6.6.
pub fn lookahead(
    policy: &dyn SchedulingPolicy,
    queue: &[QueuedTask],
    free_cores: u32,
    running: &[RunningTask],
    now: f64,
) -> (f64, u64) {
    simulate_ahead(policy, queue, free_cores, &releases(running, now), now)
}

/// Core releases `(max(estimated finish, now), cores)` in time, then start, order.
fn releases(running: &[RunningTask], now: f64) -> Vec<(f64, u32)> {
    let mut frees: Vec<(f64, u32)> = running
        .iter()
        .map(|r| (r.est_finish.max(now), r.cpus))
        .collect();
    frees.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    frees
}

/// [`lookahead`] over inherited releases `frees`, sorted once per reflection.
fn simulate_ahead(
    policy: &dyn SchedulingPolicy,
    queue: &[QueuedTask],
    free_cores: u32,
    frees: &[(f64, u32)],
    now: f64,
) -> (f64, u64) {
    if queue.is_empty() {
        return (1.0, 0);
    }
    let mut pending = VecDeque::from(queue.to_vec());
    policy.order(pending.make_contiguous());
    let mut free = free_cores;
    let mut t = now;
    let mut free_idx = 0usize;
    let mut events = 0u64;
    let mut slowdown_sum = 0.0;
    let backfill = policy.backfills();
    let mut started: VecDeque<(f64, u32)> = VecDeque::new(); // our own releases, in time order
    while !pending.is_empty() {
        // Try to start tasks (in order; backfilling policies may skip).
        let mut progress = false;
        let mut i = 0;
        while i < pending.len() {
            let task = pending[i];
            if task.cpus <= free {
                free -= task.cpus;
                let finish = t + task.estimate;
                // Releases at equal times come out in start order.
                let at = started.partition_point(|&(ft, _)| ft <= finish);
                started.insert(at, (finish, task.cpus));
                let wait = t - now;
                slowdown_sum += (wait + task.estimate) / task.estimate.max(10.0);
                pending.remove(i);
                events += 2;
                progress = true;
                if !backfill {
                    i = 0; // strict order: always retry from the head
                }
            } else if backfill {
                i += 1; // skip and try the next
            } else {
                break; // blocking semantics
            }
        }
        if pending.is_empty() {
            break;
        }
        if !progress || free == 0 {
            // Advance time to the next core release, inherited first on a tie.
            let next = match frees.get(free_idx) {
                Some(&r) if started.front().is_none_or(|&(ft, _)| r.0 <= ft) => {
                    free_idx += 1;
                    Some(r)
                }
                _ => started.pop_front(),
            };
            let Some((at, cores)) = next else {
                break; // nothing will ever free: give up
            };
            t = at;
            free += cores;
            events += 1;
        }
    }
    // Tasks never started (capacity starvation) count as a large penalty.
    let unstarted = pending.len() as f64;
    let n = queue.len() as f64;
    ((slowdown_sum + unstarted * 100.0) / n, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;

    fn qt(job: u64, est: f64, cpus: u32) -> QueuedTask {
        QueuedTask {
            job,
            submit: 0.0,
            runtime: est,
            estimate: est,
            cpus,
        }
    }

    #[test]
    fn lookahead_empty_queue_is_cheap() {
        let (s, e) = lookahead(&Policy::Fcfs, &[], 4, &[], 0.0);
        assert_eq!(e, 0);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn lookahead_prefers_sjf_for_mixed_sizes() {
        let queue = vec![qt(1, 1000.0, 1), qt(2, 10.0, 1), qt(3, 10.0, 1)];
        let (sjf, _) = lookahead(&Policy::Sjf, &queue, 1, &[], 0.0);
        let (ljf, _) = lookahead(&Policy::Ljf, &queue, 1, &[], 0.0);
        assert!(sjf < ljf, "sjf {sjf} ljf {ljf}");
    }

    #[test]
    fn lookahead_accounts_for_running_tasks() {
        // No free cores; one running task frees 2 cores at t=50.
        let queue = vec![qt(1, 10.0, 2)];
        let running = vec![RunningTask {
            pool: 0,
            cpus: 2,
            est_finish: 50.0,
            started_at: 0.0,
        }];
        let (s, _) = lookahead(&Policy::Fcfs, &queue, 0, &running, 0.0);
        // Wait 50 + run 10, slowdown vs max(10,10) = 6.0.
        assert!((s - 6.0).abs() < 1e-9, "slowdown {s}");
    }

    #[test]
    fn lookahead_cost_scales_with_queue() {
        let small: Vec<QueuedTask> = (0..5).map(|i| qt(i, 10.0, 1)).collect();
        let large: Vec<QueuedTask> = (0..50).map(|i| qt(i, 10.0, 1)).collect();
        let (_, es) = lookahead(&Policy::Fcfs, &small, 2, &[], 0.0);
        let (_, el) = lookahead(&Policy::Fcfs, &large, 2, &[], 0.0);
        assert!(el > es);
    }

    #[test]
    fn reflection_interval_limits_decisions() {
        let mut p = PortfolioScheduler::new(Policy::all().to_vec(), 7, 100.0);
        let queue = vec![qt(1, 10.0, 1)];
        p.choose(0.0, &queue, 4, &[]);
        let d1 = p.decisions();
        p.choose(50.0, &queue, 4, &[]); // within interval: no reflection
        assert_eq!(p.decisions(), d1);
        p.choose(150.0, &queue, 4, &[]); // past interval: reflects
        assert!(p.decisions() > d1);
    }

    #[test]
    fn active_set_caps_candidates() {
        // With active set 2 and exploration every 1000 rounds, only the
        // first reflection simulates all policies.
        let mut small = PortfolioScheduler::new(Policy::all().to_vec(), 2, 1.0).explore_every(1000);
        let mut full = PortfolioScheduler::new(Policy::all().to_vec(), 7, 1.0).explore_every(1000);
        let queue: Vec<QueuedTask> = (0..20).map(|i| qt(i, 10.0, 1)).collect();
        for step in 0..10 {
            let t = step as f64 * 10.0;
            small.choose(t, &queue, 4, &[]);
            full.choose(t, &queue, 4, &[]);
        }
        assert!(
            small.lookahead_events() < full.lookahead_events(),
            "active set should cut lookahead cost: {} vs {}",
            small.lookahead_events(),
            full.lookahead_events()
        );
    }

    #[test]
    fn starvation_is_penalized() {
        // A task that can never run (needs 8, have 2 forever).
        let queue = vec![qt(1, 10.0, 8)];
        let (s, _) = lookahead(&Policy::Fcfs, &queue, 2, &[], 0.0);
        assert!(s >= 100.0);
    }
}
