//! The event-driven multi-cluster scheduling simulator.
//!
//! Jobs (bags of tasks) arrive over time; a policy — fixed or chosen
//! online by a [`Chooser`] such as the portfolio scheduler — orders the
//! queue, and tasks start when they fit. The simulator runs on the
//! `atlarge-des` kernel and reports the metrics the portfolio studies
//! compare on: mean response time, mean bounded slowdown, makespan, and
//! utilization, plus the decision-cost counters that §6.6's online-
//! feasibility question turns on.

use crate::policy::{Policy, PolicyRef, QueuedTask};
use atlarge_des::sim::{Ctx, Model, Simulation};
use atlarge_stats::dist::{Normal, Sample};
use atlarge_telemetry::manifest::fnv1a;
use atlarge_telemetry::tracer::EventLabel;
use atlarge_telemetry::Recorder;
use atlarge_workload::job::Job;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// A task currently executing, as schedulers see it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningTask {
    /// Pool the task runs in.
    pub pool: usize,
    /// Cores held.
    pub cpus: u32,
    /// Estimated finish time (the scheduler's view, possibly wrong).
    pub est_finish: f64,
    /// When the task started (failure accounting).
    pub started_at: f64,
}

/// Chooses the scheduling policy at each decision point.
///
/// A fixed policy ignores the state; the portfolio scheduler simulates its
/// active set over the queue snapshot. Policies travel as [`PolicyRef`]
/// trait objects, so choosers may hand out custom policies registered
/// outside this crate.
pub trait Chooser {
    /// Returns the policy to use now.
    fn choose(
        &mut self,
        now: f64,
        queue: &[QueuedTask],
        free_cores: u32,
        running: &[RunningTask],
    ) -> PolicyRef;

    /// Cumulative lookahead-simulation events spent (0 for fixed
    /// policies).
    fn lookahead_events(&self) -> u64 {
        0
    }

    /// Cumulative policy evaluations performed.
    fn decisions(&self) -> u64 {
        0
    }

    /// Live-evolution hook, polled at each scheduling point with the
    /// current queue depth. Returning a span label announces that a swap
    /// is due; the simulator then calls [`apply_swap`](Chooser::apply_swap)
    /// inside that tracer span. Plain choosers never swap.
    fn swap_due(&mut self, _now: f64, _queue_len: f64) -> Option<String> {
        None
    }

    /// Executes the swap announced by [`swap_due`](Chooser::swap_due).
    /// See `crate::evolve::EvolvingChooser`.
    fn apply_swap(&mut self, _now: f64) {}
}

/// A built-in policy is a chooser that always returns itself.
impl Chooser for Policy {
    fn choose(&mut self, _: f64, _: &[QueuedTask], _: u32, _: &[RunningTask]) -> PolicyRef {
        PolicyRef::from(*self)
    }
}

/// Lends a chooser to a run, so the caller can inspect its state
/// afterwards (e.g. `crate::evolve::EvolvingChooser`'s swap log). Every
/// method forwards, the defaulted hooks too: a lent chooser swaps and
/// counts exactly like an owned one.
impl<C: Chooser + ?Sized> Chooser for &mut C {
    fn choose(
        &mut self,
        now: f64,
        queue: &[QueuedTask],
        free_cores: u32,
        running: &[RunningTask],
    ) -> PolicyRef {
        (**self).choose(now, queue, free_cores, running)
    }

    fn lookahead_events(&self) -> u64 {
        (**self).lookahead_events()
    }

    fn decisions(&self) -> u64 {
        (**self).decisions()
    }

    fn swap_due(&mut self, now: f64, queue_len: f64) -> Option<String> {
        (**self).swap_due(now, queue_len)
    }

    fn apply_swap(&mut self, now: f64) {
        (**self).apply_swap(now)
    }
}

/// A chooser that always returns the same policy object — the handle may
/// point at a custom [`SchedulingPolicy`] from another crate.
///
/// [`SchedulingPolicy`]: crate::policy::SchedulingPolicy
#[derive(Debug, Clone)]
pub struct FixedPolicy(pub PolicyRef);

impl Chooser for FixedPolicy {
    fn choose(&mut self, _: f64, _: &[QueuedTask], _: u32, _: &[RunningTask]) -> PolicyRef {
        self.0.clone()
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Log-scale standard deviation of runtime-estimate error: estimates
    /// are `runtime * exp(N(0, sigma))`. 0 = perfect estimates.
    pub estimate_sigma: f64,
    /// RNG seed for estimate noise.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            estimate_sigma: 0.3,
            seed: 42,
        }
    }
}

/// Metrics of one simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Mean job response time (last task finish − submit).
    pub mean_response: f64,
    /// Mean bounded slowdown (response / max(critical runtime, 10 s)).
    pub mean_bounded_slowdown: f64,
    /// Time the last job finished.
    pub makespan: f64,
    /// Busy core-time / (capacity × makespan).
    pub utilization: f64,
    /// Jobs completed.
    pub jobs_completed: usize,
    /// Tasks killed by failures and restarted.
    pub tasks_restarted: u64,
    /// Chooser decisions made.
    pub decisions: u64,
    /// Lookahead-simulation events spent by the chooser.
    pub lookahead_events: u64,
}

#[derive(Debug)]
enum Ev {
    Arrival(usize),
    Finish { run_id: u64 },
    Fail(usize),
    Repair { pool: usize, cores: u32 },
}

impl EventLabel for Ev {
    fn label(&self) -> &'static str {
        match self {
            Ev::Arrival(_) => "arrival",
            Ev::Finish { .. } => "finish",
            Ev::Fail(_) => "fail",
            Ev::Repair { .. } => "repair",
        }
    }
}

/// A machine failure: at `time`, `cores` of `pool` fail for `duration`
/// seconds. Tasks running on the failed cores are killed and resubmitted
/// (the paper's P3: dynamic phenomena are first-class concerns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// When the failure strikes.
    pub time: f64,
    /// Affected pool index.
    pub pool: usize,
    /// Cores lost.
    pub cores: u32,
    /// Seconds until repair.
    pub duration: f64,
}

#[derive(Debug)]
struct Pool {
    total: u32,
    free: u32,
    /// Running tasks as `(estimated finish, run id, cores)`, sorted: EASY's index.
    releases: Vec<(f64, u64, u32)>,
}

#[derive(Debug)]
struct JobState {
    submit: f64,
    remaining: usize,
    critical: f64,
}

struct SchedModel<'a, C: Chooser> {
    jobs: &'a [Job],
    pools: Vec<Pool>,
    /// Waiting tasks are `queue[head..]`; the tasks before them have
    /// started, and are dropped once they are half of `queue`.
    queue: Vec<QueuedTask>,
    head: usize,
    /// The policy that last ordered the queue, `None` once a task joined
    /// it: see `SchedulingPolicy::order` for why that is all it takes.
    ordered_by: Option<&'static str>,
    failures: &'a [FailureEvent],
    tasks_restarted: u64,
    /// The running set in start order (run ids ascend), as choosers see it;
    running: Vec<RunningTask>,
    /// index for index, each running task's run id and queue entry.
    run: Vec<(u64, QueuedTask)>,
    next_run_id: u64,
    chooser: C,
    job_states: BTreeMap<u64, JobState>,
    responses: Vec<f64>,
    slowdowns: Vec<f64>,
    busy_core_time: f64,
    makespan: f64,
    estimate_noise: Normal,
    noise_rng: StdRng,
    recorder: Option<Recorder>,
}

impl<C: Chooser> SchedModel<'_, C> {
    fn start_task(&mut self, task: QueuedTask, pool: usize, ctx: &mut Ctx<Ev>) {
        let (now, run_id) = (ctx.now(), self.next_run_id);
        let est_finish = now + task.estimate;
        self.next_run_id += 1;
        let p = &mut self.pools[pool];
        p.free -= task.cpus;
        // The newest run goes after every release not later than its own.
        let at = p.releases.partition_point(|&(t, ..)| t <= est_finish);
        p.releases.insert(at, (est_finish, run_id, task.cpus));
        self.running.push(RunningTask {
            pool,
            cpus: task.cpus,
            est_finish,
            started_at: now,
        });
        self.run.push((run_id, task));
        ctx.schedule_in(task.runtime, Ev::Finish { run_id });
    }

    /// Takes the `i`-th running task out of the running set and its pool.
    fn stop(&mut self, i: usize) -> (RunningTask, QueuedTask) {
        let r = self.running.remove(i);
        let (run_id, task) = self.run.remove(i);
        let releases = &mut self.pools[r.pool].releases;
        releases.remove(releases.partition_point(|&(t, id, _)| (t, id) < (r.est_finish, run_id)));
        (r, task)
    }

    /// Kills running tasks in `pool` until at least `needed` cores are
    /// reclaimed (newest first); the tasks restart from scratch.
    fn kill_tasks(&mut self, pool: usize, needed: u32, now: f64) -> u32 {
        let mut reclaimed = 0u32;
        let mut i = self.running.len();
        while i > 0 && reclaimed < needed {
            i -= 1;
            if self.running[i].pool == pool {
                let (r, task) = self.stop(i);
                reclaimed += r.cpus;
                self.busy_core_time += (now - r.started_at) * f64::from(r.cpus);
                self.tasks_restarted += 1;
                self.queue.push(task);
                self.ordered_by = None;
            }
        }
        reclaimed
    }

    /// Best pool for a task: the one with the most free cores that fits.
    fn pick_pool(&self, cpus: u32) -> Option<usize> {
        self.pools
            .iter()
            .enumerate()
            .filter(|(_, p)| p.free >= cpus)
            .max_by_key(|(_, p)| p.free)
            .map(|(i, _)| i)
    }

    /// Orders the queue by the chosen policy, then starts tasks in queue
    /// order while they fit (strict priority semantics); a backfilling
    /// policy then lets later tasks jump a blocked head.
    fn schedule(&mut self, ctx: &mut Ctx<Ev>) {
        let waiting = self.queue.len() - self.head;
        if waiting == 0 {
            return;
        }
        if let Some(label) = self.chooser.swap_due(ctx.now(), waiting as f64) {
            ctx.span_enter(&label);
            self.chooser.apply_swap(ctx.now());
            ctx.span_exit(&label);
        }
        let free = self.pools.iter().map(|p| p.free).sum();
        ctx.span_enter("sched.choose");
        let queue = &self.queue[self.head..];
        let policy = self.chooser.choose(ctx.now(), queue, free, &self.running);
        ctx.span_exit("sched.choose");
        if let Some(rec) = &self.recorder {
            rec.gauge_set("sched.queue_tasks", ctx.now(), waiting as f64);
            rec.incr("sched.decisions");
        }
        if self.ordered_by != Some(policy.name()) {
            policy.order(&mut self.queue[self.head..]);
            self.ordered_by = Some(policy.name());
        }
        while let Some(&task) = self.queue.get(self.head) {
            let Some(pool) = self.pick_pool(task.cpus) else {
                break;
            };
            self.start_task(task, pool, ctx);
            self.head += 1;
        }
        if policy.backfills() {
            self.backfill(ctx);
        }
        if 2 * self.head > self.queue.len() {
            self.queue.drain(..self.head);
            self.head = 0;
        }
    }

    /// EASY backfilling: the blocked head holds a reservation; later tasks
    /// may start only if (by estimate) they finish before the
    /// reservation's shadow time or fit in the cores spare at that time.
    fn backfill(&mut self, ctx: &mut Ctx<Ev>) {
        let Some(&blocked) = self.queue.get(self.head) else {
            return;
        };
        let now = ctx.now();
        let (shadow, extra) = self.reservation(blocked.cpus, now);
        let (mut kept, mut next) = (self.head + 1, self.head + 1);
        // Once every pool is full, no later task can start.
        while next < self.queue.len() && self.pools.iter().any(|p| p.free > 0) {
            let t = self.queue[next];
            next += 1;
            match self.pick_pool(t.cpus) {
                Some(pool) if now + t.estimate <= shadow || t.cpus <= extra => {
                    self.start_task(t, pool, ctx)
                }
                _ => {
                    self.queue[kept] = t;
                    kept += 1;
                }
            }
        }
        self.queue.drain(kept..next);
    }

    /// Earliest estimated time `cpus` (more than any pool has free) become
    /// free in some pool, and the cores spare at that moment. A pool's
    /// tasks release in `(max(estimated finish, now), start order)` order.
    fn reservation(&self, cpus: u32, now: f64) -> (f64, u32) {
        let mut best: Option<(f64, u32)> = None;
        for (pi, pool) in self.pools.iter().enumerate() {
            let releases = &pool.releases;
            let (due, later) = releases.split_at(releases.partition_point(|&(t, ..)| t <= now));
            let due_cpus: u32 = due.iter().map(|&(.., c)| c).sum();
            // Every task past its estimate releases now; when together they
            // reach `cpus`, start order decides which of them count.
            let mut avail = pool.free;
            let reach = |(t, c): (f64, u32)| {
                avail += c;
                (avail >= cpus).then(|| (t, avail - cpus))
            };
            let found = if pool.free + due_cpus >= cpus {
                let due = self
                    .running
                    .iter()
                    .filter(|r| r.pool == pi && r.est_finish <= now);
                due.map(|r| (now, r.cpus)).find_map(reach)
            } else {
                let later = later.iter().map(|&(t, _, c)| (t, c));
                std::iter::once((now, due_cpus))
                    .chain(later)
                    .find_map(reach)
            };
            if let Some((t, extra)) = found {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, extra));
                }
            }
        }
        best.unwrap_or((f64::INFINITY, 0))
    }
}

impl<C: Chooser> Model for SchedModel<'_, C> {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<Ev>) {
        match ev {
            Ev::Arrival(job_idx) => {
                let job = &self.jobs[job_idx];
                let jid = job.id.0;
                self.job_states.insert(
                    jid,
                    JobState {
                        submit: job.submit,
                        remaining: job.tasks.len(),
                        critical: job.critical_runtime(),
                    },
                );
                for t in &job.tasks {
                    let noise = self.estimate_noise.sample(&mut self.noise_rng);
                    self.queue.push(QueuedTask {
                        job: jid,
                        submit: job.submit,
                        runtime: t.runtime,
                        estimate: (t.runtime * noise.exp()).max(0.01),
                        cpus: t.cpus,
                    });
                }
                self.ordered_by = None;
                self.schedule(ctx);
            }
            Ev::Finish { run_id } => {
                // A run that no longer runs was killed by a failure; its
                // restart is already queued and its cores were lost with
                // the machine.
                let Ok(i) = self.run.binary_search_by_key(&run_id, |&(id, _)| id) else {
                    return;
                };
                let (r, task) = self.stop(i);
                self.pools[r.pool].free += r.cpus;
                self.busy_core_time += task.runtime * f64::from(task.cpus);
                let js = self.job_states.get_mut(&task.job).expect("job arrived");
                js.remaining -= 1;
                if js.remaining == 0 {
                    let resp = ctx.now() - js.submit;
                    self.responses.push(resp);
                    // Standard bounded slowdown: max(1, response / max(T, 10s)).
                    self.slowdowns.push((resp / js.critical.max(10.0)).max(1.0));
                    self.makespan = self.makespan.max(ctx.now());
                    if let Some(rec) = &self.recorder {
                        rec.observe_at("sched.response_s", ctx.now(), resp);
                        rec.incr("sched.jobs_completed");
                    }
                }
                self.schedule(ctx);
            }
            Ev::Fail(idx) => {
                let f = self.failures[idx];
                let pool = &mut self.pools[f.pool];
                let lost = f.cores.min(pool.total);
                pool.total -= lost;
                let from_free = lost.min(pool.free);
                pool.free -= from_free;
                let deficit = lost - from_free;
                if deficit > 0 {
                    let reclaimed = self.kill_tasks(f.pool, deficit, ctx.now());
                    // Reclaimed cores beyond the deficit survive as free.
                    let surplus = reclaimed.saturating_sub(deficit);
                    self.pools[f.pool].free += surplus;
                }
                ctx.schedule_in(
                    f.duration,
                    Ev::Repair {
                        pool: f.pool,
                        cores: lost,
                    },
                );
                self.schedule(ctx);
            }
            Ev::Repair { pool, cores } => {
                self.pools[pool].total += cores;
                self.pools[pool].free += cores;
                self.schedule(ctx);
            }
        }
    }
}

/// Runs a full simulation of `jobs` over pools of the given core counts.
///
/// `chooser` picks the policy at each decision point: a fixed [`Policy`],
/// the portfolio scheduler, or a lent `&mut` chooser whose state the
/// caller reads after the run. `failures` are machine failures injected
/// during the run (empty for a healthy cluster). With `rec`, the
/// kernel's causal event trace, a `sched.choose` span per decision,
/// queue-depth gauges, and a timed response-latency stream land on it;
/// instrumentation is observational, so the metrics equal an untraced
/// run's.
///
/// # Panics
///
/// Panics if `pool_cores` is empty, a task needs more cores than the
/// largest pool (the job could never run), or a failure references a
/// missing pool.
pub fn simulate<C: Chooser>(
    jobs: &[Job],
    pool_cores: &[u32],
    chooser: C,
    config: &SimConfig,
    failures: &[FailureEvent],
    rec: Option<&Recorder>,
) -> SimMetrics {
    assert!(!pool_cores.is_empty(), "need at least one pool");
    for f in failures {
        assert!(f.pool < pool_cores.len(), "failure references missing pool");
    }
    let max_pool = *pool_cores.iter().max().expect("non-empty");
    for j in jobs {
        assert!(
            j.max_cpus() <= max_pool,
            "job {} needs {} cores, largest pool has {max_pool}",
            j.id,
            j.max_cpus()
        );
    }
    let model = SchedModel {
        jobs,
        pools: pool_cores
            .iter()
            .map(|&c| Pool {
                total: c,
                free: c,
                releases: Vec::new(),
            })
            .collect(),
        queue: Vec::new(),
        head: 0,
        ordered_by: None,
        failures,
        tasks_restarted: 0,
        running: Vec::new(),
        run: Vec::new(),
        next_run_id: 0,
        chooser,
        job_states: BTreeMap::new(),
        responses: Vec::new(),
        slowdowns: Vec::new(),
        busy_core_time: 0.0,
        makespan: 0.0,
        estimate_noise: Normal::new(0.0, config.estimate_sigma),
        noise_rng: StdRng::seed_from_u64(config.seed),
        recorder: rec.cloned(),
    };
    // Arrivals and failure injections are scheduled up front; pre-size
    // the event queue so the fill phase never reallocates.
    let mut sim = Simulation::with_capacity(model, config.seed, jobs.len() + failures.len());
    let total_cores: u32 = pool_cores.iter().sum();
    if let Some(rec) = rec {
        let (n, pools) = (jobs.len(), pool_cores.len());
        let digest = fnv1a(format!("{n}|{pools}|{total_cores}").as_bytes());
        rec.set_run_info("scheduling.cluster", config.seed, digest);
        sim = sim.with_tracer(rec.clone());
    }
    for (i, j) in jobs.iter().enumerate() {
        sim.schedule(j.submit, Ev::Arrival(i));
    }
    for (i, f) in failures.iter().enumerate() {
        sim.schedule(f.time, Ev::Fail(i));
    }
    sim.run();
    let m = sim.into_model();
    let n = m.responses.len().max(1) as f64;
    SimMetrics {
        mean_response: m.responses.iter().sum::<f64>() / n,
        mean_bounded_slowdown: m.slowdowns.iter().sum::<f64>() / n,
        makespan: m.makespan,
        utilization: if m.makespan > 0.0 {
            m.busy_core_time / (f64::from(total_cores) * m.makespan)
        } else {
            0.0
        },
        jobs_completed: m.responses.len(),
        tasks_restarted: m.tasks_restarted,
        decisions: m.chooser.decisions(),
        lookahead_events: m.chooser.lookahead_events(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_workload::job::{Job, JobId, Task};

    fn perfect() -> SimConfig {
        SimConfig {
            estimate_sigma: 0.0,
            seed: 1,
        }
    }

    fn job(id: u64, submit: f64, tasks: Vec<(f64, u32)>) -> Job {
        Job::new(
            JobId(id),
            submit,
            tasks.into_iter().map(|(r, c)| Task::new(r, c)).collect(),
        )
    }

    #[test]
    fn single_job_completes_immediately() {
        let jobs = vec![job(1, 0.0, vec![(10.0, 2)])];
        let m = simulate(&jobs, &[4], Policy::Fcfs, &perfect(), &[], None);
        assert_eq!(m.jobs_completed, 1);
        assert!((m.mean_response - 10.0).abs() < 1e-9);
        assert!((m.makespan - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fcfs_queues_in_arrival_order() {
        let jobs = vec![job(1, 0.0, vec![(10.0, 1)]), job(2, 0.0, vec![(10.0, 1)])];
        let m = simulate(&jobs, &[1], Policy::Fcfs, &perfect(), &[], None);
        assert_eq!(m.jobs_completed, 2);
        assert!((m.mean_response - 15.0).abs() < 1e-9); // 10 and 20
    }

    #[test]
    fn sjf_reduces_mean_response_vs_ljf() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| job(i, 0.0, vec![((i % 5 + 1) as f64 * 10.0, 1)]))
            .collect();
        let sjf = simulate(&jobs, &[2], Policy::Sjf, &perfect(), &[], None);
        let ljf = simulate(&jobs, &[2], Policy::Ljf, &perfect(), &[], None);
        assert!(
            sjf.mean_response < ljf.mean_response,
            "sjf {} ljf {}",
            sjf.mean_response,
            ljf.mean_response
        );
    }

    #[test]
    fn easy_backfills_around_blocked_head() {
        // A 2-core task runs; a 4-core head is blocked; a short 1-core task
        // backfills under the head's reservation.
        let jobs = vec![
            job(1, 0.0, vec![(100.0, 2)]),
            job(2, 1.0, vec![(50.0, 4)]),
            job(3, 2.0, vec![(10.0, 1)]),
        ];
        let easy = simulate(&jobs, &[4], Policy::EasyBackfilling, &perfect(), &[], None);
        let fcfs = simulate(&jobs, &[4], Policy::Fcfs, &perfect(), &[], None);
        assert!(easy.mean_response < fcfs.mean_response);
        assert_eq!(easy.jobs_completed, 3);
    }

    #[test]
    fn utilization_is_bounded() {
        let jobs: Vec<Job> = (0..30)
            .map(|i| job(i, i as f64 * 5.0, vec![(20.0, 1), (30.0, 1)]))
            .collect();
        let m = simulate(&jobs, &[4, 4], Policy::Sjf, &perfect(), &[], None);
        assert!(m.utilization > 0.0 && m.utilization <= 1.0);
        assert_eq!(m.jobs_completed, 30);
    }

    #[test]
    fn deterministic_runs() {
        let jobs: Vec<Job> = (0..10).map(|i| job(i, i as f64, vec![(5.0, 1)])).collect();
        let cfg = SimConfig {
            estimate_sigma: 0.5,
            seed: 9,
        };
        let a = simulate(&jobs, &[2], Policy::EasyBackfilling, &cfg, &[], None);
        let b = simulate(&jobs, &[2], Policy::EasyBackfilling, &cfg, &[], None);
        assert_eq!(a, b);
    }

    #[test]
    fn all_jobs_complete_under_every_policy() {
        let jobs: Vec<Job> = (0..25)
            .map(|i| job(i, i as f64 * 2.0, vec![(8.0, 1), (12.0, 2)]))
            .collect();
        for p in Policy::all() {
            let m = simulate(&jobs, &[4], p, &perfect(), &[], None);
            assert_eq!(m.jobs_completed, 25, "{p} lost jobs");
        }
    }

    #[test]
    fn traced_run_matches_untraced_and_records_metrics() {
        let jobs: Vec<Job> = (0..15)
            .map(|i| job(i, i as f64 * 3.0, vec![(10.0, 1), (6.0, 2)]))
            .collect();
        let rec = atlarge_telemetry::Recorder::new();
        let traced = simulate(&jobs, &[4], Policy::Sjf, &perfect(), &[], Some(&rec));
        let plain = simulate(&jobs, &[4], Policy::Sjf, &perfect(), &[], None);
        assert_eq!(traced, plain, "tracing must not change the outcome");
        assert_eq!(rec.counter("sched.jobs_completed"), 15);
        assert_eq!(rec.tally("sched.response_s").unwrap().len(), 15);
        assert!(rec.span_stats()["sched.choose"].entries > 0);
        assert!(rec.dispatches("arrival") == 15);
        assert_eq!(rec.manifest().model, "scheduling.cluster");
        assert!(rec.events_dispatched() > 0);
    }

    #[test]
    fn traced_portfolio_records_decisions() {
        use crate::portfolio::PortfolioScheduler;
        let jobs: Vec<Job> = (0..12)
            .map(|i| job(i, i as f64 * 4.0, vec![(10.0, 1)]))
            .collect();
        let rec = atlarge_telemetry::Recorder::new();
        let mut portfolio = PortfolioScheduler::new(vec![Policy::Fcfs, Policy::Sjf], 2, 60.0);
        let m = simulate(&jobs, &[2], &mut portfolio, &perfect(), &[], Some(&rec));
        assert_eq!(m.jobs_completed, 12);
        assert!(rec.counter("sched.decisions") > 0);
        assert!(rec.gauge("sched.queue_tasks").is_some());
        // A lent chooser's counters reach the metrics.
        assert!(m.decisions > 0 && m.lookahead_events > 0);
        assert_eq!(m.decisions, portfolio.decisions());
        assert_eq!(m.lookahead_events, portfolio.lookahead_events());
    }

    #[test]
    fn a_policy_is_known_by_its_ordering_not_its_type() {
        // The queue is re-ordered only when a task joins it or the
        // chosen policy's name changes, so a custom policy that orders
        // like SJF must run exactly like SJF, restarts included.
        use crate::policy::SchedulingPolicy;
        #[derive(Debug)]
        struct Shortest;
        impl SchedulingPolicy for Shortest {
            fn name(&self) -> &'static str {
                "shortest"
            }
            fn order(&self, queue: &mut [QueuedTask]) {
                queue.sort_by(|a, b| a.estimate.total_cmp(&b.estimate));
            }
        }
        let jobs: Vec<Job> = (0..40)
            .map(|i| {
                let long = 5.0 + (i % 7) as f64 * 9.0;
                job(
                    i,
                    i as f64 * 2.0,
                    vec![(long, 1 + (i % 3) as u32), (12.0, 1)],
                )
            })
            .collect();
        let cfg = SimConfig {
            estimate_sigma: 0.5,
            seed: 4,
        };
        let failures = [FailureEvent {
            time: 30.0,
            pool: 0,
            cores: 3,
            duration: 40.0,
        }];
        let custom = FixedPolicy(std::sync::Arc::new(Shortest));
        let custom = simulate(&jobs, &[4, 3], custom, &cfg, &failures, None);
        let sjf = simulate(&jobs, &[4, 3], Policy::Sjf, &cfg, &failures, None);
        assert!(sjf.tasks_restarted > 0, "the failure must kill tasks");
        assert_eq!(custom, sjf);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn oversized_task_rejected_up_front() {
        let jobs = vec![job(1, 0.0, vec![(10.0, 16)])];
        simulate(&jobs, &[4], Policy::Fcfs, &perfect(), &[], None);
    }

    #[test]
    fn noisy_estimates_do_not_lose_jobs() {
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, i as f64, vec![(10.0, 1), (5.0, 2)]))
            .collect();
        let cfg = SimConfig {
            estimate_sigma: 1.5,
            seed: 3,
        };
        let m = simulate(&jobs, &[8], Policy::EasyBackfilling, &cfg, &[], None);
        assert_eq!(m.jobs_completed, 40);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use atlarge_check::{check, vec_of};
    use atlarge_workload::job::{Job, JobId, Task};
    use rand::Rng;

    /// Conservation: every policy completes every submitted job, and
    /// utilization stays in (0, 1].
    fn all_jobs_complete(specs: &[(f64, u32, f64)], policy: Policy) {
        let jobs: Vec<Job> = specs
            .iter()
            .enumerate()
            .map(|(i, &(rt, cpus, submit))| {
                Job::new(JobId(i as u64), submit, vec![Task::new(rt, cpus)])
            })
            .collect();
        let config = SimConfig {
            estimate_sigma: 0.3,
            seed: 7,
        };
        let m = simulate(&jobs, &[8], policy, &config, &[], None);
        assert_eq!(m.jobs_completed, jobs.len());
        assert!(m.utilization > 0.0 && m.utilization <= 1.0 + 1e-9);
        assert!(m.mean_bounded_slowdown >= 1.0 - 1e-9);
    }

    #[test]
    fn prop_all_jobs_complete() {
        // A case that once failed: one unit job under the first policy.
        all_jobs_complete(&[(1.0, 1, 0.0)], Policy::all()[0]);
        check("prop_all_jobs_complete", 32, |rng| {
            let specs = vec_of(rng, 1..25, |r| {
                (
                    r.gen_range(1.0f64..60.0),
                    r.gen_range(1u32..4),
                    r.gen_range(0.0f64..200.0),
                )
            });
            all_jobs_complete(&specs, Policy::all()[rng.gen_range(0usize..7)]);
        });
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use atlarge_workload::job::{Job, JobId, Task};

    fn perfect() -> SimConfig {
        SimConfig {
            estimate_sigma: 0.0,
            seed: 1,
        }
    }

    fn jobs() -> Vec<Job> {
        (0..20)
            .map(|i| {
                Job::new(
                    JobId(i),
                    i as f64 * 5.0,
                    vec![Task::new(30.0, 1), Task::new(40.0, 2)],
                )
            })
            .collect()
    }

    #[test]
    fn failures_restart_tasks_but_lose_no_jobs() {
        let failures = vec![
            FailureEvent {
                time: 20.0,
                pool: 0,
                cores: 6,
                duration: 60.0,
            },
            FailureEvent {
                time: 150.0,
                pool: 0,
                cores: 4,
                duration: 30.0,
            },
        ];
        let m = simulate(&jobs(), &[8], Policy::Fcfs, &perfect(), &failures, None);
        assert_eq!(m.jobs_completed, 20, "failures must not lose jobs");
        assert!(
            m.tasks_restarted > 0,
            "a busy pool losing cores kills tasks"
        );
        let healthy = simulate(&jobs(), &[8], Policy::Fcfs, &perfect(), &[], None);
        assert!(
            m.makespan > healthy.makespan,
            "failures should delay the makespan: {} vs {}",
            m.makespan,
            healthy.makespan
        );
    }

    #[test]
    fn capacity_is_restored_after_repair() {
        // One huge failure mid-run; afterwards throughput recovers and the
        // run completes with the original capacity accounted.
        let failures = vec![FailureEvent {
            time: 10.0,
            pool: 0,
            cores: 7,
            duration: 50.0,
        }];
        let m = simulate(&jobs(), &[8], Policy::Sjf, &perfect(), &failures, None);
        assert_eq!(m.jobs_completed, 20);
        assert!(m.utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn idle_pool_failure_restarts_nothing() {
        // Failure strikes long after all work is done.
        let failures = vec![FailureEvent {
            time: 1.0e6,
            pool: 0,
            cores: 4,
            duration: 10.0,
        }];
        let m = simulate(&jobs(), &[8], Policy::Sjf, &perfect(), &failures, None);
        assert_eq!(m.tasks_restarted, 0);
        assert_eq!(m.jobs_completed, 20);
    }

    #[test]
    fn deterministic_under_failures() {
        let failures = vec![FailureEvent {
            time: 25.0,
            pool: 0,
            cores: 5,
            duration: 40.0,
        }];
        let run = || {
            simulate(
                &jobs(),
                &[8],
                Policy::EasyBackfilling,
                &perfect(),
                &failures,
                None,
            )
        };
        assert_eq!(run(), run());
    }
}
