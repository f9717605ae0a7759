//! The in-silico autoscaling experiment: elastic workflow execution.
//!
//! Workflow jobs arrive over time; tasks become eligible when their
//! predecessors complete; an autoscaler is consulted at a fixed interval
//! and provisions servers (one task per server) subject to a provisioning
//! (boot) delay — the delay is what separates the autoscalers: reactive
//! policies pay it on every burst, predictive ones hide it.

use crate::autoscaler::{Autoscaler, ScalerView};
use atlarge_des::sim::{Ctx, Model, Simulation};
use atlarge_stats::timeseries::StepSeries;
use atlarge_telemetry::manifest::config_digest;
use atlarge_telemetry::recorder::Recorder;
use atlarge_telemetry::tracer::EventLabel;
use atlarge_workload::workflow::Workflow;
use std::collections::VecDeque;

/// Configuration of an autoscaling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Seconds between autoscaler decisions.
    pub tick_interval: f64,
    /// Seconds a provisioned server takes to boot.
    pub boot_delay: f64,
    /// Initial server count.
    pub initial_supply: u32,
    /// Hard cap on supply.
    pub max_supply: u32,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            tick_interval: 30.0,
            boot_delay: 60.0,
            initial_supply: 2,
            max_supply: 10_000,
        }
    }
}

/// The outcome of an autoscaling run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Demand (running + eligible tasks) over time.
    pub demand: StepSeries,
    /// Supply (booted servers) over time.
    pub supply: StepSeries,
    /// Per-task waiting times (start − eligible).
    pub task_waits: Vec<f64>,
    /// Per-workflow `(submit, completion, critical_path)` triples.
    pub workflows: Vec<(f64, f64, f64)>,
    /// Time the last workflow completed.
    pub end_time: f64,
}

impl RunResult {
    /// Mean workflow response time.
    pub fn mean_response(&self) -> f64 {
        self.workflows.iter().map(|&(s, c, _)| c - s).sum::<f64>()
            / self.workflows.len().max(1) as f64
    }
}

#[derive(Debug)]
enum Ev {
    Arrival(usize),
    Finish { wf: usize, node: usize },
    Tick,
    Provisioned(u32),
}

impl EventLabel for Ev {
    fn label(&self) -> &'static str {
        match self {
            Ev::Arrival(_) => "arrival",
            Ev::Finish { .. } => "finish",
            Ev::Tick => "tick",
            Ev::Provisioned(_) => "provisioned",
        }
    }
}

struct WfState {
    indegree: Vec<usize>,
    remaining: usize,
    submit: f64,
    critical: f64,
}

struct ScaleModel<A: Autoscaler> {
    workflows: Vec<Workflow>,
    states: Vec<Option<WfState>>,
    queue: VecDeque<(usize, usize, f64)>,
    supply: u32,
    busy: u32,
    pending_provisions: u32,
    target: u32,
    scaler: A,
    config: AutoscaleConfig,
    demand_series: StepSeries,
    supply_series: StepSeries,
    demand_history: Vec<(f64, f64)>,
    task_waits: Vec<f64>,
    done: Vec<(f64, f64, f64)>,
    end_time: f64,
    all_arrived: bool,
    arrived: usize,
    recorder: Option<Recorder>,
}

impl<A: Autoscaler> ScaleModel<A> {
    fn demand(&self) -> f64 {
        f64::from(self.busy) + self.queue.len() as f64
    }

    fn record_demand(&mut self, now: f64) {
        let d = self.demand();
        self.demand_series.push(now, d);
        if let Some(rec) = &self.recorder {
            rec.gauge_set("scale.demand", now, d);
        }
    }

    fn record_supply(&mut self, now: f64) {
        self.supply_series.push(now, f64::from(self.supply));
        if let Some(rec) = &self.recorder {
            rec.gauge_set("scale.supply", now, f64::from(self.supply));
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<Ev>) {
        while self.busy < self.supply {
            match self.queue.pop_front() {
                Some((wf, node, eligible_at)) => {
                    self.busy += 1;
                    let wait = ctx.now() - eligible_at;
                    self.task_waits.push(wait);
                    if let Some(rec) = &self.recorder {
                        rec.observe("scale.task_wait_s", wait);
                    }
                    let runtime = self.workflows[wf].tasks()[node].runtime;
                    ctx.schedule_in(runtime, Ev::Finish { wf, node });
                }
                None => break,
            }
        }
    }

    fn finished_everything(&self) -> bool {
        self.all_arrived && self.busy == 0 && self.queue.is_empty()
    }
}

impl<A: Autoscaler> Model for ScaleModel<A> {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Ctx<Ev>) {
        match ev {
            Ev::Arrival(wi) => {
                let wf = &self.workflows[wi];
                let indegree = wf.in_degrees();
                let critical = wf.critical_path();
                for (node, &d) in indegree.iter().enumerate() {
                    if d == 0 {
                        self.queue.push_back((wi, node, ctx.now()));
                    }
                }
                self.states[wi] = Some(WfState {
                    indegree,
                    remaining: wf.len(),
                    submit: ctx.now(),
                    critical,
                });
                self.arrived += 1;
                if self.arrived == self.workflows.len() {
                    self.all_arrived = true;
                }
                self.record_demand(ctx.now());
                self.dispatch(ctx);
            }
            Ev::Finish { wf, node } => {
                self.busy -= 1;
                // Decommission down to target now that a server idles.
                if self.supply > self.target && self.supply > self.busy {
                    let spare = (self.supply - self.target).min(self.supply - self.busy);
                    self.supply -= spare;
                    self.record_supply(ctx.now());
                }
                let mut completed = false;
                {
                    let state = self.states[wf].as_mut().expect("workflow arrived");
                    state.remaining -= 1;
                    if state.remaining == 0 {
                        completed = true;
                    }
                }
                // Release successors.
                let succs: Vec<usize> = self.workflows[wf].successors(node).to_vec();
                for s in succs {
                    let state = self.states[wf].as_mut().expect("workflow arrived");
                    state.indegree[s] -= 1;
                    if state.indegree[s] == 0 {
                        self.queue.push_back((wf, s, ctx.now()));
                    }
                }
                if completed {
                    let state = self.states[wf].as_ref().expect("workflow arrived");
                    self.done.push((state.submit, ctx.now(), state.critical));
                    self.end_time = self.end_time.max(ctx.now());
                }
                self.record_demand(ctx.now());
                self.dispatch(ctx);
                if self.finished_everything() {
                    ctx.stop();
                }
            }
            Ev::Tick => {
                let d = self.demand();
                self.demand_history.push((ctx.now(), d));
                if self.demand_history.len() > 512 {
                    self.demand_history.drain(..256);
                }
                // Live evolution point: an orchestrating scaler may retire
                // its current policy here and resume the successor from a
                // state capsule. The sim owns the tracer, so the handoff
                // runs under a span naming both sides.
                if let Some(label) = self.scaler.swap_due(ctx.now(), d) {
                    ctx.span_enter(&label);
                    self.scaler.apply_swap(ctx.now());
                    ctx.span_exit(&label);
                }
                // The autoscaler consultation is the interesting region of
                // a tick: span it so traced runs profile decision cost.
                ctx.span_enter("autoscaler.decide");
                let view = ScalerView {
                    now: ctx.now(),
                    demand: d,
                    supply: self.supply + self.pending_provisions,
                    eligible_tasks: self.queue.len(),
                    demand_history: &self.demand_history,
                };
                let target = self.scaler.decide(&view).min(self.config.max_supply);
                self.target = target;
                let effective = self.supply + self.pending_provisions;
                if target > effective {
                    let add = target - effective;
                    self.pending_provisions += add;
                    if let Some(rec) = &self.recorder {
                        rec.add("scale.provisions", u64::from(add));
                    }
                    ctx.schedule_in(self.config.boot_delay, Ev::Provisioned(add));
                } else if target < self.supply {
                    // Scale in immediately, but never kill running tasks.
                    let new_supply = target.max(self.busy);
                    if new_supply != self.supply {
                        self.supply = new_supply;
                        self.record_supply(ctx.now());
                    }
                }
                ctx.span_exit("autoscaler.decide");
                if !self.finished_everything() {
                    ctx.schedule_in(self.config.tick_interval, Ev::Tick);
                } else {
                    ctx.stop();
                }
            }
            Ev::Provisioned(n) => {
                self.pending_provisions -= n;
                self.supply += n;
                self.record_supply(ctx.now());
                self.dispatch(ctx);
            }
        }
    }
}

/// Runs one autoscaling experiment: `workflows` under `scaler`.
///
/// Lend the scaler (`&mut scaler`) to read state it accumulated during
/// the run afterwards, e.g. an
/// [`EvolvingScaler`](crate::evolve::EvolvingScaler)'s swap log. With
/// `rec`, the recorder is attached as tracer and metric sink
/// (`scale.demand`/`scale.supply` gauges, the `scale.task_wait_s` tally,
/// the `scale.provisions` counter, and the `autoscaler.decide` span);
/// the result is identical to an untraced run of the same inputs and
/// seed.
pub fn run<A: Autoscaler>(
    workflows: Vec<Workflow>,
    scaler: A,
    config: AutoscaleConfig,
    seed: u64,
    rec: Option<&Recorder>,
) -> RunResult {
    if let Some(rec) = rec {
        rec.set_run_info("autoscaling.workflows", seed, config_digest(&config));
        // Mirror the supply series' initial level so the gauge is defined
        // from time zero even if supply never changes.
        rec.gauge_set("scale.supply", 0.0, f64::from(config.initial_supply));
    }
    assert!(!workflows.is_empty(), "need workflows to scale for");
    let n = workflows.len();
    let submits: Vec<f64> = workflows.iter().map(|w| w.submit).collect();
    let model = ScaleModel {
        workflows,
        states: (0..n).map(|_| None).collect(),
        queue: VecDeque::new(),
        supply: config.initial_supply,
        busy: 0,
        pending_provisions: 0,
        target: config.initial_supply,
        scaler,
        config,
        demand_series: StepSeries::new(0.0),
        supply_series: {
            let mut s = StepSeries::new(f64::from(config.initial_supply));
            s.push(0.0, f64::from(config.initial_supply));
            s
        },
        demand_history: Vec::new(),
        task_waits: Vec::new(),
        done: Vec::new(),
        end_time: 0.0,
        all_arrived: false,
        arrived: 0,
        recorder: rec.cloned(),
    };
    // All task arrivals plus the scaler tick are scheduled up front;
    // pre-size the event queue so the fill phase never reallocates.
    let mut sim = Simulation::with_capacity(model, seed, submits.len() + 1);
    if let Some(rec) = rec {
        sim = sim.with_tracer(rec.clone());
    }
    for (i, t) in submits.iter().enumerate() {
        sim.schedule(*t, Ev::Arrival(i));
    }
    sim.schedule(0.0, Ev::Tick);
    sim.run();
    let m = sim.into_model();
    RunResult {
        demand: m.demand_series,
        supply: m.supply_series,
        task_waits: m.task_waits,
        workflows: m.done,
        end_time: m.end_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscaler::{React, RecentPeak};
    use atlarge_workload::workflow::{generate, Shape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Mean task waiting time.
    fn mean_wait(r: &RunResult) -> f64 {
        r.task_waits.iter().sum::<f64>() / r.task_waits.len().max(1) as f64
    }

    fn workflows(n: usize, gap: f64) -> Vec<Workflow> {
        let mut rng = StdRng::seed_from_u64(1);
        (0..n)
            .map(|i| generate(&mut rng, Shape::ForkJoin(6), 30.0, 0.3, i as f64 * gap))
            .collect()
    }

    #[test]
    fn all_workflows_complete() {
        let r = run(
            workflows(10, 50.0),
            React,
            AutoscaleConfig::default(),
            3,
            None,
        );
        assert_eq!(r.workflows.len(), 10);
        assert!(r.end_time > 0.0);
        assert!(!r.task_waits.is_empty());
    }

    #[test]
    fn responses_at_least_critical_path() {
        let r = run(
            workflows(5, 100.0),
            React,
            AutoscaleConfig::default(),
            3,
            None,
        );
        for &(s, c, cp) in &r.workflows {
            assert!(c - s >= cp - 1e-9, "response {} below critical {cp}", c - s);
        }
    }

    #[test]
    fn boot_delay_costs_waiting_time() {
        // The provisioning delay is what separates autoscalers; with React
        // a 300 s boot must hurt task waits vs instant provisioning.
        let slow = AutoscaleConfig {
            boot_delay: 300.0,
            ..Default::default()
        };
        let instant = AutoscaleConfig {
            boot_delay: 0.0,
            ..Default::default()
        };
        let ws = mean_wait(&run(workflows(8, 20.0), React, slow, 3, None));
        let wi = mean_wait(&run(workflows(8, 20.0), React, instant, 3, None));
        assert!(wi < ws, "instant {wi} vs slow {ws}");
    }

    #[test]
    fn supply_never_kills_running_tasks() {
        let r = run(
            workflows(6, 10.0),
            RecentPeak::default(),
            AutoscaleConfig::default(),
            5,
            None,
        );
        // Every workflow finished despite scale-ins.
        assert_eq!(r.workflows.len(), 6);
    }

    #[test]
    fn deterministic() {
        let a = run(
            workflows(5, 30.0),
            React,
            AutoscaleConfig::default(),
            9,
            None,
        );
        let b = run(
            workflows(5, 30.0),
            React,
            AutoscaleConfig::default(),
            9,
            None,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn traced_run_matches_untraced_and_profiles_ticks() {
        let cfg = AutoscaleConfig::default();
        let plain = run(workflows(6, 40.0), React, cfg, 13, None);
        let rec = Recorder::new();
        let traced = run(workflows(6, 40.0), React, cfg, 13, Some(&rec));
        assert_eq!(plain, traced, "telemetry must not perturb the run");
        // Every tick dispatched ran exactly one decision span.
        let spans = rec.span_stats();
        assert_eq!(spans["autoscaler.decide"].entries, rec.dispatches("tick"));
        assert!(rec.dispatches("tick") > 0);
        assert_eq!(
            rec.tally("scale.task_wait_s")
                .expect("waits recorded")
                .len(),
            traced.task_waits.len()
        );
        assert_eq!(rec.manifest().model, "autoscaling.workflows");
        let supply = rec.gauge("scale.supply").expect("supply tracked");
        assert!(supply.max_level() >= f64::from(cfg.initial_supply));
    }
}
