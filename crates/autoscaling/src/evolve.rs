//! Live autoscaler evolution: retire the running policy mid-simulation
//! and resume its successor from a state capsule.
//!
//! [`EvolvingScaler`] wraps any roster autoscaler and a
//! [`SwapPlan`]; at every tick the sim polls
//! [`Autoscaler::swap_due`] with the current demand, and when a trigger
//! fires — a scheduled sim-time or a demand threshold (the flashcrowd
//! peak) — the handoff runs under an `evolve.swap(from->to)` tracer
//! span: capture the old scaler's capsule, resume the successor. The
//! keystone property is the *identity swap*: swapping a scaler for
//! itself must leave [`RunResult`](crate::sim::RunResult)s and the
//! kernel event stream byte-identical to never swapping.

use crate::autoscaler::{Adapt, Autoscaler, Hist, Plan, React, RecentPeak, Reg, ScalerView, Token};
use atlarge_evolve::{Evolvable, Live, SwapPlan};

/// An autoscaler that can be live-swapped: decides targets *and*
/// captures/resumes state capsules.
pub trait EvolvableScaler: Autoscaler + Evolvable + std::fmt::Debug {}

impl<T: Autoscaler + Evolvable + std::fmt::Debug> EvolvableScaler for T {}

/// Builds a roster autoscaler by its campaign name.
pub(crate) fn scaler_by_name(name: &str) -> Option<Box<dyn EvolvableScaler>> {
    match name {
        "react" => Some(Box::new(React)),
        "adapt" => Some(Box::new(Adapt::default())),
        "hist" => Some(Box::new(Hist::default())),
        "reg" => Some(Box::new(Reg::default())),
        "peak" => Some(Box::new(RecentPeak::default())),
        "plan" => Some(Box::new(Plan::default())),
        "token" => Some(Box::new(Token::default())),
        _ => None,
    }
}

/// An [`Autoscaler`] that runs its current roster policy and executes a
/// [`SwapPlan`] against it mid-simulation (trigger metric: demand).
pub type EvolvingScaler = Live<dyn EvolvableScaler>;

/// An [`EvolvingScaler`] starting from the roster scaler named
/// `initial`; every successor in `plan` must name a roster scaler too.
pub fn evolving_scaler(initial: &str, plan: SwapPlan) -> Result<EvolvingScaler, String> {
    Live::new("autoscaler", scaler_by_name, initial, plan)
}

impl Autoscaler for EvolvingScaler {
    fn name(&self) -> &'static str {
        "evolving"
    }

    fn decide(&mut self, view: &ScalerView<'_>) -> u32 {
        self.current_mut().decide(view)
    }

    fn workflow_aware(&self) -> bool {
        self.current().workflow_aware()
    }

    fn swap_due(&mut self, now: f64, demand: f64) -> Option<String> {
        Live::swap_due(self, now, demand)
    }

    fn apply_swap(&mut self, now: f64) {
        Live::apply_swap(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{run, AutoscaleConfig, RunResult};
    use atlarge_evolve::SwapRecord;
    use atlarge_telemetry::recorder::{Recorder, TraceKind};
    use atlarge_workload::workflow::{generate, Shape, Workflow};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs `workflows` under `initial` with `plan` executing live,
    /// through a lent scaler; returns the result and the swap log.
    fn run_swapping(
        workflows: Vec<Workflow>,
        initial: &str,
        plan: &str,
        seed: u64,
        rec: Option<&Recorder>,
    ) -> (RunResult, Vec<SwapRecord>) {
        let plan = SwapPlan::parse(plan).unwrap();
        let mut scaler = evolving_scaler(initial, plan).unwrap();
        let result = run(
            workflows,
            &mut scaler,
            AutoscaleConfig::default(),
            seed,
            rec,
        );
        (result, scaler.swap_log().to_vec())
    }

    fn workflows(n: usize, gap: f64) -> Vec<Workflow> {
        let mut rng = StdRng::seed_from_u64(1);
        (0..n)
            .map(|i| generate(&mut rng, Shape::ForkJoin(6), 30.0, 0.3, i as f64 * gap))
            .collect()
    }

    /// The keystone claim: an identity swap (every roster scaler
    /// replaced by itself mid-run) yields results equal to never
    /// swapping.
    #[test]
    fn identity_swap_is_observationally_free_for_every_scaler() {
        let cfg = AutoscaleConfig::default();
        for name in ["react", "adapt", "hist", "reg", "peak", "plan", "token"] {
            let baseline = {
                let evolving = evolving_scaler(name, SwapPlan::none()).unwrap();
                run(workflows(8, 30.0), evolving, cfg, 11, None)
            };
            let plan = format!("{name}@150");
            let (swapped, log) = run_swapping(workflows(8, 30.0), name, &plan, 11, None);
            assert_eq!(log.len(), 1, "{name}: swap must fire");
            assert!(log[0].resumed, "{name}: same-kind swap must resume");
            assert_eq!(baseline, swapped, "{name}: identity swap changed the run");
        }
    }

    /// The no-plan wrapper itself is free: wrapping a scaler in
    /// EvolvingScaler without a plan equals running it bare.
    #[test]
    fn wrapper_without_plan_equals_bare_scaler() {
        let cfg = AutoscaleConfig::default();
        let bare = run(workflows(8, 30.0), Token::default(), cfg, 5, None);
        let wrapped = evolving_scaler("token", SwapPlan::none()).unwrap();
        let viaplan = run(workflows(8, 30.0), wrapped, cfg, 5, None);
        assert_eq!(bare, viaplan);
    }

    /// Traced identity swap: besides equal outputs, the kernel event
    /// stream (schedule/dispatch records) must be byte-identical — the
    /// only trace difference is the swap's own span pair.
    #[test]
    fn identity_swap_leaves_the_event_stream_byte_identical() {
        let cfg = AutoscaleConfig::default();
        let base_rec = Recorder::new();
        let baseline = run(
            workflows(8, 30.0),
            Adapt::default(),
            cfg,
            11,
            Some(&base_rec),
        );
        let swap_rec = Recorder::new();
        let (swapped, log) = run_swapping(
            workflows(8, 30.0),
            "adapt",
            "adapt@150",
            11,
            Some(&swap_rec),
        );
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
        // And the swap span itself is present, paired, and at swap time.
        let spans: Vec<_> = swap_rec
            .trace()
            .into_iter()
            .filter(|r| r.label == "evolve.swap(adapt->adapt)")
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, TraceKind::SpanEnter);
        assert_eq!(spans[1].kind, TraceKind::SpanExit);
        assert_eq!(spans[0].time, log[0].time);
    }

    /// A/B: switching autoscalers at a demand peak actually changes the
    /// run, carries no state across kinds, and logs the handoff.
    #[test]
    fn cross_kind_swap_at_demand_peak_changes_the_run() {
        let cfg = AutoscaleConfig::default();
        // Tight arrivals so demand builds past the threshold.
        let baseline = run(workflows(12, 10.0), React, cfg, 7, None);
        let (swapped, log) = run_swapping(workflows(12, 10.0), "react", "token@peak6", 7, None);
        assert_eq!(log.len(), 1, "demand must exceed 6 at some tick");
        assert_eq!(log[0].from, "react");
        assert_eq!(log[0].to, "token");
        assert!(!log[0].resumed, "react capsule cannot resume into token");
        assert_eq!(
            baseline.workflows.len(),
            swapped.workflows.len(),
            "swap must not lose workflows"
        );
        assert_ne!(
            baseline.supply, swapped.supply,
            "a different scaler after the peak must provision differently"
        );
    }

    #[test]
    fn unknown_names_are_rejected_up_front() {
        let err = evolving_scaler("nope", SwapPlan::none()).unwrap_err();
        assert_eq!(err, "unknown autoscaler 'nope'");
        let plan = SwapPlan::parse("nope@10").unwrap();
        let err = evolving_scaler("react", plan).unwrap_err();
        assert_eq!(err, "unknown autoscaler 'nope' in swap plan");
    }
}
