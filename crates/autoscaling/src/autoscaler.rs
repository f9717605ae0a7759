//! Autoscaling policies.
//!
//! The general autoscalers follow the families evaluated in \[126\]–\[128\]:
//! React (track demand exactly), Adapt (bounded steps with hysteresis),
//! Hist (histogram prediction over a repeating window), Reg (regression
//! extrapolation), and a ConPaaS-like recent-peak predictor. The
//! workflow-aware pair — Plan and Token — exploit the eligible-task count
//! that workflow structure exposes.

use atlarge_evolve::{Capsule, CapsuleError, Evolvable, Value};
use atlarge_stats::regression::linear_fit;

/// What an autoscaler sees when deciding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalerView<'a> {
    /// Current simulated time.
    pub now: f64,
    /// Current demand (running + eligible tasks).
    pub demand: f64,
    /// Current supply (provisioned servers).
    pub supply: u32,
    /// Workflow-aware signal: tasks eligible to run right now.
    pub eligible_tasks: usize,
    /// Recent `(time, demand)` samples, oldest first.
    pub demand_history: &'a [(f64, f64)],
}

/// An autoscaling policy: maps the current view to a target server count.
pub trait Autoscaler {
    /// The policy's display name.
    fn name(&self) -> &'static str;

    /// Decides the target supply.
    fn decide(&mut self, view: &ScalerView<'_>) -> u32;

    /// Whether the policy uses workflow structure (the paper's
    /// general/workflow-specific split).
    fn workflow_aware(&self) -> bool {
        false
    }

    /// Live-evolution hook, polled once per tick before the decision:
    /// returns the tracer span label of a swap that has come due, or
    /// `None`. Plain autoscalers never swap; an orchestrator such as
    /// [`EvolvingScaler`] consults its [`SwapPlan`] here. The sim owns
    /// the tracer, so announcing and performing a swap are split: the
    /// sim wraps [`apply_swap`] in a span carrying this label.
    ///
    /// [`EvolvingScaler`]: crate::evolve::EvolvingScaler
    /// [`SwapPlan`]: atlarge_evolve::SwapPlan
    /// [`apply_swap`]: Autoscaler::apply_swap
    fn swap_due(&mut self, _now: f64, _demand: f64) -> Option<String> {
        None
    }

    /// Performs the swap announced by [`swap_due`](Autoscaler::swap_due):
    /// capture → resume into the successor. No-op by default.
    fn apply_swap(&mut self, _now: f64) {}
}

/// Lends an autoscaler to a run, so the caller can inspect its state
/// afterwards (e.g. [`EvolvingScaler`]'s swap log). Every method
/// forwards, the defaulted hooks too: a lent scaler swaps exactly like
/// an owned one.
///
/// [`EvolvingScaler`]: crate::evolve::EvolvingScaler
impl<A: Autoscaler + ?Sized> Autoscaler for &mut A {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn decide(&mut self, view: &ScalerView<'_>) -> u32 {
        (**self).decide(view)
    }

    fn workflow_aware(&self) -> bool {
        (**self).workflow_aware()
    }

    fn swap_due(&mut self, now: f64, demand: f64) -> Option<String> {
        (**self).swap_due(now, demand)
    }

    fn apply_swap(&mut self, now: f64) {
        (**self).apply_swap(now)
    }
}

/// React: provision exactly the current demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct React;

impl Autoscaler for React {
    fn name(&self) -> &'static str {
        "react"
    }

    fn decide(&mut self, view: &ScalerView<'_>) -> u32 {
        view.demand.ceil() as u32
    }
}

/// Adapt: move toward demand in bounded steps, shrinking only after the
/// demand has stayed below supply for `cooldown` consecutive decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Adapt {
    /// Maximum servers added or removed per decision.
    pub max_step: u32,
    /// Consecutive low-demand decisions required before scaling in.
    pub cooldown: u32,
    below: u32,
}

impl Default for Adapt {
    fn default() -> Self {
        Adapt {
            max_step: 2,
            cooldown: 3,
            below: 0,
        }
    }
}

impl Autoscaler for Adapt {
    fn name(&self) -> &'static str {
        "adapt"
    }

    fn decide(&mut self, view: &ScalerView<'_>) -> u32 {
        let demand = view.demand.ceil() as u32;
        if demand > view.supply {
            self.below = 0;
            view.supply + (demand - view.supply).min(self.max_step)
        } else if demand < view.supply {
            self.below += 1;
            if self.below >= self.cooldown {
                view.supply - (view.supply - demand).min(self.max_step)
            } else {
                view.supply
            }
        } else {
            self.below = 0;
            view.supply
        }
    }
}

/// Hist: histogram prediction — provisions the `percentile` of demand
/// observed at the same phase of a repeating `window` (e.g. time of day).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Hist {
    /// Length of the repeating window in simulated seconds.
    pub window: f64,
    /// Number of phase buckets per window.
    pub buckets: usize,
    /// Percentile of per-bucket history to provision (0–100).
    pub percentile: f64,
    history: Vec<Vec<f64>>,
}

impl Hist {
    /// Creates a Hist autoscaler.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters.
    pub fn new(window: f64, buckets: usize, percentile: f64) -> Self {
        assert!(window > 0.0 && buckets > 0);
        assert!((0.0..=100.0).contains(&percentile));
        Hist {
            window,
            buckets,
            percentile,
            history: vec![Vec::new(); buckets],
        }
    }

    fn bucket(&self, now: f64) -> usize {
        let phase = (now % self.window) / self.window;
        ((phase * self.buckets as f64) as usize).min(self.buckets - 1)
    }
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new(3_600.0, 24, 80.0)
    }
}

impl Autoscaler for Hist {
    fn name(&self) -> &'static str {
        "hist"
    }

    fn decide(&mut self, view: &ScalerView<'_>) -> u32 {
        let b = self.bucket(view.now);
        self.history[b].push(view.demand);
        let bucket = &mut self.history[b];
        if bucket.len() < 3 {
            return view.demand.ceil() as u32; // warm-up: behave like React
        }
        let mut sorted = bucket.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite demand"));
        let idx = ((self.percentile / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx].ceil() as u32
    }
}

/// Reg: fits a line through recent demand and provisions the value
/// extrapolated `horizon` seconds ahead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Reg {
    /// How far ahead to extrapolate.
    pub horizon: f64,
    /// How many trailing samples to fit.
    pub samples: usize,
}

impl Default for Reg {
    fn default() -> Self {
        Reg {
            horizon: 120.0,
            samples: 10,
        }
    }
}

impl Autoscaler for Reg {
    fn name(&self) -> &'static str {
        "reg"
    }

    fn decide(&mut self, view: &ScalerView<'_>) -> u32 {
        let h = view.demand_history;
        let n = h.len().min(self.samples);
        if n < 3 {
            return view.demand.ceil() as u32;
        }
        let tail = &h[h.len() - n..];
        let xs: Vec<f64> = tail.iter().map(|&(t, _)| t).collect();
        let ys: Vec<f64> = tail.iter().map(|&(_, d)| d).collect();
        match linear_fit(&xs, &ys) {
            Some(fit) => fit.predict(view.now + self.horizon).max(0.0).ceil() as u32,
            None => view.demand.ceil() as u32,
        }
    }
}

/// ConPaaS-like: provisions the maximum demand seen over the trailing
/// `lookback` samples (a conservative recent-peak rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecentPeak {
    /// Trailing samples considered.
    pub lookback: usize,
}

impl Default for RecentPeak {
    fn default() -> Self {
        RecentPeak { lookback: 12 }
    }
}

impl Autoscaler for RecentPeak {
    fn name(&self) -> &'static str {
        "peak"
    }

    fn decide(&mut self, view: &ScalerView<'_>) -> u32 {
        let h = view.demand_history;
        let n = h.len().min(self.lookback);
        h[h.len() - n..]
            .iter()
            .map(|&(_, d)| d)
            .fold(view.demand, f64::max)
            .ceil() as u32
    }
}

/// Plan (workflow-aware): provisions for the tasks that are eligible right
/// now plus a structural margin for imminent releases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Plan {
    /// Fraction of running tasks whose successors are assumed imminent.
    pub release_margin: f64,
}

impl Default for Plan {
    fn default() -> Self {
        Plan {
            release_margin: 0.25,
        }
    }
}

impl Autoscaler for Plan {
    fn name(&self) -> &'static str {
        "plan"
    }

    fn decide(&mut self, view: &ScalerView<'_>) -> u32 {
        let running = (view.demand - view.eligible_tasks as f64).max(0.0);
        let imminent = running * self.release_margin;
        (view.eligible_tasks as f64 + running + imminent).ceil() as u32
    }

    fn workflow_aware(&self) -> bool {
        true
    }
}

/// Token (workflow-aware): level-of-parallelism tokens — provisions the
/// eligible tasks exactly, but never below a floor proportional to recent
/// demand (tokens persist one decision).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token {
    /// Fraction of the previous target retained as a floor.
    pub retain: f64,
    previous: u32,
}

impl Default for Token {
    fn default() -> Self {
        Token {
            retain: 0.5,
            previous: 0,
        }
    }
}

impl Autoscaler for Token {
    fn name(&self) -> &'static str {
        "token"
    }

    fn decide(&mut self, view: &ScalerView<'_>) -> u32 {
        let floor = (f64::from(self.previous) * self.retain).floor() as u32;
        let target = (view.demand.ceil() as u32).max(floor);
        self.previous = target;
        target
    }

    fn workflow_aware(&self) -> bool {
        true
    }
}

// --- State capsules -----------------------------------------------------
//
// Every autoscaler is [`Evolvable`]: it captures its full state —
// configuration *and* accumulated learning — into a versioned capsule
// and resumes from one. A successor that resumes a capsule is a
// continuation of its predecessor; that is what makes an identity swap
// observationally free.

impl Evolvable for React {
    fn capsule_kind(&self) -> &'static str {
        "autoscaler.react"
    }

    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new(self.capsule_kind(), 1)
    }

    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())
    }
}

impl Evolvable for Adapt {
    fn capsule_kind(&self) -> &'static str {
        "autoscaler.adapt"
    }

    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new(self.capsule_kind(), 1)
            .with_u32("max_step", self.max_step)
            .with_u32("cooldown", self.cooldown)
            .with_u32("below", self.below)
    }

    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())?;
        self.max_step = capsule.u32_field("max_step")?;
        self.cooldown = capsule.u32_field("cooldown")?;
        self.below = capsule.u32_field("below")?;
        Ok(())
    }
}

impl Evolvable for Hist {
    fn capsule_kind(&self) -> &'static str {
        "autoscaler.hist"
    }

    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new(self.capsule_kind(), 1)
            .with_f64("window", self.window)
            .with_u64("buckets", self.buckets as u64)
            .with_f64("percentile", self.percentile)
            .with("history", Value::F64Table(self.history.clone()))
    }

    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())?;
        let window = capsule.f64_field("window")?;
        let buckets = capsule.u64_field("buckets")? as usize;
        let percentile = capsule.f64_field("percentile")?;
        if window <= 0.0 || window.is_nan() || buckets == 0 || !(0.0..=100.0).contains(&percentile)
        {
            return Err(CapsuleError::BadValue(
                "hist capsule has degenerate parameters".to_string(),
            ));
        }
        let history = capsule.f64_table_field("history")?;
        if history.len() != buckets {
            return Err(CapsuleError::BadValue(format!(
                "hist capsule history has {} rows for {buckets} buckets",
                history.len()
            )));
        }
        self.window = window;
        self.buckets = buckets;
        self.percentile = percentile;
        self.history = history.to_vec();
        Ok(())
    }
}

impl Evolvable for Reg {
    fn capsule_kind(&self) -> &'static str {
        "autoscaler.reg"
    }

    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new(self.capsule_kind(), 1)
            .with_f64("horizon", self.horizon)
            .with_u64("samples", self.samples as u64)
    }

    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())?;
        self.horizon = capsule.f64_field("horizon")?;
        self.samples = capsule.u64_field("samples")? as usize;
        Ok(())
    }
}

impl Evolvable for RecentPeak {
    fn capsule_kind(&self) -> &'static str {
        "autoscaler.peak"
    }

    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new(self.capsule_kind(), 1).with_u64("lookback", self.lookback as u64)
    }

    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())?;
        self.lookback = capsule.u64_field("lookback")? as usize;
        Ok(())
    }
}

impl Evolvable for Plan {
    fn capsule_kind(&self) -> &'static str {
        "autoscaler.plan"
    }

    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new(self.capsule_kind(), 1).with_f64("release_margin", self.release_margin)
    }

    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())?;
        self.release_margin = capsule.f64_field("release_margin")?;
        Ok(())
    }
}

impl Evolvable for Token {
    fn capsule_kind(&self) -> &'static str {
        "autoscaler.token"
    }

    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new(self.capsule_kind(), 1)
            .with_f64("retain", self.retain)
            .with_u32("previous", self.previous)
    }

    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())?;
        self.retain = capsule.f64_field("retain")?;
        self.previous = capsule.u32_field("previous")?;
        Ok(())
    }
}

/// The full autoscaler roster of the experiments.
pub fn roster() -> Vec<Box<dyn Autoscaler>> {
    vec![
        Box::new(React),
        Box::new(Adapt::default()),
        Box::new(Hist::default()),
        Box::new(Reg::default()),
        Box::new(RecentPeak::default()),
        Box::new(Plan::default()),
        Box::new(Token::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(now: f64, demand: f64, supply: u32, history: &[(f64, f64)]) -> ScalerView<'_> {
        ScalerView {
            now,
            demand,
            supply,
            eligible_tasks: demand as usize,
            demand_history: history,
        }
    }

    #[test]
    fn react_tracks_demand_exactly() {
        let mut r = React;
        assert_eq!(r.decide(&view(0.0, 7.2, 3, &[])), 8);
        assert_eq!(r.decide(&view(1.0, 0.0, 3, &[])), 0);
    }

    #[test]
    fn adapt_limits_step_and_cools_down() {
        let mut a = Adapt::default();
        // Demand jumps to 10 from supply 2: step limited to +2.
        assert_eq!(a.decide(&view(0.0, 10.0, 2, &[])), 4);
        // Demand drops to 0 from supply 4: no scale-in before cooldown.
        assert_eq!(a.decide(&view(1.0, 0.0, 4, &[])), 4);
        assert_eq!(a.decide(&view(2.0, 0.0, 4, &[])), 4);
        assert_eq!(a.decide(&view(3.0, 0.0, 4, &[])), 2);
    }

    #[test]
    fn hist_learns_the_window() {
        let mut h = Hist::new(100.0, 10, 90.0);
        // Feed demand 10 at phase 0 repeatedly.
        for i in 0..5 {
            h.decide(&view(i as f64 * 100.0, 10.0, 1, &[]));
        }
        // Now phase 0 history says ~10 even if instantaneous demand is 1.
        let t = h.decide(&view(500.0, 1.0, 1, &[]));
        assert!(t >= 9, "hist target {t}");
    }

    #[test]
    fn reg_extrapolates_growth() {
        let history: Vec<(f64, f64)> = (0..10).map(|i| (i as f64 * 10.0, i as f64)).collect();
        let mut r = Reg {
            horizon: 100.0,
            samples: 10,
        };
        // Demand grows 0.1/s; at t=90 demand 9, predicted at 190 ≈ 19.
        let t = r.decide(&view(90.0, 9.0, 9, &history));
        assert!(t >= 17, "reg target {t}");
    }

    #[test]
    fn recent_peak_is_conservative() {
        let history = vec![(0.0, 2.0), (10.0, 9.0), (20.0, 3.0)];
        let mut p = RecentPeak { lookback: 3 };
        assert_eq!(p.decide(&view(30.0, 1.0, 1, &history)), 9);
    }

    #[test]
    fn plan_and_token_are_workflow_aware() {
        assert!(Plan::default().workflow_aware());
        assert!(Token::default().workflow_aware());
        assert!(!React.workflow_aware());
    }

    #[test]
    fn token_retains_a_floor() {
        let mut t = Token::default();
        assert_eq!(t.decide(&view(0.0, 10.0, 0, &[])), 10);
        // Demand collapses; floor = 50% of previous target.
        assert_eq!(t.decide(&view(1.0, 0.0, 10, &[])), 5);
    }

    #[test]
    fn capsules_round_trip_accumulated_state() {
        // Drive stateful scalers into a non-default state, capture, and
        // resume into a fresh default: the resumed scaler must equal the
        // original (PartialEq covers private state).
        let mut adapt = Adapt::default();
        adapt.decide(&view(0.0, 0.0, 4, &[])); // below = 1
        let mut adapt2 = Adapt {
            max_step: 9,
            ..Adapt::default()
        };
        adapt2.resume(&adapt.capture(10.0), 10.0).unwrap();
        assert_eq!(adapt, adapt2);

        let mut hist = Hist::new(100.0, 4, 90.0);
        for i in 0..6 {
            hist.decide(&view(i as f64 * 30.0, i as f64, 1, &[]));
        }
        let mut hist2 = Hist::default();
        hist2.resume(&hist.capture(200.0), 200.0).unwrap();
        assert_eq!(hist, hist2);

        let mut token = Token::default();
        token.decide(&view(0.0, 10.0, 0, &[])); // previous = 10
        let mut token2 = Token::default();
        token2.resume(&token.capture(5.0), 5.0).unwrap();
        assert_eq!(token, token2);
        // The resumed floor behaves like the original's.
        assert_eq!(token2.decide(&view(6.0, 0.0, 10, &[])), 5);
    }

    #[test]
    fn capture_is_deterministic() {
        let mut hist = Hist::default();
        hist.decide(&view(0.0, 3.0, 1, &[]));
        assert_eq!(
            hist.capture(1.0),
            hist.capture(1.0),
            "capture must be deterministic"
        );
    }

    #[test]
    fn resume_rejects_foreign_and_degenerate_capsules() {
        let react_capsule = React.capture(0.0);
        let mut token = Token::default();
        assert!(token.resume(&react_capsule, 0.0).is_err());

        let mut hist = Hist::default();
        let mut broken = Hist::new(10.0, 2, 50.0).capture(0.0);
        broken.set("buckets", atlarge_evolve::Value::U64(0));
        assert!(hist.resume(&broken, 0.0).is_err());
    }

    #[test]
    fn plain_autoscalers_never_announce_swaps() {
        let mut r = React;
        assert_eq!(r.swap_due(0.0, 100.0), None);
        r.apply_swap(0.0); // no-op by default
    }

    #[test]
    fn roster_has_seven_scalers_with_unique_names() {
        let r = roster();
        assert_eq!(r.len(), 7);
        let names: std::collections::BTreeSet<&str> = r.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 7);
    }
}
