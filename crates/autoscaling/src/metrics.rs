//! The ten elasticity metrics.
//!
//! \[126\] selected "ten elasticity metrics"; \[127\] added traditional
//! performance and cost metrics. This module computes, from the demand and
//! supply step series of a run:
//!
//! 1. under-provisioning accuracy `theta_u` (avg missing servers),
//! 2. over-provisioning accuracy `theta_o` (avg excess servers),
//! 3. normalized under-accuracy (per unit demand),
//! 4. normalized over-accuracy,
//! 5. under-provisioning timeshare `tau_u`,
//! 6. over-provisioning timeshare `tau_o`,
//! 7. instability (supply changes per hour),
//! 8. average supply,
//! 9. average utilization,
//! 10. jitter (demand/supply crossings per hour),
//!
//! plus mean response time and monetary cost carried alongside.

use atlarge_stats::timeseries::StepSeries;

/// The ten elasticity metrics plus carried performance/cost metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticityReport {
    /// (1) Mean servers missing while under-provisioned.
    pub under_accuracy: f64,
    /// (2) Mean servers excess while over-provisioned.
    pub over_accuracy: f64,
    /// (3) Under-accuracy normalized by mean demand.
    pub under_accuracy_norm: f64,
    /// (4) Over-accuracy normalized by mean demand.
    pub over_accuracy_norm: f64,
    /// (5) Fraction of time under-provisioned.
    pub under_timeshare: f64,
    /// (6) Fraction of time over-provisioned.
    pub over_timeshare: f64,
    /// (7) Supply changes per hour.
    pub instability: f64,
    /// (8) Time-averaged supply.
    pub avg_supply: f64,
    /// (9) Time-averaged demand/supply utilization (capped at 1).
    pub avg_utilization: f64,
    /// (10) Demand–supply sign crossings per hour.
    pub jitter: f64,
    /// Carried: mean task response time.
    pub mean_response: f64,
    /// Carried: monetary cost of the run.
    pub cost: f64,
}

impl ElasticityReport {
    /// Computes the ten metrics over `[from, to]`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    pub fn compute(
        demand: &StepSeries,
        supply: &StepSeries,
        from: f64,
        to: f64,
        mean_response: f64,
        cost: f64,
    ) -> Self {
        assert!(from < to, "evaluation window must be non-empty");
        let dur = to - from;
        let under = demand.combine(supply, |d, s| (d - s).max(0.0));
        let over = demand.combine(supply, |d, s| (s - d).max(0.0));
        let under_time = demand.combine(supply, |d, s| f64::from(d > s));
        let over_time = demand.combine(supply, |d, s| f64::from(s > d));
        let mean_demand = demand.time_average(from, to).max(1e-9);
        let under_acc = under.integral(from, to) / dur;
        let over_acc = over.integral(from, to) / dur;
        let sign = demand.combine(supply, |d, s| {
            if d > s {
                1.0
            } else if s > d {
                -1.0
            } else {
                0.0
            }
        });
        let util = demand.combine(supply, |d, s| if s <= 0.0 { 0.0 } else { (d / s).min(1.0) });
        ElasticityReport {
            under_accuracy: under_acc,
            over_accuracy: over_acc,
            under_accuracy_norm: under_acc / mean_demand,
            over_accuracy_norm: over_acc / mean_demand,
            under_timeshare: under_time.integral(from, to) / dur,
            over_timeshare: over_time.integral(from, to) / dur,
            instability: supply.transitions() as f64 / (dur / 3600.0),
            avg_supply: supply.time_average(from, to),
            avg_utilization: util.integral(from, to) / dur,
            jitter: sign.transitions() as f64 / (dur / 3600.0),
            mean_response,
            cost,
        }
    }

    /// The metric names, in order, for score tables.
    pub(crate) fn metric_names() -> [&'static str; 12] {
        [
            "under_accuracy",
            "over_accuracy",
            "under_accuracy_norm",
            "over_accuracy_norm",
            "under_timeshare",
            "over_timeshare",
            "instability",
            "avg_supply",
            "avg_utilization",
            "jitter",
            "mean_response",
            "cost",
        ]
    }

    /// Metric values aligned with `ElasticityReport::metric_names`.
    pub fn values(&self) -> [f64; 12] {
        [
            self.under_accuracy,
            self.over_accuracy,
            self.under_accuracy_norm,
            self.over_accuracy_norm,
            self.under_timeshare,
            self.over_timeshare,
            self.instability,
            self.avg_supply,
            self.avg_utilization,
            self.jitter,
            self.mean_response,
            self.cost,
        ]
    }

    /// Whether lower is better for the metric at `index` (utilization is
    /// the one higher-is-better elasticity metric here).
    pub(crate) fn lower_is_better(index: usize) -> bool {
        index != 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_check::{check, vec_of};
    use rand::rngs::StdRng;
    use rand::Rng;

    fn series(points: &[(f64, f64)]) -> StepSeries {
        let mut s = StepSeries::new(0.0);
        for &(t, v) in points {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn perfect_tracking_is_all_zeroes() {
        let demand = series(&[(0.0, 4.0), (50.0, 8.0)]);
        let supply = series(&[(0.0, 4.0), (50.0, 8.0)]);
        let r = ElasticityReport::compute(&demand, &supply, 0.0, 100.0, 1.0, 0.0);
        assert_eq!(r.under_accuracy, 0.0);
        assert_eq!(r.over_accuracy, 0.0);
        assert_eq!(r.under_timeshare, 0.0);
        assert_eq!(r.over_timeshare, 0.0);
        assert!((r.avg_utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn under_provisioning_measured() {
        // Demand 10 throughout; supply 6 for the first half, 10 after.
        let demand = series(&[(0.0, 10.0)]);
        let supply = series(&[(0.0, 6.0), (50.0, 10.0)]);
        let r = ElasticityReport::compute(&demand, &supply, 0.0, 100.0, 1.0, 0.0);
        assert!((r.under_accuracy - 2.0).abs() < 1e-12); // 4 missing × 50% time
        assert!((r.under_timeshare - 0.5).abs() < 1e-12);
        assert_eq!(r.over_timeshare, 0.0);
        assert!((r.under_accuracy_norm - 0.2).abs() < 1e-12);
    }

    #[test]
    fn over_provisioning_measured() {
        let demand = series(&[(0.0, 2.0)]);
        let supply = series(&[(0.0, 6.0)]);
        let r = ElasticityReport::compute(&demand, &supply, 0.0, 100.0, 1.0, 0.0);
        assert!((r.over_accuracy - 4.0).abs() < 1e-12);
        assert!((r.over_timeshare - 1.0).abs() < 1e-12);
        assert!((r.avg_utilization - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn instability_counts_supply_changes() {
        let demand = series(&[(0.0, 1.0)]);
        let mut supply = StepSeries::new(1.0);
        for i in 0..10 {
            supply.push(i as f64 * 360.0, if i % 2 == 0 { 2.0 } else { 1.0 });
        }
        let r = ElasticityReport::compute(&demand, &supply, 0.0, 3600.0, 1.0, 0.0);
        // 10 transitions minus the initial no-op? initial 1.0 -> 2.0 at t=0
        // counts; all alternate: 10 changes over 1 hour.
        assert!(
            (r.instability - 10.0).abs() < 1e-9,
            "instability {}",
            r.instability
        );
    }

    #[test]
    fn jitter_counts_crossings() {
        let demand = series(&[(0.0, 5.0)]);
        let supply = series(&[(0.0, 4.0), (25.0, 6.0), (50.0, 4.0), (75.0, 6.0)]);
        let r = ElasticityReport::compute(&demand, &supply, 0.0, 3600.0, 1.0, 0.0);
        assert!(r.jitter > 0.0);
    }

    /// Invariants over arbitrary demand/supply traces: accuracies are
    /// non-negative, timeshares and utilization live in [0,1], and the
    /// under/over timeshares cannot overlap.
    #[test]
    fn prop_metric_invariants() {
        check("prop_metric_invariants", 256, |rng| {
            let step = |r: &mut StdRng| (r.gen_range(0.0f64..100.0), r.gen_range(0.0f64..20.0));
            let demand_steps = vec_of(rng, 1..20, step);
            let supply_steps = vec_of(rng, 1..20, step);
            let build = |steps: &[(f64, f64)]| {
                let mut sorted = steps.to_vec();
                sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                let mut s = StepSeries::new(0.0);
                for (t, v) in sorted {
                    s.push(t, v.round());
                }
                s
            };
            let demand = build(&demand_steps);
            let supply = build(&supply_steps);
            let r = ElasticityReport::compute(&demand, &supply, 0.0, 120.0, 1.0, 0.0);
            assert!(r.under_accuracy >= 0.0);
            assert!(r.over_accuracy >= 0.0);
            assert!((0.0..=1.0 + 1e-9).contains(&r.under_timeshare));
            assert!((0.0..=1.0 + 1e-9).contains(&r.over_timeshare));
            assert!(r.under_timeshare + r.over_timeshare <= 1.0 + 1e-9);
            assert!((0.0..=1.0 + 1e-9).contains(&r.avg_utilization));
            assert!(r.instability >= 0.0);
            assert!(r.jitter >= 0.0);
        });
    }

    #[test]
    fn names_align_with_values() {
        assert_eq!(
            ElasticityReport::metric_names().len(),
            ElasticityReport::compute(
                &series(&[(0.0, 1.0)]),
                &series(&[(0.0, 1.0)]),
                0.0,
                1.0,
                0.0,
                0.0
            )
            .values()
            .len()
        );
        assert!(ElasticityReport::lower_is_better(0));
        assert!(!ElasticityReport::lower_is_better(8));
    }
}
