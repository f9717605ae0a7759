//! Independent corroboration (\[128\], \[130\]).
//!
//! The autoscaling line found "interesting discrepancies between the
//! real-world software of the initial in vitro experiments and the
//! software of the simulator, which we have developed independently;
//! these discrepancies have allowed us to correct in time the real-world
//! results, and emphasize the need for *independent corroboration* in
//! the community."
//!
//! The reproduction practices what it preaches: this module re-implements
//! the elasticity metrics by a *structurally different* method — dense
//! time sampling instead of exact step-function integration — and the
//! corroboration check compares the two implementations. Within the
//! sampling error bound they must agree; a disagreement beyond it flags a
//! bug in one of the implementations (which is precisely how \[128\] caught
//! theirs).

use crate::metrics::ElasticityReport;
use atlarge_stats::timeseries::StepSeries;

/// The sampling-based (independent) implementation of the core
/// elasticity metrics. Same semantics as [`ElasticityReport::compute`],
/// different mechanics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SampledReport {
    /// (1) Mean servers missing while under-provisioned.
    pub under_accuracy: f64,
    /// (2) Mean servers excess while over-provisioned.
    pub over_accuracy: f64,
    /// (5) Fraction of time under-provisioned.
    pub under_timeshare: f64,
    /// (6) Fraction of time over-provisioned.
    pub over_timeshare: f64,
    /// (8) Time-averaged supply.
    pub avg_supply: f64,
}

/// Computes the metrics by sampling the series every `dt` seconds
/// (midpoint rule).
///
/// # Panics
///
/// Panics unless `from < to` and `dt > 0`.
pub(crate) fn sampled_report(
    demand: &StepSeries,
    supply: &StepSeries,
    from: f64,
    to: f64,
    dt: f64,
) -> SampledReport {
    assert!(from < to, "window must be non-empty");
    assert!(dt > 0.0, "sampling step must be positive");
    let n = ((to - from) / dt).ceil() as usize;
    let mut under = 0.0;
    let mut over = 0.0;
    let mut under_t = 0usize;
    let mut over_t = 0usize;
    let mut supply_sum = 0.0;
    for i in 0..n {
        let t = from + (i as f64 + 0.5) * dt;
        let d = demand.value_at(t.min(to));
        let s = supply.value_at(t.min(to));
        under += (d - s).max(0.0);
        over += (s - d).max(0.0);
        if d > s {
            under_t += 1;
        }
        if s > d {
            over_t += 1;
        }
        supply_sum += s;
    }
    let nf = n as f64;
    SampledReport {
        under_accuracy: under / nf,
        over_accuracy: over / nf,
        under_timeshare: under_t as f64 / nf,
        over_timeshare: over_t as f64 / nf,
        avg_supply: supply_sum / nf,
    }
}

/// The corroboration verdict: relative disagreement per metric between
/// the exact and the sampled implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct Corroboration {
    /// `(metric name, exact, sampled, |relative difference|)` rows.
    pub rows: Vec<(&'static str, f64, f64, f64)>,
}

impl Corroboration {
    /// Whether every metric agrees within `tolerance` (relative, with an
    /// absolute floor of 0.01 for near-zero metrics).
    // #[allow_atlarge(dead-public-surface, reason = "the verdict of the §6.7 corroboration oracle")]
    pub fn agrees(&self, tolerance: f64) -> bool {
        self.rows.iter().all(|&(_, a, b, _)| {
            let scale = a.abs().max(b.abs()).max(0.01);
            (a - b).abs() / scale <= tolerance
        })
    }
}

/// Runs both implementations and tabulates the comparison.
// #[allow_atlarge(dead-public-surface, reason = "the independent check of §6.7's elasticity metrics: an oracle its tests compare the exact implementation against")]
pub fn corroborate(
    demand: &StepSeries,
    supply: &StepSeries,
    from: f64,
    to: f64,
    dt: f64,
) -> Corroboration {
    let exact = ElasticityReport::compute(demand, supply, from, to, 0.0, 0.0);
    let sampled = sampled_report(demand, supply, from, to, dt);
    let rel = |a: f64, b: f64| {
        let scale = a.abs().max(b.abs()).max(0.01);
        (a - b).abs() / scale
    };
    Corroboration {
        rows: vec![
            (
                "under_accuracy",
                exact.under_accuracy,
                sampled.under_accuracy,
                rel(exact.under_accuracy, sampled.under_accuracy),
            ),
            (
                "over_accuracy",
                exact.over_accuracy,
                sampled.over_accuracy,
                rel(exact.over_accuracy, sampled.over_accuracy),
            ),
            (
                "under_timeshare",
                exact.under_timeshare,
                sampled.under_timeshare,
                rel(exact.under_timeshare, sampled.under_timeshare),
            ),
            (
                "over_timeshare",
                exact.over_timeshare,
                sampled.over_timeshare,
                rel(exact.over_timeshare, sampled.over_timeshare),
            ),
            (
                "avg_supply",
                exact.avg_supply,
                sampled.avg_supply,
                rel(exact.avg_supply, sampled.avg_supply),
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscaler::React;
    use crate::sim::{run, AutoscaleConfig};
    use atlarge_workload::workflow::{generate, Shape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn implementations_corroborate_on_a_real_run() {
        let mut rng = StdRng::seed_from_u64(4);
        let workflows: Vec<_> = (0..12)
            .map(|i| generate(&mut rng, Shape::ForkJoin(5), 30.0, 0.4, i as f64 * 40.0))
            .collect();
        let result = run(workflows, React, AutoscaleConfig::default(), 4, None);
        let to = result.end_time.max(1.0);
        let c = corroborate(&result.demand, &result.supply, 0.0, to, 0.25);
        assert!(
            c.agrees(0.05),
            "independent implementations disagree: {:?}",
            c.rows
        );
    }

    #[test]
    fn a_buggy_implementation_is_caught() {
        // Simulate the [128] scenario: one implementation evaluates the
        // wrong window. The corroboration must flag it.
        let mut demand = StepSeries::new(0.0);
        demand.push(0.0, 4.0);
        demand.push(50.0, 10.0);
        let mut supply = StepSeries::new(0.0);
        supply.push(0.0, 6.0);
        let exact = ElasticityReport::compute(&demand, &supply, 0.0, 100.0, 0.0, 0.0);
        // The "buggy" run samples only the first half.
        let buggy = sampled_report(&demand, &supply, 0.0, 50.0, 0.25);
        let scale = exact.under_accuracy.abs().max(0.01);
        assert!(
            (exact.under_accuracy - buggy.under_accuracy).abs() / scale > 0.5,
            "the window bug should be visible"
        );
    }

    #[test]
    fn coarse_sampling_loses_agreement() {
        // The method matters: with a huge dt the sampled implementation
        // misses the demand spike entirely.
        let mut demand = StepSeries::new(0.0);
        demand.push(10.0, 100.0);
        demand.push(12.0, 0.0); // 2-second spike
        let supply = StepSeries::new(1.0);
        let fine = sampled_report(&demand, &supply, 0.0, 100.0, 0.1);
        let coarse = sampled_report(&demand, &supply, 0.0, 100.0, 50.0);
        assert!(fine.under_accuracy > 1.5);
        assert!(coarse.under_accuracy < fine.under_accuracy / 2.0);
    }
}
