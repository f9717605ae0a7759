//! Step-function time series.
//!
//! Elasticity metrics (§6.7) compare a *demand* curve against a *supply*
//! curve over time; both are piecewise-constant step functions (resources
//! are provisioned in whole units at discrete instants). This module stores
//! such series and computes the time integrals the metrics need.

/// A piecewise-constant (step) time series.
///
/// Values hold from their timestamp until the next point. Timestamps must be
/// non-decreasing.
///
/// # Examples
///
/// ```
/// use atlarge_stats::timeseries::StepSeries;
///
/// let mut s = StepSeries::new(0.0);
/// s.push(0.0, 2.0);
/// s.push(10.0, 4.0);
/// assert_eq!(s.value_at(5.0), 2.0);
/// assert_eq!(s.value_at(10.0), 4.0);
/// assert_eq!(s.integral(0.0, 20.0), 2.0 * 10.0 + 4.0 * 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StepSeries {
    initial: f64,
    points: Vec<(f64, f64)>,
}

impl StepSeries {
    /// Creates a series with value `initial` before the first point.
    pub fn new(initial: f64) -> Self {
        StepSeries {
            initial,
            points: Vec::new(),
        }
    }

    /// Appends a `(time, value)` step.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last recorded time or is not finite.
    pub fn push(&mut self, time: f64, value: f64) {
        assert!(time.is_finite() && value.is_finite(), "finite points only");
        if let Some(&(last, _)) = self.points.last() {
            assert!(time >= last, "time must be non-decreasing");
        }
        // Collapse same-instant updates: the last write wins.
        if let Some(last) = self.points.last_mut() {
            if last.0 == time {
                last.1 = value;
                return;
            }
        }
        self.points.push((time, value));
    }

    /// The value holding at time `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => self.initial,
            n => self.points[n - 1].1,
        }
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no steps have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Recorded `(time, value)` steps.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Integral of the series over `[from, to]`.
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    pub fn integral(&self, from: f64, to: f64) -> f64 {
        self.integrate_with(from, to, |v| v)
    }

    /// Time-weighted average over `[from, to]`.
    pub fn time_average(&self, from: f64, to: f64) -> f64 {
        if to <= from {
            return self.value_at(from);
        }
        self.integral(from, to) / (to - from)
    }

    /// Integral of `f(value)` over `[from, to]` — the workhorse behind the
    /// elasticity metrics (e.g. `f = |demand − supply|⁺`).
    ///
    /// # Panics
    ///
    /// Panics if `from > to`.
    pub(crate) fn integrate_with<F: Fn(f64) -> f64>(&self, from: f64, to: f64, f: F) -> f64 {
        assert!(from <= to, "integration bounds reversed");
        let mut acc = 0.0;
        let mut t = from;
        let mut v = self.value_at(from);
        for &(pt, pv) in &self.points {
            if pt <= from {
                continue;
            }
            if pt >= to {
                break;
            }
            acc += f(v) * (pt - t);
            t = pt;
            v = pv;
        }
        acc += f(v) * (to - t);
        acc
    }

    /// Combines two step series pointwise with `f`, producing a new series
    /// with a step at every change point of either input.
    pub fn combine<F: Fn(f64, f64) -> f64>(&self, other: &StepSeries, f: F) -> StepSeries {
        let mut out = StepSeries::new(f(self.initial, other.initial));
        let mut times: Vec<f64> = self
            .points
            .iter()
            .map(|&(t, _)| t)
            .chain(other.points.iter().map(|&(t, _)| t))
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        times.dedup();
        for t in times {
            out.push(t, f(self.value_at(t), other.value_at(t)));
        }
        out
    }

    /// Number of step changes (value transitions), used by the instability
    /// elasticity metric.
    pub fn transitions(&self) -> usize {
        let mut prev = self.initial;
        let mut n = 0;
        for &(_, v) in &self.points {
            if v != prev {
                n += 1;
                prev = v;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_lookup_uses_last_step() {
        let mut s = StepSeries::new(1.0);
        s.push(5.0, 2.0);
        s.push(10.0, 3.0);
        assert_eq!(s.value_at(0.0), 1.0);
        assert_eq!(s.value_at(5.0), 2.0);
        assert_eq!(s.value_at(7.5), 2.0);
        assert_eq!(s.value_at(100.0), 3.0);
    }

    #[test]
    fn integral_matches_hand_computation() {
        let mut s = StepSeries::new(0.0);
        s.push(2.0, 5.0);
        s.push(4.0, 1.0);
        // [0,2): 0; [2,4): 5; [4,6]: 1 => 0 + 10 + 2
        assert!((s.integral(0.0, 6.0) - 12.0).abs() < 1e-12);
        assert!((s.time_average(0.0, 6.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn partial_window_integral() {
        let mut s = StepSeries::new(2.0);
        s.push(10.0, 4.0);
        assert!((s.integral(5.0, 15.0) - (2.0 * 5.0 + 4.0 * 5.0)).abs() < 1e-12);
    }

    #[test]
    fn same_instant_update_last_write_wins() {
        let mut s = StepSeries::new(0.0);
        s.push(1.0, 5.0);
        s.push(1.0, 7.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.value_at(1.0), 7.0);
    }

    #[test]
    fn combine_diffs_series() {
        let mut demand = StepSeries::new(0.0);
        demand.push(0.0, 3.0);
        demand.push(10.0, 6.0);
        let mut supply = StepSeries::new(0.0);
        supply.push(0.0, 4.0);
        supply.push(15.0, 6.0);
        let under = demand.combine(&supply, |d, s| (d - s).max(0.0));
        // Under-provisioned only in [10,15): demand 6, supply 4.
        assert!((under.integral(0.0, 20.0) - 2.0 * 5.0).abs() < 1e-12);
    }

    #[test]
    fn transitions_count_changes_only() {
        let mut s = StepSeries::new(1.0);
        s.push(1.0, 1.0); // no change
        s.push(2.0, 2.0);
        s.push(3.0, 2.0); // no change
        s.push(4.0, 1.0);
        assert_eq!(s.transitions(), 2);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_regression() {
        let mut s = StepSeries::new(0.0);
        s.push(5.0, 1.0);
        s.push(4.0, 2.0);
    }
}
