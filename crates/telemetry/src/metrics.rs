//! The metric vocabulary: time-weighted gauges and tallies.
//!
//! These types originated as `atlarge_des::monitor`; they now live here so
//! every layer (kernel, domain simulators, the [`crate::recorder::Recorder`]
//! registry) shares one implementation. Relative to the old monitor the edge
//! cases are defined instead of panicking or returning NaN:
//!
//! - [`Gauge::mean`] over a zero-duration observation window (a gauge set at
//!   a single instant, or never set) is the gauge's level, not `0/0`;
//! - [`Tally`] summaries of an empty tally return `None` rather than
//!   panicking inside the order statistics.

use atlarge_stats::descriptive::Summary;
use atlarge_stats::histogram::Histogram;
use atlarge_stats::timeseries::StepSeries;

/// A time-weighted gauge: records a level over simulated time and reports
/// time-averaged statistics (e.g. utilization, queue length, swarm size).
#[derive(Debug, Clone, PartialEq)]
pub struct Gauge {
    series: StepSeries,
    first_time: Option<f64>,
    last_time: f64,
}

impl Gauge {
    /// Creates a gauge with the given initial level at time zero.
    pub fn new(initial: f64) -> Self {
        Gauge {
            series: StepSeries::new(initial),
            first_time: None,
            last_time: 0.0,
        }
    }

    /// Sets the level at simulated time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes an earlier update.
    pub fn set(&mut self, now: f64, level: f64) {
        self.series.push(now, level);
        self.first_time.get_or_insert(now);
        self.last_time = self.last_time.max(now);
    }

    /// Adjusts the level by `delta` at time `now`.
    pub fn add(&mut self, now: f64, delta: f64) {
        let cur = self.series.value_at(now);
        self.set(now, cur + delta);
    }

    /// The level at time `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        self.series.value_at(t)
    }

    /// Current (latest) level.
    pub fn value(&self) -> f64 {
        self.series.value_at(self.last_time)
    }

    /// Time-weighted average over `[from, to]`. A zero-duration window
    /// (`to <= from`) yields the instantaneous level at `from`.
    pub fn time_average(&self, from: f64, to: f64) -> f64 {
        self.series.time_average(from, to)
    }

    /// Time-weighted mean over the gauge's own observation window — from
    /// its first update to its last. A gauge observed for zero duration
    /// (never updated, or updated at a single instant) reports its current
    /// level rather than `0/0`.
    pub fn mean(&self) -> f64 {
        match self.first_time {
            Some(first) if self.last_time > first => {
                self.series.time_average(first, self.last_time)
            }
            _ => self.value(),
        }
    }

    /// Smallest level ever set (including the initial level when the gauge
    /// was never updated).
    pub(crate) fn min_level(&self) -> f64 {
        self.levels().fold(f64::INFINITY, f64::min)
    }

    /// Largest level ever set (including the initial level when the gauge
    /// was never updated).
    pub fn max_level(&self) -> f64 {
        self.levels().fold(f64::NEG_INFINITY, f64::max)
    }

    fn levels(&self) -> impl Iterator<Item = f64> + '_ {
        let updates = self.series.points().iter().map(|&(_, v)| v);
        let initial = if self.series.is_empty() {
            Some(self.series.value_at(f64::NEG_INFINITY))
        } else {
            None
        };
        initial.into_iter().chain(updates)
    }

    /// The underlying step series (for metric computations).
    pub fn series(&self) -> &StepSeries {
        &self.series
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new(0.0)
    }
}

/// A tally: accumulates independent observations (response times, download
/// durations) for summary statistics at the end of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    samples: Vec<f64>,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn record(&mut self, x: f64) {
        assert!(x.is_finite(), "tally observations must be finite");
        self.samples.push(x);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the tally is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Raw observations in recording order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Descriptive summary, or `None` when the tally is empty — the order
    /// statistics of zero samples are undefined, and the old monitor
    /// panicked deep inside them instead of saying so.
    pub fn summary(&self) -> Option<Summary> {
        if self.samples.is_empty() {
            None
        } else {
            Some(Summary::from_slice(&self.samples))
        }
    }

    /// Mean of the observations (0 when empty, matching the old monitor).
    pub fn mean(&self) -> f64 {
        self.summary().map_or(0.0, |s| s.mean())
    }

    /// Bins the observations into a [`Histogram`] over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and `bins > 0`.
    pub fn histogram(&self, lo: f64, hi: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(lo, hi, bins);
        h.record_all(self.samples.iter().copied());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_time_average() {
        let mut g = Gauge::new(0.0);
        g.set(0.0, 2.0);
        g.set(10.0, 6.0);
        assert!((g.time_average(0.0, 20.0) - 4.0).abs() < 1e-12);
        assert_eq!(g.value(), 6.0);
    }

    #[test]
    fn gauge_mean_over_observation_window() {
        let mut g = Gauge::new(0.0);
        g.set(10.0, 2.0);
        g.set(20.0, 6.0);
        // Observed over [10, 20]: level 2 throughout.
        assert!((g.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gauge_mean_zero_duration_window_is_level() {
        // Never updated: the mean is the initial level, not NaN.
        let g = Gauge::new(3.0);
        assert_eq!(g.mean(), 3.0);
        // Updated at a single instant: the mean is that level.
        let mut g = Gauge::new(0.0);
        g.set(5.0, 7.0);
        assert_eq!(g.mean(), 7.0);
        assert!(g.mean().is_finite());
    }

    #[test]
    fn gauge_min_max_levels() {
        let mut g = Gauge::new(1.0);
        g.set(0.0, 4.0);
        g.set(1.0, -2.0);
        assert_eq!(g.min_level(), -2.0);
        assert_eq!(g.max_level(), 4.0);
        let fresh = Gauge::new(9.0);
        assert_eq!(fresh.min_level(), 9.0);
        assert_eq!(fresh.max_level(), 9.0);
    }

    #[test]
    fn tally_summary_and_histogram() {
        let mut t = Tally::new();
        for x in [1.0, 2.0, 3.0] {
            t.record(x);
        }
        let s = t.summary().expect("non-empty");
        assert_eq!(s.median(), 2.0);
        assert_eq!(t.mean(), 2.0);
        let h = t.histogram(0.0, 4.0, 4);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn empty_tally_does_not_panic() {
        let t = Tally::new();
        assert!(t.summary().is_none());
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.histogram(0.0, 1.0, 2).count(), 0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn tally_rejects_nan() {
        Tally::new().record(f64::NAN);
    }
}
