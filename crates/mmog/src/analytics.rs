//! CAMEO: continuous gaming analytics on cloud capacity (\[79\]).
//!
//! CAMEO "combined NoSQL and cloud technology to design one of the first
//! systems for gaming analytics at scale": a stream of player events is
//! continuously aggregated into decisions, on capacity rented elastically
//! "by credit-card". The reproduction processes an event stream through a
//! windowed aggregation under two capacity plans — fixed and elastic —
//! and compares analysis freshness (lag) and cost.

use atlarge_stats::dist::{Normal, Sample};
use atlarge_stats::timeseries::StepSeries;
use atlarge_workload::arrivals::Diurnal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Events one analytics node processes per second.
pub(crate) const NODE_RATE: f64 = 50.0;

/// Capacity plan for the analytics cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CapacityPlan {
    /// A fixed number of nodes.
    Fixed(u32),
    /// Nodes follow the event rate with a margin, re-planned per window.
    Elastic {
        /// Capacity margin above the observed rate.
        margin: f64,
    },
}

/// The outcome of one analytics run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AnalyticsResult {
    /// Mean processing lag (seconds of backlog) across windows.
    pub mean_lag: f64,
    /// Peak backlog in events.
    pub peak_backlog: f64,
    /// Node-seconds consumed (cost proxy).
    pub node_seconds: f64,
    /// Per-window `(time, events)` observed.
    pub windows: Vec<(f64, f64)>,
    /// Node allocation over time.
    pub nodes: StepSeries,
}

/// Runs the analytics pipeline over `days` of diurnal player events at
/// `mean_rate` events/s, with `window` seconds per aggregation window.
pub(crate) fn run_analytics(
    plan: CapacityPlan,
    days: f64,
    mean_rate: f64,
    window: f64,
    seed: u64,
) -> AnalyticsResult {
    assert!(window > 0.0 && days > 0.0 && mean_rate > 0.0);
    let horizon = days * 86_400.0;
    let mut rng = StdRng::seed_from_u64(seed);
    // Event volumes are huge (millions/day); draw per-window counts from
    // the diurnal rate with Poisson-scale noise instead of materializing
    // every event.
    let process = Diurnal::new(mean_rate, 0.7, 86_400.0, 0.0);
    let noise = Normal::new(0.0, 1.0);
    let n_windows = (horizon / window).ceil() as usize;
    let counts: Vec<f64> = (0..n_windows)
        .map(|i| {
            let t = i as f64 * window + window / 2.0;
            let mean = process.rate_at(t) * window;
            (mean + noise.sample(&mut rng) * mean.sqrt()).max(0.0)
        })
        .collect();
    let mut nodes = StepSeries::new(0.0);
    let mut backlog = 0.0f64;
    let mut lag_sum = 0.0;
    let mut peak_backlog = 0.0f64;
    let mut node_seconds = 0.0;
    let mut windows = Vec::with_capacity(n_windows);
    for (i, &events) in counts.iter().enumerate() {
        let t = i as f64 * window;
        let rate_in = events / window;
        let n = match plan {
            CapacityPlan::Fixed(n) => n,
            CapacityPlan::Elastic { margin } => {
                ((rate_in * (1.0 + margin)) / NODE_RATE).ceil() as u32
            }
        }
        .max(1);
        nodes.push(t, f64::from(n));
        node_seconds += f64::from(n) * window;
        let capacity = f64::from(n) * NODE_RATE * window;
        backlog = (backlog + events - capacity).max(0.0);
        peak_backlog = peak_backlog.max(backlog);
        // Lag: seconds of processing needed to clear the backlog.
        lag_sum += backlog / (f64::from(n) * NODE_RATE);
        windows.push((t, events));
    }
    AnalyticsResult {
        mean_lag: lag_sum / n_windows as f64,
        peak_backlog,
        node_seconds,
        windows,
        nodes,
    }
}

/// The CAMEO comparison: an under-sized fixed cluster vs elastic
/// capacity. Returns `(fixed, elastic)`.
pub(crate) fn cameo_comparison(seed: u64) -> (AnalyticsResult, AnalyticsResult) {
    let days = 3.0;
    let mean_rate = 120.0;
    let window = 300.0;
    // Fixed cluster sized for the *mean* rate: drowns at the diurnal peak.
    let fixed_nodes = (mean_rate / NODE_RATE).ceil() as u32;
    let fixed = run_analytics(
        CapacityPlan::Fixed(fixed_nodes),
        days,
        mean_rate,
        window,
        seed,
    );
    let elastic = run_analytics(
        CapacityPlan::Elastic { margin: 0.2 },
        days,
        mean_rate,
        window,
        seed,
    );
    (fixed, elastic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elastic_keeps_analyses_fresh() {
        let (fixed, elastic) = cameo_comparison(3);
        assert!(
            elastic.mean_lag < fixed.mean_lag / 4.0,
            "elastic lag {} vs fixed {}",
            elastic.mean_lag,
            fixed.mean_lag
        );
        assert!(elastic.peak_backlog < fixed.peak_backlog);
    }

    #[test]
    fn elastic_costs_less_than_peak_sized_fixed() {
        // Sizing fixed for the peak keeps lag low but wastes capacity at
        // night — the "scale by credit-card" argument.
        let days = 3.0;
        let peak_nodes = ((120.0 * 1.7) / NODE_RATE).ceil() as u32;
        let fixed_peak = run_analytics(CapacityPlan::Fixed(peak_nodes), days, 120.0, 300.0, 5);
        let elastic = run_analytics(CapacityPlan::Elastic { margin: 0.2 }, days, 120.0, 300.0, 5);
        assert!(fixed_peak.mean_lag < 1.0);
        assert!(
            elastic.node_seconds < 0.9 * fixed_peak.node_seconds,
            "elastic {} vs fixed-peak {}",
            elastic.node_seconds,
            fixed_peak.node_seconds
        );
    }

    #[test]
    fn overload_accumulates_backlog() {
        let r = run_analytics(CapacityPlan::Fixed(1), 1.0, 200.0, 300.0, 7);
        assert!(r.peak_backlog > 0.0);
        assert!(r.mean_lag > 10.0);
    }

    #[test]
    fn windows_cover_horizon() {
        let r = run_analytics(CapacityPlan::Fixed(4), 1.0, 50.0, 600.0, 9);
        assert_eq!(r.windows.len(), (86_400.0f64 / 600.0).ceil() as usize);
    }
}
