//! Flashcrowds: identification, modeling, and negative phenomena (\[66\]).
//!
//! \[66\] developed "a method to identify flashcrowds, the first
//! comprehensive model of BT-flashcrowds, and showed evidence of important
//! negative phenomena that occur only during flashcrowds". Here the model
//! is `atlarge-workload`'s [`Flashcrowd`] arrival process; the detector
//! flags windows whose arrival rate exceeds a multiple of the trailing
//! baseline; and the negative phenomenon — download-time inflation while
//! the seed-to-leecher ratio collapses — is measured on the swarm
//! simulator.

use crate::swarm::{run_swarm, Bandwidth, SharingPolicy, SwarmConfig, SwarmResult, TitForTat};
use atlarge_evolve::SwapPlan;
use atlarge_workload::arrivals::{ArrivalProcess, Flashcrowd};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A detected flashcrowd interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashcrowdWindow {
    /// Start of the detected window.
    pub start: f64,
    /// End of the detected window.
    pub end: f64,
    /// Peak arrival rate observed inside the window.
    pub peak_rate: f64,
}

/// Detects flashcrowds in an arrival sequence: windows of `window`
/// seconds whose rate exceeds `threshold` × the median window rate.
///
/// Returns the merged flashcrowd intervals.
///
/// # Panics
///
/// Panics unless `window > 0` and `threshold > 1`.
pub(crate) fn detect_flashcrowds(
    arrivals: &[f64],
    horizon: f64,
    window: f64,
    threshold: f64,
) -> Vec<FlashcrowdWindow> {
    assert!(window > 0.0, "window must be positive");
    assert!(threshold > 1.0, "threshold must exceed 1");
    let n_windows = (horizon / window).ceil() as usize;
    if n_windows == 0 {
        return Vec::new();
    }
    let mut counts = vec![0usize; n_windows];
    for &a in arrivals {
        if a >= 0.0 && a < horizon {
            counts[(a / window) as usize] += 1;
        }
    }
    let mut sorted = counts.clone();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2].max(1) as f64;
    let mut out: Vec<FlashcrowdWindow> = Vec::new();
    for (i, &c) in counts.iter().enumerate() {
        let rate = c as f64 / window;
        if c as f64 > threshold * median {
            let start = i as f64 * window;
            let end = start + window;
            match out.last_mut() {
                Some(last) if (last.end - start).abs() < 1e-9 => {
                    last.end = end;
                    last.peak_rate = last.peak_rate.max(rate);
                }
                _ => out.push(FlashcrowdWindow {
                    start,
                    end,
                    peak_rate: rate,
                }),
            }
        }
    }
    out
}

/// The flashcrowd experiment: a swarm under a flashcrowd arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashcrowdStudy {
    /// The swarm outcome.
    pub result: SwarmResult,
    /// Arrival times injected.
    pub arrivals: Vec<f64>,
    /// Detected flashcrowd windows.
    pub detected: Vec<FlashcrowdWindow>,
    /// Mean download time of peers joining before the crowd.
    pub baseline_download: f64,
    /// Mean download time of peers joining during the crowd.
    pub crowd_download: f64,
}

impl FlashcrowdStudy {
    /// Download-time inflation factor during the flashcrowd.
    pub fn inflation(&self) -> f64 {
        self.crowd_download / self.baseline_download.max(1e-9)
    }
}

/// Runs the full \[66\]-shaped study.
pub fn study(seed: u64) -> FlashcrowdStudy {
    let horizon = 40_000.0;
    let spike_at = 20_000.0;
    let process = Flashcrowd::new(0.005, spike_at, 0.4, 2_000.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let arrivals = process.generate(&mut rng, 0.0, horizon);
    let config = SwarmConfig {
        file_size: 50e6,
        mean_seed_time: 1_000.0,
        ..SwarmConfig::default()
    };
    let joins: Vec<(f64, Bandwidth)> = arrivals.iter().map(|&t| (t, config.bandwidth)).collect();
    let (result, _) = run_swarm(
        config,
        &joins,
        horizon * 2.0,
        seed,
        TitForTat.name(),
        SwapPlan::none(),
        None,
    )
    .expect("tit-for-tat with no plan always runs");
    let detected = detect_flashcrowds(&arrivals, horizon, 500.0, 3.0);
    let baseline_download = result.mean_download_time_in(0.0, spike_at);
    let crowd_download = result.mean_download_time_in(spike_at, spike_at + 4_000.0);
    FlashcrowdStudy {
        result,
        arrivals,
        detected,
        baseline_download,
        crowd_download,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_check::{check, vec_of};
    use rand::Rng;

    #[test]
    fn detector_finds_injected_crowd() {
        let s = study(5);
        assert!(
            !s.detected.is_empty(),
            "flashcrowd should be detected in {} arrivals",
            s.arrivals.len()
        );
        // The detection lands around the injected onset (t=20000).
        let hit = s
            .detected
            .iter()
            .any(|w| w.start <= 21_000.0 && w.end >= 19_500.0);
        assert!(hit, "windows {:?}", s.detected);
    }

    #[test]
    fn detector_quiet_on_poisson() {
        use atlarge_workload::arrivals::{ArrivalProcess, Poisson};
        let mut rng = StdRng::seed_from_u64(3);
        let arrivals = Poisson::new(0.01).generate(&mut rng, 0.0, 40_000.0);
        let detected = detect_flashcrowds(&arrivals, 40_000.0, 500.0, 3.0);
        assert!(
            detected.len() <= 1,
            "poisson arrivals should rarely trigger: {detected:?}"
        );
    }

    #[test]
    fn crowd_inflates_download_times() {
        // The negative phenomenon: during the flashcrowd the seed ratio
        // collapses (everyone is a fresh leecher) and download times rise.
        let s = study(5);
        assert!(
            s.inflation() > 1.2,
            "inflation {} (baseline {}, crowd {})",
            s.inflation(),
            s.baseline_download,
            s.crowd_download
        );
    }

    #[test]
    fn merged_windows_are_disjoint() {
        let s = study(8);
        for w in s.detected.windows(2) {
            assert!(w[0].end <= w[1].start + 1e-9);
        }
    }

    /// Detected windows are always within the horizon, disjoint, and
    /// ordered, for arbitrary arrival sequences.
    #[test]
    fn prop_windows_well_formed() {
        check("prop_windows_well_formed", 256, |rng| {
            let arrivals = vec_of(rng, 0..400, |r| r.gen_range(0.0f64..10_000.0));
            let window = rng.gen_range(50.0f64..1_000.0);
            let threshold = rng.gen_range(1.5f64..10.0);
            let detected = detect_flashcrowds(&arrivals, 10_000.0, window, threshold);
            for w in &detected {
                assert!(w.start >= 0.0);
                assert!(w.end <= 10_000.0 + window);
                assert!(w.start < w.end);
                assert!(w.peak_rate >= 0.0);
            }
            for pair in detected.windows(2) {
                assert!(pair[0].end <= pair[1].start + 1e-9);
            }
        });
    }

    #[test]
    fn detector_edge_cases() {
        assert!(detect_flashcrowds(&[], 0.0, 10.0, 2.0).is_empty());
        assert!(detect_flashcrowds(&[1.0, 2.0], 100.0, 10.0, 5.0).is_empty());
    }
}
