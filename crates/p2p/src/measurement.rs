//! Sampling bias in ecosystem measurements (\[65\]).
//!
//! \[65\] is the meta-analysis row of Table 5: "study the systematic bias
//! introduced by the measurement instruments, and ... catalog and
//! characterize various sources of bias". Here a ground-truth ecosystem of
//! swarms is observed through imperfect instruments — partial tracker
//! coverage, peer-sampling, and short observation windows — and each
//! instrument's view of the swarm-size distribution is compared to truth
//! by total-variation distance.

use atlarge_stats::dist::{Sample, Zipf};
use atlarge_stats::histogram::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground truth: swarm sizes across the ecosystem.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// Swarm sizes (concurrent peers), one per swarm.
    pub sizes: Vec<u64>,
    /// Which tracker hosts each swarm.
    pub tracker_of: Vec<usize>,
    /// Number of trackers.
    pub trackers: usize,
}

impl GroundTruth {
    /// Generates a Zipf-sized ecosystem over `swarms` swarms and
    /// `trackers` trackers.
    pub fn generate(swarms: usize, trackers: usize, seed: u64) -> Self {
        assert!(swarms > 0 && trackers > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = Zipf::new(100_000, 1.1);
        let sizes = (0..swarms).map(|_| zipf.sample(&mut rng) as u64).collect();
        let tracker_of = (0..swarms).map(|_| rng.gen_range(0..trackers)).collect();
        GroundTruth {
            sizes,
            tracker_of,
            trackers,
        }
    }

    fn histogram_of(&self, sizes: impl Iterator<Item = u64>) -> Histogram {
        // Log-scale bins over swarm sizes.
        let mut h = Histogram::new(0.0, 6.0, 24);
        for s in sizes {
            h.record((s.max(1) as f64).log10());
        }
        h
    }

    /// Histogram of the true size distribution (log10 bins).
    pub(crate) fn true_histogram(&self) -> Histogram {
        self.histogram_of(self.sizes.iter().copied())
    }
}

/// A measurement instrument with explicit bias sources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instrument {
    /// Fraction of trackers the instrument scrapes.
    pub tracker_coverage: f64,
    /// Probability each peer is observed when a swarm is scraped
    /// (short-window and NAT effects undercount peers).
    pub peer_detection: f64,
    /// Swarms below this observed size are dropped (crawler cut-off).
    pub min_observable: u64,
}

impl Instrument {
    /// A BTWorld-like wide-but-shallow instrument.
    pub fn wide() -> Self {
        Instrument {
            tracker_coverage: 0.9,
            peer_detection: 0.8,
            min_observable: 1,
        }
    }

    /// A MultiProbe-like deep-but-narrow instrument.
    pub fn narrow() -> Self {
        Instrument {
            tracker_coverage: 0.2,
            peer_detection: 0.95,
            min_observable: 1,
        }
    }

    /// Observes the ecosystem; returns the observed sizes.
    pub fn observe(&self, truth: &GroundTruth, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let covered: Vec<bool> = (0..truth.trackers)
            .map(|_| rng.gen::<f64>() < self.tracker_coverage)
            .collect();
        truth
            .sizes
            .iter()
            .zip(&truth.tracker_of)
            .filter(|&(_, &t)| covered[t])
            .filter_map(|(&size, _)| {
                // Binomial thinning approximated by expectation with noise.
                let seen = (size as f64 * self.peer_detection * (0.9 + 0.2 * rng.gen::<f64>()))
                    .round() as u64;
                (seen >= self.min_observable).then_some(seen.max(1))
            })
            .collect()
    }

    /// Total-variation distance between the instrument's view of the
    /// size distribution and the truth — the bias statistic.
    pub fn bias(&self, truth: &GroundTruth, seed: u64) -> f64 {
        let observed = self.observe(truth, seed);
        let view = truth.histogram_of(observed.into_iter());
        truth.true_histogram().total_variation(&view)
    }
}

/// The bias-vs-coverage ablation: sweeps tracker coverage and reports
/// `(coverage, bias)` rows.
pub fn coverage_ablation(truth: &GroundTruth, seed: u64) -> Vec<(f64, f64)> {
    [0.1, 0.25, 0.5, 0.75, 0.95]
        .iter()
        .map(|&cov| {
            let inst = Instrument {
                tracker_coverage: cov,
                peer_detection: 0.9,
                min_observable: 1,
            };
            (cov, inst.bias(truth, seed))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> GroundTruth {
        GroundTruth::generate(5_000, 40, 17)
    }

    #[test]
    fn perfect_instrument_has_low_bias() {
        let perfect = Instrument {
            tracker_coverage: 1.0,
            peer_detection: 1.0,
            min_observable: 1,
        };
        let b = perfect.bias(&truth(), 2);
        assert!(b < 0.1, "perfect instrument bias {b}");
    }

    #[test]
    fn cutoff_censors_small_swarms() {
        let t = truth();
        let cutty = Instrument {
            tracker_coverage: 1.0,
            peer_detection: 1.0,
            min_observable: 50,
        };
        let seen = cutty.observe(&t, 3);
        assert!(seen.len() < t.sizes.len() / 2, "cut-off should censor most");
        assert!(cutty.bias(&t, 3) > 0.2);
    }

    #[test]
    fn undercounting_shifts_distribution() {
        let t = truth();
        let shallow = Instrument {
            tracker_coverage: 1.0,
            peer_detection: 0.3,
            min_observable: 1,
        };
        assert!(shallow.bias(&t, 4) > 0.05);
    }

    #[test]
    fn wide_sees_more_swarms_than_narrow() {
        let t = truth();
        let w = Instrument::wide().observe(&t, 5).len();
        let n = Instrument::narrow().observe(&t, 5).len();
        assert!(w > 2 * n, "wide {w} vs narrow {n}");
    }

    #[test]
    fn coverage_ablation_is_monotone_ish() {
        // More coverage, less bias (the ablation DESIGN.md calls out).
        let rows = coverage_ablation(&truth(), 6);
        assert_eq!(rows.len(), 5);
        let first = rows.first().unwrap().1;
        let last = rows.last().unwrap().1;
        assert!(
            last < first,
            "bias should fall with coverage: {first} -> {last}"
        );
    }
}
