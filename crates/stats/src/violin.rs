//! Violin-plot statistics (Figure 3).
//!
//! Figure 3 of the paper shows violin plots of review scores: a kernel
//! density estimate, the mean (star), median (white dot), IQR (thick bar),
//! and whiskers at 1.5 × IQR clipped to the actual min/max. This module
//! computes exactly those elements so the `atlarge-biblio` experiments can
//! regenerate the figure's series as numbers.

use crate::descriptive::Summary;

/// All statistics a violin plot renders for one group of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolinSummary {
    mean: f64,
    median: f64,
    q1: f64,
    q3: f64,
    whisker_lo: f64,
    whisker_hi: f64,
    density: Vec<(f64, f64)>,
    n: usize,
}

impl ViolinSummary {
    /// Computes the violin summary of `samples`, with the KDE evaluated at
    /// `grid_points` evenly spaced points across the whisker range.
    ///
    /// The KDE uses a Gaussian kernel with Silverman's rule-of-thumb
    /// bandwidth, the default of most plotting packages.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `grid_points == 0`.
    pub fn from_samples(samples: &[f64], grid_points: usize) -> Self {
        assert!(!samples.is_empty(), "violin of empty sample set");
        assert!(grid_points > 0, "violin needs at least one grid point");
        let s = Summary::from_slice(samples);
        let q1 = s.quantile(0.25);
        let q3 = s.quantile(0.75);
        let iqr = q3 - q1;
        // Whiskers: 1.5×IQR, clipped to the observed min/max (paper caption).
        let whisker_lo = (q1 - 1.5 * iqr).max(s.min());
        let whisker_hi = (q3 + 1.5 * iqr).min(s.max());

        let bw = silverman_bandwidth(&s);
        let lo = whisker_lo - 3.0 * bw;
        let hi = whisker_hi + 3.0 * bw;
        let density = kde_gaussian(samples, bw, lo, hi, grid_points);

        ViolinSummary {
            mean: s.mean(),
            median: s.median(),
            q1,
            q3,
            whisker_lo,
            whisker_hi,
            density,
            n: samples.len(),
        }
    }

    /// The mean (plotted as a star in the paper).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The median (white dot).
    pub fn median(&self) -> f64 {
        self.median
    }

    /// First quartile (bottom of the thick IQR bar).
    pub fn q1(&self) -> f64 {
        self.q1
    }

    /// Third quartile (top of the thick IQR bar).
    pub fn q3(&self) -> f64 {
        self.q3
    }

    /// Interquartile range.
    // #[allow_atlarge(dead-public-surface, reason = "Figure 3 draws this violin element; the summary keeps every element the figure renders")]
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Lower whisker (1.5 × IQR below Q1, clipped to the min).
    // #[allow_atlarge(dead-public-surface, reason = "Figure 3 draws this violin element; the summary keeps every element the figure renders")]
    pub fn whisker_lo(&self) -> f64 {
        self.whisker_lo
    }

    /// Upper whisker (1.5 × IQR above Q3, clipped to the max).
    // #[allow_atlarge(dead-public-surface, reason = "Figure 3 draws this violin element; the summary keeps every element the figure renders")]
    pub fn whisker_hi(&self) -> f64 {
        self.whisker_hi
    }

    /// Kernel density estimate as `(x, density)` pairs.
    // #[allow_atlarge(dead-public-surface, reason = "Figure 3 draws this violin element; the summary keeps every element the figure renders")]
    pub fn density(&self) -> &[(f64, f64)] {
        &self.density
    }

    /// Number of samples summarized.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Density mode location (x of the maximum density).
    pub fn mode(&self) -> f64 {
        self.density
            .iter()
            .copied()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite density"))
            .map(|(x, _)| x)
            .unwrap_or(self.median)
    }
}

/// Silverman's rule-of-thumb bandwidth.
///
/// Falls back to a small positive bandwidth for degenerate (zero-spread)
/// samples so the KDE stays well-defined.
pub(crate) fn silverman_bandwidth(s: &Summary) -> f64 {
    let n = s.len() as f64;
    let sigma = s.std_dev();
    let iqr = s.iqr();
    let spread = if iqr > 0.0 {
        sigma.min(iqr / 1.34)
    } else {
        sigma
    };
    let bw = 0.9 * spread * n.powf(-0.2);
    if bw > 0.0 {
        bw
    } else {
        0.1
    }
}

/// Gaussian kernel density estimate of `samples` on an even grid.
///
/// # Panics
///
/// Panics if `bandwidth <= 0`, `samples` is empty, or `points == 0`.
pub(crate) fn kde_gaussian(
    samples: &[f64],
    bandwidth: f64,
    lo: f64,
    hi: f64,
    points: usize,
) -> Vec<(f64, f64)> {
    assert!(bandwidth > 0.0, "bandwidth must be positive");
    assert!(!samples.is_empty(), "kde of empty sample set");
    assert!(points > 0, "kde needs at least one grid point");
    let norm = 1.0 / (samples.len() as f64 * bandwidth * (std::f64::consts::TAU).sqrt());
    let step = if points > 1 {
        (hi - lo) / (points as f64 - 1.0)
    } else {
        0.0
    };
    (0..points)
        .map(|i| {
            let x = lo + step * i as f64;
            let d: f64 = samples
                .iter()
                .map(|&xi| {
                    let z = (x - xi) / bandwidth;
                    (-0.5 * z * z).exp()
                })
                .sum::<f64>()
                * norm;
            (x, d)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_bracket_median() {
        let v = ViolinSummary::from_samples(&[1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0], 64);
        assert!(v.q1() <= v.median());
        assert!(v.median() <= v.q3());
        assert_eq!(v.n(), 7);
    }

    #[test]
    fn whiskers_clip_to_observed_range() {
        let v = ViolinSummary::from_samples(&[1.0, 2.0, 3.0, 4.0], 16);
        assert!(v.whisker_lo() >= 1.0);
        assert!(v.whisker_hi() <= 4.0);
    }

    #[test]
    fn kde_integrates_to_about_one() {
        let samples: Vec<f64> = (0..200).map(|i| (i % 10) as f64).collect();
        let s = Summary::from_slice(&samples);
        let bw = silverman_bandwidth(&s);
        let pts = kde_gaussian(&samples, bw, -5.0, 15.0, 400);
        let step = pts[1].0 - pts[0].0;
        let integral: f64 = pts.iter().map(|&(_, d)| d * step).sum();
        assert!((integral - 1.0).abs() < 0.05, "integral {integral}");
    }

    #[test]
    fn mode_near_data_peak() {
        // Heavy mass at 2.0 — mode should land near it.
        let mut samples = vec![2.0; 50];
        samples.extend([1.0, 3.0, 4.0]);
        let v = ViolinSummary::from_samples(&samples, 200);
        assert!((v.mode() - 2.0).abs() < 0.5, "mode {}", v.mode());
    }

    #[test]
    fn degenerate_samples_are_handled() {
        let v = ViolinSummary::from_samples(&[3.0, 3.0, 3.0], 16);
        assert_eq!(v.median(), 3.0);
        assert_eq!(v.iqr(), 0.0);
        assert!(v.density().iter().all(|&(_, d)| d.is_finite()));
    }

    #[test]
    fn integer_scores_one_to_four() {
        // The paper's scores are integers 1..=4; sanity-check the summary.
        let scores = [1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0];
        let v = ViolinSummary::from_samples(&scores, 64);
        assert!(v.mean() > 2.0 && v.mean() < 3.0);
        assert_eq!(v.median(), 2.0);
    }
}
