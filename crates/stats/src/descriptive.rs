//! Descriptive statistics over `f64` samples.

use std::fmt;

/// A descriptive summary of a set of samples.
///
/// The summary keeps a sorted copy of the samples so percentile queries are
/// exact (linear-interpolation quantiles, the same convention used by most
/// plotting toolkits for the violin plots of Figure 3).
///
/// # Examples
///
/// ```
/// use atlarge_stats::descriptive::Summary;
///
/// let s = Summary::from_slice(&[4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// assert_eq!(s.quantile(0.5), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// Builds a summary from any iterator of samples.
    ///
    /// Non-finite samples (NaN, ±inf) are rejected by `Summary::try_from_iter`;
    /// this constructor panics on them.
    ///
    /// # Panics
    ///
    /// Panics if any sample is not finite.
    // Not `FromIterator`: that trait's `from_iter` cannot panic-document,
    // and the fallible twin `try_from_iter` is the primary constructor.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::try_from_iter(iter).expect("samples must be finite")
    }

    /// Builds a summary from a slice of samples.
    ///
    /// # Panics
    ///
    /// Panics if any sample is not finite.
    pub fn from_slice(samples: &[f64]) -> Self {
        Self::from_iter(samples.iter().copied())
    }

    /// Fallible constructor: returns `None` if any sample is not finite.
    pub(crate) fn try_from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Option<Self> {
        let mut sorted: Vec<f64> = Vec::new();
        // Welford's online algorithm for numerically stable mean/variance.
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for (i, x) in iter.into_iter().enumerate() {
            if !x.is_finite() {
                return None;
            }
            sorted.push(x);
            let delta = x - mean;
            mean += delta / (i as f64 + 1.0);
            m2 += delta * (x - mean);
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Some(Summary { sorted, mean, m2 })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the summary holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean. Zero for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (n−1 denominator). Zero when n < 2.
    pub fn variance(&self) -> f64 {
        if self.len() < 2 {
            0.0
        } else {
            self.m2 / (self.len() as f64 - 1.0)
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (`sd / sqrt(n)`). Zero when n < 2.
    pub(crate) fn std_error(&self) -> f64 {
        if self.len() < 2 {
            0.0
        } else {
            self.std_dev() / (self.len() as f64).sqrt()
        }
    }

    /// Half-width of the two-sided 95% confidence interval on the mean,
    /// using Student's t critical value for the sample's degrees of
    /// freedom (exact table through df = 30, the asymptote beyond).
    /// Zero when n < 2 — a single replication carries no interval.
    pub fn ci95_half_width(&self) -> f64 {
        if self.len() < 2 {
            return 0.0;
        }
        // Two-sided 97.5% t quantiles for df = 1..=30.
        const T975: [f64; 30] = [
            12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
            2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
            2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
        ];
        let df = self.len() - 1;
        let t = if df <= 30 { T975[df - 1] } else { 1.96 };
        t * self.std_error()
    }

    /// Coefficient of variation (std dev / mean); zero when the mean is zero.
    pub fn cv(&self) -> f64 {
        if self.mean().abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev() / self.mean()
        }
    }

    /// Smallest sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty summary.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("min of empty summary")
    }

    /// Largest sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty summary.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("max of empty summary")
    }

    /// Linear-interpolation quantile, `q` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on an empty summary or if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.is_empty(), "quantile of empty summary");
        assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let pos = q * (self.sorted.len() as f64 - 1.0);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median (0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Interquartile range: `Q3 − Q1`.
    pub(crate) fn iqr(&self) -> f64 {
        self.quantile(0.75) - self.quantile(0.25)
    }

    /// Percentile helper: `p` in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.len() as f64
    }

    /// Read-only view of the sorted samples.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Summary::from_iter(iter)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} p50={:.3} p95={:.3} max={:.3}",
            self.len(),
            self.mean(),
            self.std_dev(),
            self.min(),
            self.median(),
            self.quantile(0.95),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_match_textbook() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // population variance 4.0 -> sample variance 32/7
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::from_slice(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.quantile(0.0), 10.0);
        assert_eq!(s.quantile(1.0), 40.0);
        assert!((s.quantile(0.25) - 17.5).abs() < 1e-12);
        assert!((s.median() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn iqr_of_uniform_grid() {
        let s = Summary::from_iter((0..101).map(|i| i as f64));
        assert!((s.iqr() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_benign() {
        let s = Summary::from_slice(&[]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn rejects_nan() {
        assert!(Summary::try_from_iter([1.0, f64::NAN]).is_none());
        assert!(Summary::try_from_iter([f64::INFINITY]).is_none());
    }

    #[test]
    fn display_is_nonempty() {
        let s = Summary::from_slice(&[1.0]);
        assert!(!format!("{s}").is_empty());
        let e = Summary::from_slice(&[]);
        assert_eq!(format!("{e}"), "n=0");
    }

    #[test]
    fn ci95_matches_hand_computation() {
        // n=4, sd=1: half-width = t(3) * 1/2 = 3.182/2.
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 2.0]);
        let hw = s.ci95_half_width();
        assert!((hw - 3.182 * s.std_error()).abs() < 1e-12);
        assert!((s.std_error() - s.std_dev() / 2.0).abs() < 1e-12);
        // Degenerate cases carry no interval.
        assert_eq!(Summary::from_slice(&[5.0]).ci95_half_width(), 0.0);
        assert_eq!(Summary::from_slice(&[]).ci95_half_width(), 0.0);
        // Large n approaches the normal critical value.
        let big = Summary::from_iter((0..200).map(|i| f64::from(i % 7)));
        assert!((big.ci95_half_width() - 1.96 * big.std_error()).abs() < 1e-12);
    }

    #[test]
    fn single_sample_quantiles() {
        let s = Summary::from_slice(&[7.0]);
        assert_eq!(s.quantile(0.0), 7.0);
        assert_eq!(s.quantile(0.37), 7.0);
        assert_eq!(s.quantile(1.0), 7.0);
    }
}
