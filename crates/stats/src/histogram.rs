//! Fixed-bin histograms and empirical CDFs.

use std::fmt;

/// A histogram with uniform-width bins over `[lo, hi)`.
///
/// Samples below the range land in the first bin, samples at or above the
/// range in the last bin (clamped semantics), so totals always equal the
/// number of observations — the property the measurement-bias experiments
/// in `atlarge-p2p` rely on when comparing instrument views.
///
/// # Examples
///
/// ```
/// use atlarge_stats::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// h.record(1.0);
/// h.record(9.5);
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.bin_count(0), 1);
/// assert_eq!(h.bin_count(4), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` uniform bins.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and `bins > 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
        }
    }

    /// Records one sample (clamped into the range).
    pub fn record(&mut self, x: f64) {
        let idx = self.bin_index(x);
        self.bins[idx] += 1;
    }

    /// Records many samples.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.record(x);
        }
    }

    /// The bin a sample falls into (clamped).
    pub(crate) fn bin_index(&self, x: f64) -> usize {
        if x < self.lo {
            return 0;
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let idx = ((x - self.lo) / width) as usize;
        idx.min(self.bins.len() - 1)
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bin_count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Lower edge of bin `i`.
    pub(crate) fn bin_lo(&self, i: usize) -> f64 {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + width * i as f64
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Normalized bin frequencies (sum to 1 when non-empty).
    pub(crate) fn frequencies(&self) -> Vec<f64> {
        let total = self.count();
        if total == 0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins.iter().map(|&c| c as f64 / total as f64).collect()
    }

    /// Nearest-rank quantile estimate: the upper edge of the bin holding
    /// the sample of rank `ceil(q * count)`.
    ///
    /// For samples that fall inside the range the estimate is within one
    /// bin width of the exact quantile; clamped out-of-range samples can
    /// push it further, like every other fixed-bin summary. Returns `None`
    /// on an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        let mut acc = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return Some(self.lo + width * (i + 1) as f64);
            }
        }
        unreachable!("cumulative count reaches total")
    }

    /// Merges another histogram with identical geometry into this one.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram lower bounds differ");
        assert_eq!(self.hi, other.hi, "histogram upper bounds differ");
        assert_eq!(self.bins.len(), other.bins.len(), "bin counts differ");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }

    /// Total-variation distance between two histograms' frequency vectors.
    ///
    /// Used by the sampling-bias experiment (§6.1, \[65\]) to quantify how far
    /// an instrument's view of swarm sizes is from ground truth.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn total_variation(&self, other: &Histogram) -> f64 {
        assert_eq!(self.bins.len(), other.bins.len(), "bin counts differ");
        let fa = self.frequencies();
        let fb = other.frequencies();
        0.5 * fa.iter().zip(&fb).map(|(a, b)| (a - b).abs()).sum::<f64>()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "histogram [{}, {}) n={}", self.lo, self.hi, self.count())?;
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        for (i, &c) in self.bins.iter().enumerate() {
            let bar = "#".repeat((c * 40 / max) as usize);
            writeln!(f, "{:>10.2} | {:<40} {}", self.bin_lo(i), bar, c)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-5.0);
        h.record(100.0);
        assert_eq!(h.bin_count(0), 1);
        assert_eq!(h.bin_count(9), 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn frequencies_sum_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record_all([0.1, 0.3, 0.6, 0.9, 0.95]);
        let sum: f64 = h.frequencies().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        let mut b = Histogram::new(0.0, 1.0, 2);
        a.record(0.1);
        b.record(0.9);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.bin_count(0), 1);
        assert_eq!(a.bin_count(1), 1);
    }

    #[test]
    fn tv_distance_zero_for_identical() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        a.record_all([0.1, 0.6]);
        assert_eq!(a.total_variation(&a.clone()), 0.0);
    }

    #[test]
    fn tv_distance_one_for_disjoint() {
        let mut a = Histogram::new(0.0, 1.0, 2);
        let mut b = Histogram::new(0.0, 1.0, 2);
        a.record(0.1);
        b.record(0.9);
        assert!((a.total_variation(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_none_when_empty() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantile_within_one_bin_width() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        h.record_all(xs.iter().copied());
        for &(q, exact) in &[(0.5, 4.9), (0.95, 9.4), (0.99, 9.8)] {
            let est = h.quantile(q).unwrap();
            assert!(
                (est - exact).abs() <= 1.0 + 1e-9,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn quantile_extremes_hit_first_and_last_occupied_bin() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record_all([2.5, 7.5]);
        assert_eq!(h.quantile(0.0), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(8.0));
    }

    #[test]
    fn display_is_nonempty() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert!(format!("{h}").contains("histogram"));
    }
}
