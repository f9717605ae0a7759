//! Reproducible random-variate generation.
//!
//! The workspace deliberately implements its own inversion/transform samplers
//! on top of `rand`'s uniform source instead of adding `rand_distr`: the
//! experiments only need a handful of distributions (exponential,
//! log-normal, Weibull, Zipf, normal) and owning the code keeps the
//! dependency set within the approved list while making sampling behaviour
//! auditable and stable across `rand` upgrades.

use rand::Rng;

/// Samples from a distribution given a uniform random source.
///
/// All samplers in this module are deterministic functions of the RNG
/// stream, so seeding the RNG reproduces an experiment exactly.
pub trait Sample {
    /// Draws one variate.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draws `n` variates into a vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda > 0.0, "lambda must be > 0");
        Exponential { lambda }
    }

    /// Creates an exponential distribution from its mean.
    pub fn with_mean(mean: f64) -> Self {
        Self::new(1.0 / mean)
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl Sample for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inversion: -ln(1-U)/lambda; 1-U avoids ln(0).
        let u: f64 = rng.gen::<f64>();
        -(1.0 - u).ln() / self.lambda
    }
}

/// Normal distribution via the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or parameters are not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0);
        Normal { mean, std_dev }
    }
}

impl Sample for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mean + self.std_dev * z
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
///
/// Task runtimes in the scheduling experiments follow log-normals, matching
/// the heavy-but-not-Pareto tails reported for grid workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    /// Creates a log-normal with location `mu` and scale `sigma` (of the log).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or parameters are not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            normal: Normal::new(mu, sigma),
        }
    }

    /// Creates a log-normal with the given arithmetic mean and coefficient
    /// of variation.
    pub fn with_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv >= 0.0);
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Self::new(mu, sigma2.sqrt())
    }
}

impl Sample for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.normal.sample(rng).exp()
    }
}

/// Weibull distribution with scale `lambda` and shape `k`.
///
/// Used for machine failure inter-arrivals in the datacenter simulator
/// (shape < 1 models infant mortality, shape > 1 wear-out).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    scale: f64,
    shape: f64,
}

impl Weibull {
    /// Creates a Weibull distribution.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are strictly positive.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0 && shape > 0.0, "weibull parameters must be > 0");
        Weibull { scale, shape }
    }
}

impl Sample for Weibull {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>();
        self.scale * (-(1.0 - u).ln()).powf(1.0 / self.shape)
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Media popularity in the P2P aliased-media study and zone popularity in
/// the MMOG simulator are Zipf-distributed, as the measurement papers the
/// vision cites repeatedly found.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `1..=n` (1 is the most popular).
    pub(crate) fn sample_rank<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen::<f64>();
        self.cdf.partition_point(|&c| c < u) + 1
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution has no ranks (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

impl Sample for Zipf {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_rank(rng) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::with_mean(3.0);
        let s = Summary::from_iter(d.sample_n(&mut rng(), 20_000));
        assert!((s.mean() - 3.0).abs() < 0.1, "mean {}", s.mean());
    }

    #[test]
    fn normal_moments_converge() {
        let d = Normal::new(5.0, 2.0);
        let s = Summary::from_iter(d.sample_n(&mut rng(), 30_000));
        assert!((s.mean() - 5.0).abs() < 0.1);
        assert!((s.std_dev() - 2.0).abs() < 0.1);
    }

    #[test]
    fn lognormal_with_mean_cv_hits_mean() {
        let d = LogNormal::with_mean_cv(10.0, 0.5);
        let s = Summary::from_iter(d.sample_n(&mut rng(), 50_000));
        assert!((s.mean() - 10.0).abs() < 0.3, "mean {}", s.mean());
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let d = Weibull::new(4.0, 1.0);
        let s = Summary::from_iter(d.sample_n(&mut rng(), 20_000));
        assert!((s.mean() - 4.0).abs() < 0.15);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let d = Zipf::new(100, 1.2);
        let mut counts = vec![0usize; 101];
        let mut r = rng();
        for _ in 0..10_000 {
            counts[d.sample_rank(&mut r)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert_eq!(counts[0], 0);
    }

    #[test]
    fn zipf_exponent_zero_is_uniformish() {
        let d = Zipf::new(4, 0.0);
        let mut counts = [0usize; 5];
        let mut r = rng();
        for _ in 0..40_000 {
            counts[d.sample_rank(&mut r)] += 1;
        }
        for (k, &count) in counts.iter().enumerate().skip(1) {
            let frac = count as f64 / 40_000.0;
            assert!((frac - 0.25).abs() < 0.02, "rank {k} frac {frac}");
        }
    }

    #[test]
    fn seeded_streams_reproduce() {
        let d = Exponential::new(1.0);
        let a = d.sample_n(&mut StdRng::seed_from_u64(7), 16);
        let b = d.sample_n(&mut StdRng::seed_from_u64(7), 16);
        assert_eq!(a, b);
    }
}
