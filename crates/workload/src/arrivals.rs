//! Arrival processes.
//!
//! The seminal BitTorrent study the paper builds on (§6.1) "debunk\[ed\]
//! theoretical assumptions such as Poisson arrivals"; the flashcrowd study
//! \[66\] modeled sudden arrival spikes; the MMOG studies found strong
//! diurnal cycles. All of those arrival shapes live here so every simulator
//! draws from the same vocabulary.

use atlarge_stats::dist::{Exponential, Sample};
use rand::Rng;

/// Generates arrival instants over a window of simulated time.
pub trait ArrivalProcess {
    /// Returns sorted arrival times in `[from, to)`.
    fn generate<R: Rng + ?Sized>(&self, rng: &mut R, from: f64, to: f64) -> Vec<f64>;

    /// The long-run average arrival rate (arrivals per unit time).
    fn mean_rate(&self) -> f64;
}

/// Homogeneous Poisson arrivals at `rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    rate: f64,
}

impl Poisson {
    /// Creates a Poisson process.
    ///
    /// # Panics
    ///
    /// Panics unless `rate > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        Poisson { rate }
    }
}

impl ArrivalProcess for Poisson {
    fn generate<R: Rng + ?Sized>(&self, rng: &mut R, from: f64, to: f64) -> Vec<f64> {
        assert!(from <= to, "window reversed");
        let exp = Exponential::new(self.rate);
        let mut t = from;
        let mut out = Vec::new();
        loop {
            t += exp.sample(rng);
            if t >= to {
                break;
            }
            out.push(t);
        }
        out
    }

    fn mean_rate(&self) -> f64 {
        self.rate
    }
}

/// A two-state on/off bursty process (a simple MMPP): alternates between a
/// high-rate and a low-rate regime with exponentially distributed dwell
/// times. Captures the burstiness real traces show that Poisson misses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bursty {
    high_rate: f64,
    low_rate: f64,
    mean_high_dwell: f64,
    mean_low_dwell: f64,
}

impl Bursty {
    /// Creates a bursty process.
    ///
    /// # Panics
    ///
    /// Panics unless all parameters are positive.
    pub fn new(high_rate: f64, low_rate: f64, mean_high_dwell: f64, mean_low_dwell: f64) -> Self {
        assert!(
            high_rate > 0.0 && low_rate > 0.0 && mean_high_dwell > 0.0 && mean_low_dwell > 0.0,
            "bursty parameters must be positive"
        );
        Bursty {
            high_rate,
            low_rate,
            mean_high_dwell,
            mean_low_dwell,
        }
    }
}

impl ArrivalProcess for Bursty {
    fn generate<R: Rng + ?Sized>(&self, rng: &mut R, from: f64, to: f64) -> Vec<f64> {
        assert!(from <= to, "window reversed");
        let mut out = Vec::new();
        let mut t = from;
        let mut high = false;
        while t < to {
            let (rate, dwell) = if high {
                (self.high_rate, self.mean_high_dwell)
            } else {
                (self.low_rate, self.mean_low_dwell)
            };
            let regime_end = (t + Exponential::with_mean(dwell).sample(rng)).min(to);
            let exp = Exponential::new(rate);
            let mut a = t;
            loop {
                a += exp.sample(rng);
                if a >= regime_end {
                    break;
                }
                out.push(a);
            }
            t = regime_end;
            high = !high;
        }
        out
    }

    fn mean_rate(&self) -> f64 {
        let total = self.mean_high_dwell + self.mean_low_dwell;
        (self.high_rate * self.mean_high_dwell + self.low_rate * self.mean_low_dwell) / total
    }
}

/// A flashcrowd: a baseline Poisson process plus a sudden spike that decays
/// exponentially after onset — the model of \[66\] ("Identifying, analyzing,
/// and modeling flashcrowds in BitTorrent").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flashcrowd {
    baseline: f64,
    spike_start: f64,
    spike_magnitude: f64,
    decay: f64,
}

impl Flashcrowd {
    /// Creates a flashcrowd: baseline rate, spike onset time, peak extra
    /// rate at onset, and exponential decay constant of the spike.
    ///
    /// # Panics
    ///
    /// Panics unless all rates and the decay constant are positive.
    pub fn new(baseline: f64, spike_start: f64, spike_magnitude: f64, decay: f64) -> Self {
        assert!(
            baseline > 0.0 && spike_magnitude > 0.0 && decay > 0.0,
            "flashcrowd parameters must be positive"
        );
        Flashcrowd {
            baseline,
            spike_start,
            spike_magnitude,
            decay,
        }
    }

    /// Instantaneous rate at time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        if t < self.spike_start {
            self.baseline
        } else {
            self.baseline + self.spike_magnitude * (-(t - self.spike_start) / self.decay).exp()
        }
    }

    fn peak_rate(&self) -> f64 {
        self.baseline + self.spike_magnitude
    }
}

impl ArrivalProcess for Flashcrowd {
    fn generate<R: Rng + ?Sized>(&self, rng: &mut R, from: f64, to: f64) -> Vec<f64> {
        assert!(from <= to, "window reversed");
        // Thinning (Lewis–Shedler): simulate at the peak rate, accept with
        // probability rate(t)/peak.
        let peak = self.peak_rate();
        let exp = Exponential::new(peak);
        let mut t = from;
        let mut out = Vec::new();
        loop {
            t += exp.sample(rng);
            if t >= to {
                break;
            }
            if rng.gen::<f64>() < self.rate_at(t) / peak {
                out.push(t);
            }
        }
        out
    }

    fn mean_rate(&self) -> f64 {
        self.baseline
    }
}

/// Diurnal arrivals: a sinusoidal day/night rate, as in the MMOG dynamics
/// studies (§6.2, \[71\]–\[73\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    mean: f64,
    amplitude: f64,
    period: f64,
    phase: f64,
}

impl Diurnal {
    /// Creates a diurnal process: `rate(t) = mean * (1 + amplitude *
    /// sin(2π (t/period + phase)))`.
    ///
    /// # Panics
    ///
    /// Panics unless `mean > 0`, `0 <= amplitude < 1`, and `period > 0`.
    pub fn new(mean: f64, amplitude: f64, period: f64, phase: f64) -> Self {
        assert!(mean > 0.0, "mean rate must be positive");
        assert!((0.0..1.0).contains(&amplitude), "amplitude in [0,1)");
        assert!(period > 0.0, "period must be positive");
        Diurnal {
            mean,
            amplitude,
            period,
            phase,
        }
    }

    /// Instantaneous rate at time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        self.mean
            * (1.0
                + self.amplitude * (std::f64::consts::TAU * (t / self.period + self.phase)).sin())
    }
}

impl ArrivalProcess for Diurnal {
    fn generate<R: Rng + ?Sized>(&self, rng: &mut R, from: f64, to: f64) -> Vec<f64> {
        assert!(from <= to, "window reversed");
        let peak = self.mean * (1.0 + self.amplitude);
        let exp = Exponential::new(peak);
        let mut t = from;
        let mut out = Vec::new();
        loop {
            t += exp.sample(rng);
            if t >= to {
                break;
            }
            if rng.gen::<f64>() < self.rate_at(t) / peak {
                out.push(t);
            }
        }
        out
    }

    fn mean_rate(&self) -> f64 {
        self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Index of dispersion for counts (IDC) over fixed windows: 1 for Poisson,
    /// substantially above 1 for bursty/flashcrowd processes. This is the
    /// statistic the P2P studies used to debunk the Poisson assumption.
    fn index_of_dispersion(arrivals: &[f64], window: f64, from: f64, to: f64) -> f64 {
        assert!(window > 0.0, "window must be positive");
        assert!(from < to, "range must be non-empty");
        let n_windows = ((to - from) / window).floor() as usize;
        if n_windows < 2 {
            return 1.0;
        }
        let mut counts = vec![0.0f64; n_windows];
        for &a in arrivals {
            if a >= from && a < from + n_windows as f64 * window {
                counts[((a - from) / window) as usize] += 1.0;
            }
        }
        let mean = counts.iter().sum::<f64>() / n_windows as f64;
        if mean == 0.0 {
            return 1.0;
        }
        let var =
            counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / (n_windows - 1) as f64;
        var / mean
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn poisson_rate_converges() {
        let p = Poisson::new(3.0);
        let arr = p.generate(&mut rng(), 0.0, 10_000.0);
        let rate = arr.len() as f64 / 10_000.0;
        assert!((rate - 3.0).abs() < 0.1, "rate {rate}");
    }

    #[test]
    fn poisson_idc_near_one() {
        let p = Poisson::new(5.0);
        let arr = p.generate(&mut rng(), 0.0, 5_000.0);
        let idc = index_of_dispersion(&arr, 10.0, 0.0, 5_000.0);
        assert!((idc - 1.0).abs() < 0.25, "idc {idc}");
    }

    #[test]
    fn bursty_idc_exceeds_one() {
        let b = Bursty::new(20.0, 0.5, 10.0, 50.0);
        let arr = b.generate(&mut rng(), 0.0, 5_000.0);
        let idc = index_of_dispersion(&arr, 10.0, 0.0, 5_000.0);
        assert!(idc > 2.0, "idc {idc} should reveal burstiness");
    }

    #[test]
    fn flashcrowd_spikes_after_onset() {
        let f = Flashcrowd::new(1.0, 500.0, 30.0, 50.0);
        let arr = f.generate(&mut rng(), 0.0, 1000.0);
        let before = arr.iter().filter(|&&t| (400.0..500.0).contains(&t)).count();
        let after = arr.iter().filter(|&&t| (500.0..600.0).contains(&t)).count();
        assert!(
            after as f64 > 4.0 * before as f64,
            "before {before} after {after}"
        );
    }

    #[test]
    fn flashcrowd_rate_decays() {
        let f = Flashcrowd::new(1.0, 100.0, 10.0, 20.0);
        assert_eq!(f.rate_at(50.0), 1.0);
        assert!((f.rate_at(100.0) - 11.0).abs() < 1e-12);
        assert!(f.rate_at(200.0) < 1.2);
    }

    #[test]
    fn diurnal_peaks_and_troughs() {
        let d = Diurnal::new(10.0, 0.8, 24.0, 0.0);
        let arr = d.generate(&mut rng(), 0.0, 24.0 * 200.0);
        // Peak near t=6h (sin max), trough near t=18h of each day.
        let mut peak = 0;
        let mut trough = 0;
        for &a in &arr {
            let h = a % 24.0;
            if (5.0..7.0).contains(&h) {
                peak += 1;
            }
            if (17.0..19.0).contains(&h) {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > 3.0 * trough as f64,
            "peak {peak} trough {trough}"
        );
    }

    #[test]
    fn generated_times_sorted_within_window() {
        let p = Poisson::new(2.0);
        let arr = p.generate(&mut rng(), 10.0, 20.0);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(arr.iter().all(|&t| (10.0..20.0).contains(&t)));
    }

    #[test]
    fn mean_rates_reported() {
        assert_eq!(Poisson::new(2.0).mean_rate(), 2.0);
        let b = Bursty::new(10.0, 1.0, 1.0, 3.0);
        assert!((b.mean_rate() - (10.0 + 3.0) / 4.0).abs() < 1e-12);
    }
}
