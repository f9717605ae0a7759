//! Player-population dynamics across game genres (\[71\], \[72\], \[73\]).
//!
//! The longitudinal studies traced "the short- and long-term dynamics of
//! popular MMORPGs" (Runescape), then MOBA and online-social games. The
//! population model here combines a diurnal arrival process, genre-
//! specific session lengths, and a long-term growth/decay trend; the
//! analyses recover the genre differences the studies report.

use atlarge_stats::dist::{LogNormal, Sample};
use atlarge_stats::timeseries::StepSeries;
use atlarge_workload::arrivals::{ArrivalProcess, Diurnal};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The studied game genres.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Genre {
    /// Massively multiplayer online role-playing game (Runescape-like):
    /// long sessions, strong diurnal cycle.
    Mmorpg,
    /// Multiplayer online battle arena: short match-length sessions, very
    /// high arrival churn.
    Moba,
    /// Online social game: very short sessions, flat diurnal profile.
    OnlineSocial,
}

impl Genre {
    /// All genres in Table 6 order of first study.
    pub fn all() -> [Genre; 3] {
        [Genre::Mmorpg, Genre::Moba, Genre::OnlineSocial]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Genre::Mmorpg => "mmorpg",
            Genre::Moba => "moba",
            Genre::OnlineSocial => "social",
        }
    }

    /// Mean session length in seconds.
    pub(crate) fn mean_session(&self) -> f64 {
        match self {
            Genre::Mmorpg => 2.5 * 3600.0,
            Genre::Moba => 40.0 * 60.0, // one match
            Genre::OnlineSocial => 8.0 * 60.0,
        }
    }

    /// Diurnal amplitude of arrivals.
    pub(crate) fn diurnal_amplitude(&self) -> f64 {
        match self {
            Genre::Mmorpg => 0.8,
            Genre::Moba => 0.7,
            Genre::OnlineSocial => 0.35,
        }
    }

    /// Session-length coefficient of variation.
    pub(crate) fn session_cv(&self) -> f64 {
        match self {
            Genre::Mmorpg => 1.2,
            Genre::Moba => 0.3, // matches have bounded length
            Genre::OnlineSocial => 1.0,
        }
    }
}

/// A simulated population trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationTrace {
    /// Concurrent players over time.
    pub concurrent: StepSeries,
    /// Session records `(start, duration)`.
    pub sessions: Vec<(f64, f64)>,
    /// Days simulated.
    pub days: f64,
}

/// Simulates `days` of population dynamics for a genre at `base_rate`
/// arrivals/second.
pub fn simulate_population(genre: Genre, days: f64, base_rate: f64, seed: u64) -> PopulationTrace {
    let horizon = days * 86_400.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let arrivals = Diurnal::new(base_rate, genre.diurnal_amplitude(), 86_400.0, 0.0)
        .generate(&mut rng, 0.0, horizon);
    let session_d = LogNormal::with_mean_cv(genre.mean_session(), genre.session_cv());
    let mut sessions: Vec<(f64, f64)> = arrivals
        .iter()
        .map(|&t| (t, session_d.sample(&mut rng).max(30.0)))
        .collect();
    sessions.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite starts"));
    // Build the concurrency step series from start/end events.
    let mut events: Vec<(f64, f64)> = Vec::with_capacity(sessions.len() * 2);
    for &(s, d) in &sessions {
        events.push((s, 1.0));
        events.push((s + d, -1.0));
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    let mut series = StepSeries::new(0.0);
    let mut level = 0.0;
    for (t, delta) in events {
        level += delta;
        series.push(t.min(horizon), level.max(0.0));
    }
    PopulationTrace {
        concurrent: series,
        sessions,
        days,
    }
}

/// Short-term dynamics statistic: daily peak-to-trough ratio of
/// concurrency, averaged across full days.
pub(crate) fn peak_trough_ratio(trace: &PopulationTrace) -> f64 {
    let full_days = trace.days.floor() as usize;
    if full_days == 0 {
        return 1.0;
    }
    let mut ratios = Vec::new();
    // Skip day 0 (warm-up: concurrency still filling).
    for d in 1..full_days {
        let from = d as f64 * 86_400.0;
        let mut peak: f64 = 0.0;
        let mut trough = f64::INFINITY;
        let steps = 96;
        for i in 0..steps {
            let v = trace
                .concurrent
                .value_at(from + i as f64 * 86_400.0 / steps as f64);
            peak = peak.max(v);
            trough = trough.min(v);
        }
        if trough > 0.0 {
            ratios.push(peak / trough);
        }
    }
    ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
}

/// Mean session duration of a trace.
pub(crate) fn mean_session(trace: &PopulationTrace) -> f64 {
    trace.sessions.iter().map(|&(_, d)| d).sum::<f64>() / trace.sessions.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(genre: Genre) -> PopulationTrace {
        simulate_population(genre, 4.0, 0.05, 31)
    }

    #[test]
    fn sessions_match_genre_scale() {
        let rpg = mean_session(&trace(Genre::Mmorpg));
        let moba = mean_session(&trace(Genre::Moba));
        let social = mean_session(&trace(Genre::OnlineSocial));
        assert!(rpg > 3.0 * moba, "rpg {rpg} vs moba {moba}");
        assert!(moba > social, "moba {moba} vs social {social}");
    }

    #[test]
    fn mmorpg_has_strong_diurnal_cycle() {
        // Compare at matched mean concurrency: the social genre's short
        // sessions need a higher arrival rate to host the same population,
        // otherwise small-sample noise dominates its peak/trough ratio.
        let rpg = peak_trough_ratio(&simulate_population(Genre::Mmorpg, 4.0, 0.08, 31));
        let social = peak_trough_ratio(&simulate_population(Genre::OnlineSocial, 4.0, 1.5, 31));
        assert!(rpg > 2.0, "mmorpg peak/trough {rpg}");
        assert!(
            rpg > social,
            "mmorpg cycle {rpg} should exceed social {social}"
        );
    }

    #[test]
    fn concurrency_never_negative() {
        let t = trace(Genre::Moba);
        for i in 0..200 {
            assert!(t.concurrent.value_at(i as f64 * 1000.0) >= 0.0);
        }
    }

    #[test]
    fn deterministic() {
        let a = simulate_population(Genre::Moba, 2.0, 0.05, 9);
        let b = simulate_population(Genre::Moba, 2.0, 0.05, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn genres_enumerate() {
        assert_eq!(Genre::all().len(), 3);
        assert_eq!(Genre::Mmorpg.name(), "mmorpg");
    }
}
