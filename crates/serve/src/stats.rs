//! Server-side request counters, rendered (together with the pulse
//! plane's latency histograms) as the `/stats` JSON document.
//!
//! This module used to own per-domain latency under a mutex; recording
//! now happens lock-free in [`crate::pulse`]'s sharded histograms and
//! this block keeps only the atomic tallies. Wall time enters
//! exclusively through [`atlarge_telemetry::wall::Stopwatch`] readings
//! taken by the server loop; per the workspace contract those readings
//! feed reports and never a simulation result.

use crate::pulse::Pulse;
use atlarge_telemetry::export::{json_f64, json_object, json_str};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters of a running server.
#[derive(Default)]
pub struct ServerStats {
    /// `/run` queries answered (any status).
    pub queries: AtomicU64,
    /// `/run` answers served from the result cache.
    pub cache_hits: AtomicU64,
    /// `/run` answers computed cold.
    pub cache_misses: AtomicU64,
    /// Requests refused with `503` by the admission gate.
    pub rejected: AtomicU64,
    /// Requests answered with `4xx`.
    pub client_errors: AtomicU64,
    /// Requests failed with `500`.
    pub server_errors: AtomicU64,
    /// `/trace` streams started.
    pub trace_streams: AtomicU64,
    /// `/watch` streams started.
    pub watch_streams: AtomicU64,
}

impl ServerStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// Cache hit rate in `[0, 1]`; zero before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.cache_hits.load(Ordering::Relaxed) as f64;
        let total = hits + self.cache_misses.load(Ordering::Relaxed) as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// The `/stats` JSON document. `queue_depth` is sampled by the
    /// caller from the run gate at render time; per-domain latency comes
    /// from the pulse plane's histograms.
    pub fn render_json(&self, queue_depth: usize, pulse: &Pulse) -> String {
        let snap = pulse.snapshot(self);
        let rendered: Vec<String> = snap
            .domains
            .iter()
            .filter(|(_, h)| h.count > 0)
            .map(|(domain, h)| {
                let quantile_ms = |q: f64| json_f64(h.quantile_ms(q).unwrap_or(0.0));
                format!(
                    "{}:{}",
                    json_str(domain),
                    json_object(&[
                        ("count", h.count.to_string()),
                        ("p50_ms", quantile_ms(0.5)),
                        ("p99_ms", quantile_ms(0.99)),
                    ])
                )
            })
            .collect();
        let latency = format!("{{{}}}", rendered.join(","));
        json_object(&[
            ("queries", self.queries.load(Ordering::Relaxed).to_string()),
            (
                "cache_hits",
                self.cache_hits.load(Ordering::Relaxed).to_string(),
            ),
            (
                "cache_misses",
                self.cache_misses.load(Ordering::Relaxed).to_string(),
            ),
            ("hit_rate", json_f64(self.hit_rate())),
            (
                "rejected",
                self.rejected.load(Ordering::Relaxed).to_string(),
            ),
            (
                "client_errors",
                self.client_errors.load(Ordering::Relaxed).to_string(),
            ),
            (
                "server_errors",
                self.server_errors.load(Ordering::Relaxed).to_string(),
            ),
            (
                "trace_streams",
                self.trace_streams.load(Ordering::Relaxed).to_string(),
            ),
            (
                "watch_streams",
                self.watch_streams.load(Ordering::Relaxed).to_string(),
            ),
            ("queue_depth", queue_depth.to_string()),
            ("slo", pulse.slo_status().render_json(pulse.slo_spec())),
            ("latency_ms", latency),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pulse::{Outcome, SloSpec};

    fn pulse() -> Pulse {
        Pulse::new(&["graph", "p2p"], 2, SloSpec::default())
    }

    #[test]
    fn hit_rate_handles_zero_and_mixed_traffic() {
        let stats = ServerStats::new();
        assert_eq!(stats.hit_rate(), 0.0);
        stats.cache_hits.fetch_add(3, Ordering::Relaxed);
        stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn render_includes_counters_and_per_domain_quantiles() {
        let stats = ServerStats::new();
        let pulse = pulse();
        stats.queries.fetch_add(2, Ordering::Relaxed);
        stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        pulse.observe(1, "graph", Outcome::Miss, [0, 500_000, 0, 0]);
        pulse.observe(2, "graph", Outcome::Miss, [0, 80_000_000, 0, 0]);
        pulse.observe(3, "p2p", Outcome::Miss, [0, 12_000_000, 0, 0]);
        let json = stats.render_json(3, &pulse);
        assert!(json.contains("\"queries\":2"), "{json}");
        assert!(json.contains("\"hit_rate\":0.5"), "{json}");
        assert!(json.contains("\"queue_depth\":3"), "{json}");
        assert!(json.contains("\"graph\":{\"count\":2"), "{json}");
        assert!(json.contains("\"p2p\":{\"count\":1"), "{json}");
        assert!(json.contains("\"slo\":{\"state\":\"ok\""), "{json}");
    }

    #[test]
    fn domains_without_traffic_are_omitted_from_latency() {
        let stats = ServerStats::new();
        let pulse = pulse();
        pulse.observe(1, "graph", Outcome::Hit, [0, 0, 0, 10_000]);
        let json = stats.render_json(0, &pulse);
        assert!(json.contains("\"graph\":{"), "{json}");
        assert!(!json.contains("\"p2p\":{"), "{json}");
    }

    #[test]
    fn log_scale_resolves_both_fast_and_slow_queries() {
        let stats = ServerStats::new();
        let pulse = pulse();
        for i in 0..100 {
            pulse.observe(i, "graph", Outcome::Hit, [0, 0, 0, 10_000]); // 10 µs
        }
        pulse.observe(100, "graph", Outcome::Miss, [0, 5_000_000_000, 0, 0]); // 5 s
        let json = stats.render_json(0, &pulse);
        assert!(json.contains("\"count\":101"), "{json}");
        let snap = pulse.snapshot(&stats);
        let h = &snap
            .domains
            .iter()
            .find(|(d, _)| d == "graph")
            .expect("graph")
            .1;
        let p50 = h.quantile_ms(0.5).expect("samples");
        let p999 = h.quantile_ms(0.999).expect("samples");
        assert!(p50 < 1.0, "p50 {p50} should sit at the cached mode");
        assert!(p999 > 100.0, "p999 {p999} should see the slow tail");
    }
}
