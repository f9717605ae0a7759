//! `atlarge-pulse` — the server's live observability plane.
//!
//! The AtLarge design processes observe *running* systems, not only
//! simulated ones; this module makes the exploration server itself a
//! first-class observable. It owns:
//!
//! - **Request-scoped spans.** Every query gets a monotonically
//!   increasing request id at accept time, echoed in the
//!   `X-Atlarge-Request` response header and carried through admission,
//!   the wait for a run slot, the scenario run, rendering, and the
//!   response write. Per-stage wall durations come exclusively from
//!   [`Stopwatch`] readings (the workspace's sanctioned wall-clock
//!   boundary) and feed *reports only* — never a cacheable body.
//! - **Lock-free sharded latency recording.** Per-stage and per-domain
//!   end-to-end durations land in [`ShardedHistogram`]s: three relaxed
//!   atomic adds per record, no locks on the hot path.
//! - **Windowed aggregation.** Two cumulative snapshots one second
//!   apart difference into that second's histogram, which is how the
//!   `/watch` stream emits per-window p50/p99 without any per-request
//!   bookkeeping beyond the atomics above.
//! - **SLO burn-rate tracking.** A declarative [`SloSpec`] (latency
//!   objective + availability objective) evaluated over 1m and 5m
//!   windows from a ring of per-second samples; burn rate is budget
//!   consumed per unit budget-sustainable rate, so `burn = 1` means
//!   "spending exactly the error budget", `burn = 14.4` sustained
//!   means "the monthly budget dies in ~2 days" — the classic
//!   fast-burn alerting threshold this module adopts for its
//!   `critical` state.

use crate::stats::ServerStats;
use atlarge_telemetry::export::{json_f64, json_object, json_str};
use atlarge_telemetry::hist::{HistogramSnapshot, ShardedHistogram};
use atlarge_telemetry::wall::Stopwatch;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Pipeline stages a request's wall time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Waiting between admission to the run gate and holding a run
    /// slot.
    Queue = 0,
    /// Executing the scenario cell in its slot.
    Run = 1,
    /// Rendering the canonical response body.
    Render = 2,
    /// Writing the response to the client socket.
    Write = 3,
}

/// Stage names in [`Stage`] discriminant order.
pub const STAGE_NAMES: [&str; 4] = ["queue", "run", "render", "write"];

/// How a request was answered, as recorded in its span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the result cache.
    Hit,
    /// Computed cold in a run slot.
    Miss,
    /// Streamed live over `/trace`.
    Stream,
    /// Failed server-side (counts against the availability SLO).
    Error,
}

impl Outcome {
    fn name(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
            Outcome::Stream => "stream",
            Outcome::Error => "error",
        }
    }
}

/// A declarative service-level objective for the exploration server.
#[derive(Debug, Clone, Copy)]
pub struct SloSpec {
    /// Per-request end-to-end latency target, milliseconds.
    pub latency_ms: f64,
    /// Fraction of requests that must meet `latency_ms` (e.g. `0.99`
    /// for "p99 < latency_ms").
    pub latency_objective: f64,
    /// Fraction of requests that must be answered without shedding or
    /// server error (e.g. `0.999` for "99.9% available").
    pub availability: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            latency_ms: 50.0,
            latency_objective: 0.99,
            availability: 0.999,
        }
    }
}

/// Sustained burn at or above this rate in *both* the short and long
/// window flips the SLO state to `critical` (the SRE-workbook fast-burn
/// page threshold).
pub const CRITICAL_BURN: f64 = 14.4;

/// Short / long burn-rate windows, seconds.
pub const BURN_SHORT_SECS: usize = 60;
/// See [`BURN_SHORT_SECS`].
pub const BURN_LONG_SECS: usize = 300;

/// Evaluated SLO state at one instant.
#[derive(Debug, Clone, Copy)]
pub struct SloStatus {
    /// Availability burn rate over the short (1m) window.
    pub avail_burn_1m: f64,
    /// Availability burn rate over the long (5m) window.
    pub avail_burn_5m: f64,
    /// Latency burn rate over the short (1m) window.
    pub lat_burn_1m: f64,
    /// Latency burn rate over the long (5m) window.
    pub lat_burn_5m: f64,
    /// `"ok"`, `"warn"` (budget burning faster than sustainable), or
    /// `"critical"` (fast-burn in both windows).
    pub state: &'static str,
    /// Whether `/healthz` should still answer `200`: false only when
    /// the *availability* objective is critical — a latency-degraded
    /// server is still safer in rotation than out of it.
    pub healthy: bool,
}

impl SloStatus {
    fn classify(short: f64, long: f64) -> u8 {
        let sustained = short.min(long);
        if sustained >= CRITICAL_BURN {
            2
        } else if sustained >= 1.0 {
            1
        } else {
            0
        }
    }

    /// Renders the `"slo"` JSON object shared by `/healthz`, `/watch`,
    /// and `/stats`.
    pub fn render_json(&self, spec: &SloSpec) -> String {
        json_object(&[
            ("state", json_str(self.state)),
            ("healthy", self.healthy.to_string()),
            (
                "availability",
                json_object(&[
                    ("target", json_f64(spec.availability)),
                    ("burn_1m", json_f64(self.avail_burn_1m)),
                    ("burn_5m", json_f64(self.avail_burn_5m)),
                ]),
            ),
            (
                "latency",
                json_object(&[
                    ("target_ms", json_f64(spec.latency_ms)),
                    ("objective", json_f64(spec.latency_objective)),
                    ("burn_1m", json_f64(self.lat_burn_1m)),
                    ("burn_5m", json_f64(self.lat_burn_5m)),
                ]),
            ),
        ])
    }
}

/// One per-second SLO accounting sample (deltas, not totals).
#[derive(Debug, Clone, Copy, Default)]
struct SloSample {
    total: u64,
    bad: u64,
    lat_total: u64,
    lat_slow: u64,
}

/// Ring of per-second samples, long enough for the 5m burn window.
struct SloRing {
    samples: VecDeque<SloSample>,
    last_totals: SloSample,
}

impl SloRing {
    fn push_totals(&mut self, totals: SloSample) {
        let delta = SloSample {
            total: totals.total - self.last_totals.total,
            bad: totals.bad - self.last_totals.bad,
            lat_total: totals.lat_total - self.last_totals.lat_total,
            lat_slow: totals.lat_slow - self.last_totals.lat_slow,
        };
        self.last_totals = totals;
        self.samples.push_back(delta);
        while self.samples.len() > BURN_LONG_SECS {
            self.samples.pop_front();
        }
    }

    /// Burn rate over the trailing `window` seconds: observed bad
    /// fraction divided by the error budget. Zero traffic burns zero.
    fn burn(&self, window: usize, budget: f64, latency: bool) -> f64 {
        let mut total = 0u64;
        let mut bad = 0u64;
        for s in self.samples.iter().rev().take(window) {
            if latency {
                total += s.lat_total;
                bad += s.lat_slow;
            } else {
                total += s.total;
                bad += s.bad;
            }
        }
        if total == 0 || budget <= 0.0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / budget
    }
}

/// A completed request span: the id, where the time went, and how it
/// was answered. These are what make a request traceable across every
/// pipeline stage in the emitted telemetry.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Request id (the `X-Atlarge-Request` header value).
    pub id: u64,
    /// Domain the query targeted.
    pub domain: String,
    /// `hit` / `miss` / `stream` / `error`.
    pub outcome: Outcome,
    /// Per-stage nanoseconds in [`STAGE_NAMES`] order; a stage the
    /// request skipped (e.g. `queue` on a cache hit) is zero.
    pub stage_ns: [u64; 4],
    /// End-to-end nanoseconds from accept to last byte written.
    pub total_ns: u64,
    /// Completion sequence number (assigned at observe time).
    pub seq: u64,
}

impl SpanRecord {
    /// Renders the span as one JSON object (the `/watch` window's
    /// `slowest` field).
    pub fn render_json(&self) -> String {
        json_object(&[
            ("req", self.id.to_string()),
            ("domain", json_str(&self.domain)),
            ("outcome", json_str(self.outcome.name())),
            ("total_ms", json_f64(self.total_ns as f64 / 1e6)),
            ("queue_ms", json_f64(self.stage_ns[0] as f64 / 1e6)),
            ("run_ms", json_f64(self.stage_ns[1] as f64 / 1e6)),
            ("render_ms", json_f64(self.stage_ns[2] as f64 / 1e6)),
            ("write_ms", json_f64(self.stage_ns[3] as f64 / 1e6)),
        ])
    }

    /// Renders the span as a `kind:"server_span"` trace record — the
    /// line a `/trace` stream interleaves before its manifest so the
    /// serving-side story of the run rides in the same export. It
    /// carries wall durations only (no simulated time); `obsv`'s trace
    /// reader skips it during causal analysis.
    pub fn render_trace_line(&self) -> String {
        json_object(&[
            ("kind", json_str("server_span")),
            ("req", self.id.to_string()),
            ("domain", json_str(&self.domain)),
            ("outcome", json_str(self.outcome.name())),
            ("queue_ms", json_f64(self.stage_ns[0] as f64 / 1e6)),
            ("run_ms", json_f64(self.stage_ns[1] as f64 / 1e6)),
        ])
    }
}

/// Completed spans kept for `/watch`'s per-window exemplar.
const SPAN_RING: usize = 512;

/// The live observability plane of one server instance.
pub struct Pulse {
    /// Server lifetime clock; `t_ms` in `/watch` lines is relative to
    /// this (a report field, never a result).
    epoch: Stopwatch,
    slo: SloSpec,
    /// Per-stage wall-latency histograms.
    stage: [ShardedHistogram; 4],
    /// Per-domain end-to-end histograms, sorted by domain name for
    /// lock-free binary-search lookup.
    domains: Vec<(String, ShardedHistogram)>,
    next_request: AtomicU64,
    next_seq: AtomicU64,
    /// EWMA of cold-run service time, nanoseconds (0 = no signal yet).
    ewma_service_ns: AtomicU64,
    // SLO accounting totals, sampled once per second into the ring.
    slo_total: AtomicU64,
    slo_bad: AtomicU64,
    lat_total: AtomicU64,
    lat_slow: AtomicU64,
    ring: Mutex<SloRing>,
    recent: Mutex<VecDeque<SpanRecord>>,
}

impl Pulse {
    /// A plane for a server exposing `domains`, with `shards`-way
    /// histogram sharding (match the run-slot count).
    pub fn new(domains: &[&str], shards: usize, slo: SloSpec) -> Self {
        let mut names: Vec<String> = domains.iter().map(|d| d.to_string()).collect();
        names.sort();
        Pulse {
            epoch: Stopwatch::start(),
            slo,
            stage: std::array::from_fn(|_| ShardedHistogram::new(shards)),
            domains: names
                .into_iter()
                .map(|d| (d, ShardedHistogram::new(shards)))
                .collect(),
            next_request: AtomicU64::new(1),
            next_seq: AtomicU64::new(1),
            ewma_service_ns: AtomicU64::new(0),
            slo_total: AtomicU64::new(0),
            slo_bad: AtomicU64::new(0),
            lat_total: AtomicU64::new(0),
            lat_slow: AtomicU64::new(0),
            ring: Mutex::new(SloRing {
                samples: VecDeque::new(),
                last_totals: SloSample::default(),
            }),
            recent: Mutex::new(VecDeque::with_capacity(SPAN_RING)),
        }
    }

    /// The configured SLO.
    pub fn slo_spec(&self) -> &SloSpec {
        &self.slo
    }

    /// Milliseconds since the server started (report field).
    pub fn uptime_ms(&self) -> f64 {
        self.epoch.elapsed_ms()
    }

    /// Assigns the next request id.
    pub fn begin_request(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one completed request span: histograms, SLO accounting,
    /// EWMA service time, and the recent-span ring.
    pub fn observe(&self, id: u64, domain: &str, outcome: Outcome, stage_ns: [u64; 4]) {
        let total_ns: u64 = stage_ns.iter().sum();
        for (hist, &ns) in self.stage.iter().zip(&stage_ns) {
            if ns > 0 {
                hist.record(ns);
            }
        }
        if let Ok(idx) = self
            .domains
            .binary_search_by(|(name, _)| name.as_str().cmp(domain))
        {
            self.domains[idx].1.record(total_ns);
        }
        self.slo_total.fetch_add(1, Ordering::Relaxed);
        if outcome == Outcome::Error {
            self.slo_bad.fetch_add(1, Ordering::Relaxed);
        }
        self.lat_total.fetch_add(1, Ordering::Relaxed);
        if total_ns as f64 / 1e6 > self.slo.latency_ms {
            self.lat_slow.fetch_add(1, Ordering::Relaxed);
        }
        if outcome == Outcome::Miss || outcome == Outcome::Stream {
            self.note_service_ns(stage_ns[Stage::Run as usize]);
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut recent = self.recent.lock().expect("span ring lock");
        // A full ring hands its oldest span's domain buffer to the
        // newest, so a steady stream of requests allocates nothing here.
        let mut buffer = if recent.len() == SPAN_RING {
            recent
                .pop_front()
                .expect("a full ring has an oldest span")
                .domain
        } else {
            String::new()
        };
        buffer.clear();
        buffer.push_str(domain);
        recent.push_back(SpanRecord {
            id,
            domain: buffer,
            outcome,
            stage_ns,
            total_ns,
            seq,
        });
    }

    /// Records a request shed with `503` — it burned availability
    /// budget without ever getting a span.
    pub fn observe_shed(&self) {
        self.slo_total.fetch_add(1, Ordering::Relaxed);
        self.slo_bad.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a cold-run service time into the EWMA the `Retry-After`
    /// estimate is derived from.
    fn note_service_ns(&self, ns: u64) {
        if ns == 0 {
            return;
        }
        let _ = self
            .ewma_service_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some(if old == 0 {
                    ns
                } else {
                    (old as f64).mul_add(0.8, ns as f64 * 0.2) as u64
                })
            });
    }

    /// Current EWMA of cold-run service time, nanoseconds.
    pub fn ewma_service_ns(&self) -> u64 {
        self.ewma_service_ns.load(Ordering::Relaxed)
    }

    /// The `Retry-After` value for a shed request: the estimated time
    /// for `workers` run slots to drain the current queue, from the
    /// observed service-time EWMA.
    pub fn retry_after_secs(&self, queue_depth: usize, workers: usize) -> u64 {
        retry_after_secs(self.ewma_service_ns(), queue_depth, workers)
    }

    /// Advances SLO accounting by one sample; the server's pulse
    /// ticker calls this once per second.
    pub fn tick(&self) {
        let totals = SloSample {
            total: self.slo_total.load(Ordering::Relaxed),
            bad: self.slo_bad.load(Ordering::Relaxed),
            lat_total: self.lat_total.load(Ordering::Relaxed),
            lat_slow: self.lat_slow.load(Ordering::Relaxed),
        };
        self.ring.lock().expect("slo ring lock").push_totals(totals);
    }

    /// Evaluates the multi-window burn rates right now.
    pub fn slo_status(&self) -> SloStatus {
        let ring = self.ring.lock().expect("slo ring lock");
        let avail_budget = 1.0 - self.slo.availability;
        let lat_budget = 1.0 - self.slo.latency_objective;
        let avail_1m = ring.burn(BURN_SHORT_SECS, avail_budget, false);
        let avail_5m = ring.burn(BURN_LONG_SECS, avail_budget, false);
        let lat_1m = ring.burn(BURN_SHORT_SECS, lat_budget, true);
        let lat_5m = ring.burn(BURN_LONG_SECS, lat_budget, true);
        drop(ring);
        let avail_class = SloStatus::classify(avail_1m, avail_5m);
        let lat_class = SloStatus::classify(lat_1m, lat_5m);
        let state = match avail_class.max(lat_class) {
            2 => "critical",
            1 => "warn",
            _ => "ok",
        };
        SloStatus {
            avail_burn_1m: avail_1m,
            avail_burn_5m: avail_5m,
            lat_burn_1m: lat_1m,
            lat_burn_5m: lat_5m,
            state,
            healthy: avail_class < 2,
        }
    }

    /// A cumulative snapshot of every histogram plus the counters the
    /// `/watch` windows difference against.
    pub fn snapshot(&self, stats: &ServerStats) -> PulseSnapshot {
        let mut e2e = HistogramSnapshot::zero();
        let mut domains = Vec::with_capacity(self.domains.len());
        for (name, hist) in &self.domains {
            let snap = hist.snapshot();
            e2e.merge(&snap);
            domains.push((name.clone(), snap));
        }
        PulseSnapshot {
            queries: stats.queries.load(Ordering::Relaxed),
            cache_hits: stats.cache_hits.load(Ordering::Relaxed),
            cache_misses: stats.cache_misses.load(Ordering::Relaxed),
            rejected: stats.rejected.load(Ordering::Relaxed),
            server_errors: stats.server_errors.load(Ordering::Relaxed),
            stage: std::array::from_fn(|i| self.stage[i].snapshot()),
            e2e,
            domains,
            // `next_seq` is one past the last assigned; the snapshot
            // carries the last *completed* seq so window filters are
            // half-open `(prev, cur]` over real spans.
            seq: self.next_seq.load(Ordering::Relaxed) - 1,
        }
    }

    /// The slowest span completed in `(since_seq, until_seq]`, for a
    /// window's exemplar.
    pub fn slowest_between(&self, since_seq: u64, until_seq: u64) -> Option<SpanRecord> {
        let recent = self.recent.lock().expect("span ring lock");
        recent
            .iter()
            .filter(|s| s.seq > since_seq && s.seq <= until_seq)
            .max_by_key(|s| s.total_ns)
            .cloned()
    }
}

/// Cumulative observability state at one instant; two of these
/// difference into a `/watch` window.
pub struct PulseSnapshot {
    /// `/run` queries attempted.
    pub queries: u64,
    /// Cache hits answered.
    pub cache_hits: u64,
    /// Cold runs answered.
    pub cache_misses: u64,
    /// Requests shed with `503`.
    pub rejected: u64,
    /// Requests failed with `500`.
    pub server_errors: u64,
    /// Per-stage histograms ([`STAGE_NAMES`] order).
    pub stage: [HistogramSnapshot; 4],
    /// End-to-end latency merged over all domains.
    pub e2e: HistogramSnapshot,
    /// Per-domain end-to-end histograms, sorted by name.
    pub domains: Vec<(String, HistogramSnapshot)>,
    /// Span completion sequence at snapshot time.
    pub seq: u64,
}

fn json_quantiles(h: &HistogramSnapshot) -> String {
    let q = |q: f64| h.quantile_ms(q).map_or("null".to_string(), json_f64);
    json_object(&[
        ("count", h.count.to_string()),
        ("p50_ms", q(0.5)),
        ("p99_ms", q(0.99)),
    ])
}

/// Renders one `/watch` window line (`kind:"pulse"`) from two
/// snapshots taken `elapsed_s` apart.
pub fn render_window(
    pulse: &Pulse,
    prev: &PulseSnapshot,
    cur: &PulseSnapshot,
    elapsed_s: f64,
    queue_depth: usize,
) -> String {
    let e2e = cur.e2e.delta(&prev.e2e);
    let hits = cur.cache_hits - prev.cache_hits;
    let misses = cur.cache_misses - prev.cache_misses;
    let shed = cur.rejected - prev.rejected;
    let errors = cur.server_errors - prev.server_errors;
    let answered = hits + misses;
    let requests = e2e.count;
    let stages: Vec<String> = STAGE_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            format!(
                "{}:{}",
                json_str(name),
                json_quantiles(&cur.stage[i].delta(&prev.stage[i]))
            )
        })
        .collect();
    let slowest = pulse
        .slowest_between(prev.seq, cur.seq)
        .map_or("null".to_string(), |s| s.render_json());
    let rate = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let q = |q: f64| e2e.quantile_ms(q).map_or("null".to_string(), json_f64);
    let mut line = json_object(&[
        ("kind", json_str("pulse")),
        ("t_ms", json_f64(pulse.uptime_ms())),
        ("window_ms", json_f64(elapsed_s * 1e3)),
        ("requests", requests.to_string()),
        (
            "rps",
            json_f64(if elapsed_s > 0.0 {
                requests as f64 / elapsed_s
            } else {
                0.0
            }),
        ),
        ("hit_rate", json_f64(rate(hits, answered))),
        ("shed_rate", json_f64(rate(shed, shed + answered))),
        ("errors", errors.to_string()),
        ("queue_depth", queue_depth.to_string()),
        ("p50_ms", q(0.5)),
        ("p99_ms", q(0.99)),
        ("stages", format!("{{{}}}", stages.join(","))),
        ("slo", pulse.slo_status().render_json(pulse.slo_spec())),
        ("slowest", slowest),
    ]);
    line.push('\n');
    line
}

/// Estimated seconds until `workers` run slots, whose service time
/// averages `ewma_ns`, drain `queue_depth` queued requests, clamped to
/// `[1, 30]` — the `Retry-After` a shed client is told.
pub fn retry_after_secs(ewma_ns: u64, queue_depth: usize, workers: usize) -> u64 {
    let drain_s = (ewma_ns as f64 / 1e9) * (queue_depth as f64 + 1.0) / workers.max(1) as f64;
    (drain_s.ceil() as u64).clamp(1, 30)
}

/// Gauges sampled at exposition time by the caller (they live in the
/// run gate and the cache, not in [`Pulse`]).
pub struct ExpositionGauges {
    /// Requests admitted but holding no run slot yet.
    pub queue_depth: usize,
    /// Admission queue budget.
    pub queue_capacity: usize,
    /// Run slots: cold runs allowed at once.
    pub workers: usize,
    /// Result-cache entries resident.
    pub cache_entries: usize,
    /// Result-cache entry budget.
    pub cache_capacity: usize,
}

fn prom_histogram(out: &mut String, name: &str, label: &str, h: &HistogramSnapshot) {
    for (bound, cumulative) in h.cumulative() {
        let le = bound.map_or("+Inf".to_string(), |ns| json_f64(ns as f64 / 1e9));
        out.push_str(&format!(
            "{name}_bucket{{{label},le=\"{le}\"}} {cumulative}\n"
        ));
    }
    out.push_str(&format!(
        "{name}_sum{{{label}}} {}\n",
        json_f64(h.sum_ns as f64 / 1e9)
    ));
    out.push_str(&format!("{name}_count{{{label}}} {}\n", h.count));
}

/// Renders the full `/metrics` document in Prometheus text exposition
/// format (version 0.0.4): counters, gauges, per-stage and per-domain
/// latency histograms (seconds), and SLO burn-rate gauges.
pub fn render_prometheus(pulse: &Pulse, stats: &ServerStats, gauges: &ExpositionGauges) -> String {
    let snap = pulse.snapshot(stats);
    let mut out = String::with_capacity(64 * 1024);
    let counters: [(&str, &str, u64); 7] = [
        (
            "atlarge_requests_total",
            "Queries attempted against /run",
            snap.queries,
        ),
        (
            "atlarge_cache_hits_total",
            "Answers served from the result cache",
            snap.cache_hits,
        ),
        (
            "atlarge_cache_misses_total",
            "Answers computed cold",
            snap.cache_misses,
        ),
        (
            "atlarge_shed_total",
            "Requests refused with 503 by the admission gate",
            snap.rejected,
        ),
        (
            "atlarge_server_errors_total",
            "Requests failed with 500",
            snap.server_errors,
        ),
        (
            "atlarge_client_errors_total",
            "Requests answered with 4xx",
            stats.client_errors.load(Ordering::Relaxed),
        ),
        (
            "atlarge_stream_requests_total",
            "Trace and watch streams started",
            stats.trace_streams.load(Ordering::Relaxed)
                + stats.watch_streams.load(Ordering::Relaxed),
        ),
    ];
    for (name, help, value) in counters {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    }

    let gauge_lines: [(&str, &str, f64); 5] = [
        (
            "atlarge_queue_depth",
            "Jobs admitted but not yet started",
            gauges.queue_depth as f64,
        ),
        (
            "atlarge_queue_saturation",
            "Queue depth over queue capacity",
            gauges.queue_depth as f64 / gauges.queue_capacity.max(1) as f64,
        ),
        (
            "atlarge_pool_workers",
            "Run slots: cold runs allowed at once",
            gauges.workers as f64,
        ),
        (
            "atlarge_cache_entries",
            "Result-cache entries resident",
            gauges.cache_entries as f64,
        ),
        (
            "atlarge_cache_occupancy",
            "Cache entries over cache capacity",
            gauges.cache_entries as f64 / gauges.cache_capacity.max(1) as f64,
        ),
    ];
    for (name, help, value) in gauge_lines {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {}\n",
            json_f64(value)
        ));
    }

    let slo = pulse.slo_status();
    out.push_str(
        "# HELP atlarge_slo_burn_rate Error-budget burn rate per objective and window\n\
         # TYPE atlarge_slo_burn_rate gauge\n",
    );
    for (objective, window, value) in [
        ("availability", "1m", slo.avail_burn_1m),
        ("availability", "5m", slo.avail_burn_5m),
        ("latency", "1m", slo.lat_burn_1m),
        ("latency", "5m", slo.lat_burn_5m),
    ] {
        out.push_str(&format!(
            "atlarge_slo_burn_rate{{objective=\"{objective}\",window=\"{window}\"}} {}\n",
            json_f64(value)
        ));
    }
    out.push_str(&format!(
        "# HELP atlarge_healthy Whether the availability SLO is not critically burning\n\
         # TYPE atlarge_healthy gauge\natlarge_healthy {}\n",
        u8::from(slo.healthy)
    ));

    out.push_str(
        "# HELP atlarge_stage_seconds Wall time per request pipeline stage\n\
         # TYPE atlarge_stage_seconds histogram\n",
    );
    for (i, name) in STAGE_NAMES.iter().enumerate() {
        prom_histogram(
            &mut out,
            "atlarge_stage_seconds",
            &format!("stage=\"{name}\""),
            &snap.stage[i],
        );
    }
    out.push_str(
        "# HELP atlarge_request_seconds End-to-end request latency per domain\n\
         # TYPE atlarge_request_seconds histogram\n",
    );
    for (domain, h) in &snap.domains {
        prom_histogram(
            &mut out,
            "atlarge_request_seconds",
            &format!("domain=\"{domain}\""),
            h,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulse() -> Pulse {
        Pulse::new(&["graph", "p2p"], 4, SloSpec::default())
    }

    #[test]
    fn request_ids_are_distinct_and_monotone() {
        let p = pulse();
        let a = p.begin_request();
        let b = p.begin_request();
        assert!(b > a);
    }

    #[test]
    fn observe_feeds_stage_and_domain_histograms() {
        let p = pulse();
        let stats = ServerStats::new();
        // 1ms queue, 10ms run, 0.1ms render, 0.05ms write.
        p.observe(
            1,
            "graph",
            Outcome::Miss,
            [1_000_000, 10_000_000, 100_000, 50_000],
        );
        p.observe(2, "graph", Outcome::Hit, [0, 0, 0, 20_000]);
        let snap = p.snapshot(&stats);
        assert_eq!(snap.e2e.count, 2, "both spans reach the e2e histogram");
        assert_eq!(snap.stage[Stage::Run as usize].count, 1);
        assert_eq!(snap.stage[Stage::Write as usize].count, 2);
        let graph = &snap
            .domains
            .iter()
            .find(|(d, _)| d == "graph")
            .expect("graph")
            .1;
        assert_eq!(graph.count, 2);
        let p99 = graph.quantile_ms(0.99).expect("samples");
        assert!((11.0..14.0).contains(&p99), "p99 {p99}");
        // The miss fed the EWMA with its run stage.
        assert_eq!(p.ewma_service_ns(), 10_000_000);
    }

    #[test]
    fn full_span_ring_recycles_its_oldest_spans() {
        let p = Pulse::new(&["graph", "p2p"], 1, SloSpec::default());
        let n = SPAN_RING as u64 + 10;
        for i in 1..=n {
            let domain = if i % 2 == 0 { "graph" } else { "p2p" };
            // Older spans are slower, so the slowest retained span is
            // the oldest one the ring still holds.
            p.observe(i, domain, Outcome::Hit, [0, 0, 0, 10_000 * (n + 1 - i)]);
        }
        let slowest = p.slowest_between(0, n).expect("spans retained");
        assert_eq!((slowest.id, slowest.seq), (11, 11), "ten spans evicted");
        assert_eq!(slowest.domain, "p2p");
        assert_eq!(slowest.total_ns, 10_000 * (n - 10));
        let newest = p.slowest_between(n - 1, n).expect("newest span");
        assert_eq!((newest.id, newest.domain.as_str()), (n, "graph"));
    }

    #[test]
    fn ewma_converges_toward_recent_service_times() {
        let p = pulse();
        for _ in 0..50 {
            p.observe(1, "graph", Outcome::Miss, [0, 1_000_000, 0, 0]);
        }
        let settled = p.ewma_service_ns();
        assert!((900_000..=1_000_000).contains(&settled), "{settled}");
        for _ in 0..50 {
            p.observe(1, "graph", Outcome::Miss, [0, 9_000_000, 0, 0]);
        }
        assert!(p.ewma_service_ns() > 8_000_000);
    }

    #[test]
    fn retry_after_derives_from_ewma_and_clamps() {
        // No signal yet: floor of 1s.
        assert_eq!(retry_after_secs(0, 100, 4), 1);
        // 100ms EWMA, 40 queued, 4 workers: ~1.025s -> ceil 2.
        assert_eq!(retry_after_secs(100_000_000, 40, 4), 2);
        // Huge backlog clamps at 30.
        assert_eq!(retry_after_secs(1_000_000_000, 10_000, 2), 30);
        // Tiny service times clamp at 1.
        assert_eq!(retry_after_secs(1_000, 1, 8), 1);
        // Zero workers does not divide by zero.
        assert_eq!(retry_after_secs(500_000_000, 10, 0), 6);
    }

    #[test]
    fn burn_rates_track_shed_traffic_and_recover() {
        let p = pulse();
        // A healthy minute: 100 good requests per tick.
        for _ in 0..10 {
            for _ in 0..100 {
                p.observe(1, "graph", Outcome::Hit, [0, 0, 0, 1_000]);
            }
            p.tick();
        }
        let s = p.slo_status();
        assert_eq!(s.state, "ok");
        assert!(s.healthy);
        assert_eq!(s.avail_burn_1m, 0.0);

        // An outage: everything shed for ten "seconds".
        for _ in 0..10 {
            for _ in 0..100 {
                p.observe_shed();
            }
            p.tick();
        }
        let s = p.slo_status();
        // Half the short window is a full outage: burn = 0.5/0.001.
        assert!(s.avail_burn_1m > CRITICAL_BURN, "{}", s.avail_burn_1m);
        assert!(s.avail_burn_5m > CRITICAL_BURN, "{}", s.avail_burn_5m);
        assert_eq!(s.state, "critical");
        assert!(!s.healthy);
    }

    #[test]
    fn latency_burn_flags_slow_requests_without_failing_health() {
        let p = pulse();
        for _ in 0..5 {
            for _ in 0..10 {
                // 200ms e2e against a 50ms target: all slow.
                p.observe(1, "graph", Outcome::Miss, [0, 200_000_000, 0, 0]);
            }
            p.tick();
        }
        let s = p.slo_status();
        assert!(s.lat_burn_1m >= CRITICAL_BURN);
        assert_eq!(s.state, "critical");
        assert!(s.healthy, "latency criticality must not fail /healthz");
    }

    #[test]
    fn windows_difference_cleanly() {
        let p = pulse();
        let stats = ServerStats::new();
        p.observe(1, "graph", Outcome::Miss, [0, 5_000_000, 0, 0]);
        let a = p.snapshot(&stats);
        p.observe(2, "p2p", Outcome::Miss, [0, 40_000_000, 0, 0]);
        stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        let b = p.snapshot(&stats);
        let line = render_window(&p, &a, &b, 1.0, 3);
        assert!(line.contains("\"kind\":\"pulse\""), "{line}");
        assert!(line.contains("\"requests\":1"), "{line}");
        assert!(line.contains("\"queue_depth\":3"), "{line}");
        assert!(line.contains("\"slowest\":{\"req\":2"), "{line}");
        assert!(line.contains("\"slo\":{\"state\":"), "{line}");
        assert!(line.ends_with('\n'));
        // The window p99 sees only the second span (~40ms).
        let e2e = b.e2e.delta(&a.e2e);
        let p99 = e2e.quantile_ms(0.99).expect("window sample");
        assert!((40.0..50.1).contains(&p99), "window p99 {p99}");
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let p = pulse();
        let stats = ServerStats::new();
        stats.queries.fetch_add(3, Ordering::Relaxed);
        stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        stats.cache_misses.fetch_add(2, Ordering::Relaxed);
        p.observe(
            1,
            "graph",
            Outcome::Miss,
            [1_000_000, 10_000_000, 100_000, 50_000],
        );
        p.observe(2, "graph", Outcome::Hit, [0, 0, 0, 20_000]);
        let text = render_prometheus(
            &p,
            &stats,
            &ExpositionGauges {
                queue_depth: 2,
                queue_capacity: 128,
                workers: 4,
                cache_entries: 10,
                cache_capacity: 1024,
            },
        );
        assert!(text.contains("atlarge_requests_total 3"), "{text}");
        assert!(text.contains("atlarge_queue_depth 2.0\n"));
        assert!(text.contains("# TYPE atlarge_stage_seconds histogram"));
        assert!(text.contains("atlarge_stage_seconds_bucket{stage=\"run\",le=\"+Inf\"} 1"));
        assert!(text.contains("atlarge_stage_seconds_count{stage=\"write\"} 2"));
        assert!(text.contains("atlarge_request_seconds_bucket{domain=\"graph\""));
        assert!(text.contains("atlarge_request_seconds_count{domain=\"graph\"} 2"));
        assert!(text.contains("atlarge_slo_burn_rate{objective=\"availability\",window=\"1m\"}"));
        assert!(text.contains("atlarge_healthy 1"));
        // Cumulative bucket counts are monotone within each series.
        let mut prev: Option<u64> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("atlarge_stage_seconds_bucket{stage=\"run\"") {
                let count: u64 = rest
                    .rsplit(' ')
                    .next()
                    .expect("value")
                    .parse()
                    .expect("int");
                assert!(prev.is_none_or(|p| count >= p), "non-monotone: {line}");
                prev = Some(count);
            }
        }
        assert!(prev.is_some(), "run-stage buckets present");
    }

    #[test]
    fn span_records_render_every_stage() {
        let s = SpanRecord {
            id: 7,
            domain: "mmog".to_string(),
            outcome: Outcome::Stream,
            stage_ns: [1_000_000, 2_000_000, 3_000_000, 4_000_000],
            total_ns: 10_000_000,
            seq: 1,
        };
        let json = s.render_json();
        for field in [
            "\"req\":7",
            "\"domain\":\"mmog\"",
            "\"outcome\":\"stream\"",
            "\"queue_ms\":1.0",
            "\"run_ms\":2.0",
            "\"render_ms\":3.0",
            "\"write_ms\":4.0",
            "\"total_ms\":10.0",
        ] {
            assert!(json.contains(field), "{json} missing {field}");
        }
    }
}
