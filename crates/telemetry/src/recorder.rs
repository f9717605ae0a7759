//! The recorder: a shared, aggregating [`Tracer`] implementation.
//!
//! A [`Recorder`] is a cheaply cloneable handle over shared state, so the
//! same recorder can be attached to the simulation kernel as its tracer
//! *and* kept by the caller (or embedded in a model) to record
//! domain-level metrics and read everything back after the run.

use crate::export::{json_f64, json_object, json_str, object_into};
use crate::manifest::{RunManifest, MANIFEST_SCHEMA};
use crate::metrics::{Gauge, Tally};
use crate::tracer::Tracer;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Default bound of the event-trace ring buffer.
pub(crate) const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Bins of the per-tally quantile histograms in the metrics export.
pub(crate) const HISTOGRAM_BINS: usize = 32;

/// Maximum `(t, value)` points exported per timed metric stream; the
/// remainder is counted in the line's `omitted` field.
pub(crate) const SERIES_EXPORT_CAP: usize = 4096;

/// What a [`TraceRecord`] describes.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// An event was scheduled to fire at `fire_at`.
    Schedule {
        /// Absolute simulated time the event will fire at.
        fire_at: f64,
        /// Kernel-assigned event id.
        id: u64,
        /// Id of the event whose handler scheduled this one (`None` for
        /// externally scheduled roots).
        parent: Option<u64>,
    },
    /// An event was dispatched; `queue_len` events remained pending.
    Dispatch {
        /// Pending events after the pop.
        queue_len: usize,
        /// Kernel-assigned event id.
        id: u64,
        /// Causal parent id, as in [`TraceKind::Schedule`].
        parent: Option<u64>,
    },
    /// An instrumented span was entered.
    SpanEnter,
    /// An instrumented span was exited.
    SpanExit,
}

impl TraceKind {
    /// The record's `kind` field.
    fn name(&self) -> &'static str {
        match self {
            TraceKind::Schedule { .. } => "schedule",
            TraceKind::Dispatch { .. } => "dispatch",
            TraceKind::SpanEnter => "span_enter",
            TraceKind::SpanExit => "span_exit",
        }
    }
}

/// One record in the bounded event trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulated time of the record.
    pub time: f64,
    /// Event or span label.
    pub label: String,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceRecord {
    /// One-line JSON rendering. Schedule and dispatch records carry the
    /// causal `id`/`parent` fields; `parent` is omitted for roots.
    pub fn to_json(&self) -> String {
        let mut line = String::with_capacity(96 + self.label.len());
        render_trace_line(&mut line, self.time, &self.label, &self.kind);
        line
    }
}

/// The one JSON rendering of a trace record, appended to `out`; shared
/// by [`TraceRecord::to_json`], [`Recorder::write_trace_jsonl`] and the
/// streaming [`JsonlSink`](crate::sink::JsonlSink), so a recorder
/// export and a live stream agree byte for byte.
pub(crate) fn render_trace_line(out: &mut String, time: f64, label: &str, kind: &TraceKind) {
    object_into(out, |o| {
        o.f64("t", time)
            .str("kind", kind.name())
            .str("label", label);
        let parent = match *kind {
            TraceKind::Schedule {
                fire_at,
                id,
                parent,
            } => {
                o.f64("fire_at", fire_at).u64("id", id);
                parent
            }
            TraceKind::Dispatch {
                queue_len,
                id,
                parent,
            } => {
                o.u64("queue", queue_len as u64).u64("id", id);
                parent
            }
            TraceKind::SpanEnter | TraceKind::SpanExit => None,
        };
        if let Some(parent) = parent {
            o.u64("parent", parent);
        }
    });
}

/// Accumulated profile of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Completed enter/exit pairs.
    pub entries: u64,
    /// Total simulated time spent inside the span.
    pub sim_time: f64,
    /// Total wall-clock nanoseconds spent inside the span.
    pub wall_ns: u64,
}

#[derive(Debug)]
struct State {
    started: Instant,
    run_info: Option<(String, u64, u64)>,
    scheduled: u64,
    dispatched: u64,
    sim_time: f64,
    wall_ms_at_run_end: Option<f64>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Gauge>,
    tallies: BTreeMap<String, Tally>,
    timed: BTreeMap<String, Vec<(f64, f64)>>,
    dispatches_by_label: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStats>,
    open_spans: Vec<(String, f64, Instant)>,
    trace: VecDeque<TraceRecord>,
    trace_capacity: usize,
    dropped: u64,
}

impl State {
    fn push_trace(&mut self, record: TraceRecord) {
        if self.trace_capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.trace.len() == self.trace_capacity {
            self.trace.pop_front();
            self.dropped += 1;
        }
        self.trace.push_back(record);
    }

    fn see_time(&mut self, now: f64) {
        if now > self.sim_time {
            self.sim_time = now;
        }
    }

    fn manifest(&self) -> RunManifest {
        let (model, seed, config_digest) = match &self.run_info {
            Some((m, s, d)) => (m.clone(), *s, *d),
            None => ("unnamed".to_string(), 0, 0),
        };
        RunManifest {
            schema: MANIFEST_SCHEMA,
            model,
            seed,
            config_digest,
            events_scheduled: self.scheduled,
            events_dispatched: self.dispatched,
            sim_time: self.sim_time,
            trace_records: self.trace.len() as u64,
            trace_dropped: self.dropped,
            wall_ms: self
                .wall_ms_at_run_end
                .unwrap_or_else(|| self.started.elapsed().as_secs_f64() * 1e3),
        }
    }
}

/// Increments `map[key]` by `n` without allocating when the key exists.
fn bump(map: &mut BTreeMap<String, u64>, key: &str, n: u64) {
    if let Some(v) = map.get_mut(key) {
        *v += n;
    } else {
        map.insert(key.to_string(), n);
    }
}

/// A cloneable telemetry sink: metric registry, span profiles, bounded
/// event trace, and the run manifest.
///
/// # Examples
///
/// ```
/// use atlarge_telemetry::recorder::Recorder;
/// use atlarge_telemetry::tracer::Tracer;
///
/// let rec = Recorder::new();
/// rec.incr("requests");
/// rec.observe("latency_s", 0.25);
/// rec.on_dispatch(1.0, "invoke", 3, 0, None); // what the kernel calls
/// assert_eq!(rec.counter("requests"), 1);
/// assert_eq!(rec.events_dispatched(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Mutex<State>>,
}

impl Recorder {
    /// Creates a recorder with the default trace-buffer bound.
    pub fn new() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates a recorder whose event trace keeps at most `capacity`
    /// records; older records are dropped (and counted) once full. A
    /// capacity of zero disables trace retention but keeps all metrics.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        Recorder {
            inner: Arc::new(Mutex::new(State {
                started: Instant::now(),
                run_info: None,
                scheduled: 0,
                dispatched: 0,
                sim_time: 0.0,
                wall_ms_at_run_end: None,
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                tallies: BTreeMap::new(),
                timed: BTreeMap::new(),
                dispatches_by_label: BTreeMap::new(),
                spans: BTreeMap::new(),
                open_spans: Vec::new(),
                trace: VecDeque::new(),
                trace_capacity: capacity,
                dropped: 0,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.inner.lock().expect("recorder mutex poisoned")
    }

    /// Declares what run this recorder observes: model name, RNG seed, and
    /// the [`crate::manifest::config_digest`] of the configuration. Called
    /// by the traced run wrappers of the domain simulators.
    pub fn set_run_info(&self, model: &str, seed: u64, config_digest: u64) {
        self.lock().run_info = Some((model.to_string(), seed, config_digest));
    }

    // -- Metric registry ---------------------------------------------------

    /// Adds one to counter `name`.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        bump(&mut self.lock().counters, name, n);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets time-weighted gauge `name` to `level` at simulated time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes an earlier update of the same gauge.
    pub fn gauge_set(&self, name: &str, now: f64, level: f64) {
        let mut st = self.lock();
        match st.gauges.get_mut(name) {
            Some(g) => g.set(now, level),
            None => {
                let mut g = Gauge::new(0.0);
                g.set(now, level);
                st.gauges.insert(name.to_string(), g);
            }
        }
    }

    /// A snapshot of gauge `name`, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        self.lock().gauges.get(name).cloned()
    }

    /// Records one observation into tally `name`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn observe(&self, name: &str, x: f64) {
        let mut st = self.lock();
        match st.tallies.get_mut(name) {
            Some(t) => t.record(x),
            None => {
                let mut t = Tally::new();
                t.record(x);
                st.tallies.insert(name.to_string(), t);
            }
        }
    }

    /// A snapshot of tally `name`, if it ever saw an observation.
    pub fn tally(&self, name: &str) -> Option<Tally> {
        self.lock().tallies.get(name).cloned()
    }

    /// Records one observation into tally `name` *with its simulated
    /// timestamp*, making the metric a first-class time series: the value
    /// lands in the tally (so summaries and histograms still work) and the
    /// `(now, x)` point is appended to the metric's timed stream, which
    /// windowed aggregation in the analysis layer consumes.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn observe_at(&self, name: &str, now: f64, x: f64) {
        let mut st = self.lock();
        st.see_time(now);
        match st.tallies.get_mut(name) {
            Some(t) => t.record(x),
            None => {
                let mut t = Tally::new();
                t.record(x);
                st.tallies.insert(name.to_string(), t);
            }
        }
        st.timed.entry(name.to_string()).or_default().push((now, x));
    }

    // -- Trace and kernel-derived state ------------------------------------

    /// Events scheduled so far (as seen through [`Tracer::on_schedule`]).
    pub fn events_scheduled(&self) -> u64 {
        self.lock().scheduled
    }

    /// Events dispatched so far (as seen through [`Tracer::on_dispatch`]).
    pub fn events_dispatched(&self) -> u64 {
        self.lock().dispatched
    }

    /// Dispatch count of one event label.
    pub fn dispatches(&self, label: &str) -> u64 {
        self.lock()
            .dispatches_by_label
            .get(label)
            .copied()
            .unwrap_or(0)
    }

    /// Latest simulated time observed through any hook.
    pub fn sim_time(&self) -> f64 {
        self.lock().sim_time
    }

    /// Records retained in the trace ring buffer.
    pub fn trace_len(&self) -> usize {
        self.lock().trace.len()
    }

    /// Records dropped after the ring buffer filled.
    pub fn trace_dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// A copy of the retained trace, oldest first.
    pub fn trace(&self) -> Vec<TraceRecord> {
        self.lock().trace.iter().cloned().collect()
    }

    /// Per-span profiles (completed enter/exit pairs only).
    pub fn span_stats(&self) -> BTreeMap<String, SpanStats> {
        self.lock().spans.clone()
    }

    /// The manifest of the run as recorded so far.
    pub fn manifest(&self) -> RunManifest {
        self.lock().manifest()
    }

    // -- Export ------------------------------------------------------------

    /// Writes the retained event trace as JSONL, one record per line,
    /// terminated by the run-manifest line.
    pub fn write_trace_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let st = self.lock();
        // One buffer for every line, and one write per line.
        let mut line = String::new();
        for r in &st.trace {
            line.clear();
            render_trace_line(&mut line, r.time, &r.label, &r.kind);
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        let mut manifest = st.manifest().to_json();
        manifest.push('\n');
        w.write_all(manifest.as_bytes())
    }

    /// Writes every registered metric as JSONL: counters, per-label
    /// dispatch counts, gauges, tallies, and span profiles.
    pub fn write_metrics_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let st = self.lock();
        for (name, v) in &st.counters {
            let line = json_object(&[
                ("kind", json_str("counter")),
                ("name", json_str(name)),
                ("value", v.to_string()),
            ]);
            writeln!(w, "{line}")?;
        }
        for (label, v) in &st.dispatches_by_label {
            let line = json_object(&[
                ("kind", json_str("dispatches")),
                ("label", json_str(label)),
                ("value", v.to_string()),
            ]);
            writeln!(w, "{line}")?;
        }
        for (name, g) in &st.gauges {
            let line = json_object(&[
                ("kind", json_str("gauge")),
                ("name", json_str(name)),
                ("last", json_f64(g.value())),
                ("mean", json_f64(g.mean())),
                ("min", json_f64(g.min_level())),
                ("max", json_f64(g.max_level())),
            ]);
            writeln!(w, "{line}")?;
        }
        for (name, t) in &st.tallies {
            let mut fields = vec![
                ("kind", json_str("tally")),
                ("name", json_str(name)),
                ("count", t.len().to_string()),
            ];
            if let Some(s) = t.summary() {
                fields.push(("mean", json_f64(s.mean())));
                fields.push(("min", json_f64(s.min())));
                fields.push(("p50", json_f64(s.median())));
                fields.push(("p95", json_f64(s.percentile(95.0))));
                fields.push(("p99", json_f64(s.percentile(99.0))));
                fields.push(("max", json_f64(s.max())));
            }
            writeln!(w, "{}", json_object(&fields))?;
        }
        // One fixed-bin quantile histogram per tally, so distributions
        // survive the export (and cross-run diffs) rather than collapsing
        // to scalar summaries.
        for (name, t) in &st.tallies {
            if let Some(s) = t.summary() {
                let lo = s.min();
                // Widen degenerate ranges so Histogram::new accepts them.
                let hi = if s.max() > lo { s.max() } else { lo + 1.0 };
                let h = t.histogram(lo, hi, HISTOGRAM_BINS);
                let bins: Vec<String> = (0..h.num_bins())
                    .map(|i| h.bin_count(i).to_string())
                    .collect();
                let line = json_object(&[
                    ("kind", json_str("histogram")),
                    ("name", json_str(name)),
                    ("lo", json_f64(lo)),
                    ("hi", json_f64(hi)),
                    ("bins", format!("[{}]", bins.join(","))),
                ]);
                writeln!(w, "{line}")?;
            }
        }
        // Timed streams (observe_at): raw (t, value) points, capped.
        for (name, points) in &st.timed {
            let kept = &points[..points.len().min(SERIES_EXPORT_CAP)];
            let rendered: Vec<String> = kept
                .iter()
                .map(|&(t, v)| format!("[{},{}]", json_f64(t), json_f64(v)))
                .collect();
            let line = json_object(&[
                ("kind", json_str("series")),
                ("name", json_str(name)),
                ("count", points.len().to_string()),
                ("omitted", (points.len() - kept.len()).to_string()),
                ("points", format!("[{}]", rendered.join(","))),
            ]);
            writeln!(w, "{line}")?;
        }
        for (name, s) in &st.spans {
            let line = json_object(&[
                ("kind", json_str("span")),
                ("name", json_str(name)),
                ("entries", s.entries.to_string()),
                ("sim_time", json_f64(s.sim_time)),
                ("wall_ns", s.wall_ns.to_string()),
            ]);
            writeln!(w, "{line}")?;
        }
        // Terminated by the manifest, like the trace export: a metrics
        // file then carries its own run identity, which is what lets
        // cross-run diffing key on `same_run_as` fingerprints without a
        // side channel.
        writeln!(w, "{}", st.manifest().to_json())
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer for Recorder {
    fn on_schedule(&self, now: f64, fire_at: f64, label: &str, id: u64, parent: Option<u64>) {
        let mut st = self.lock();
        st.scheduled += 1;
        st.see_time(now);
        st.push_trace(TraceRecord {
            time: now,
            label: label.to_string(),
            kind: TraceKind::Schedule {
                fire_at,
                id,
                parent,
            },
        });
    }

    fn on_dispatch(&self, now: f64, label: &str, queue_len: usize, id: u64, parent: Option<u64>) {
        let mut st = self.lock();
        st.dispatched += 1;
        st.see_time(now);
        bump(&mut st.dispatches_by_label, label, 1);
        st.push_trace(TraceRecord {
            time: now,
            label: label.to_string(),
            kind: TraceKind::Dispatch {
                queue_len,
                id,
                parent,
            },
        });
    }

    fn on_span_enter(&self, now: f64, name: &str) {
        let mut st = self.lock();
        st.see_time(now);
        st.open_spans.push((name.to_string(), now, Instant::now()));
        st.push_trace(TraceRecord {
            time: now,
            label: name.to_string(),
            kind: TraceKind::SpanEnter,
        });
    }

    fn on_span_exit(&self, now: f64, name: &str) {
        let mut st = self.lock();
        st.see_time(now);
        // Innermost matching enter wins; an exit without a matching enter
        // is recorded in the trace but contributes no profile.
        if let Some(pos) = st.open_spans.iter().rposition(|(n, _, _)| n == name) {
            let (_, entered_sim, entered_wall) = st.open_spans.remove(pos);
            let wall_ns = entered_wall.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            let span = st.spans.entry(name.to_string()).or_default();
            span.entries += 1;
            span.sim_time += now - entered_sim;
            span.wall_ns += wall_ns;
        }
        st.push_trace(TraceRecord {
            time: now,
            label: name.to_string(),
            kind: TraceKind::SpanExit,
        });
    }

    fn on_run_end(&self, now: f64, processed: u64) {
        let mut st = self.lock();
        st.see_time(now);
        // `processed` is cumulative across run calls; keep the largest.
        if processed > st.dispatched {
            st.dispatched = processed;
        }
        st.wall_ms_at_run_end = Some(st.started.elapsed().as_secs_f64() * 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_accumulate_counts_and_labels() {
        let rec = Recorder::new();
        rec.on_schedule(0.0, 1.0, "tick", 0, None);
        rec.on_schedule(0.0, 2.0, "tick", 1, Some(0));
        rec.on_dispatch(1.0, "tick", 1, 0, None);
        rec.on_run_end(2.0, 1);
        assert_eq!(rec.events_scheduled(), 2);
        assert_eq!(rec.events_dispatched(), 1);
        assert_eq!(rec.dispatches("tick"), 1);
        assert_eq!(rec.sim_time(), 2.0);
        assert_eq!(rec.trace_len(), 3);
    }

    #[test]
    fn trace_records_carry_causal_ids() {
        let rec = Recorder::new();
        rec.on_schedule(0.0, 1.0, "tick", 0, None);
        rec.on_dispatch(1.0, "tick", 0, 0, None);
        rec.on_schedule(1.0, 2.0, "tick", 1, Some(0));
        let trace = rec.trace();
        assert_eq!(
            trace[0].kind,
            TraceKind::Schedule {
                fire_at: 1.0,
                id: 0,
                parent: None
            }
        );
        let json = trace[2].to_json();
        assert!(json.contains("\"id\":1"), "{json}");
        assert!(json.contains("\"parent\":0"), "{json}");
        // Roots omit the parent field entirely.
        assert!(!trace[0].to_json().contains("parent"));
    }

    #[test]
    fn trace_lines_are_pinned_for_every_kind() {
        let rec = Recorder::new();
        rec.on_schedule(0.5, 1.25, "arrive \"a\"\n", 3, Some(1));
        rec.on_schedule(0.0, 1e16, "root", 0, None);
        rec.on_dispatch(1.25, "arrive", 7, 3, Some(1));
        rec.on_dispatch(-0.0, "tick", 0, 0, None);
        rec.on_span_enter(2.0, "service\t1");
        rec.on_span_exit(1e-7, "service\t1");
        let pinned = [
            "{\"t\":0.5,\"kind\":\"schedule\",\"label\":\"arrive \\\"a\\\"\\n\",\"fire_at\":1.25,\"id\":3,\"parent\":1}",
            "{\"t\":0.0,\"kind\":\"schedule\",\"label\":\"root\",\"fire_at\":1e16,\"id\":0}",
            "{\"t\":1.25,\"kind\":\"dispatch\",\"label\":\"arrive\",\"queue\":7,\"id\":3,\"parent\":1}",
            "{\"t\":-0.0,\"kind\":\"dispatch\",\"label\":\"tick\",\"queue\":0,\"id\":0}",
            "{\"t\":2.0,\"kind\":\"span_enter\",\"label\":\"service\\t1\"}",
            "{\"t\":1e-7,\"kind\":\"span_exit\",\"label\":\"service\\t1\"}",
        ];
        let lines: Vec<String> = rec.trace().iter().map(TraceRecord::to_json).collect();
        assert_eq!(lines, pinned);
        let mut export = Vec::new();
        rec.write_trace_jsonl(&mut export).expect("write trace");
        let export = String::from_utf8(export).expect("utf8");
        let exported: Vec<&str> = export.lines().collect();
        assert_eq!(exported[..pinned.len()], pinned);
        assert_eq!(exported.len(), pinned.len() + 1, "then the manifest");
        let nan = TraceRecord {
            time: f64::NAN,
            label: "x".to_string(),
            kind: TraceKind::SpanEnter,
        };
        assert_eq!(
            nan.to_json(),
            "{\"t\":null,\"kind\":\"span_enter\",\"label\":\"x\"}"
        );
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let rec = Recorder::with_trace_capacity(4);
        for i in 0..10 {
            rec.on_dispatch(i as f64, "e", 0, i, None);
        }
        assert_eq!(rec.trace_len(), 4);
        assert_eq!(rec.trace_dropped(), 6);
        // Oldest records were dropped: the first retained is t=6.
        assert_eq!(rec.trace()[0].time, 6.0);
        let m = rec.manifest();
        assert_eq!(m.trace_records, 4);
        assert_eq!(m.trace_dropped, 6);
    }

    #[test]
    fn zero_capacity_disables_trace_but_not_metrics() {
        let rec = Recorder::with_trace_capacity(0);
        rec.on_dispatch(1.0, "e", 0, 0, None);
        rec.incr("c");
        assert_eq!(rec.trace_len(), 0);
        assert_eq!(rec.trace_dropped(), 1);
        assert_eq!(rec.events_dispatched(), 1);
        assert_eq!(rec.counter("c"), 1);
    }

    #[test]
    fn spans_profile_sim_and_wall_time() {
        let rec = Recorder::new();
        rec.on_span_enter(1.0, "outer");
        rec.on_span_enter(2.0, "inner");
        rec.on_span_exit(5.0, "inner");
        rec.on_span_exit(9.0, "outer");
        let spans = rec.span_stats();
        assert_eq!(spans["inner"].entries, 1);
        assert!((spans["inner"].sim_time - 3.0).abs() < 1e-12);
        assert!((spans["outer"].sim_time - 8.0).abs() < 1e-12);
        // Unmatched exits are tolerated.
        rec.on_span_exit(10.0, "ghost");
        assert!(!rec.span_stats().contains_key("ghost"));
    }

    #[test]
    fn registry_round_trips() {
        let rec = Recorder::new();
        rec.incr("a");
        rec.add("a", 2);
        rec.gauge_set("g", 0.0, 1.0);
        rec.gauge_set("g", 10.0, 3.0);
        rec.observe("t", 2.0);
        assert_eq!(rec.counter("a"), 3);
        let g = rec.gauge("g").expect("gauge exists");
        assert_eq!(g.value(), 3.0);
        assert!((g.mean() - 1.0).abs() < 1e-12);
        assert_eq!(rec.tally("t").expect("tally exists").len(), 1);
        assert_eq!(rec.counter("missing"), 0);
        assert!(rec.gauge("missing").is_none());
    }

    #[test]
    fn jsonl_exports_have_one_object_per_line() {
        let rec = Recorder::new();
        rec.set_run_info("test.model", 7, 0xfeed);
        rec.on_schedule(0.0, 1.0, "tick", 0, None);
        rec.on_dispatch(1.0, "tick", 0, 0, None);
        rec.incr("n");
        rec.gauge_set("g", 0.5, 2.0);
        rec.observe("lat", 0.25);
        rec.observe_at("lat_t", 0.75, 0.5);
        rec.on_span_enter(0.0, "s");
        rec.on_span_exit(1.0, "s");
        rec.on_run_end(1.0, 1);

        let mut trace = Vec::new();
        rec.write_trace_jsonl(&mut trace).expect("write trace");
        let trace = String::from_utf8(trace).expect("utf8");
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 4 + 1, "4 records + manifest");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "line {line}");
        }
        assert!(lines
            .last()
            .expect("manifest")
            .contains("\"kind\":\"manifest\""));
        assert!(lines
            .last()
            .expect("manifest")
            .contains("\"model\":\"test.model\""));

        let mut metrics = Vec::new();
        rec.write_metrics_jsonl(&mut metrics)
            .expect("write metrics");
        let metrics = String::from_utf8(metrics).expect("utf8");
        for kind in [
            "counter",
            "dispatches",
            "gauge",
            "tally",
            "span",
            "histogram",
            "series",
        ] {
            assert!(
                metrics.contains(&format!("\"kind\":\"{kind}\"")),
                "missing {kind} in {metrics}"
            );
        }
        assert!(metrics.contains("\"p99\":"), "tallies report p99");
        assert!(
            metrics
                .lines()
                .last()
                .expect("manifest")
                .contains("\"kind\":\"manifest\""),
            "metrics export is self-identifying"
        );
    }

    #[test]
    fn observe_at_feeds_tally_and_timed_stream() {
        let rec = Recorder::new();
        rec.observe_at("lat", 1.0, 0.2);
        rec.observe_at("lat", 3.0, 0.4);
        assert_eq!(rec.tally("lat").expect("tally exists").len(), 2);
        assert_eq!(
            rec.lock().timed.get("lat").expect("stream exists"),
            &vec![(1.0, 0.2), (3.0, 0.4)]
        );
        assert_eq!(rec.sim_time(), 3.0);
        assert!(!rec.lock().timed.contains_key("missing"));
    }

    #[test]
    fn shared_handle_sees_one_state() {
        let a = Recorder::new();
        let b = a.clone();
        a.incr("x");
        b.incr("x");
        assert_eq!(a.counter("x"), 2);
    }
}
