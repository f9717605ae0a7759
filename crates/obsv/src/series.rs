//! Metric time-series analysis: windowed aggregation and exported
//! histogram quantiles.

use crate::jsonl::Json;

/// A `kind:"series"` metrics line: a timed metric stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesLine {
    /// Metric name.
    pub name: String,
    /// Exported `(t, value)` points (possibly capped by the writer).
    pub points: Vec<(f64, f64)>,
    /// Points the writer omitted beyond its export cap.
    pub omitted: u64,
}

/// A `kind:"histogram"` metrics line: fixed-bin counts over `[lo, hi)`.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramLine {
    /// Metric name.
    pub name: String,
    /// Range start.
    pub lo: f64,
    /// Range end.
    pub hi: f64,
    /// Per-bin counts.
    pub bins: Vec<u64>,
}

impl SeriesLine {
    /// Reads a parsed metrics line; `None` if it is not a series.
    pub fn from_json(v: &Json) -> Option<SeriesLine> {
        if v.str_field("kind") != Some("series") {
            return None;
        }
        let points = v
            .get("points")?
            .as_arr()?
            .iter()
            .filter_map(|p| {
                let p = p.as_arr()?;
                Some((p.first()?.as_f64()?, p.get(1)?.as_f64()?))
            })
            .collect();
        Some(SeriesLine {
            name: v.str_field("name")?.to_string(),
            points,
            omitted: v.u64_field("omitted").unwrap_or(0),
        })
    }
}

impl HistogramLine {
    /// Reads a parsed metrics line; `None` if it is not a histogram.
    pub fn from_json(v: &Json) -> Option<HistogramLine> {
        if v.str_field("kind") != Some("histogram") {
            return None;
        }
        Some(HistogramLine {
            name: v.str_field("name")?.to_string(),
            lo: v.f64_field("lo")?,
            hi: v.f64_field("hi")?,
            bins: v
                .get("bins")?
                .as_arr()?
                .iter()
                .map(|b| b.as_u64())
                .collect::<Option<Vec<u64>>>()?,
        })
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Nearest-rank quantile estimate: the upper edge of the bin holding
    /// the sample of rank `ceil(q * count)` — the same estimator as
    /// `atlarge_stats::histogram::Histogram::quantile`, applied to the
    /// exported bins. Within one bin width of the exact quantile for
    /// in-range samples. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q <= 1.0`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let total = self.count();
        if total == 0 || self.bins.is_empty() {
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
}

/// A `kind:"pulse"` line from the exploration server's `/watch`
/// stream: one aggregation window of live serving telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct PulseLine {
    /// Server uptime at window close, milliseconds (wall, report-only).
    pub t_ms: f64,
    /// Window length, milliseconds.
    pub window_ms: f64,
    /// Requests whose spans completed inside the window.
    pub requests: u64,
    /// Requests per second over the window.
    pub rps: f64,
    /// Cache hit rate among answered queries, `[0, 1]`.
    pub hit_rate: f64,
    /// Shed (`503`) fraction of admission decisions, `[0, 1]`.
    pub shed_rate: f64,
    /// Server errors inside the window.
    pub errors: u64,
    /// Pool queue depth sampled at window close.
    pub queue_depth: u64,
    /// End-to-end latency median; `None` for an empty window.
    pub p50_ms: Option<f64>,
    /// End-to-end latency p99; `None` for an empty window.
    pub p99_ms: Option<f64>,
    /// SLO state: `"ok"`, `"warn"`, or `"critical"`.
    pub slo_state: String,
    /// Whether the availability objective is not critically burning.
    pub slo_healthy: bool,
}

impl PulseLine {
    /// Reads a parsed `/watch` line; `None` if it is not a pulse.
    pub fn from_json(v: &Json) -> Option<PulseLine> {
        if v.str_field("kind") != Some("pulse") {
            return None;
        }
        let slo = v.get("slo")?;
        Some(PulseLine {
            t_ms: v.f64_field("t_ms")?,
            window_ms: v.f64_field("window_ms")?,
            requests: v.u64_field("requests")?,
            rps: v.f64_field("rps")?,
            hit_rate: v.f64_field("hit_rate")?,
            shed_rate: v.f64_field("shed_rate")?,
            errors: v.u64_field("errors")?,
            queue_depth: v.u64_field("queue_depth")?,
            p50_ms: v.f64_field("p50_ms"),
            p99_ms: v.f64_field("p99_ms"),
            slo_state: slo.str_field("state")?.to_string(),
            slo_healthy: slo.bool_field("healthy")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::parse;

    #[test]
    fn reads_series_and_histogram_lines() {
        let s = parse(
            r#"{"kind":"series","name":"lat","count":3,"omitted":1,"points":[[0.5,1.0],[1.5,2.0]]}"#,
        )
        .unwrap();
        let s = SeriesLine::from_json(&s).unwrap();
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.omitted, 1);

        let h = parse(r#"{"kind":"histogram","name":"lat","lo":0.0,"hi":4.0,"bins":[1,0,2,1]}"#)
            .unwrap();
        let h = HistogramLine::from_json(&h).unwrap();
        assert_eq!(h.count(), 4);
        // rank(0.5)=2 -> cumulative reaches 2 in bin 2 (edge 3.0).
        assert_eq!(h.quantile(0.5), Some(3.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
    }

    #[test]
    fn non_matching_kinds_read_as_none() {
        let v = parse(r#"{"kind":"counter","name":"n","value":3}"#).unwrap();
        assert!(SeriesLine::from_json(&v).is_none());
        assert!(HistogramLine::from_json(&v).is_none());
        assert!(PulseLine::from_json(&v).is_none());
    }

    #[test]
    fn reads_pulse_lines_with_and_without_quantiles() {
        let line = r#"{"kind":"pulse","t_ms":1500.0,"window_ms":1000.0,"requests":42,"rps":42.0,"hit_rate":0.5,"shed_rate":0.0,"errors":0,"queue_depth":3,"p50_ms":1.2,"p99_ms":9.5,"stages":{},"slo":{"state":"ok","healthy":true},"slowest":null}"#;
        let p = PulseLine::from_json(&parse(line).unwrap()).expect("pulse");
        assert_eq!(p.requests, 42);
        assert_eq!(p.queue_depth, 3);
        assert_eq!(p.p99_ms, Some(9.5));
        assert_eq!(p.slo_state, "ok");
        assert!(p.slo_healthy);

        // An idle window carries null quantiles.
        let idle = r#"{"kind":"pulse","t_ms":2500.0,"window_ms":1000.0,"requests":0,"rps":0.0,"hit_rate":0.0,"shed_rate":0.0,"errors":0,"queue_depth":0,"p50_ms":null,"p99_ms":null,"slo":{"state":"ok","healthy":true}}"#;
        let p = PulseLine::from_json(&parse(idle).unwrap()).expect("pulse");
        assert_eq!(p.requests, 0);
        assert_eq!(p.p50_ms, None);
        assert_eq!(p.p99_ms, None);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = HistogramLine {
            name: "x".into(),
            lo: 0.0,
            hi: 1.0,
            bins: vec![0, 0],
        };
        assert_eq!(h.quantile(0.5), None);
    }
}
