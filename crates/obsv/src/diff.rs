//! Cross-run regression detection over exported metrics.
//!
//! Loads two metrics JSONL exports (each terminated by its run
//! manifest), flattens every numeric field into `name.field` keys,
//! aligns them, and reports relative deltas against a threshold.
//! Wall-clock fields are excluded — they vary between executions of the
//! *same* logical run, and a regression detector keyed on
//! `same_run_as` fingerprints must report zero deltas in that case.

use crate::jsonl::{parse_lines, Json, ParseError};
use crate::trace::{manifest_of, ManifestInfo};
use std::collections::BTreeMap;

/// Fields that measure the host, not the simulated system. Diffing
/// them would flag noise as regressions.
const WALL_CLOCK_FIELDS: &[&str] = &["wall_ns", "wall_ms"];

/// One metrics file, flattened for comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDump {
    /// `name.field` → value for every numeric field.
    pub values: BTreeMap<String, f64>,
    /// The closing manifest, when present.
    pub manifest: Option<ManifestInfo>,
}

/// Parses a metrics export into a flat `name.field → value` map.
pub(crate) fn parse_metrics(text: &str) -> Result<MetricsDump, ParseError> {
    let mut values = BTreeMap::new();
    let mut manifest = None;
    for v in parse_lines(text)? {
        if let Some(m) = manifest_of(&v) {
            manifest = Some(m);
            continue;
        }
        let Json::Obj(fields) = &v else { continue };
        let kind = v.str_field("kind").unwrap_or("unknown");
        let name = v
            .str_field("name")
            .or_else(|| v.str_field("label"))
            .unwrap_or("unnamed");
        for (field, val) in fields {
            if field == "kind" || field == "name" || field == "label" {
                continue;
            }
            if WALL_CLOCK_FIELDS.contains(&field.as_str()) {
                continue;
            }
            if let Some(x) = val.as_f64() {
                values.insert(format!("{kind}:{name}.{field}"), x);
            }
        }
    }
    Ok(MetricsDump { values, manifest })
}

/// One aligned metric with its delta.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Flattened key (`kind:name.field`).
    pub key: String,
    /// Value in run A.
    pub a: f64,
    /// Value in run B.
    pub b: f64,
    /// Relative change `(b - a) / |a|` (absolute change when `a == 0`).
    pub rel: f64,
}

impl MetricDelta {
    /// Whether the change exceeds `threshold` in magnitude.
    pub fn exceeds(&self, threshold: f64) -> bool {
        self.rel.abs() > threshold
    }
}

/// The comparison of two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// Whether both manifests carry the same `same_run_as` fingerprint
    /// (same model, seed, config, and event counts) — if not, deltas
    /// may reflect configuration differences, not regressions.
    pub comparable: bool,
    /// Manifest of run A.
    pub manifest_a: Option<ManifestInfo>,
    /// Manifest of run B.
    pub manifest_b: Option<ManifestInfo>,
    /// Every aligned metric whose value changed at all, largest
    /// relative change first.
    pub changed: Vec<MetricDelta>,
    /// Metric keys present in only one run.
    pub unmatched: Vec<String>,
}

impl RunDiff {
    /// The changes exceeding `threshold` — the regression report.
    pub fn regressions(&self, threshold: f64) -> Vec<&MetricDelta> {
        self.changed
            .iter()
            .filter(|d| d.exceeds(threshold))
            .collect()
    }
}

/// Diffs two parsed metrics dumps.
pub fn diff(a: &MetricsDump, b: &MetricsDump) -> RunDiff {
    let mut changed = Vec::new();
    let mut unmatched = Vec::new();
    for (key, &va) in &a.values {
        match b.values.get(key) {
            Some(&vb) => {
                if va != vb && !(va.is_nan() && vb.is_nan()) {
                    let rel = if va != 0.0 {
                        (vb - va) / va.abs()
                    } else {
                        vb - va
                    };
                    changed.push(MetricDelta {
                        key: key.clone(),
                        a: va,
                        b: vb,
                        rel,
                    });
                }
            }
            None => unmatched.push(key.clone()),
        }
    }
    for key in b.values.keys() {
        if !a.values.contains_key(key) {
            unmatched.push(key.clone());
        }
    }
    changed.sort_by(|x, y| {
        y.rel
            .abs()
            .partial_cmp(&x.rel.abs())
            .expect("finite deltas")
            .then_with(|| x.key.cmp(&y.key))
    });
    let comparable = match (&a.manifest, &b.manifest) {
        (Some(ma), Some(mb)) => ma.fingerprint == mb.fingerprint,
        _ => false,
    };
    RunDiff {
        comparable,
        manifest_a: a.manifest.clone(),
        manifest_b: b.manifest.clone(),
        changed,
        unmatched,
    }
}

/// Parses and diffs two metrics exports in one call.
pub fn diff_exports(a_text: &str, b_text: &str) -> Result<RunDiff, ParseError> {
    Ok(diff(&parse_metrics(a_text)?, &parse_metrics(b_text)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST_A: &str = "{\"kind\":\"manifest\",\"schema\":1,\"model\":\"m\",\"seed\":\"7\",\
        \"config_digest\":\"00000000000000aa\",\"events_scheduled\":2,\"events_dispatched\":2,\
        \"sim_time\":2,\"trace_records\":4,\"trace_dropped\":0,\
        \"fingerprint\":\"00000000000000bb\",\"wall_ms\":1.5}";

    fn metrics(mean: f64, wall: u64) -> String {
        format!(
            "{{\"kind\":\"tally\",\"name\":\"lat\",\"count\":10,\"mean\":{mean},\"min\":0.1,\
             \"p50\":{mean},\"p95\":2.0,\"p99\":2.5,\"max\":3.0}}\n\
             {{\"kind\":\"span\",\"name\":\"s\",\"entries\":4,\"sim_time\":1.0,\"wall_ns\":{wall}}}\n\
             {MANIFEST_A}\n"
        )
    }

    #[test]
    fn identical_runs_diff_to_nothing() {
        let d = diff_exports(&metrics(1.0, 500), &metrics(1.0, 999)).unwrap();
        assert!(d.comparable);
        assert!(d.changed.is_empty(), "wall_ns must be ignored: {d:?}");
        assert!(d.unmatched.is_empty());
        assert!(d.regressions(0.0).is_empty());
    }

    #[test]
    fn changed_values_report_relative_deltas() {
        let d = diff_exports(&metrics(1.0, 0), &metrics(1.2, 0)).unwrap();
        // mean and p50 both moved by +20%.
        assert_eq!(d.changed.len(), 2);
        assert!((d.changed[0].rel - 0.2).abs() < 1e-9);
        assert_eq!(d.regressions(0.1).len(), 2);
        assert!(d.regressions(0.25).is_empty());
    }

    #[test]
    fn missing_metrics_are_unmatched_not_regressions() {
        let extra = format!(
            "{{\"kind\":\"counter\",\"name\":\"n\",\"value\":3}}\n{}",
            metrics(1.0, 0)
        );
        let d = diff_exports(&extra, &metrics(1.0, 0)).unwrap();
        assert_eq!(d.unmatched, vec!["counter:n.value".to_string()]);
        assert!(d.changed.is_empty());
    }

    #[test]
    fn different_fingerprints_flag_incomparable() {
        let b = metrics(1.0, 0).replace("00000000000000bb", "00000000000000cc");
        let d = diff_exports(&metrics(1.0, 0), &b).unwrap();
        assert!(!d.comparable);
    }
}
