//! Hierarchical profiling: Chrome-trace export and text flamegraphs.
//!
//! The span records of a trace rebuild into the Granula-style operation
//! tree (see `atlarge-graph::granula`), which renders two ways: a
//! Chrome trace-event JSON file loadable in Perfetto or
//! `chrome://tracing`, and a terminal flamegraph with a top-k self-time
//! table for quick bottleneck reading without leaving the shell.

use crate::causal::{span_forest, SpanNode};
use crate::trace::{Trace, TraceLine};
use atlarge_telemetry::export::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Microseconds per simulated second in the Chrome export. Chrome's
/// `ts`/`dur` are microseconds; simulated seconds map 1:1 onto trace
/// seconds so Perfetto's ruler reads as simulated time.
const US_PER_SIM_SECOND: f64 = 1_000_000.0;

/// Renders `trace` as Chrome trace-event JSON (the object form, with a
/// `traceEvents` array): complete (`ph:"X"`) events for spans, instant
/// (`ph:"i"`) events for dispatches. Load the output in Perfetto or
/// `about:tracing`.
pub fn to_chrome_json(trace: &Trace, process_name: &str) -> String {
    let mut events = Vec::new();
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{{\"name\":\"{}\"}}}}",
        json_escape(process_name)
    ));
    fn emit_span(ev: &mut Vec<String>, s: &SpanNode) {
        ev.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1}}",
            json_escape(&s.name),
            s.start * US_PER_SIM_SECOND,
            s.duration() * US_PER_SIM_SECOND,
        ));
        for c in &s.children {
            emit_span(ev, c);
        }
    }
    for root in span_forest(trace) {
        emit_span(&mut events, &root);
    }
    for line in &trace.lines {
        if let TraceLine::Dispatch { t, label, id, .. } = line {
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{:.3},\"pid\":1,\"tid\":1,\"s\":\"t\",\
                 \"args\":{{\"id\":{id}}}}}",
                json_escape(label),
                t * US_PER_SIM_SECOND,
            ));
        }
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    )
}

/// Per-name aggregate of span self-time.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Total self-time (duration minus child cover) across occurrences.
    pub self_time: f64,
    /// Occurrences.
    pub count: u64,
}

/// Aggregates self-time per span name over the whole forest, sorted
/// descending — the top-k table of "where did the time actually go".
pub fn self_times(trace: &Trace) -> Vec<SelfTime> {
    let mut acc: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    fn walk(node: &SpanNode, acc: &mut BTreeMap<String, (f64, u64)>) {
        let e = acc.entry(node.name.clone()).or_insert((0.0, 0));
        e.0 += node.self_time();
        e.1 += 1;
        for c in &node.children {
            walk(c, acc);
        }
    }
    for root in span_forest(trace) {
        walk(&root, &mut acc);
    }
    let mut out: Vec<SelfTime> = acc
        .into_iter()
        .map(|(name, (self_time, count))| SelfTime {
            name,
            self_time,
            count,
        })
        .collect();
    out.sort_by(|a, b| {
        b.self_time
            .partial_cmp(&a.self_time)
            .expect("finite self-times")
            .then_with(|| a.name.cmp(&b.name))
    });
    out
}

/// Renders the span forest as an indented text flamegraph: one line per
/// span with a bar proportional to its share of the widest root.
pub fn flamegraph_text(trace: &Trace, width: usize) -> String {
    let forest = span_forest(trace);
    let scale = forest
        .iter()
        .map(SpanNode::duration)
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    let mut out = String::new();
    fn line(out: &mut String, node: &SpanNode, depth: usize, scale: f64, width: usize) {
        let bar_len = ((node.duration() / scale) * width as f64).round() as usize;
        let _ = writeln!(
            out,
            "{:indent$}{:<30} {:>12.3} |{}",
            "",
            node.name,
            node.duration(),
            "▇".repeat(bar_len.max(1)),
            indent = depth * 2,
        );
        for c in &node.children {
            line(out, c, depth + 1, scale, width);
        }
    }
    for root in &forest {
        line(&mut out, root, 0, scale, width);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::parse_trace;

    const SPANS: &str = concat!(
        "{\"t\":0,\"kind\":\"span_enter\",\"label\":\"job\"}\n",
        "{\"t\":0,\"kind\":\"span_enter\",\"label\":\"load\"}\n",
        "{\"t\":2,\"kind\":\"span_exit\",\"label\":\"load\"}\n",
        "{\"t\":2,\"kind\":\"span_enter\",\"label\":\"compute\"}\n",
        "{\"t\":9,\"kind\":\"span_exit\",\"label\":\"compute\"}\n",
        "{\"t\":10,\"kind\":\"span_exit\",\"label\":\"job\"}\n",
        "{\"t\":5,\"kind\":\"dispatch\",\"label\":\"tick\",\"queue\":1,\"id\":3,\"parent\":1}\n",
    );

    #[test]
    fn chrome_export_is_valid_and_carries_spans_and_instants() {
        let tr = parse_trace(SPANS).unwrap();
        let chrome = to_chrome_json(&tr, "unit-test");
        let parsed = crate::jsonl::parse(&chrome).expect("chrome export parses as JSON");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // metadata + 3 spans + 1 instant.
        assert_eq!(events.len(), 5);
        assert!(events
            .iter()
            .any(|e| e.str_field("ph") == Some("X") && e.str_field("name") == Some("compute")));
        let x = events
            .iter()
            .find(|e| e.str_field("name") == Some("job"))
            .unwrap();
        assert_eq!(x.f64_field("dur"), Some(10.0 * US_PER_SIM_SECOND));
        assert!(events
            .iter()
            .any(|e| e.str_field("ph") == Some("i") && e.str_field("name") == Some("tick")));
    }

    #[test]
    fn chrome_export_escapes_control_characters_in_names() {
        // The JSONL escapes decode to a real newline, tab, U+0001, quote
        // and backslash in the label, which the export must escape again.
        let text = concat!(
            "{\"t\":0,\"kind\":\"span_enter\",\"label\":\"a\\nb\\t\\u0001\\\"\\\\\"}\n",
            "{\"t\":1,\"kind\":\"span_exit\",\"label\":\"a\\nb\\t\\u0001\\\"\\\\\"}\n",
            "{\"t\":1,\"kind\":\"dispatch\",\"label\":\"a\\nb\",\"queue\":0,\"id\":0}\n",
        );
        let tr = parse_trace(text).unwrap();
        let chrome = to_chrome_json(&tr, "p\nq");
        assert!(chrome.bytes().all(|b| b >= 0x20), "{chrome:?}");
        let parsed = crate::jsonl::parse(&chrome).expect("chrome export parses as JSON");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events[1].str_field("name"), Some("a\nb\t\u{1}\"\\"));
        assert_eq!(events[2].str_field("name"), Some("a\nb"));
        // A name without control characters renders as it always did.
        let plain = to_chrome_json(&parse_trace(SPANS).unwrap(), "q\"\\");
        assert!(plain.starts_with(
            "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{\"name\":\"q\\\"\\\\\"}},{\"name\":\"job\",\"ph\":\"X\",\"ts\":0.000,\
             \"dur\":10000000.000,\"pid\":1,\"tid\":1}"
        ));
    }

    #[test]
    fn self_times_rank_the_heaviest_span_first() {
        let tr = parse_trace(SPANS).unwrap();
        let st = self_times(&tr);
        // compute has 7s self, load 2s, job 10-9=1s.
        assert_eq!(st[0].name, "compute");
        assert!((st[0].self_time - 7.0).abs() < 1e-12);
        assert_eq!(st.len(), 3);
        assert!((st.iter().map(|s| s.self_time).sum::<f64>() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn flamegraph_shows_every_span_indented() {
        let tr = parse_trace(SPANS).unwrap();
        let fg = flamegraph_text(&tr, 40);
        assert!(fg.contains("job"));
        assert!(fg.contains("  load"));
        assert!(fg.contains("  compute"));
        assert!(fg.lines().count() == 3);
    }
}
