//! Critical-path extraction over causal event traces.
//!
//! The kernel stamps every event with an id and the id of the event
//! whose handler scheduled it, so a trace is a forest of causal chains.
//! The *critical path* is the chain spanning the most simulated time —
//! the sequence of events that actually gated the run's finish, which
//! is where an optimization effort should aim first (the Granula/
//! Grade10 question, asked of event traces instead of span logs).

use crate::trace::{Trace, TraceLine};
use std::collections::BTreeMap;

/// One step of a critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Kernel event id (or a synthetic index for span-tree paths).
    pub id: u64,
    /// Event label or span name.
    pub label: String,
    /// Simulated time the step happened (dispatch time / span start).
    pub time: f64,
}

/// How the path was derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSource {
    /// Walked dispatch `parent` edges (DES traces).
    CausalChain,
    /// Walked the span tree, taking the longest child at each level
    /// (span-only traces, e.g. replayed Granula operation trees).
    SpanTree,
}

/// The longest causal chain of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Root-to-leaf steps.
    pub steps: Vec<PathStep>,
    /// Simulated time the chain spans (last step − first step).
    pub path_time: f64,
    /// The run's total simulated time, for the path/total ratio.
    pub total_time: f64,
    /// Derivation.
    pub source: PathSource,
}

impl CriticalPath {
    /// Fraction of the run's simulated time covered by the path
    /// (1.0 = the run is one serial chain).
    pub fn coverage(&self) -> f64 {
        if self.total_time > 0.0 {
            self.path_time / self.total_time
        } else {
            0.0
        }
    }
}

/// Extracts the critical path of `trace`.
///
/// Prefers the causal chain over dispatch records; a trace with no
/// dispatches (span-only exports) falls back to the span tree. Returns
/// `None` for traces with neither. Chains are truncated at records the
/// ring buffer evicted; the result is then the longest chain *visible*,
/// which the manifest's `trace_dropped` count qualifies.
pub fn critical_path(trace: &Trace) -> Option<CriticalPath> {
    let total = trace.sim_time();
    // (time, label, parent) per dispatched id.
    let mut dispatched: BTreeMap<u64, (f64, &str, Option<u64>)> = BTreeMap::new();
    for line in &trace.lines {
        if let TraceLine::Dispatch {
            t,
            label,
            id,
            parent,
        } = line
        {
            dispatched.insert(*id, (*t, label, *parent));
        }
    }
    if dispatched.is_empty() {
        return span_tree_path(trace, total);
    }
    // For every chain tail, the span is tail-time minus the time of the
    // earliest ancestor still in the trace. Memoize the root-time of
    // each id so the scan is linear.
    let mut root_time: BTreeMap<u64, f64> = BTreeMap::new();
    fn root_of(
        id: u64,
        dispatched: &BTreeMap<u64, (f64, &str, Option<u64>)>,
        memo: &mut BTreeMap<u64, f64>,
    ) -> f64 {
        // Iterative walk: collect the unresolved ancestor chain.
        let mut chain = Vec::new();
        let mut cur = id;
        let t0 = loop {
            if let Some(&t) = memo.get(&cur) {
                break t;
            }
            let (t, _, parent) = dispatched[&cur];
            chain.push(cur);
            match parent {
                Some(p) if dispatched.contains_key(&p) => cur = p,
                // A root, or a parent evicted from the ring: the chain
                // starts here as far as the trace can see.
                _ => break t,
            }
        };
        for c in chain {
            memo.insert(c, t0);
        }
        t0
    }
    // Pick the tail with the longest span; break ties on smaller id so
    // repeated runs of the same seed yield the identical path.
    let (&best_tail, _) = dispatched
        .iter()
        .max_by(|(ida, (ta, _, _)), (idb, (tb, _, _))| {
            let sa = ta - root_of(**ida, &dispatched, &mut root_time);
            let sb = tb - root_of(**idb, &dispatched, &mut root_time);
            sa.partial_cmp(&sb)
                .expect("finite times")
                .then(idb.cmp(ida))
        })?;
    let mut steps = Vec::new();
    let mut cur = Some(best_tail);
    while let Some(id) = cur {
        let (t, label, parent) = dispatched[&id];
        steps.push(PathStep {
            id,
            label: label.to_string(),
            time: t,
        });
        cur = parent.filter(|p| dispatched.contains_key(p));
    }
    steps.reverse();
    let path_time = steps.last().map_or(0.0, |s| s.time) - steps.first().map_or(0.0, |s| s.time);
    Some(CriticalPath {
        steps,
        path_time,
        total_time: total,
        source: PathSource::CausalChain,
    })
}

/// A span tree node used by the fallback path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpanNode {
    /// Span name.
    pub name: String,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// Nested spans.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Duration of the span.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Duration not covered by child spans.
    pub fn self_time(&self) -> f64 {
        let child: f64 = self.children.iter().map(SpanNode::duration).sum();
        (self.duration() - child).max(0.0)
    }
}

/// Rebuilds the span forest from enter/exit records. Exits match the
/// innermost open span with the same name (the tracer contract);
/// unclosed spans are closed at the trace's final time.
pub(crate) fn span_forest(trace: &Trace) -> Vec<SpanNode> {
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<SpanNode> = Vec::new();
    for line in &trace.lines {
        match line {
            TraceLine::SpanEnter { t, label } => stack.push(SpanNode {
                name: label.clone(),
                start: *t,
                end: *t,
                children: Vec::new(),
            }),
            TraceLine::SpanExit { t, label } => {
                if let Some(pos) = stack.iter().rposition(|s| &s.name == label) {
                    // Anything opened after the match and never closed is
                    // adopted as its child, closed at the same time.
                    let mut node = stack.remove(pos);
                    let orphans: Vec<SpanNode> = stack.split_off(pos);
                    node.children.extend(orphans.into_iter().map(|mut o| {
                        o.end = *t;
                        o
                    }));
                    node.end = *t;
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(node),
                        None => roots.push(node),
                    }
                }
            }
            _ => {}
        }
    }
    let end = trace.sim_time();
    roots.extend(stack.into_iter().map(|mut s| {
        s.end = s.end.max(end);
        s
    }));
    roots
}

fn span_tree_path(trace: &Trace, total: f64) -> Option<CriticalPath> {
    let forest = span_forest(trace);
    let root = forest
        .iter()
        .max_by(|a, b| a.duration().partial_cmp(&b.duration()).expect("finite"))?;
    let mut steps = Vec::new();
    let mut node = root;
    let mut id = 0u64;
    loop {
        steps.push(PathStep {
            id,
            label: node.name.clone(),
            time: node.start,
        });
        id += 1;
        match node
            .children
            .iter()
            .max_by(|a, b| a.duration().partial_cmp(&b.duration()).expect("finite"))
        {
            Some(child) => node = child,
            None => break,
        }
    }
    Some(CriticalPath {
        steps,
        path_time: root.duration(),
        total_time: total.max(root.duration()),
        source: PathSource::SpanTree,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::parse_trace;

    fn dispatch(t: f64, label: &str, id: u64, parent: Option<u64>) -> String {
        let p = parent.map_or(String::new(), |p| format!(",\"parent\":{p}"));
        format!(
            "{{\"t\":{t},\"kind\":\"dispatch\",\"label\":\"{label}\",\"queue\":0,\"id\":{id}{p}}}"
        )
    }

    #[test]
    fn follows_the_longest_chain_not_the_latest_event() {
        // Chain A: 0 -> 1 spans [0, 9]. Late lone root 2 at t=10.
        let text = [
            dispatch(0.0, "a0", 0, None),
            dispatch(9.0, "a1", 1, Some(0)),
            dispatch(10.0, "lone", 2, None),
        ]
        .join("\n");
        let cp = critical_path(&parse_trace(&text).unwrap()).unwrap();
        assert_eq!(cp.source, PathSource::CausalChain);
        assert_eq!(cp.steps.len(), 2);
        assert_eq!(cp.steps[0].label, "a0");
        assert_eq!(cp.steps[1].label, "a1");
        assert!((cp.path_time - 9.0).abs() < 1e-12);
        assert!(cp.path_time <= cp.total_time);
    }

    #[test]
    fn evicted_parents_truncate_the_chain() {
        // Parent 5 was dropped from the ring; the chain starts at 6.
        let text = [
            dispatch(3.0, "kept", 6, Some(5)),
            dispatch(7.0, "tail", 7, Some(6)),
        ]
        .join("\n");
        let cp = critical_path(&parse_trace(&text).unwrap()).unwrap();
        assert_eq!(cp.steps.len(), 2);
        assert_eq!(cp.steps[0].id, 6);
        assert!((cp.path_time - 4.0).abs() < 1e-12);
    }

    #[test]
    fn span_only_traces_use_the_span_tree() {
        let text = concat!(
            "{\"t\":0,\"kind\":\"span_enter\",\"label\":\"job\"}\n",
            "{\"t\":0,\"kind\":\"span_enter\",\"label\":\"load\"}\n",
            "{\"t\":2,\"kind\":\"span_exit\",\"label\":\"load\"}\n",
            "{\"t\":2,\"kind\":\"span_enter\",\"label\":\"compute\"}\n",
            "{\"t\":9,\"kind\":\"span_exit\",\"label\":\"compute\"}\n",
            "{\"t\":10,\"kind\":\"span_exit\",\"label\":\"job\"}\n",
        );
        let cp = critical_path(&parse_trace(text).unwrap()).unwrap();
        assert_eq!(cp.source, PathSource::SpanTree);
        let labels: Vec<&str> = cp.steps.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["job", "compute"]);
        assert!((cp.path_time - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_has_no_path() {
        assert!(critical_path(&parse_trace("").unwrap()).is_none());
    }

    #[test]
    fn forest_nests_spans_and_computes_self_time() {
        let text = concat!(
            "{\"t\":0,\"kind\":\"span_enter\",\"label\":\"outer\"}\n",
            "{\"t\":1,\"kind\":\"span_enter\",\"label\":\"inner\"}\n",
            "{\"t\":3,\"kind\":\"span_exit\",\"label\":\"inner\"}\n",
            "{\"t\":10,\"kind\":\"span_exit\",\"label\":\"outer\"}\n",
        );
        let forest = span_forest(&parse_trace(text).unwrap());
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].children.len(), 1);
        assert!((forest[0].self_time() - 8.0).abs() < 1e-12);
        assert!((forest[0].children[0].duration() - 2.0).abs() < 1e-12);
    }
}
