//! Granula-style fine-grained performance analysis (\[100\]).
//!
//! Granula moved Graphalytics from "low-depth analysis, which is typical
//! of benchmarks" to *deep* results: per-phase breakdowns of where a run
//! spends its time. Here a `Breakdown` decomposes a [`RunCost`] into
//! load/compute/aggregate phases and per-iteration compute costs.
//!
//! The breakdown also lifts into Granula's *operation hierarchy*: an
//! `Operation` is an `(actor, mission)` pair with a time interval and
//! child operations, and `Breakdown::operation_tree` renders a run as
//! `job → {load, compute → iterations…, aggregate}`. The same tree
//! replays onto any telemetry [`Tracer`] as nested
//! spans, which is how graph runs share one profiling pipeline with the
//! DES-based domains.

use crate::platforms::RunCost;
use atlarge_telemetry::tracer::Tracer;

/// A per-phase performance breakdown.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Breakdown {
    /// Critical-path cost of loading.
    pub load: f64,
    /// Critical-path cost of computing (sum of iterations).
    pub compute: f64,
    /// Critical-path cost of aggregation.
    pub aggregate: f64,
    /// Per-iteration compute costs.
    pub iterations: Vec<f64>,
}

/// Load/aggregate cost factors relative to one full sweep.
const LOAD_FACTOR: f64 = 2.0;
const AGGREGATE_FACTOR: f64 = 0.25;

impl Breakdown {
    /// Builds the breakdown of a run on a graph with `n` vertices and
    /// `m` edges.
    pub fn of(cost: &RunCost, n: usize, m: usize) -> Self {
        let sweep = (n + m) as f64;
        Breakdown {
            load: sweep * LOAD_FACTOR,
            compute: cost.critical_path,
            aggregate: sweep * AGGREGATE_FACTOR,
            iterations: cost.per_iteration.iter().map(|r| r.critical_path).collect(),
        }
    }

    /// Total cost across phases.
    pub fn total(&self) -> f64 {
        self.load + self.compute + self.aggregate
    }
}

/// A node of the Granula operation hierarchy: an *actor* performing a
/// *mission* over `[start, end]` (in critical-path cost units for graph
/// runs, simulated seconds for DES runs), with nested child operations.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Operation {
    /// Who performs the work (platform, phase, component).
    pub actor: String,
    /// What the work is ("job", "load", "iteration-3", …).
    pub mission: String,
    /// Interval start.
    pub start: f64,
    /// Interval end (`end >= start`).
    pub end: f64,
    /// Nested sub-operations, each contained in `[start, end]`.
    pub children: Vec<Operation>,
}

impl Operation {
    /// A leaf operation.
    pub(crate) fn leaf(
        actor: impl Into<String>,
        mission: impl Into<String>,
        start: f64,
        end: f64,
    ) -> Self {
        assert!(end >= start, "operation interval must be non-empty");
        Operation {
            actor: actor.into(),
            mission: mission.into(),
            start,
            end,
            children: Vec::new(),
        }
    }

    /// The span name this operation replays under: `actor/mission`.
    pub fn span_name(&self) -> String {
        format!("{}/{}", self.actor, self.mission)
    }

    /// Replays the tree onto `tracer` as properly nested span
    /// enter/exit pairs (depth-first: parent enters before its children,
    /// exits after them). A `Recorder` attached here captures the same
    /// hierarchical profile a live DES run would produce, so the obsv
    /// analyzers treat graph runs and kernel runs uniformly.
    pub fn replay(&self, tracer: &dyn Tracer) {
        let name = self.span_name();
        tracer.on_span_enter(self.start, &name);
        for child in &self.children {
            child.replay(tracer);
        }
        tracer.on_span_exit(self.end, &name);
    }
}

impl Breakdown {
    /// Renders this breakdown as the Granula operation tree of `actor`:
    /// a `job` root whose children are the load, compute (with one child
    /// per iteration), and aggregate phases laid end-to-end on the
    /// critical-path time axis.
    pub(crate) fn operation_tree(&self, actor: &str) -> Operation {
        let load_end = self.load;
        let compute_end = load_end + self.compute;
        let mut compute = Operation::leaf(actor, "compute", load_end, compute_end);
        let mut t = load_end;
        for (i, &cost) in self.iterations.iter().enumerate() {
            compute.children.push(Operation::leaf(
                actor,
                format!("iteration-{i}"),
                t,
                t + cost,
            ));
            t += cost;
        }
        Operation {
            actor: actor.to_string(),
            mission: "job".to_string(),
            start: 0.0,
            end: self.total(),
            children: vec![
                Operation::leaf(actor, "load", 0.0, load_end),
                compute,
                Operation::leaf(actor, "aggregate", compute_end, self.total()),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid, preferential_attachment};
    use crate::platforms::{run, Algorithm, Platform};
    use atlarge_telemetry::recorder::Recorder;

    #[test]
    fn phases_sum_to_total() {
        let g = grid(12);
        let c = run(Platform::Sequential, Algorithm::Wcc, &g, None);
        let b = Breakdown::of(&c, g.num_vertices(), g.num_edges());
        assert!((b.total() - (b.load + b.compute + b.aggregate)).abs() < 1e-9);
        assert_eq!(b.iterations.len() as u32, c.iterations);
    }

    #[test]
    fn long_jobs_are_compute_bound_short_ones_load_bound() {
        // Grid BFS runs many iterations -> compute dominates; a power-law
        // BFS is over in a few sweeps -> loading dominates.
        let grid_g = grid(24);
        let c = run(Platform::Sequential, Algorithm::Bfs, &grid_g, None);
        let b = Breakdown::of(&c, grid_g.num_vertices(), grid_g.num_edges());
        assert!(b.compute > b.load && b.compute > b.aggregate);

        let pl = preferential_attachment(20_000, 4, 3);
        let c2 = run(Platform::Parallel { threads: 8 }, Algorithm::Bfs, &pl, None);
        let b2 = Breakdown::of(&c2, pl.num_vertices(), pl.num_edges());
        assert!(b2.load >= b2.compute && b2.load >= b2.aggregate);
    }

    #[test]
    fn operation_tree_covers_phases_and_iterations() {
        let g = grid(10);
        let c = run(Platform::Sequential, Algorithm::Wcc, &g, None);
        let b = Breakdown::of(&c, g.num_vertices(), g.num_edges());
        let tree = b.operation_tree("sequential");
        assert_eq!(tree.mission, "job");
        assert_eq!(tree.children.len(), 3);
        assert!((tree.end - tree.start - b.total()).abs() < 1e-9);
        let compute = &tree.children[1];
        assert_eq!(compute.children.len(), b.iterations.len());
        // Iterations tile the compute phase exactly: no self time left.
        let covered: f64 = compute.children.iter().map(|c| c.end - c.start).sum();
        assert!(compute.end - compute.start - covered < 1e-6 * b.compute.max(1.0));
        // Children nest within their parents.
        for phase in &tree.children {
            assert!(phase.start >= tree.start && phase.end <= tree.end + 1e-9);
        }
    }

    #[test]
    fn replay_produces_nested_spans_on_a_recorder() {
        let g = grid(8);
        let c = run(Platform::Sequential, Algorithm::Bfs, &g, None);
        let b = Breakdown::of(&c, g.num_vertices(), g.num_edges());
        let tree = b.operation_tree("sequential");
        let rec = Recorder::new();
        tree.replay(&rec);
        let stats = rec.span_stats();
        assert_eq!(stats["sequential/job"].entries, 1);
        assert_eq!(stats["sequential/load"].entries, 1);
        assert!(
            (stats["sequential/compute"].sim_time - b.compute).abs() < 1e-9,
            "span sim-time mirrors the breakdown"
        );
        assert!(stats.keys().any(|k| k.starts_with("sequential/iteration-")));
    }
}
