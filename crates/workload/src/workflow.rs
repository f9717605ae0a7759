//! DAG workflows.
//!
//! The autoscaling experiments of §6.7 run "the emerging class of
//! workflow-based cloud workloads"; the portfolio-scheduling work of §6.6
//! found workflow workloads generate many more jobs per time span than
//! traditional parallel workloads. Workflows here are DAGs of tasks with
//! precedence edges, plus generators for the canonical shapes (chains,
//! fork-joins, layered random DAGs).

use crate::job::Task;
use atlarge_stats::dist::{LogNormal, Sample};
use rand::Rng;
use std::collections::VecDeque;

/// A node index within a workflow.
pub type NodeId = usize;

/// A workflow: a DAG of tasks with precedence constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct Workflow {
    tasks: Vec<Task>,
    /// `edges[i]` lists the successors of node `i`.
    edges: Vec<Vec<NodeId>>,
    /// Submission time of the workflow.
    pub submit: f64,
}

impl Workflow {
    /// Creates a workflow from tasks and dependency pairs `(from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty, an edge references a missing node, or the
    /// edges contain a cycle.
    pub fn new(tasks: Vec<Task>, deps: &[(NodeId, NodeId)], submit: f64) -> Self {
        assert!(!tasks.is_empty(), "workflow must contain tasks");
        let n = tasks.len();
        let mut edges = vec![Vec::new(); n];
        for &(a, b) in deps {
            assert!(a < n && b < n, "edge references missing node");
            assert!(a != b, "self-dependency");
            edges[a].push(b);
        }
        let wf = Workflow {
            tasks,
            edges,
            submit,
        };
        assert!(
            wf.topological_order().is_some(),
            "workflow edges contain a cycle"
        );
        wf
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the workflow is empty (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Successors of `node`.
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        &self.edges[node]
    }

    /// Predecessor counts per node (in-degrees).
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.len()];
        for succs in &self.edges {
            for &s in succs {
                deg[s] += 1;
            }
        }
        deg
    }

    /// Kahn topological order; `None` if cyclic.
    pub(crate) fn topological_order(&self) -> Option<Vec<NodeId>> {
        let mut deg = self.in_degrees();
        let mut q: VecDeque<NodeId> = deg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(u) = q.pop_front() {
            order.push(u);
            for &v in &self.edges[u] {
                deg[v] -= 1;
                if deg[v] == 0 {
                    q.push_back(v);
                }
            }
        }
        (order.len() == self.len()).then_some(order)
    }

    /// Critical-path length: the minimum makespan with unlimited resources.
    pub fn critical_path(&self) -> f64 {
        let order = self.topological_order().expect("constructed acyclic");
        let mut finish = vec![0.0f64; self.len()];
        for &u in &order {
            finish[u] += self.tasks[u].runtime;
            for &v in &self.edges[u] {
                finish[v] = finish[v].max(finish[u]);
            }
        }
        finish.iter().copied().fold(0.0, f64::max)
    }

    /// Total work in core-seconds.
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(Task::work).sum()
    }
}

/// Generators for canonical workflow shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// A linear chain of `n` tasks.
    Chain(usize),
    /// Fork-join: a source, `n` parallel tasks, a sink.
    ForkJoin(usize),
    /// A layered random DAG with the given layer count and width.
    Layered {
        /// Number of layers.
        layers: usize,
        /// Tasks per layer.
        width: usize,
    },
}

/// Generates a workflow of the given shape with log-normal task runtimes.
///
/// # Panics
///
/// Panics if the shape is degenerate (zero tasks/layers/width).
pub fn generate<R: Rng + ?Sized>(
    rng: &mut R,
    shape: Shape,
    mean_runtime: f64,
    runtime_cv: f64,
    submit: f64,
) -> Workflow {
    let dist = LogNormal::with_mean_cv(mean_runtime, runtime_cv.max(1e-9));
    let mk_task = |rng: &mut R| Task::new(dist.sample(rng).max(0.1), 1);
    match shape {
        Shape::Chain(n) => {
            assert!(n > 0, "chain needs tasks");
            let tasks: Vec<Task> = (0..n).map(|_| mk_task(rng)).collect();
            let deps: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
            Workflow::new(tasks, &deps, submit)
        }
        Shape::ForkJoin(n) => {
            assert!(n > 0, "fork-join needs parallel tasks");
            let tasks: Vec<Task> = (0..n + 2).map(|_| mk_task(rng)).collect();
            let mut deps = Vec::new();
            for i in 1..=n {
                deps.push((0, i));
                deps.push((i, n + 1));
            }
            Workflow::new(tasks, &deps, submit)
        }
        Shape::Layered { layers, width } => {
            assert!(layers > 0 && width > 0, "layered needs layers and width");
            let n = layers * width;
            let tasks: Vec<Task> = (0..n).map(|_| mk_task(rng)).collect();
            let mut deps = Vec::new();
            for l in 0..layers.saturating_sub(1) {
                for i in 0..width {
                    let from = l * width + i;
                    // Each node feeds 1–2 random nodes in the next layer.
                    let fanout = 1 + (rng.gen::<f64>() < 0.5) as usize;
                    for _ in 0..fanout {
                        let to = (l + 1) * width + rng.gen_range(0..width);
                        deps.push((from, to));
                    }
                }
            }
            deps.sort_unstable();
            deps.dedup();
            Workflow::new(tasks, &deps, submit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_check::check;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Maximum width: the largest antichain approximated as the maximum
    /// number of tasks eligible together under list order (exact for
    /// layered DAGs, which all our generators produce).
    fn max_parallelism(wf: &Workflow) -> usize {
        // Longest-path layering: level(v) = 1 + max level(pred).
        let order = wf.topological_order().expect("constructed acyclic");
        let mut level = vec![0usize; wf.len()];
        for &u in &order {
            for &v in &wf.edges[u] {
                level[v] = level[v].max(level[u] + 1);
            }
        }
        let max_level = level.iter().copied().max().unwrap_or(0);
        let mut widths = vec![0usize; max_level + 1];
        for &l in &level {
            widths[l] += 1;
        }
        widths.into_iter().max().unwrap_or(1)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2)
    }

    fn unit_tasks(n: usize) -> Vec<Task> {
        (0..n).map(|_| Task::new(1.0, 1)).collect()
    }

    #[test]
    fn chain_critical_path_is_total_runtime() {
        let wf = Workflow::new(unit_tasks(5), &[(0, 1), (1, 2), (2, 3), (3, 4)], 0.0);
        assert_eq!(wf.critical_path(), 5.0);
        assert_eq!(max_parallelism(&wf), 1);
    }

    #[test]
    fn forkjoin_critical_path_is_three_levels() {
        let wf = Workflow::new(
            unit_tasks(6),
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (1, 5),
                (2, 5),
                (3, 5),
                (4, 5),
            ],
            0.0,
        );
        assert_eq!(wf.critical_path(), 3.0);
        assert_eq!(max_parallelism(&wf), 4);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycles_rejected() {
        Workflow::new(unit_tasks(2), &[(0, 1), (1, 0)], 0.0);
    }

    #[test]
    fn topological_order_respects_edges() {
        let wf = Workflow::new(unit_tasks(4), &[(0, 2), (1, 2), (2, 3)], 0.0);
        let order = wf.topological_order().unwrap();
        let pos = |x: usize| order.iter().position(|&v| v == x).unwrap();
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn generators_produce_expected_shapes() {
        let c = generate(&mut rng(), Shape::Chain(7), 10.0, 0.5, 0.0);
        assert_eq!(c.len(), 7);
        assert_eq!(max_parallelism(&c), 1);

        let fj = generate(&mut rng(), Shape::ForkJoin(8), 10.0, 0.5, 0.0);
        assert_eq!(fj.len(), 10);
        assert_eq!(max_parallelism(&fj), 8);

        let l = generate(
            &mut rng(),
            Shape::Layered {
                layers: 4,
                width: 3,
            },
            10.0,
            0.5,
            0.0,
        );
        assert_eq!(l.len(), 12);
        assert!(l.topological_order().is_some());
    }

    #[test]
    fn critical_path_bounds() {
        let wf = generate(
            &mut rng(),
            Shape::Layered {
                layers: 5,
                width: 4,
            },
            10.0,
            1.0,
            0.0,
        );
        let cp = wf.critical_path();
        let max_rt = wf.tasks().iter().map(|t| t.runtime).fold(0.0, f64::max);
        assert!(cp >= max_rt);
        assert!(cp <= wf.total_work());
    }

    /// Critical path is always between the longest task and total work.
    #[test]
    fn prop_cp_bounds() {
        check("prop_cp_bounds", 256, |rng| {
            let layers = rng.gen_range(1usize..6);
            let width = rng.gen_range(1usize..6);
            let mut r = StdRng::seed_from_u64(rng.gen_range(0u64..1000));
            let wf = generate(&mut r, Shape::Layered { layers, width }, 5.0, 0.8, 0.0);
            let cp = wf.critical_path();
            let max_rt = wf.tasks().iter().map(|t| t.runtime).fold(0.0, f64::max);
            assert!(cp >= max_rt - 1e-9);
            assert!(cp <= wf.total_work() + 1e-9);
        });
    }

    /// Generated layered DAGs are acyclic with the declared size.
    #[test]
    fn prop_layered_acyclic() {
        check("prop_layered_acyclic", 256, |rng| {
            let layers = rng.gen_range(1usize..5);
            let width = rng.gen_range(1usize..5);
            let mut r = StdRng::seed_from_u64(rng.gen_range(0u64..500));
            let wf = generate(&mut r, Shape::Layered { layers, width }, 5.0, 0.5, 0.0);
            assert_eq!(wf.len(), layers * width);
            assert!(wf.topological_order().is_some());
        });
    }
}
