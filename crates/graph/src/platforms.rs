//! Graph-processing platforms: the "P" of the PAD triangle.
//!
//! All platforms execute the same synchronous vertex kernels and must
//! produce identical outputs; they differ — as real platforms do — in
//! *execution strategy*, which drives a deterministic critical-path
//! cost (the unit the PAD analysis decomposes) and a simulated wall
//! time derived from it — never the host clock, so results cannot
//! depend on machine speed:
//!
//! - [`Platform::Sequential`] — single-threaded with an active-set
//!   (delta) optimization: only vertices with changed neighborhoods are
//!   re-evaluated.
//! - [`Platform::Parallel`] — BSP over `threads` modelled workers: full
//!   Jacobi sweeps, critical path divided by `threads`, per-iteration
//!   barrier cost.
//! - [`Platform::EdgeCentric`] — scans the full edge list every
//!   iteration (GraphX-style), paying a per-edge overhead factor but
//!   wide parallelism.
//! - [`Platform::Accelerator`] — a GPU-like model: massive throughput
//!   per sweep, a large fixed per-iteration offload cost. This is the
//!   "H" that turns PAD into HPAD (\[106\]).

use crate::algorithms;
use crate::csr::Csr;
use crate::granula::Breakdown;
use atlarge_telemetry::manifest::fnv1a;
use atlarge_telemetry::Recorder;
use std::time::Duration;

/// The six Graphalytics algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Breadth-first search levels from vertex 0.
    Bfs,
    /// PageRank, 10 iterations.
    PageRank,
    /// Weakly connected components.
    Wcc,
    /// Community detection by label propagation, 5 iterations.
    Cdlp,
    /// Local clustering coefficient.
    Lcc,
    /// Single-source shortest paths from vertex 0.
    Sssp,
}

impl Algorithm {
    /// All six algorithms.
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::Bfs,
            Algorithm::PageRank,
            Algorithm::Wcc,
            Algorithm::Cdlp,
            Algorithm::Lcc,
            Algorithm::Sssp,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Bfs => "bfs",
            Algorithm::PageRank => "pagerank",
            Algorithm::Wcc => "wcc",
            Algorithm::Cdlp => "cdlp",
            Algorithm::Lcc => "lcc",
            Algorithm::Sssp => "sssp",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The platforms of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Single-threaded, active-set optimized.
    Sequential,
    /// BSP over the given worker count.
    Parallel {
        /// Modelled workers: each iteration's critical path is divided
        /// by this count.
        threads: usize,
    },
    /// Full edge scans per iteration.
    EdgeCentric,
    /// GPU-like accelerator model.
    Accelerator,
}

impl Platform {
    /// The default platform roster (the ≥3 platforms of the PAD sweep,
    /// plus the accelerator used by the HPAD extension).
    pub fn roster() -> [Platform; 3] {
        [
            Platform::Sequential,
            Platform::Parallel { threads: 4 },
            Platform::EdgeCentric,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Platform::Sequential => "sequential",
            Platform::Parallel { .. } => "parallel",
            Platform::EdgeCentric => "edge-centric",
            Platform::Accelerator => "accelerator",
        }
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One iteration's record (Granula's phase granularity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Work units (edges scanned + vertices touched) this iteration.
    pub work: u64,
    /// Critical-path cost contributed by this iteration.
    pub critical_path: f64,
}

/// The cost report of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCost {
    /// Total work units.
    pub work: u64,
    /// Deterministic critical-path cost (the PAD analysis response).
    pub critical_path: f64,
    /// Simulated wall time: the critical-path cost read as microseconds
    /// (1 cost unit = 1 µs). Derived, never measured — identical across
    /// hosts for the same (platform, algorithm, graph), so it may
    /// participate in `PartialEq` without leaking host speed into
    /// results.
    pub wall: Duration,
    /// Iterations executed.
    pub iterations: u32,
    /// Per-iteration records.
    pub per_iteration: Vec<IterationRecord>,
    /// Output digest, identical across platforms for the same
    /// (algorithm, graph).
    pub digest: Vec<u64>,
}

const BARRIER_COST: f64 = 2_000.0;
const EDGE_SYNC_COST: f64 = 500.0;
const OFFLOAD_COST: f64 = 50_000.0;
const EDGE_FACTOR: f64 = 3.0;
const ACCEL_SPEEDUP: f64 = 64.0;

/// Runs `algorithm` on `graph` under `platform`.
///
/// With `rec`, the run's Granula operation tree is replayed onto it as
/// nested spans, and work/iteration metrics are recorded, so graph runs
/// flow through the same observability pipeline as the DES-based
/// domains. The returned cost is identical to an untraced run's —
/// instrumentation is observational only.
pub fn run(
    platform: Platform,
    algorithm: Algorithm,
    graph: &Csr,
    rec: Option<&Recorder>,
) -> RunCost {
    let (digest, iters) = execute(algorithm, graph);
    // Work/critical-path accounting per platform model.
    let n = graph.num_vertices() as u64;
    let m = graph.num_edges() as u64;
    let mut per_iteration = Vec::with_capacity(iters.len());
    let mut total_work = 0u64;
    let mut cp = 0.0;
    for &iter_work in &iters {
        // Full-sweep platforms pay at least a whole pass per iteration;
        // heavy single-phase algorithms (LCC's pair scans) exceed n + m.
        let full = iter_work.max(n + m);
        let (work, cost) = match platform {
            Platform::Sequential => (iter_work, iter_work as f64),
            Platform::Parallel { threads } => (full, full as f64 / threads as f64 + BARRIER_COST),
            Platform::EdgeCentric => {
                // Full edge scans are expensive, but synchronization is a
                // cheap fold over the edge partition.
                let w = (full as f64 * EDGE_FACTOR) as u64;
                (w, w as f64 / 8.0 + EDGE_SYNC_COST)
            }
            Platform::Accelerator => (full, full as f64 / ACCEL_SPEEDUP + OFFLOAD_COST),
        };
        total_work += work;
        cp += cost;
        per_iteration.push(IterationRecord {
            work,
            critical_path: cost,
        });
    }
    let cost = RunCost {
        work: total_work,
        critical_path: cp,
        // Simulated wall time: critical-path cost units as microseconds.
        // Host speed must never reach a RunCost — it is compared for
        // equality across platforms and runs.
        wall: Duration::from_nanos((cp * 1e3) as u64),
        iterations: iters.len() as u32,
        per_iteration,
        digest,
    };
    if let Some(rec) = rec {
        let config = format!(
            "{}|{}|{}|{}",
            platform.name(),
            algorithm.name(),
            graph.num_vertices(),
            graph.num_edges()
        );
        rec.set_run_info("graph.platform", 0, fnv1a(config.as_bytes()));
        let breakdown = Breakdown::of(&cost, graph.num_vertices(), graph.num_edges());
        breakdown.operation_tree(platform.name()).replay(rec);
        rec.add("graph.work", cost.work);
        rec.add("graph.iterations", u64::from(cost.iterations));
        let mut t = 0.0;
        for r in &cost.per_iteration {
            t += r.critical_path;
            rec.observe_at("graph.iter_cost", t, r.critical_path);
        }
    }
    cost
}

/// Executes the algorithm, returning the output digest and the
/// *active-set work* per iteration (what the sequential platform pays).
fn execute(algorithm: Algorithm, g: &Csr) -> (Vec<u64>, Vec<u64>) {
    match algorithm {
        Algorithm::Bfs => {
            let (levels, iters) = jacobi(g, u32::MAX, |g, v, prev| {
                let mut best = if v == 0 { 0 } else { u32::MAX };
                for &w in g.in_neighbors(v) {
                    let lw = prev[w as usize];
                    if lw != u32::MAX {
                        best = best.min(lw + 1);
                    }
                }
                best
            });
            (levels.into_iter().map(u64::from).collect(), iters)
        }
        Algorithm::Wcc => {
            let init: Vec<u32> = (0..g.num_vertices() as u32).collect();
            let (labels, iters) = jacobi_init(g, init, |g, v, prev| {
                let mut best = prev[v];
                for &w in g.in_neighbors(v).iter().chain(g.out_neighbors(v)) {
                    best = best.min(prev[w as usize]);
                }
                best
            });
            (labels.into_iter().map(u64::from).collect(), iters)
        }
        Algorithm::Sssp => {
            let (dist, iters) = jacobi(g, f64::INFINITY.to_bits(), |g, v, prev| {
                let mut best = if v == 0 { 0.0 } else { f64::INFINITY };
                for &w in g.in_neighbors(v) {
                    let dw = f64::from_bits(prev[w as usize]);
                    if dw.is_finite() {
                        best = best.min(dw + g.weight(w, v as u32));
                    }
                }
                best.min(f64::from_bits(prev[v])).to_bits()
            });
            (dist, iters)
        }
        Algorithm::PageRank => {
            let n = g.num_vertices();
            let mut rank = vec![1.0 / n as f64; n];
            let mut iters = Vec::new();
            for _ in 0..10 {
                let dangling: f64 = (0..n)
                    .filter(|&v| g.out_degree(v) == 0)
                    .map(|v| rank[v])
                    .sum();
                let next = sweep(g, &rank, move |g, v, prev: &[f64]| {
                    let d = 0.85;
                    let nf = g.num_vertices() as f64;
                    let mut r = (1.0 - d) / nf + d * dangling / nf;
                    for &w in g.in_neighbors(v) {
                        r += d * prev[w as usize] / g.out_degree(w as usize) as f64;
                    }
                    r
                });
                iters.push(active_work(g, None));
                rank = next;
            }
            // Quantize to make cross-platform digests robust to float
            // summation order (parallel chunks sum in the same order here,
            // but quantizing documents the contract).
            (
                rank.iter().map(|r| (r * 1e12).round() as u64).collect(),
                iters,
            )
        }
        Algorithm::Cdlp => {
            let init: Vec<u32> = (0..g.num_vertices() as u32).collect();
            let mut labels = init;
            let mut iters = Vec::new();
            for _ in 0..5 {
                let next = sweep(g, &labels, |g, v, prev: &[u32]| {
                    let mut counts: std::collections::BTreeMap<u32, usize> = Default::default();
                    for &w in g.in_neighbors(v).iter().chain(g.out_neighbors(v)) {
                        *counts.entry(prev[w as usize]).or_insert(0) += 1;
                    }
                    counts
                        .iter()
                        .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                        .map(|(&l, _)| l)
                        .unwrap_or(prev[v])
                });
                iters.push(active_work(g, None));
                labels = next;
            }
            (labels.into_iter().map(u64::from).collect(), iters)
        }
        Algorithm::Lcc => {
            let coeffs = algorithms::lcc(g);
            // One heavy phase: work = sum over vertices of deg^2 pair scans.
            let work: u64 = (0..g.num_vertices())
                .map(|v| {
                    let d = (g.out_degree(v) + g.in_neighbors(v).len()) as u64;
                    d * d / 2 + 1
                })
                .sum();
            (
                coeffs.iter().map(|c| (c * 1e12).round() as u64).collect(),
                vec![work],
            )
        }
    }
}

/// Work of a full sweep (`None`) or of an active subset.
fn active_work(g: &Csr, active: Option<&[usize]>) -> u64 {
    match active {
        None => (g.num_vertices() + g.num_edges()) as u64,
        Some(vs) => vs
            .iter()
            .map(|&v| 1 + g.out_degree(v) as u64 + g.in_neighbors(v).len() as u64)
            .sum(),
    }
}

/// Synchronous fixed-point iteration from a uniform initial state.
fn jacobi<T, F>(g: &Csr, init: T, update: F) -> (Vec<T>, Vec<u64>)
where
    T: Copy + PartialEq,
    F: Fn(&Csr, usize, &[T]) -> T,
{
    jacobi_init(g, vec![init; g.num_vertices()], update)
}

/// Synchronous fixed-point iteration from an explicit initial state.
///
/// Iterates full sweeps until no state changes. Per-iteration *active
/// work* (what a delta-optimized engine would pay) is tracked from the
/// previous iteration's changed set.
fn jacobi_init<T, F>(g: &Csr, init: Vec<T>, update: F) -> (Vec<T>, Vec<u64>)
where
    T: Copy + PartialEq,
    F: Fn(&Csr, usize, &[T]) -> T,
{
    let n = g.num_vertices();
    let mut state = init;
    let mut iters = Vec::new();
    // Initially every vertex is active.
    let mut active: Vec<usize> = (0..n).collect();
    loop {
        let next = sweep(g, &state, &update);
        let changed: Vec<usize> = (0..n).filter(|&v| next[v] != state[v]).collect();
        iters.push(active_work(g, Some(&active)));
        state = next;
        if changed.is_empty() {
            break;
        }
        // Next iteration's active set: neighbors of changed vertices.
        let mut next_active: Vec<bool> = vec![false; n];
        for &v in &changed {
            next_active[v] = true;
            for &w in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
                next_active[w as usize] = true;
            }
        }
        active = (0..n).filter(|&v| next_active[v]).collect();
    }
    (state, iters)
}

/// One synchronous sweep: computes the next state for every vertex.
/// Every platform computes the same states; they differ only in the
/// cost [`run`] charges for the sweep.
fn sweep<T, F>(g: &Csr, prev: &[T], update: F) -> Vec<T>
where
    F: Fn(&Csr, usize, &[T]) -> T,
{
    (0..g.num_vertices()).map(|v| update(g, v, prev)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms;
    use crate::generators::{grid, preferential_attachment, Dataset};

    #[test]
    fn platforms_agree_on_every_algorithm() {
        let g = preferential_attachment(600, 3, 4);
        for alg in Algorithm::all() {
            let reference = run(Platform::Sequential, alg, &g, None).digest;
            for p in [
                Platform::Parallel { threads: 4 },
                Platform::EdgeCentric,
                Platform::Accelerator,
            ] {
                let d = run(p, alg, &g, None).digest;
                assert_eq!(d, reference, "{p} disagrees on {alg}");
            }
        }
    }

    #[test]
    fn bfs_digest_matches_direct_implementation() {
        let g = grid(12);
        let cost = run(Platform::Sequential, Algorithm::Bfs, &g, None);
        let direct = algorithms::bfs_levels(&g, 0);
        let expected: Vec<u64> = direct
            .iter()
            .map(|l| l.map_or(u64::from(u32::MAX), u64::from))
            .collect();
        assert_eq!(cost.digest, expected);
    }

    #[test]
    fn wcc_digest_matches_direct_implementation() {
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (4, 5)], false);
        let cost = run(Platform::Sequential, Algorithm::Wcc, &g, None);
        let direct: Vec<u64> = algorithms::wcc(&g).into_iter().map(u64::from).collect();
        assert_eq!(cost.digest, direct);
    }

    #[test]
    fn sssp_digest_matches_dijkstra() {
        let g = grid(10);
        let cost = run(Platform::Sequential, Algorithm::Sssp, &g, None);
        let direct = algorithms::sssp(&g, 0);
        for (got_bits, want) in cost.digest.iter().zip(direct) {
            let got = f64::from_bits(*got_bits);
            match want {
                Some(d) => assert!((got - d).abs() < 1e-9, "{got} vs {d}"),
                None => assert!(got.is_infinite()),
            }
        }
    }

    #[test]
    fn grid_bfs_needs_many_iterations_powerlaw_few() {
        let grid_g = grid(24);
        let pl = preferential_attachment(576, 4, 7);
        let gi = run(Platform::Sequential, Algorithm::Bfs, &grid_g, None).iterations;
        let pi = run(Platform::Sequential, Algorithm::Bfs, &pl, None).iterations;
        assert!(
            gi > 4 * pi,
            "grid iterations {gi} should dwarf power-law {pi}"
        );
    }

    #[test]
    fn accelerator_wins_pagerank_loses_grid_bfs() {
        // The HPAD crossover: few heavy iterations favor the accelerator;
        // many cheap iterations drown in offload overhead.
        let pl = Dataset::PowerLaw.generate(10_000, 5);
        let grid_g = Dataset::Grid.generate(10_000, 5);
        let accel_pr = run(Platform::Accelerator, Algorithm::PageRank, &pl, None).critical_path;
        let seq_pr = run(Platform::Sequential, Algorithm::PageRank, &pl, None).critical_path;
        assert!(accel_pr < seq_pr, "accel PR {accel_pr} vs seq {seq_pr}");
        let accel_bfs = run(Platform::Accelerator, Algorithm::Bfs, &grid_g, None).critical_path;
        let seq_bfs = run(Platform::Sequential, Algorithm::Bfs, &grid_g, None).critical_path;
        assert!(
            accel_bfs > seq_bfs,
            "accel grid BFS {accel_bfs} should lose to sequential {seq_bfs}"
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_records_profile() {
        let g = grid(10);
        let rec = atlarge_telemetry::Recorder::new();
        let traced = run(Platform::Sequential, Algorithm::Wcc, &g, Some(&rec));
        let plain = run(Platform::Sequential, Algorithm::Wcc, &g, None);
        assert_eq!(traced.digest, plain.digest);
        assert!((traced.critical_path - plain.critical_path).abs() < 1e-9);
        assert_eq!(
            rec.counter("graph.iterations"),
            u64::from(traced.iterations)
        );
        assert_eq!(rec.counter("graph.work"), traced.work);
        let stats = rec.span_stats();
        assert_eq!(stats["sequential/job"].entries, 1);
        assert_eq!(
            rec.tally("graph.iter_cost").unwrap().len() as u32,
            traced.iterations
        );
        assert_eq!(rec.manifest().model, "graph.platform");
    }

    #[test]
    fn per_iteration_records_sum_to_totals() {
        let g = grid(10);
        let c = run(Platform::Parallel { threads: 4 }, Algorithm::Wcc, &g, None);
        let work: u64 = c.per_iteration.iter().map(|r| r.work).sum();
        let cp: f64 = c.per_iteration.iter().map(|r| r.critical_path).sum();
        assert_eq!(work, c.work);
        assert!((cp - c.critical_path).abs() < 1e-9);
        assert_eq!(c.per_iteration.len() as u32, c.iterations);
    }
}
