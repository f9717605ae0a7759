//! The campaign engine: factor grid × replication plan × executor.
//!
//! A [`Campaign`] declares *what* to sweep (a [`FactorGrid`]), *how
//! often* (a replication count under a [`SeedMode`]), and *how wide*
//! (a thread count); [`Campaign::run`] executes every `(cell,
//! replication)` job — serially, or claimed in turn by one worker per
//! core — and aggregates into a [`CampaignResult`] whose content is
//! **independent of the execution schedule**: seeds are pure functions
//! of position, outcomes land in canonical cell order, and the stamped
//! [`RunManifest`] ignores only wall-clock time. Rendering a result
//! twice therefore yields byte-identical text whether it was computed
//! on one thread or sixteen.

use crate::cancel::CancelToken;
use crate::executor::run_indexed_cancellable;
use crate::grid::{CellSpec, FactorGrid};
use crate::seed::derive_seed;
use atlarge_stats::descriptive::Summary;
use atlarge_stats::factorial;
use atlarge_telemetry::export::{json_f64, json_object, json_str};
use atlarge_telemetry::manifest::{config_digest, RunManifest, MANIFEST_SCHEMA};
use atlarge_telemetry::wall::Stopwatch;
use std::io::{self, Write};

/// Environment variable overriding the campaign thread count.
pub(crate) const THREADS_ENV: &str = "ATLARGE_EXP_THREADS";

/// How run seeds derive from the root seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedMode {
    /// Every `(cell, replication)` job gets an independent stream —
    /// the default, correct for comparing *distributions* across cells.
    #[default]
    Independent,
    /// Replication `r` uses the same seed in **every** cell — common
    /// random numbers, the classic variance-reduction design for paired
    /// comparisons across cells (same workload, different treatment).
    CommonRandomNumbers,
}

/// A declared experiment campaign: a factor grid, a replication plan,
/// and the run function every `(cell, replication)` job calls.
///
/// The run function is the experiment: a pure function from a cell's
/// config and a derived seed to an outcome. Determinism is the
/// contract — the same config and seed must produce the same outcome on
/// any thread, which is what lets the engine guarantee byte-identical
/// results between serial and parallel execution. The engine shares one
/// run function across worker threads, so it is `Sync`, and all
/// run-specific state belongs in the config or inside the call.
///
/// # Examples
///
/// ```
/// use atlarge_exp::Campaign;
///
/// let result = Campaign::new("doubling", |x: &f64, _seed| x * 2.0)
///     .factor("x", ["1", "2"])
///     .run(|cell| cell.level("x").parse().unwrap());
/// assert_eq!(*result.cells[1].first(), 4.0);
/// ```
pub struct Campaign<F> {
    name: String,
    run: F,
    grid: FactorGrid,
    replications: usize,
    root_seed: u64,
    threads: Option<usize>,
    seed_mode: SeedMode,
}

impl<F> Campaign<F> {
    /// Starts a campaign named `name` (the manifest's model string)
    /// over `run`, with an empty grid, one replication, root seed 0,
    /// and automatic thread selection.
    pub fn new<C, O>(name: impl Into<String>, run: F) -> Self
    where
        F: Fn(&C, u64) -> O + Sync,
    {
        Campaign {
            name: name.into(),
            run,
            grid: FactorGrid::new(),
            replications: 1,
            root_seed: 0,
            threads: None,
            seed_mode: SeedMode::Independent,
        }
    }

    /// Adds one factor (see [`FactorGrid::factor`]).
    pub fn factor<I, L>(mut self, name: &str, levels: I) -> Self
    where
        I: IntoIterator<Item = L>,
        L: Into<String>,
    {
        self.grid = self.grid.factor(name, levels);
        self
    }

    /// Sets the replication count per cell (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`.
    pub fn replications(mut self, r: usize) -> Self {
        assert!(r > 0, "a campaign needs at least one replication");
        self.replications = r;
        self
    }

    /// Sets the root seed all run seeds derive from (default 0).
    pub fn root_seed(mut self, seed: u64) -> Self {
        self.root_seed = seed;
        self
    }

    /// Sets the seed-derivation mode (default [`SeedMode::Independent`]).
    pub fn seed_mode(mut self, mode: SeedMode) -> Self {
        self.seed_mode = mode;
        self
    }

    /// Pins the worker-thread count. Without this, the
    /// `ATLARGE_EXP_THREADS` environment variable decides, and failing
    /// that the machine's available parallelism.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    fn resolve_threads(&self) -> usize {
        if let Some(t) = self.threads {
            return t;
        }
        if let Ok(v) = std::env::var(THREADS_ENV) {
            if let Ok(t) = v.trim().parse::<usize>() {
                return t.max(1);
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// The seed of `(cell, replication)` under the campaign's mode.
    pub(crate) fn seed_of(&self, cell: usize, replication: usize) -> u64 {
        match self.seed_mode {
            SeedMode::Independent => derive_seed(self.root_seed, cell as u64, replication as u64),
            SeedMode::CommonRandomNumbers => derive_seed(self.root_seed, 0, replication as u64),
        }
    }

    /// Executes the campaign: builds every cell's config through
    /// `configure`, fans the `cells × replications` jobs out across the
    /// resolved thread count, and aggregates in canonical order.
    ///
    /// The result is identical (modulo wall-clock) for any thread
    /// count, provided the run function honors its determinism contract.
    pub fn run<C, O, G>(self, configure: G) -> CampaignResult<C, O>
    where
        F: Fn(&C, u64) -> O + Sync,
        G: Fn(&CellSpec) -> C,
        C: Sync,
        O: Send,
    {
        self.run_cancellable(configure, &CancelToken::new())
            .expect("a fresh token is never cancelled")
    }

    /// [`Campaign::run`] with cooperative cancellation: workers poll
    /// `cancel` between `(cell, replication)` jobs and stop at the next
    /// boundary once it fires. Returns `None` when cancelled — never a
    /// partial result, so a completed campaign remains byte-identical
    /// to any other completion of the same declaration.
    pub(crate) fn run_cancellable<C, O, G>(
        self,
        configure: G,
        cancel: &CancelToken,
    ) -> Option<CampaignResult<C, O>>
    where
        F: Fn(&C, u64) -> O + Sync,
        G: Fn(&CellSpec) -> C,
        C: Sync,
        O: Send,
    {
        // Wall time is report-only (excluded from result equality); it is
        // read through the telemetry boundary, never `Instant` directly.
        let started = Stopwatch::start();
        let threads = self.resolve_threads();
        let cells: Vec<CellSpec> = self.grid.cells().collect();
        let configs: Vec<C> = cells.iter().map(&configure).collect();
        let reps = self.replications;
        let jobs = cells.len() * reps;

        let run = &self.run;
        let outcomes: Vec<O> = run_indexed_cancellable(jobs, threads, cancel, |j| {
            let (cell, rep) = (j / reps, j % reps);
            run(&configs[cell], self.seed_of(cell, rep))
        })?;

        let mut cell_results: Vec<CellResult<C, O>> = cells
            .into_iter()
            .zip(configs)
            .map(|(spec, config)| CellResult {
                spec,
                config,
                runs: Vec::with_capacity(reps),
            })
            .collect();
        for (j, outcome) in outcomes.into_iter().enumerate() {
            let (cell, rep) = (j / reps, j % reps);
            cell_results[cell].runs.push(CellRun {
                seed: self.seed_of(cell, rep),
                outcome,
            });
        }
        Some(CampaignResult {
            name: self.name,
            root_seed: self.root_seed,
            replications: reps,
            seed_mode: self.seed_mode,
            grid: self.grid,
            cells: cell_results,
            wall_ms: started.elapsed_ms(),
        })
    }
}

/// One replication's seed and outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRun<O> {
    /// The derived seed this run used.
    pub seed: u64,
    /// What the run function returned.
    pub outcome: O,
}

/// All replications of one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult<C, O> {
    /// Which cell this is.
    pub spec: CellSpec,
    /// The config the configure closure built for it.
    pub config: C,
    /// One entry per replication, in replication order.
    pub runs: Vec<CellRun<O>>,
}

impl<C, O> CellResult<C, O> {
    /// The first replication's outcome (the single-run view).
    pub fn first(&self) -> &O {
        &self.runs[0].outcome
    }

    /// Iterates outcomes in replication order.
    pub(crate) fn outcomes(&self) -> impl Iterator<Item = &O> {
        self.runs.iter().map(|r| &r.outcome)
    }

    /// Summarizes `metric` over this cell's replications.
    pub fn summarize(&self, metric: impl Fn(&O) -> f64) -> Summary {
        Summary::from_iter(self.outcomes().map(metric))
    }
}

/// A named metric extractor: the metric's name plus the function that
/// reads it off an outcome. [`CampaignResult::write_metrics_jsonl`]
/// takes a slice of these.
pub type NamedMetric<'a, O> = (&'a str, &'a dyn Fn(&O) -> f64);

/// Everything a campaign produced, in canonical cell order.
#[derive(Debug, Clone)]
pub struct CampaignResult<C, O> {
    /// Campaign name (the manifest model).
    pub name: String,
    /// Root seed all run seeds derived from.
    pub root_seed: u64,
    /// Replications per cell.
    pub replications: usize,
    /// How seeds derived.
    pub seed_mode: SeedMode,
    /// The declared grid.
    pub grid: FactorGrid,
    /// Per-cell results.
    pub cells: Vec<CellResult<C, O>>,
    /// Wall-clock duration of the run, milliseconds. Excluded from
    /// equality — two byte-identical campaigns differ only here.
    pub wall_ms: f64,
}

/// Equality ignores wall-clock time: serial and parallel executions of
/// the same campaign compare equal.
impl<C: PartialEq, O: PartialEq> PartialEq for CampaignResult<C, O> {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.root_seed == other.root_seed
            && self.replications == other.replications
            && self.seed_mode == other.seed_mode
            && self.grid == other.grid
            && self.cells == other.cells
    }
}

/// One cell's aggregated metric: the table-row view of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// The cell's display label.
    pub label: String,
    /// Replication summary of the metric.
    pub summary: Summary,
}

impl CellSummary {
    /// `mean ± ci95` rendering (mean alone when n = 1).
    pub fn display(&self) -> String {
        if self.summary.len() < 2 {
            format!("{:.3}", self.summary.mean())
        } else {
            format!(
                "{:.3} ±{:.3}",
                self.summary.mean(),
                self.summary.ci95_half_width()
            )
        }
    }
}

impl<C: std::fmt::Debug, O> CampaignResult<C, O> {
    /// First-replication outcome per cell, in cell order — the view the
    /// single-run table renderers consume.
    pub fn first_outcomes(&self) -> Vec<&O> {
        self.cells.iter().map(|c| c.first()).collect()
    }

    /// Total runs executed.
    pub fn total_runs(&self) -> usize {
        self.cells.iter().map(|c| c.runs.len()).sum()
    }

    /// Summarizes `metric` per cell (mean/CI/quantiles via
    /// `atlarge-stats`), in cell order.
    pub fn summarize(&self, metric: impl Fn(&O) -> f64) -> Vec<CellSummary> {
        self.cells
            .iter()
            .map(|c| CellSummary {
                label: c.spec.label(),
                summary: c.summarize(&metric),
            })
            .collect()
    }

    /// Converts a three-factor campaign into `atlarge-stats` factorial
    /// cells (factor order a, b, c = declaration order; response = the
    /// per-cell replication mean of `metric`), ready for
    /// [`factorial::decompose`].
    ///
    /// # Panics
    ///
    /// Panics unless the grid declares exactly three factors.
    pub fn to_factorial_cells(&self, metric: impl Fn(&O) -> f64) -> Vec<factorial::Cell> {
        assert_eq!(
            self.grid.factors().len(),
            3,
            "factorial decomposition needs exactly three factors"
        );
        self.cells
            .iter()
            .map(|c| {
                let levels = c.spec.levels();
                factorial::Cell {
                    a: levels[0].1.clone(),
                    b: levels[1].1.clone(),
                    c: levels[2].1.clone(),
                    y: c.summarize(&metric).mean(),
                }
            })
            .collect()
    }

    /// The campaign's reproducibility receipt. Covers the grid, the
    /// replication plan, the seed mode, and every cell config;
    /// `same_run_as` holds between a serial and a parallel execution of
    /// the same campaign, and breaks when any declared input changes.
    pub fn manifest(&self) -> RunManifest {
        let configs: Vec<&C> = self.cells.iter().map(|c| &c.config).collect();
        RunManifest {
            schema: MANIFEST_SCHEMA,
            model: self.name.clone(),
            seed: self.root_seed,
            config_digest: config_digest(&(&self.grid, self.replications, self.seed_mode, configs)),
            events_scheduled: (self.grid.len() * self.replications) as u64,
            events_dispatched: self.total_runs() as u64,
            sim_time: 0.0,
            trace_records: self.cells.len() as u64,
            trace_dropped: 0,
            wall_ms: self.wall_ms,
        }
    }

    /// Writes the campaign as metrics JSONL: one line per cell per
    /// metric with `mean`, `ci95`, `p50`, `min`, `max`, and `n` fields,
    /// closed by the campaign manifest line — the exact shape
    /// `atlarge-obsv`'s `diff` ingests, so campaign-level regressions
    /// gate the same way single-run ones do.
    pub fn write_metrics_jsonl<W: Write>(
        &self,
        w: &mut W,
        metrics: &[NamedMetric<'_, O>],
    ) -> io::Result<()> {
        for cell in &self.cells {
            for (name, metric) in metrics {
                let s = cell.summarize(metric);
                let line = json_object(&[
                    ("kind", json_str("campaign_cell")),
                    (
                        "name",
                        json_str(&format!("{}/{}.{}", self.name, cell.spec.label(), name)),
                    ),
                    ("mean", json_f64(s.mean())),
                    ("ci95", json_f64(s.ci95_half_width())),
                    ("p50", json_f64(s.median())),
                    ("min", json_f64(if s.is_empty() { 0.0 } else { s.min() })),
                    ("max", json_f64(if s.is_empty() { 0.0 } else { s.max() })),
                    ("n", s.len().to_string()),
                ]);
                writeln!(w, "{line}")?;
            }
        }
        writeln!(w, "{}", self.manifest().to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic but seed-sensitive toy run function.
    fn mixer(config: &u64, seed: u64) -> u64 {
        crate::seed::splitmix64_mix(config ^ seed)
    }

    fn campaign(threads: usize) -> CampaignResult<u64, u64> {
        Campaign::new("test.mixer", mixer)
            .factor("a", ["0", "1", "2"])
            .factor("b", ["0", "1"])
            .replications(3)
            .root_seed(99)
            .threads(threads)
            .run(|c| {
                c.level("a").parse::<u64>().unwrap() * 10 + c.level("b").parse::<u64>().unwrap()
            })
    }

    #[test]
    fn serial_equals_parallel() {
        let serial = campaign(1);
        let parallel = campaign(4);
        assert_eq!(serial, parallel);
        assert!(serial.manifest().same_run_as(&parallel.manifest()));
        assert_eq!(
            serial.manifest().fingerprint(),
            parallel.manifest().fingerprint()
        );
    }

    #[test]
    fn result_shape_is_canonical() {
        let r = campaign(2);
        assert_eq!(r.cells.len(), 6);
        assert_eq!(r.total_runs(), 18);
        assert_eq!(r.cells[0].spec.label(), "a=0,b=0");
        assert_eq!(r.cells[5].spec.label(), "a=2,b=1");
        for cell in &r.cells {
            assert_eq!(cell.runs.len(), 3);
        }
    }

    #[test]
    fn seeds_are_unique_under_independent_mode() {
        let r = campaign(1);
        let seeds: std::collections::BTreeSet<u64> = r
            .cells
            .iter()
            .flat_map(|c| c.runs.iter().map(|run| run.seed))
            .collect();
        assert_eq!(seeds.len(), 18);
    }

    #[test]
    fn common_random_numbers_share_seeds_across_cells() {
        let r = Campaign::new("crn", mixer)
            .factor("x", ["a", "b", "c"])
            .replications(2)
            .root_seed(5)
            .seed_mode(SeedMode::CommonRandomNumbers)
            .threads(1)
            .run(|_| 1);
        for rep in 0..2 {
            let seeds: std::collections::BTreeSet<u64> =
                r.cells.iter().map(|c| c.runs[rep].seed).collect();
            assert_eq!(seeds.len(), 1, "replication {rep} must share one seed");
        }
        assert_ne!(r.cells[0].runs[0].seed, r.cells[0].runs[1].seed);
    }

    #[test]
    fn summaries_and_factorial_interop() {
        let r = Campaign::new("fact", mixer)
            .factor("a", ["p", "q"])
            .factor("b", ["x", "y"])
            .factor("c", ["1", "2"])
            .replications(2)
            .root_seed(1)
            .threads(1)
            .run(|c| c.index as u64);
        let sums = r.summarize(|&o| o as f64 % 1000.0);
        assert_eq!(sums.len(), 8);
        assert!(sums.iter().all(|s| s.summary.len() == 2));
        let cells = r.to_factorial_cells(|&o| (o % 17) as f64);
        let d = factorial::decompose(&cells);
        assert!(d.ss_total >= 0.0);
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].a, "p");
        assert_eq!(cells[7].c, "2");
    }

    #[test]
    fn manifest_tracks_declared_inputs() {
        let a = campaign(1).manifest();
        let mut differently_seeded = Campaign::new("test.mixer", mixer)
            .factor("a", ["0", "1", "2"])
            .factor("b", ["0", "1"])
            .replications(3)
            .root_seed(100)
            .threads(1)
            .run(|c| {
                c.level("a").parse::<u64>().unwrap() * 10 + c.level("b").parse::<u64>().unwrap()
            })
            .manifest();
        assert!(!a.same_run_as(&differently_seeded));
        differently_seeded.seed = 99;
        // Still different: outcomes changed nothing (manifest covers
        // inputs), so only the seed field differed.
        assert!(a.same_run_as(&differently_seeded));
    }

    #[test]
    fn metrics_jsonl_ends_with_manifest() {
        let r = campaign(1);
        let mut buf = Vec::new();
        let value: &dyn Fn(&u64) -> f64 = &|&o| (o % 97) as f64;
        r.write_metrics_jsonl(&mut buf, &[("value", value)])
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6 + 1);
        assert!(lines[0].contains("\"kind\":\"campaign_cell\""));
        assert!(lines[0].contains("test.mixer/a=0,b=0.value"));
        assert!(lines.last().unwrap().contains("\"kind\":\"manifest\""));
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_panics() {
        let _ = Campaign::new("z", mixer).replications(0);
    }

    #[test]
    fn cancelled_campaign_yields_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let r = Campaign::new("c", mixer)
            .factor("x", ["a", "b"])
            .replications(4)
            .threads(1)
            .run_cancellable(|c| c.index as u64, &token);
        assert!(r.is_none());
    }

    #[test]
    fn uncancelled_campaign_equals_plain_run() {
        let configure = |c: &CellSpec| c.index as u64;
        let build = || {
            Campaign::new("c", mixer)
                .factor("x", ["a", "b", "c"])
                .replications(3)
                .root_seed(7)
                .threads(2)
        };
        let plain = build().run(configure);
        let cancellable = build()
            .run_cancellable(configure, &CancelToken::new())
            .expect("token never fired");
        assert_eq!(plain, cancellable);
    }
}
