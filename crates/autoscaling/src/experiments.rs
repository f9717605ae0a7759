//! The §6.7 experiment campaign: autoscalers × workloads, ranked and
//! graded.
//!
//! \[126\] ran N=5 experiments and designed "two ranking methods to
//! aggregate the results into head-to-head comparisons"; \[127\] added cost,
//! SLAs, and "a method to grade autoscalers, by combining their scores
//! judiciously"; \[128\] redid the campaign in simulation and stressed
//! *independent corroboration*. This module runs the in-silico campaign
//! across the roster and workload shapes, computes the twelve metrics per
//! cell, and aggregates with head-to-head, Borda, and weighted grading.

use crate::cost::{BillingModel, DeadlineSla};
use crate::evolve::evolving_scaler;
use crate::metrics::ElasticityReport;
use crate::sim::{run, AutoscaleConfig};
use atlarge_evolve::SwapPlan;
use atlarge_exp::registry::{parse_param, run_replicated, CellOutput, CellScenario, ParamSpec};
use atlarge_exp::{Campaign, CampaignResult, CancelToken, SeedMode};
use atlarge_stats::descriptive::Summary;
use atlarge_stats::ranking::{Direction, ScoreTable};
use atlarge_telemetry::tracer::Tracer;
use atlarge_workload::arrivals::{ArrivalProcess, Bursty, Poisson};
use atlarge_workload::workflow::{generate, Shape, Workflow};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The workload shapes of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkflowWorkload {
    /// Steady Poisson arrivals of fork-join workflows.
    Steady,
    /// Bursty arrivals (the autoscaler stress case).
    Bursty,
    /// Long chains (little parallelism; scaling barely helps).
    Chains,
    /// Wide layered DAGs (high parallelism; scaling matters).
    Wide,
}

impl WorkflowWorkload {
    /// All campaign workloads.
    pub fn all() -> [WorkflowWorkload; 4] {
        [
            WorkflowWorkload::Steady,
            WorkflowWorkload::Bursty,
            WorkflowWorkload::Chains,
            WorkflowWorkload::Wide,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkflowWorkload::Steady => "steady",
            WorkflowWorkload::Bursty => "bursty",
            WorkflowWorkload::Chains => "chains",
            WorkflowWorkload::Wide => "wide",
        }
    }

    /// Generates the workload's workflows over `horizon` seconds.
    pub fn generate(&self, horizon: f64, seed: u64) -> Vec<Workflow> {
        let mut rng = StdRng::seed_from_u64(seed);
        let arrivals = match self {
            WorkflowWorkload::Bursty => Bursty::new(0.05, 0.004, horizon / 20.0, horizon / 8.0)
                .generate(&mut rng, 0.0, horizon),
            _ => Poisson::new(0.01).generate(&mut rng, 0.0, horizon),
        };
        arrivals
            .into_iter()
            .map(|t| {
                let shape = match self {
                    WorkflowWorkload::Chains => Shape::Chain(8),
                    WorkflowWorkload::Wide => Shape::Layered {
                        layers: 3,
                        width: 8,
                    },
                    _ => Shape::ForkJoin(6),
                };
                generate(&mut rng, shape, 40.0, 0.5, t)
            })
            .collect()
    }
}

/// One cell of the campaign: an autoscaler on a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Autoscaler name.
    pub scaler: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// The twelve metrics.
    pub report: ElasticityReport,
    /// Hard-SLA violations (slack 2.0).
    pub sla_violations: usize,
    /// Workflows completed.
    pub completed: usize,
}

/// Number of autoscalers in the campaign roster.
pub(crate) const ROSTER_SIZE: usize = 7;

/// Roster names, each resolvable by
/// [`scaler_by_name`](crate::evolve::scaler_by_name).
pub(crate) const ROSTER_NAMES: [&str; ROSTER_SIZE] =
    ["react", "adapt", "hist", "reg", "peak", "plan", "token"];

/// One campaign cell's config: the workload/autoscaler pairing, plus an
/// optional live-evolution swap plan executed against the scaler.
#[derive(Debug, Clone)]
pub struct AutoscaleSpec {
    /// Workload shape.
    pub workload: WorkflowWorkload,
    /// Index into the scaler roster.
    pub scaler_idx: usize,
    /// Live swaps to execute mid-run (empty = never swap).
    pub swap: SwapPlan,
}

/// One §6.7 run: one autoscaler on one workload, or an error naming
/// `horizon` when the workload draws no workflow to scale for (short
/// horizons at some seeds). The served cell answers that error as a
/// query error; the campaigns call it through [`campaign_run`].
fn try_run(horizon: f64, spec: &AutoscaleSpec, seed: u64) -> Result<CampaignCell, String> {
    let billing = BillingModel::PerSecond { rate: 0.5 };
    let sla = DeadlineSla::Hard { slack: 2.0 };
    let workflows = spec.workload.generate(horizon, seed);
    if workflows.is_empty() {
        return Err(format!(
            "parameter 'horizon': {horizon} s is too short, a replication drew no {} workflow",
            spec.workload.name()
        ));
    }
    let name = ROSTER_NAMES[spec.scaler_idx];
    // The roster builds a fresh scaler per run, so stateful scalers
    // start clean.
    let scaler = evolving_scaler(name, spec.swap.clone())
        .expect("roster names and swap plans are checked before the campaign");
    let result = run(workflows, scaler, AutoscaleConfig::default(), seed, None);
    let to = result.end_time.max(1.0);
    let cost = billing.cost(&result.supply, 0.0, to);
    let report = ElasticityReport::compute(
        &result.demand,
        &result.supply,
        0.0,
        to,
        result.mean_response(),
        cost,
    );
    Ok(CampaignCell {
        scaler: name,
        workload: spec.workload.name(),
        report,
        sla_violations: sla.violations(&result.workflows),
        completed: result.workflows.len(),
    })
}

/// [`try_run`] as a campaign runs it: a run that draws no workflow
/// panics. The campaigns run in common-random-numbers mode, so every
/// scaler of a replication faces the identical workflow set — the
/// rankings compare *when* workflows finish, never *whether*.
fn campaign_run(horizon: f64) -> impl Fn(&AutoscaleSpec, u64) -> CampaignCell + Sync {
    move |spec: &AutoscaleSpec, seed: u64| {
        try_run(horizon, spec, seed).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Runs the §6.7 campaign through the engine: workload × autoscaler
/// grid, common random numbers within each replication.
pub(crate) fn campaign_result(
    horizon: f64,
    seed: u64,
    replications: usize,
) -> CampaignResult<AutoscaleSpec, CampaignCell> {
    Campaign::new("autoscaling.campaign", campaign_run(horizon))
        .factor("workload", WorkflowWorkload::all().map(|w| w.name()))
        .factor("scaler", ROSTER_NAMES)
        .replications(replications)
        .root_seed(seed)
        .seed_mode(SeedMode::CommonRandomNumbers)
        .run(|cell| {
            let workload = WorkflowWorkload::all()
                .into_iter()
                .find(|w| w.name() == cell.level("workload"))
                .expect("grid levels come from WorkflowWorkload::all");
            let scaler_idx = ROSTER_NAMES
                .iter()
                .position(|n| *n == cell.level("scaler"))
                .expect("grid levels come from ROSTER_NAMES");
            AutoscaleSpec {
                workload,
                scaler_idx,
                swap: SwapPlan::none(),
            }
        })
}

/// The live-evolution A/B campaign: for every workload, the `initial`
/// autoscaler running unchanged (`swap = none`) faces itself with
/// `swap_spec` executing live — in common-random-numbers mode, so both
/// arms of a replication see the identical workflow set and any outcome
/// delta is caused by the swap alone.
///
/// `swap_spec` uses the [`SwapPlan::parse`] grammar, e.g.
/// `"token@peak12"` (switch to Token when demand first exceeds 12) or
/// `"hist@600+token@1800"`.
pub fn ab_campaign_result(
    horizon: f64,
    seed: u64,
    replications: usize,
    initial: &str,
    swap_spec: &str,
) -> Result<CampaignResult<AutoscaleSpec, CampaignCell>, String> {
    let scaler_idx = ROSTER_NAMES
        .iter()
        .position(|n| *n == initial)
        .ok_or_else(|| format!("unknown autoscaler '{initial}'"))?;
    let plan = SwapPlan::parse(swap_spec)?;
    if plan.is_empty() {
        return Err("the A/B campaign needs at least one swap in the plan".to_string());
    }
    // Validates every successor name before any cell runs.
    evolving_scaler(initial, plan.clone())?;
    Ok(
        Campaign::new("autoscaling.evolution", campaign_run(horizon))
            .factor("workload", WorkflowWorkload::all().map(|w| w.name()))
            .factor("swap", ["none".to_string(), plan.canonical()])
            .replications(replications)
            .root_seed(seed)
            .seed_mode(SeedMode::CommonRandomNumbers)
            .run(move |cell| {
                let workload = WorkflowWorkload::all()
                    .into_iter()
                    .find(|w| w.name() == cell.level("workload"))
                    .expect("grid levels come from WorkflowWorkload::all");
                let swap = if cell.level("swap") == "none" {
                    SwapPlan::none()
                } else {
                    plan.clone()
                };
                AutoscaleSpec {
                    workload,
                    scaler_idx,
                    swap,
                }
            }),
    )
}

/// Runs the full campaign at the given horizon. Returns one cell per
/// (autoscaler, workload), the single-replication view of
/// `campaign_result`.
pub fn campaign(horizon: f64, seed: u64) -> Vec<CampaignCell> {
    campaign_result(horizon, seed, 1)
        .first_outcomes()
        .into_iter()
        .cloned()
        .collect()
}

/// Builds the §6.7 score table over campaign cells: metrics averaged per
/// autoscaler across workloads.
pub(crate) fn score_table(cells: &[CampaignCell]) -> ScoreTable {
    let mut table = ScoreTable::new();
    let names = ElasticityReport::metric_names();
    for (i, name) in names.iter().enumerate() {
        let dir = if ElasticityReport::lower_is_better(i) {
            Direction::LowerIsBetter
        } else {
            Direction::HigherIsBetter
        };
        table.add_metric(name, dir);
    }
    // Average each metric per scaler across workloads.
    let mut sums: BTreeMap<&str, (Vec<f64>, usize)> = BTreeMap::new();
    for c in cells {
        let e = sums
            .entry(c.scaler)
            .or_insert_with(|| (vec![0.0; names.len()], 0));
        for (i, v) in c.report.values().iter().enumerate() {
            e.0[i] += v;
        }
        e.1 += 1;
    }
    for (scaler, (vals, n)) in sums {
        for (i, name) in names.iter().enumerate() {
            table.record(scaler, name, vals[i] / n as f64);
        }
    }
    table
}

/// The grading weights of \[127\]: responsiveness metrics dominate, cost
/// and stability temper.
pub(crate) fn grading_weights() -> BTreeMap<String, f64> {
    let mut w = BTreeMap::new();
    w.insert("under_accuracy".to_string(), 3.0);
    w.insert("under_timeshare".to_string(), 3.0);
    w.insert("mean_response".to_string(), 2.0);
    w.insert("cost".to_string(), 2.0);
    w.insert("instability".to_string(), 1.0);
    w
}

/// The full §6.7 aggregation: `(head-to-head, borda, grades)` rankings.
#[allow(clippy::type_complexity)] // three parallel rankings, one call site
pub fn aggregate(
    cells: &[CampaignCell],
) -> (Vec<(String, usize)>, Vec<(String, f64)>, Vec<(String, f64)>) {
    let table = score_table(cells);
    (
        table.head_to_head(),
        table.borda_ranking(),
        table.weighted_grades(&grading_weights()),
    )
}

/// One autoscaler-on-workload pairing as a servable exploration query,
/// with the elasticity metrics the §6.7 campaign grades on.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutoscaleCell;

impl CellScenario for AutoscaleCell {
    fn domain(&self) -> &str {
        "autoscaling"
    }

    fn describe(&self) -> &str {
        "one autoscaler on one workflow workload, scored by elasticity metrics"
    }

    fn params(&self) -> Vec<ParamSpec> {
        let workloads: Vec<&str> = WorkflowWorkload::all().iter().map(|w| w.name()).collect();
        vec![
            ParamSpec::choice("workload", "workflow arrival/shape family", &workloads),
            ParamSpec::choice("scaler", "autoscaling policy", &ROSTER_NAMES),
            ParamSpec::optional("horizon", "simulated horizon in seconds", "4000"),
            ParamSpec::optional(
                "swap",
                "live-evolution plan: none, or +-separated NAME@TIME / NAME@peakDEMAND swaps",
                "none",
            ),
        ]
    }

    fn run_cell(
        &self,
        params: &BTreeMap<String, String>,
        seed: u64,
        replications: usize,
        cancel: &CancelToken,
        _tracer: &dyn Tracer,
    ) -> Result<CellOutput, String> {
        let workload = WorkflowWorkload::all()
            .into_iter()
            .find(|w| w.name() == params["workload"])
            .expect("choice validation");
        let scaler_idx = ROSTER_NAMES
            .iter()
            .position(|n| *n == params["scaler"])
            .expect("choice validation");
        let horizon: f64 = parse_param(params, "horizon")?;
        if !horizon.is_finite() || !(100.0..=1_000_000.0).contains(&horizon) {
            return Err(format!(
                "parameter 'horizon': {horizon} outside 100..=1000000"
            ));
        }
        let swap =
            SwapPlan::parse(&params["swap"]).map_err(|e| format!("parameter 'swap': {e}"))?;
        // Successor names must resolve before anything runs.
        evolving_scaler(&params["scaler"], swap.clone())
            .map_err(|e| format!("parameter 'swap': {e}"))?;
        let swap_note = if swap.is_empty() {
            "none".to_string()
        } else {
            swap.canonical()
        };
        let spec = AutoscaleSpec {
            workload,
            scaler_idx,
            swap,
        };
        let runs = run_replicated(seed, replications, cancel, |seed| {
            try_run(horizon, &spec, seed)
        })?
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        let summarize = |f: &dyn Fn(&CampaignCell) -> f64| Summary::from_iter(runs.iter().map(f));
        Ok(CellOutput {
            metrics: vec![
                (
                    "under_accuracy".to_string(),
                    summarize(&|c| c.report.under_accuracy),
                ),
                (
                    "over_accuracy".to_string(),
                    summarize(&|c| c.report.over_accuracy),
                ),
                (
                    "avg_utilization".to_string(),
                    summarize(&|c| c.report.avg_utilization),
                ),
                (
                    "instability".to_string(),
                    summarize(&|c| c.report.instability),
                ),
                (
                    "mean_response".to_string(),
                    summarize(&|c| c.report.mean_response),
                ),
                ("cost".to_string(), summarize(&|c| c.report.cost)),
                (
                    "sla_violations".to_string(),
                    summarize(&|c| c.sla_violations as f64),
                ),
                ("completed".to_string(), summarize(&|c| c.completed as f64)),
            ],
            notes: vec![
                ("scaler".to_string(), runs[0].scaler.to_string()),
                ("workload".to_string(), runs[0].workload.to_string()),
                ("swap".to_string(), swap_note),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> Vec<CampaignCell> {
        campaign(4_000.0, 13)
    }

    #[test]
    fn campaign_covers_roster_times_workloads() {
        let cs = cells();
        assert_eq!(cs.len(), ROSTER_SIZE * WorkflowWorkload::all().len());
        for c in &cs {
            assert!(
                c.completed > 0,
                "{}/{} completed nothing",
                c.scaler,
                c.workload
            );
        }
    }

    #[test]
    fn same_workload_same_completion_count() {
        // All autoscalers must finish the same workflow set — they differ
        // in when, not whether.
        let cs = cells();
        for wl in WorkflowWorkload::all() {
            let counts: std::collections::BTreeSet<usize> = cs
                .iter()
                .filter(|c| c.workload == wl.name())
                .map(|c| c.completed)
                .collect();
            assert_eq!(counts.len(), 1, "{}: {counts:?}", wl.name());
        }
    }

    #[test]
    fn over_provisioner_costs_more_than_tracker() {
        let cs = cells();
        let avg = |name: &str, f: fn(&ElasticityReport) -> f64| {
            let v: Vec<f64> = cs
                .iter()
                .filter(|c| c.scaler == name)
                .map(|c| f(&c.report))
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let peak_cost = avg("peak", |r| r.cost);
        let react_cost = avg("react", |r| r.cost);
        assert!(
            peak_cost > react_cost,
            "peak {peak_cost} should out-spend react {react_cost}"
        );
    }

    #[test]
    fn rankings_are_complete_and_consistent() {
        let cs = cells();
        let (h2h, borda, grades) = aggregate(&cs);
        assert_eq!(h2h.len(), ROSTER_SIZE);
        assert_eq!(borda.len(), ROSTER_SIZE);
        assert_eq!(grades.len(), ROSTER_SIZE);
        // Descending order.
        assert!(h2h.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(borda.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(grades.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn no_autoscaler_dominates_every_metric() {
        // The paper's persistent finding across scheduling and autoscaling:
        // nobody wins everything.
        let cs = cells();
        let table = score_table(&cs);
        let competitors = table.competitors().len();
        let wins = table.head_to_head();
        let max_possible = (competitors - 1) * ElasticityReport::metric_names().len();
        assert!(
            wins[0].1 < max_possible,
            "{} swept all {} pairwise contests",
            wins[0].0,
            max_possible
        );
    }

    #[test]
    fn crn_mode_gives_every_cell_the_same_seed() {
        let r = campaign_result(4_000.0, 13, 1);
        let seeds: std::collections::BTreeSet<u64> = r
            .cells
            .iter()
            .flat_map(|c| c.runs.iter().map(|run| run.seed))
            .collect();
        assert_eq!(seeds.len(), 1, "CRN: one shared seed per replication");
    }

    #[test]
    fn sla_violations_counted() {
        let cs = cells();
        // At least some cell has violations (bursty + reactive scaling and
        // boot delay make misses likely), and none exceeds completions.
        assert!(cs.iter().any(|c| c.sla_violations > 0));
        for c in &cs {
            assert!(c.sla_violations <= c.completed);
        }
    }

    #[test]
    fn serve_cell_validates_and_runs_deterministically() {
        let mut reg = atlarge_exp::Registry::new();
        reg.register(Box::new(AutoscaleCell));
        let raw = BTreeMap::from([
            ("workload".to_string(), "bursty".to_string()),
            ("scaler".to_string(), "token".to_string()),
        ]);
        let params = reg.validate("autoscaling", &raw).expect("valid query");
        assert_eq!(params["horizon"], "4000", "horizon defaults");

        let tracer = atlarge_telemetry::NullTracer;
        let run = || {
            AutoscaleCell
                .run_cell(&params, 41, 2, &CancelToken::new(), &tracer)
                .expect("runs clean")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.notes, b.notes);
        for ((ka, sa), (kb, sb)) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(ka, kb);
            assert_eq!(sa.mean(), sb.mean(), "metric {ka} must be deterministic");
        }
        assert!(a
            .notes
            .contains(&("scaler".to_string(), "token".to_string())));
    }

    #[test]
    fn serve_cell_equals_the_campaign_cell() {
        // Campaigns run in common-random-numbers mode, so every cell of
        // replication `rep` draws `derive_seed(root, 0, rep)`, as the
        // served cell does, and both call the same run function.
        let campaign = campaign_result(4_000.0, 41, 2);
        let cell = campaign
            .cells
            .iter()
            .find(|c| c.spec.level("workload") == "bursty" && c.spec.level("scaler") == "token")
            .expect("grid covers bursty x token");
        let mut reg = atlarge_exp::Registry::new();
        reg.register(Box::new(AutoscaleCell));
        let raw = BTreeMap::from([
            ("workload".to_string(), "bursty".to_string()),
            ("scaler".to_string(), "token".to_string()),
            ("horizon".to_string(), "4000".to_string()),
        ]);
        let params = reg.validate("autoscaling", &raw).expect("valid query");
        let out = AutoscaleCell
            .run_cell(
                &params,
                41,
                2,
                &CancelToken::new(),
                &atlarge_telemetry::NullTracer,
            )
            .expect("runs clean");
        let metric =
            |name: &str, f: fn(&CampaignCell) -> f64| (name.to_string(), cell.summarize(f));
        assert_eq!(
            out.metrics,
            vec![
                metric("under_accuracy", |c| c.report.under_accuracy),
                metric("over_accuracy", |c| c.report.over_accuracy),
                metric("avg_utilization", |c| c.report.avg_utilization),
                metric("instability", |c| c.report.instability),
                metric("mean_response", |c| c.report.mean_response),
                metric("cost", |c| c.report.cost),
                metric("sla_violations", |c| c.sla_violations as f64),
                metric("completed", |c| c.completed as f64),
            ]
        );
    }

    #[test]
    fn ab_campaign_identity_swap_arm_equals_none_arm() {
        // The keystone at campaign level: swapping Adapt for itself
        // mid-run leaves every cell's metrics equal to never swapping.
        let r = ab_campaign_result(4_000.0, 13, 1, "adapt", "adapt@600").unwrap();
        for wl in WorkflowWorkload::all() {
            let arm = |swap: &str| -> &CampaignCell {
                r.cells
                    .iter()
                    .find(|c| c.spec.level("workload") == wl.name() && c.spec.level("swap") == swap)
                    .expect("grid covers both arms")
                    .first()
            };
            assert_eq!(
                arm("none"),
                arm("adapt@600"),
                "{}: identity swap changed the campaign cell",
                wl.name()
            );
        }
    }

    #[test]
    fn ab_campaign_cross_swap_moves_outcomes_on_a_shared_stream() {
        let r = ab_campaign_result(4_000.0, 13, 1, "react", "token@600").unwrap();
        let mut moved = 0;
        for wl in WorkflowWorkload::all() {
            let arm = |swap: &str| -> &CampaignCell {
                r.cells
                    .iter()
                    .find(|c| c.spec.level("workload") == wl.name() && c.spec.level("swap") == swap)
                    .expect("grid covers both arms")
                    .first()
            };
            let (a, b) = (arm("none"), arm("token@600"));
            // CRN: both arms complete the same workflow set...
            assert_eq!(a.completed, b.completed, "{}", wl.name());
            // ...but a different scaler after the swap moves the metrics.
            if a.report != b.report {
                moved += 1;
            }
        }
        assert!(moved > 0, "the A/B swap never changed any workload");
    }

    #[test]
    fn ab_campaign_rejects_bad_plans() {
        assert!(ab_campaign_result(4_000.0, 1, 1, "nope", "token@5").is_err());
        assert!(ab_campaign_result(4_000.0, 1, 1, "react", "nope@5").is_err());
        assert!(ab_campaign_result(4_000.0, 1, 1, "react", "none").is_err());
    }

    #[test]
    fn serve_cell_accepts_and_canonicalizes_swap_plans() {
        let tracer = atlarge_telemetry::NullTracer;
        let mut reg = atlarge_exp::Registry::new();
        reg.register(Box::new(AutoscaleCell));
        let raw = BTreeMap::from([
            ("workload".to_string(), "bursty".to_string()),
            ("scaler".to_string(), "react".to_string()),
            ("horizon".to_string(), "2000".to_string()),
            ("swap".to_string(), "token@600.0".to_string()),
        ]);
        let params = reg.validate("autoscaling", &raw).expect("valid query");
        let out = AutoscaleCell
            .run_cell(&params, 41, 1, &CancelToken::new(), &tracer)
            .expect("runs clean");
        assert!(
            out.notes
                .contains(&("swap".to_string(), "token@600".to_string())),
            "notes must carry the canonical plan: {:?}",
            out.notes
        );

        // Default is "none" and identity-swaps equal never-swapping.
        let base = reg
            .validate(
                "autoscaling",
                &BTreeMap::from([
                    ("workload".to_string(), "bursty".to_string()),
                    ("scaler".to_string(), "react".to_string()),
                    ("horizon".to_string(), "2000".to_string()),
                ]),
            )
            .expect("valid query");
        assert_eq!(base["swap"], "none");
        let plain = AutoscaleCell
            .run_cell(&base, 41, 1, &CancelToken::new(), &tracer)
            .unwrap();
        let mut idem = base.clone();
        idem.insert("swap".to_string(), "react@600".to_string());
        let idswap = AutoscaleCell
            .run_cell(&idem, 41, 1, &CancelToken::new(), &tracer)
            .unwrap();
        for ((ka, sa), (kb, sb)) in plain.metrics.iter().zip(&idswap.metrics) {
            assert_eq!(ka, kb);
            assert_eq!(sa.mean(), sb.mean(), "identity swap moved metric {ka}");
        }
    }

    #[test]
    fn serve_cell_rejects_malformed_swap_plans() {
        let tracer = atlarge_telemetry::NullTracer;
        let mut reg = atlarge_exp::Registry::new();
        reg.register(Box::new(AutoscaleCell));
        let mut params = reg
            .validate("autoscaling", &BTreeMap::new())
            .expect("defaults");
        for bad in ["token", "token@", "@5", "nope@5", "token@peak"] {
            params.insert("swap".to_string(), bad.to_string());
            let err = AutoscaleCell
                .run_cell(&params, 1, 1, &CancelToken::new(), &tracer)
                .unwrap_err();
            assert!(err.contains("swap"), "{bad}: {err}");
        }
    }

    #[test]
    fn serve_cell_bounds_the_horizon() {
        let tracer = atlarge_telemetry::NullTracer;
        let mut reg = atlarge_exp::Registry::new();
        reg.register(Box::new(AutoscaleCell));
        let mut params = reg
            .validate("autoscaling", &BTreeMap::new())
            .expect("defaults");
        params.insert("horizon".to_string(), "5".to_string());
        let err = AutoscaleCell
            .run_cell(&params, 1, 1, &CancelToken::new(), &tracer)
            .unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    /// At the shortest horizon some seeds draw no workflow at all; the
    /// cell answers that with an error naming `horizon`, never a panic.
    #[test]
    fn serve_cell_short_horizons_answer_errors_not_panics() {
        let tracer = atlarge_telemetry::NullTracer;
        let mut reg = atlarge_exp::Registry::new();
        reg.register(Box::new(AutoscaleCell));
        let mut params = reg
            .validate("autoscaling", &BTreeMap::new())
            .expect("defaults");
        params.insert("horizon".to_string(), "100".to_string());
        for seed in 0..64 {
            let run = std::panic::catch_unwind(|| {
                AutoscaleCell.run_cell(&params, seed, 2, &CancelToken::new(), &tracer)
            });
            match run.unwrap_or_else(|_| panic!("seed {seed} panicked")) {
                Ok(out) => assert!(!out.metrics.is_empty()),
                Err(e) => assert!(e.starts_with("parameter 'horizon'"), "{e}"),
            }
        }
    }
}
