//! The Table 9 reproduction: portfolio scheduling across workloads and
//! environments.
//!
//! Table 9 lists seven studies, each pairing a workload family with an
//! environment, each concluding "PS is useful" — except the big-data study
//! \[120\], which found the portfolio "useful, but" can select sub-optimally
//! "when the performance of the policy is difficult to predict". The
//! experiment here sweeps the same matrix: every single policy and the
//! portfolio run on every row, with per-mix runtime-estimate error
//! modelling predictability (big data gets the heaviest error).

use crate::policy::Policy;
use crate::portfolio::PortfolioScheduler;
use crate::simulator::{simulate, FailureEvent, SimConfig, SimMetrics};
use atlarge_datacenter::environment::Environment;
use atlarge_exp::registry::{run_replicated, CellOutput, CellScenario, ParamSpec};
use atlarge_exp::CancelToken;
use atlarge_exp::{Campaign, CampaignResult, SeedMode};
use atlarge_stats::descriptive::Summary;
use atlarge_telemetry::tracer::Tracer;
use atlarge_workload::mixes::Mix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// How big to run the experiment (tests use `Quick`, benches `Full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small workloads for unit tests.
    Quick,
    /// Paper-scale workloads for the benchmark harness.
    Full,
}

impl Scale {
    fn horizon(&self) -> f64 {
        match self {
            Scale::Quick => 8_000.0,
            Scale::Full => 40_000.0,
        }
    }

    /// Target long-run utilization of the environment. High enough that
    /// queues form and policies differentiate; below saturation so runs
    /// terminate.
    fn target_load(&self) -> f64 {
        match self {
            Scale::Quick => 0.85,
            Scale::Full => 0.9,
        }
    }
}

/// Expected core-seconds of work per job of a mix (mean tasks × mean
/// runtime × cores), used to hit the target utilization on any
/// environment.
fn mean_work_per_job(mix: Mix) -> f64 {
    match mix {
        Mix::Synthetic => 5.0 * 100.0,
        Mix::Scientific => 20.0 * 400.0,
        Mix::SciGaming => 12.0 * 150.0,
        Mix::ComputerEngineering => 30.0 * 30.0,
        Mix::BusinessCritical => 2.0 * 3_600.0 * 2.0,
        Mix::Industrial => 4.0 * 60.0,
        Mix::BigData => 60.0 * 200.0,
    }
}

/// Arrival-rate scale (jobs per 1000 s) that loads `env` to the target
/// utilization under `mix`.
fn rate_scale(mix: Mix, env: Environment, scale: Scale) -> f64 {
    let cores: u32 = env.total_cores();
    1_000.0 * scale.target_load() * f64::from(cores) / mean_work_per_job(mix)
}

/// Runtime-estimate error per workload family: how predictable runtimes
/// are. Big data is the hardest to predict (\[120\]); synthetic the easiest.
pub fn estimate_sigma(mix: Mix) -> f64 {
    match mix {
        Mix::Synthetic => 0.05,
        Mix::Scientific => 0.5,
        Mix::SciGaming => 0.4,
        Mix::ComputerEngineering => 0.3,
        Mix::BusinessCritical => 0.2,
        Mix::Industrial => 0.3,
        Mix::BigData => 1.6,
    }
}

/// One row of the reproduced Table 9.
#[derive(Debug, Clone, PartialEq)]
pub struct Table9Row {
    /// The study's citation tag and year, for the printed table.
    pub study: &'static str,
    /// Workload family.
    pub mix: Mix,
    /// Environment.
    pub env: Environment,
    /// Portfolio metrics.
    pub portfolio: SimMetrics,
    /// `(policy, metrics)` for every single policy.
    pub singles: Vec<(Policy, SimMetrics)>,
}

impl Table9Row {
    /// The single policy with the lowest mean bounded slowdown.
    pub fn best_single_slowdown(&self) -> (Policy, f64) {
        self.singles
            .iter()
            .map(|(p, m)| (*p, m.mean_bounded_slowdown))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty singles")
    }

    /// The single policy with the lowest makespan.
    pub fn best_single_makespan(&self) -> (Policy, f64) {
        self.singles
            .iter()
            .map(|(p, m)| (*p, m.makespan))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty singles")
    }

    /// The single policy with the highest mean bounded slowdown.
    pub fn worst_single_slowdown(&self) -> (Policy, f64) {
        self.singles
            .iter()
            .map(|(p, m)| (*p, m.mean_bounded_slowdown))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty singles")
    }

    /// Portfolio slowdown relative to the best single policy (1.0 =
    /// matched the oracle-best; the paper's "useful" verdict).
    pub fn portfolio_gap(&self) -> f64 {
        self.portfolio.mean_bounded_slowdown / self.best_single_slowdown().1.max(1e-9)
    }

    /// The paper's verdict string for this row.
    pub fn finding(&self) -> &'static str {
        if self.portfolio_gap() <= 1.25 {
            "useful"
        } else {
            "useful, but"
        }
    }
}

/// The seven rows of Table 9: `(study tag, workload, environment)`.
pub fn table9_matrix() -> Vec<(&'static str, Mix, Environment)> {
    vec![
        ("[114] ('13)", Mix::Synthetic, Environment::OwnCluster),
        ("[115] ('13)", Mix::Scientific, Environment::GridPlusCloud),
        ("[116] ('13)", Mix::SciGaming, Environment::OwnCluster),
        (
            "[117] ('13)",
            Mix::ComputerEngineering,
            Environment::GeoDistributed,
        ),
        (
            "[118] ('15)",
            Mix::BusinessCritical,
            Environment::MultiCluster,
        ),
        ("[119] ('17)", Mix::Industrial, Environment::PublicCloud),
        ("[120] ('18)", Mix::BigData, Environment::OwnCluster),
    ]
}

fn pool_cores(env: Environment) -> Vec<u32> {
    env.build().iter().map(|c| c.total_cores()).collect()
}

/// Runs one row of the matrix with runtime-estimate error `sigma`: the
/// paper's rows pass [`estimate_sigma`]`(mix)`, the
/// prediction-sensitivity ablation sweeps it.
pub fn run_row(
    study: &'static str,
    mix: Mix,
    env: Environment,
    scale: Scale,
    seed: u64,
    sigma: f64,
) -> Table9Row {
    let mut rng = StdRng::seed_from_u64(seed);
    let jobs = mix.generate(&mut rng, scale.horizon(), rate_scale(mix, env, scale));
    let pools = pool_cores(env);
    let config = SimConfig {
        estimate_sigma: sigma,
        seed,
    };
    let singles: Vec<(Policy, SimMetrics)> = Policy::all()
        .into_iter()
        .map(|p| (p, simulate(&jobs, &pools, p, &config, &[], None)))
        .collect();
    let portfolio = simulate(
        &jobs,
        &pools,
        PortfolioScheduler::new(Policy::all().to_vec(), 3, 300.0),
        &config,
        &[],
        None,
    );
    Table9Row {
        study,
        mix,
        env,
        portfolio,
        singles,
    }
}

/// One Table-9 cell's config: the study's workload/environment pairing.
#[derive(Debug, Clone, Copy)]
pub struct Table9Spec {
    /// Citation tag of the study.
    pub study: &'static str,
    /// Workload family.
    pub mix: Mix,
    /// Environment.
    pub env: Environment,
}

/// One Table 9 run: the study's row at its family's estimate error.
/// The campaign and the served cell both call it.
fn run_table9(scale: Scale, spec: &Table9Spec, seed: u64) -> Table9Row {
    run_row(
        spec.study,
        spec.mix,
        spec.env,
        scale,
        seed,
        estimate_sigma(spec.mix),
    )
}

/// Runs Table 9 as a declared campaign: a `study` factor over the seven
/// workload/environment pairings, each row seeded independently.
pub fn table9_campaign(
    scale: Scale,
    seed: u64,
    replications: usize,
) -> CampaignResult<Table9Spec, Table9Row> {
    let matrix = table9_matrix();
    let run = |spec: &Table9Spec, seed| run_table9(scale, spec, seed);
    Campaign::new("scheduling.table9", run)
        .factor("study", matrix.iter().map(|&(study, _, _)| study))
        .replications(replications)
        .root_seed(seed)
        .run(|cell| {
            let &(study, mix, env) = matrix
                .iter()
                .find(|&&(study, _, _)| study == cell.level("study"))
                .expect("grid levels come from table9_matrix");
            Table9Spec { study, mix, env }
        })
}

/// Runs the full Table 9 matrix (the single-replication view of
/// [`table9_campaign`]).
pub fn table9(scale: Scale, seed: u64) -> Vec<Table9Row> {
    table9_campaign(scale, seed, 1)
        .first_outcomes()
        .into_iter()
        .cloned()
        .collect()
}

/// Renders the reproduced table as text, in the paper's column layout.
pub fn render_table9(rows: &[Table9Row]) -> String {
    let mut out = format!(
        "{:<14}{:<9}{:<6}{:>12}{:>12}{:>8}  {}\n",
        "Study", "W", "Env", "PS slowdn", "best 1-pol", "gap", "Finding: PS is"
    );
    for r in rows {
        let (bp, bs) = r.best_single_slowdown();
        out.push_str(&format!(
            "{:<14}{:<9}{:<6}{:>12.2}{:>9.2}({}){:>8.2}  {}\n",
            r.study,
            r.mix.abbrev(),
            r.env.abbrev(),
            r.portfolio.mean_bounded_slowdown,
            bs,
            bp.name(),
            r.portfolio_gap(),
            r.finding()
        ));
    }
    out
}

/// The sigma levels of the prediction-sensitivity ablation.
const SENSITIVITY_SIGMAS: [f64; 4] = [0.0, 0.8, 1.6, 2.4];

/// The \[120\] mechanism isolated: the same big-data workload with
/// increasingly wrong runtime estimates, run as a common-random-numbers
/// campaign whose run is the big-data row at one estimate-error level,
/// scored by the portfolio's mean bounded slowdown. Every sigma level of
/// a replication shares one seed, so each replication is a paired
/// comparison against its own sigma = 0 baseline. Returns `(sigma, degradation)` rows, where degradation is
/// the portfolio's mean bounded slowdown normalized by the paired
/// baseline, averaged over replications. Degradation above 1 means the
/// portfolio — which selects policies by *simulating on the estimates*
/// — is making sub-optimal selections.
pub fn prediction_sensitivity(scale: Scale, seed: u64, replications: usize) -> Vec<(f64, f64)> {
    let slowdown = |&sigma: &f64, seed| {
        run_row(
            "[120]",
            Mix::BigData,
            Environment::OwnCluster,
            scale,
            seed,
            sigma,
        )
        .portfolio
        .mean_bounded_slowdown
    };
    let r = Campaign::new("scheduling.sensitivity", slowdown)
        .factor("sigma", SENSITIVITY_SIGMAS.map(|s| format!("{s}")))
        .replications(replications)
        .root_seed(seed)
        .seed_mode(SeedMode::CommonRandomNumbers)
        .run(|cell| cell.level("sigma").parse().expect("sigma level parses"));
    let baselines: Vec<f64> = r.cells[0].runs.iter().map(|run| run.outcome).collect();
    r.cells
        .iter()
        .map(|cell| {
            let mean = cell
                .runs
                .iter()
                .zip(&baselines)
                .map(|(run, &base)| run.outcome / base.max(1e-9))
                .sum::<f64>()
                / cell.runs.len().max(1) as f64;
            (cell.config, mean)
        })
        .collect()
}

/// Generates Weibull machine failures for every pool over the horizon:
/// shape > 1 models wear-out, as the datacenter dependability literature
/// assumes. Each failure takes a fixed share of the pool's cores down for
/// an exponential repair time.
pub fn generate_failures(
    pool_cores: &[u32],
    horizon: f64,
    mean_time_between_failures: f64,
    mean_repair: f64,
    seed: u64,
) -> Vec<FailureEvent> {
    use atlarge_stats::dist::{Exponential, Sample, Weibull};
    let mut rng = StdRng::seed_from_u64(seed);
    // Weibull with shape 1.5 and matching mean: scale = mean / Γ(1+1/k).
    // Γ(1 + 2/3) ≈ 0.9027.
    let scale = mean_time_between_failures / 0.9027;
    let tbf = Weibull::new(scale, 1.5);
    let repair = Exponential::with_mean(mean_repair);
    let mut out = Vec::new();
    for (pool, &cores) in pool_cores.iter().enumerate() {
        let mut t = 0.0;
        loop {
            t += tbf.sample(&mut rng);
            if t >= horizon {
                break;
            }
            out.push(FailureEvent {
                time: t,
                pool,
                cores: (cores / 2).max(1),
                duration: repair.sample(&mut rng).max(1.0),
            });
        }
    }
    out.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite times"));
    out
}

/// Runs one Table-9 row under injected machine failures; returns
/// `(healthy metrics, failing metrics, failures injected)`.
pub fn row_under_failures(
    mix: Mix,
    env: Environment,
    scale: Scale,
    seed: u64,
) -> (SimMetrics, SimMetrics, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let jobs = mix.generate(&mut rng, scale.horizon(), rate_scale(mix, env, scale));
    let pools = pool_cores(env);
    let config = SimConfig {
        estimate_sigma: estimate_sigma(mix),
        seed,
    };
    let failures = generate_failures(&pools, scale.horizon(), scale.horizon() / 6.0, 600.0, seed);
    let policy = Policy::EasyBackfilling;
    let healthy = simulate(&jobs, &pools, policy, &config, &[], None);
    let failing = simulate(&jobs, &pools, policy, &config, &failures, None);
    (healthy, failing, failures.len())
}

/// One active-set run: the scientific workload under a portfolio
/// restricted to the best `k` policies, as `(lookahead events, mean
/// bounded slowdown)`. All cells of one replication share a seed
/// (common random numbers), so every `k` sees the identical job stream.
fn run_active_set(scale: Scale, k: usize, seed: u64) -> (u64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let jobs = Mix::Scientific.generate(
        &mut rng,
        scale.horizon(),
        rate_scale(Mix::Scientific, Environment::OwnCluster, scale),
    );
    let pools = pool_cores(Environment::OwnCluster);
    let config = SimConfig {
        estimate_sigma: estimate_sigma(Mix::Scientific),
        seed,
    };
    let m = simulate(
        &jobs,
        &pools,
        PortfolioScheduler::new(Policy::all().to_vec(), k, 300.0).explore_every(50),
        &config,
        &[],
        None,
    );
    (m.lookahead_events, m.mean_bounded_slowdown)
}

/// The ablation behind §6.6's online-feasibility question: lookahead cost
/// and decision quality as the active-set size grows, as a
/// common-random-numbers campaign over the `active-set` factor. Returns
/// `(active_set_size, lookahead_events, mean_bounded_slowdown)` rows.
pub fn active_set_ablation(scale: Scale, seed: u64) -> Vec<(usize, u64, f64)> {
    let run = |&k: &usize, seed| run_active_set(scale, k, seed);
    Campaign::new("scheduling.active-set", run)
        .factor(
            "active-set",
            (1..=Policy::all().len()).map(|k| k.to_string()),
        )
        .root_seed(seed)
        .seed_mode(SeedMode::CommonRandomNumbers)
        .run(|cell| cell.level("active-set").parse().expect("k level parses"))
        .cells
        .iter()
        .map(|cell| {
            let (lookahead, slowdown) = cell.first();
            (cell.config, *lookahead, *slowdown)
        })
        .collect()
}

/// The short, URL-friendly study tag of a matrix row: `"[114] ('13)"`
/// becomes `"114"`.
fn short_tag(tag: &'static str) -> String {
    tag.trim_start_matches('[')
        .split(']')
        .next()
        .expect("matrix tags are bracketed")
        .to_string()
}

/// Table 9 as a servable exploration cell: a query names one
/// study (by citation number) and a scale, and gets the portfolio
/// scheduler's metrics against the best and worst single policies.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table9Cell;

impl CellScenario for Table9Cell {
    fn domain(&self) -> &str {
        "scheduling"
    }

    fn describe(&self) -> &str {
        "Table 9 portfolio-scheduling rows: portfolio vs single policies"
    }

    fn params(&self) -> Vec<ParamSpec> {
        let tags: Vec<String> = table9_matrix()
            .iter()
            .map(|&(t, _, _)| short_tag(t))
            .collect();
        let tag_refs: Vec<&str> = tags.iter().map(|s| s.as_str()).collect();
        vec![
            ParamSpec::choice("study", "citation number of the Table 9 row", &tag_refs),
            ParamSpec::choice(
                "scale",
                "experiment size (quick = test-sized)",
                &["quick", "full"],
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
        let scale = match params["scale"].as_str() {
            "full" => Scale::Full,
            _ => Scale::Quick,
        };
        let (study, mix, env) = table9_matrix()
            .into_iter()
            .find(|&(t, _, _)| short_tag(t) == params["study"])
            .expect("choice validation admits only matrix tags");
        let spec = Table9Spec { study, mix, env };
        let rows = run_replicated(seed, replications, cancel, |seed| {
            run_table9(scale, &spec, seed)
        })?;
        let first = &rows[0];
        let summarize = |f: &dyn Fn(&Table9Row) -> f64| Summary::from_iter(rows.iter().map(f));
        Ok(CellOutput {
            metrics: vec![
                (
                    "portfolio_gap".to_string(),
                    summarize(&|r| r.portfolio_gap()),
                ),
                (
                    "portfolio_slowdown".to_string(),
                    summarize(&|r| r.portfolio.mean_bounded_slowdown),
                ),
                (
                    "best_single_slowdown".to_string(),
                    summarize(&|r| r.best_single_slowdown().1),
                ),
                (
                    "worst_single_slowdown".to_string(),
                    summarize(&|r| r.worst_single_slowdown().1),
                ),
                ("makespan".to_string(), summarize(&|r| r.portfolio.makespan)),
            ],
            notes: vec![
                ("study".to_string(), first.study.to_string()),
                ("mix".to_string(), format!("{:?}", first.mix)),
                ("environment".to_string(), format!("{:?}", first.env)),
                (
                    "best_single".to_string(),
                    first.best_single_slowdown().0.name().to_string(),
                ),
                ("finding".to_string(), first.finding().to_string()),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Table9Row> {
        table9(Scale::Quick, 7)
    }

    #[test]
    fn outputs_equal_their_recorded_digests() {
        // FNV-1a digests of the `{:?}` renderings, recorded before the
        // simulator kept its running set and queue order incrementally:
        // a change that moves any task start moves them.
        let digest = |rendered: String| atlarge_telemetry::manifest::fnv1a(rendered.as_bytes());
        assert_eq!(digest(format!("{:?}", rows())), 0x37d9_bfae_bd28_077d);
        for (mix, env, seed, expected) in [
            (
                Mix::ComputerEngineering,
                Environment::GeoDistributed,
                1,
                0xd583_88c7_9b95_55e5,
            ),
            (
                Mix::BusinessCritical,
                Environment::MultiCluster,
                2,
                0x40f9_0a6b_c14a_a731,
            ),
        ] {
            let row = row_under_failures(mix, env, Scale::Quick, seed);
            assert!(row.1.tasks_restarted > 0, "{mix:?}: failures kill tasks");
            assert_eq!(digest(format!("{row:?}")), expected, "{mix:?} row");
        }
        // Every task of a Table 9 mix has one width, so the order among
        // equal release times cannot move those rows; mixed widths can.
        use atlarge_workload::job::{Job, JobId, Task};
        let jobs: Vec<Job> = (0..200u64)
            .map(|i| {
                let task = |k| {
                    Task::new(
                        10.0 + ((i * 7 + k * 13) % 50) as f64,
                        1 + ((i + k) % 4) as u32,
                    )
                };
                Job::new(
                    JobId(i),
                    i as f64 * 15.0,
                    (0..1 + i % 4).map(task).collect(),
                )
            })
            .collect();
        let config = SimConfig {
            estimate_sigma: 1.0,
            seed: 5,
        };
        let portfolio = PortfolioScheduler::new(Policy::all().to_vec(), 3, 300.0);
        let mixed = (
            simulate(&jobs, &[8, 6], Policy::EasyBackfilling, &config, &[], None),
            simulate(&jobs, &[8, 6], portfolio, &config, &[], None),
        );
        assert_eq!(digest(format!("{mixed:?}")), 0x9535_5015_4050_daae);
    }

    #[test]
    fn all_rows_complete_all_jobs() {
        for r in rows() {
            assert!(r.portfolio.jobs_completed > 0, "{}: no jobs", r.study);
            for (p, m) in &r.singles {
                assert_eq!(
                    m.jobs_completed, r.portfolio.jobs_completed,
                    "{}: {p} completed different job count",
                    r.study
                );
            }
        }
    }

    #[test]
    fn portfolio_is_useful_on_predictable_workloads() {
        // The paper's repeated finding: "PS is useful" for the
        // non-big-data rows.
        for r in rows() {
            if r.mix != Mix::BigData {
                assert!(
                    r.portfolio_gap() < 2.0,
                    "{}: portfolio gap {} too large",
                    r.study,
                    r.portfolio_gap()
                );
            }
        }
    }

    #[test]
    fn no_single_policy_wins_everywhere() {
        // The founding observation of §6.6: across workloads and metrics,
        // no individual policy is consistently the best.
        let rows = rows();
        let mut slowdown_winners: std::collections::BTreeSet<&str> = Default::default();
        let mut makespan_winners: std::collections::BTreeSet<&str> = Default::default();
        for r in &rows {
            slowdown_winners.insert(r.best_single_slowdown().0.name());
            makespan_winners.insert(r.best_single_makespan().0.name());
        }
        let distinct: std::collections::BTreeSet<&str> =
            slowdown_winners.union(&makespan_winners).copied().collect();
        assert!(
            distinct.len() >= 2,
            "a single policy won every row on every metric: {distinct:?}"
        );
    }

    #[test]
    fn portfolio_beats_worst_policy() {
        for r in rows() {
            let (wp, ws) = r.worst_single_slowdown();
            assert!(
                r.portfolio.mean_bounded_slowdown <= ws * 1.05,
                "{}: portfolio {} worse than worst single {wp} {ws}",
                r.study,
                r.portfolio.mean_bounded_slowdown
            );
        }
    }

    #[test]
    fn portfolio_pays_lookahead_cost() {
        for r in rows() {
            assert!(r.portfolio.lookahead_events > 0);
            assert!(r.portfolio.decisions > 0);
            for (_, m) in &r.singles {
                assert_eq!(m.lookahead_events, 0);
            }
        }
    }

    #[test]
    fn active_set_ablation_cost_grows_with_k() {
        let rows = active_set_ablation(Scale::Quick, 11);
        assert_eq!(rows.len(), Policy::all().len());
        let first = rows.first().unwrap().1;
        let last = rows.last().unwrap().1;
        assert!(
            last > first,
            "full portfolio should cost more lookahead than active set 1: {first} vs {last}"
        );
    }

    #[test]
    fn table_renders_every_row() {
        let rows = rows();
        let s = render_table9(&rows);
        for r in &rows {
            assert!(s.contains(r.study));
        }
        assert!(s.contains("useful"));
    }

    #[test]
    fn failures_degrade_but_do_not_break_the_row() {
        let (healthy, failing, injected) =
            row_under_failures(Mix::Synthetic, Environment::OwnCluster, Scale::Quick, 3);
        assert!(injected > 0, "the horizon should see failures");
        assert_eq!(
            healthy.jobs_completed, failing.jobs_completed,
            "failures must not lose jobs"
        );
        assert!(failing.tasks_restarted > 0);
        assert!(
            failing.mean_bounded_slowdown >= healthy.mean_bounded_slowdown,
            "failures should not speed jobs up: {} vs {}",
            failing.mean_bounded_slowdown,
            healthy.mean_bounded_slowdown
        );
    }

    #[test]
    fn bad_predictions_widen_the_portfolio_gap() {
        // The [120] caveat: selections degrade when runtimes are hard to
        // predict.
        let rows = prediction_sensitivity(Scale::Quick, 5, 2);
        assert_eq!(rows.len(), 4);
        let perfect = rows[0].1;
        let worst = rows.last().unwrap().1;
        assert!((perfect - 1.0).abs() < 1e-9, "baseline normalizes to 1");
        assert!(
            worst > 1.1,
            "selections should degrade measurably with bad estimates: {worst}"
        );
    }

    #[test]
    fn active_set_cells_share_the_job_stream() {
        // CRN mode: every k must see the same derived seed, hence the
        // same generated jobs — the ablation varies only the active set.
        let run = |&k: &usize, seed| run_active_set(Scale::Quick, k, seed);
        let r = Campaign::new("scheduling.active-set", run)
            .factor("active-set", ["1", "2"])
            .root_seed(11)
            .seed_mode(SeedMode::CommonRandomNumbers)
            .run(|cell| cell.level("active-set").parse().expect("parses"));
        assert_eq!(r.cells[0].runs[0].seed, r.cells[1].runs[0].seed);
    }

    #[test]
    fn table9_campaign_rows_use_distinct_seeds() {
        let r = table9_campaign(Scale::Quick, 7, 1);
        let seeds: std::collections::BTreeSet<u64> = r
            .cells
            .iter()
            .flat_map(|c| c.runs.iter().map(|run| run.seed))
            .collect();
        assert_eq!(seeds.len(), 7);
    }

    #[test]
    fn matrix_matches_paper_rows() {
        let m = table9_matrix();
        assert_eq!(m.len(), 7);
        assert_eq!(m[0].1, Mix::Synthetic);
        assert_eq!(m[6].1, Mix::BigData);
        assert_eq!(m[4].2, Environment::MultiCluster);
    }

    #[test]
    fn serve_cell_equals_the_campaign_cell() {
        // Study 114 is the campaign's cell 0, so both paths draw
        // `derive_seed(root, 0, rep)` and call the same run function.
        let campaign = table9_campaign(Scale::Quick, 7, 2);
        let cell = &campaign.cells[0];
        let mut reg = atlarge_exp::Registry::new();
        reg.register(Box::new(Table9Cell));
        let raw = BTreeMap::from([
            ("study".to_string(), "114".to_string()),
            ("scale".to_string(), "quick".to_string()),
        ]);
        let params = reg.validate("scheduling", &raw).expect("valid query");
        let out = Table9Cell
            .run_cell(
                &params,
                7,
                2,
                &CancelToken::new(),
                &atlarge_telemetry::NullTracer,
            )
            .expect("runs clean");
        let metric = |name: &str, f: fn(&Table9Row) -> f64| (name.to_string(), cell.summarize(f));
        assert_eq!(
            out.metrics,
            vec![
                metric("portfolio_gap", |r| r.portfolio_gap()),
                metric("portfolio_slowdown", |r| r.portfolio.mean_bounded_slowdown),
                metric("best_single_slowdown", |r| r.best_single_slowdown().1),
                metric("worst_single_slowdown", |r| r.worst_single_slowdown().1),
                metric("makespan", |r| r.portfolio.makespan),
            ]
        );
        assert_eq!(
            out.notes[0],
            ("study".to_string(), cell.first().study.to_string())
        );
    }

    #[test]
    fn serve_cell_offers_short_tags_and_runs_deterministically() {
        let mut reg = atlarge_exp::Registry::new();
        reg.register(Box::new(Table9Cell));
        let spec = &Table9Cell.params()[0];
        assert_eq!(
            spec.choices,
            ["114", "115", "116", "117", "118", "119", "120"]
        );

        let raw = BTreeMap::from([("study".to_string(), "116".to_string())]);
        let params = reg.validate("scheduling", &raw).expect("valid query");
        assert_eq!(params["scale"], "quick", "scale defaults to quick");
        let tracer = atlarge_telemetry::NullTracer;
        let run = || {
            Table9Cell
                .run_cell(&params, 7, 1, &CancelToken::new(), &tracer)
                .expect("runs clean")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.notes, b.notes);
        let gap = |o: &CellOutput| {
            o.metrics
                .iter()
                .find(|(k, _)| k == "portfolio_gap")
                .expect("gap metric")
                .1
                .mean()
        };
        assert_eq!(gap(&a), gap(&b));
        assert!(gap(&a) > 0.0);
        assert!(a.notes.iter().any(|(k, v)| k == "mix" && v == "SciGaming"));
    }
}
