//! The Table 8 reproductions: the PAD law and the HPAD extension,
//! executed as a three-factor `atlarge-exp` campaign.
//!
//! The factor grid is dataset × algorithm × platform (dataset slowest),
//! the canonical full-factorial order. Every cell of one dataset shares
//! the same generated graph — the graph seed is derived per dataset
//! with a labeled split of the root seed and carried in the cell
//! config, so platform/algorithm contrasts are paired on identical
//! inputs, exactly as a Graphalytics campaign would run them.

use crate::generators::Dataset;
use crate::platforms::{run, Algorithm, Platform};
use atlarge_exp::registry::{parse_param, run_replicated, CellOutput, CellScenario, ParamSpec};
use atlarge_exp::seed::split_labeled;
use atlarge_exp::{Campaign, CampaignResult, CancelToken};
use atlarge_stats::descriptive::Summary;
use atlarge_stats::factorial::{decompose, Cell, Decomposition};
use atlarge_telemetry::tracer::Tracer;
use std::collections::BTreeMap;

/// One measurement of the PAD sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PadCell {
    /// Platform name.
    pub platform: &'static str,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Dataset name.
    pub dataset: &'static str,
    /// Deterministic critical-path cost.
    pub critical_path: f64,
    /// Iterations executed.
    pub iterations: u32,
}

/// One PAD cell's config: the factor levels plus the dataset's shared
/// graph parameters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PadConfig {
    /// Platform under test.
    pub platform: Platform,
    /// Algorithm under test.
    pub algorithm: Algorithm,
    /// Dataset family.
    pub dataset: Dataset,
    /// Approximate vertex count of the generated graph.
    pub n: usize,
    /// Seed of the dataset's graph — shared by every cell of the
    /// dataset so platform/algorithm contrasts are paired.
    pub graph_seed: u64,
}

/// One PAD run: generate the cell's dataset graph and run the
/// platform×algorithm pair on it. The run itself is deterministic; the
/// stochasticity lives in the dataset generator, seeded from the
/// config so cells of one dataset agree on the graph. The campaigns and
/// the served cell both call it.
fn run_pad(config: &PadConfig, _seed: u64) -> PadCell {
    let g = config.dataset.generate(config.n, config.graph_seed);
    let c = run(config.platform, config.algorithm, &g, None);
    PadCell {
        platform: config.platform.name(),
        algorithm: config.algorithm.name(),
        dataset: config.dataset.name(),
        critical_path: c.critical_path,
        iterations: c.iterations,
    }
}

fn pad_campaign_with(
    name: &str,
    platforms: &[Platform],
    n: usize,
    seed: u64,
) -> CampaignResult<PadConfig, PadCell> {
    let platforms = platforms.to_vec();
    Campaign::new(name, run_pad)
        .factor("dataset", Dataset::all().map(|d| d.name()))
        .factor("algorithm", Algorithm::all().map(|a| a.name()))
        .factor("platform", platforms.iter().map(|p| p.name()))
        .root_seed(seed)
        .run(|cell| {
            let dataset = Dataset::all()
                .into_iter()
                .find(|d| d.name() == cell.level("dataset"))
                .expect("grid levels come from Dataset::all");
            let algorithm = Algorithm::all()
                .into_iter()
                .find(|a| a.name() == cell.level("algorithm"))
                .expect("grid levels come from Algorithm::all");
            let platform = *platforms
                .iter()
                .find(|p| p.name() == cell.level("platform"))
                .expect("grid levels come from the platform roster");
            PadConfig {
                platform,
                algorithm,
                dataset,
                n,
                graph_seed: split_labeled(seed, dataset.name()),
            }
        })
}

/// The full-factorial PAD sweep as a campaign: every roster platform ×
/// all six algorithms × all three datasets, graphs of roughly `n`
/// vertices.
pub(crate) fn pad_campaign(n: usize, seed: u64) -> CampaignResult<PadConfig, PadCell> {
    pad_campaign_with("graph.pad", &Platform::roster(), n, seed)
}

/// The HPAD campaign: the PAD roster plus the heterogeneous
/// accelerator as a fourth platform level.
pub(crate) fn hpad_campaign(n: usize, seed: u64) -> CampaignResult<PadConfig, PadCell> {
    let mut platforms = Platform::roster().to_vec();
    platforms.push(Platform::Accelerator);
    pad_campaign_with("graph.hpad", &platforms, n, seed)
}

/// Runs the full-factorial PAD sweep (flat view of `pad_campaign`).
pub fn pad_sweep(n: usize, seed: u64) -> Vec<PadCell> {
    pad_campaign(n, seed)
        .first_outcomes()
        .into_iter()
        .cloned()
        .collect()
}

/// The HPAD sweep: the PAD roster plus the heterogeneous accelerator
/// (flat view of `hpad_campaign`).
pub fn hpad_sweep(n: usize, seed: u64) -> Vec<PadCell> {
    hpad_campaign(n, seed)
        .first_outcomes()
        .into_iter()
        .cloned()
        .collect()
}

/// Decomposes a sweep's log-costs into platform/algorithm/dataset main
/// effects and their interaction — the statistical form of the PAD law.
pub fn pad_decomposition(cells: &[PadCell]) -> Decomposition {
    let f: Vec<Cell> = cells
        .iter()
        .map(|c| Cell {
            a: c.platform.to_string(),
            b: c.algorithm.to_string(),
            c: c.dataset.to_string(),
            y: c.critical_path.max(1.0).ln(),
        })
        .collect();
    decompose(&f)
}

/// For each (algorithm, dataset) pair, the winning platform.
pub fn winners(cells: &[PadCell]) -> Vec<((&'static str, &'static str), &'static str)> {
    use std::collections::BTreeMap;
    let mut best: BTreeMap<(&str, &str), (&str, f64)> = BTreeMap::new();
    for c in cells {
        let key = (c.algorithm, c.dataset);
        match best.get(&key) {
            Some(&(_, cp)) if cp <= c.critical_path => {}
            _ => {
                best.insert(key, (c.platform, c.critical_path));
            }
        }
    }
    cells
        .iter()
        .map(|c| (c.algorithm, c.dataset))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|k| (k, best[&k].0))
        .collect()
}

/// Every platform a query may name: the PAD roster plus the
/// heterogeneous accelerator (the HPAD extension).
fn platform_roster_hpad() -> Vec<Platform> {
    let mut platforms = Platform::roster().to_vec();
    platforms.push(Platform::Accelerator);
    platforms
}

/// One PAD cell as a servable exploration query: platform × algorithm ×
/// dataset choices plus a graph-size knob. Graph seeding follows the
/// campaign convention (`split_labeled` on the dataset name), so served
/// cells are directly comparable with `pad_campaign` sweeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct PadExplorerCell;

impl CellScenario for PadExplorerCell {
    fn domain(&self) -> &str {
        "graph"
    }

    fn describe(&self) -> &str {
        "one PAD cell: a platform running an algorithm on a generated dataset"
    }

    fn params(&self) -> Vec<ParamSpec> {
        let platforms: Vec<&str> = platform_roster_hpad().iter().map(|p| p.name()).collect();
        let algorithms: Vec<&str> = Algorithm::all().iter().map(|a| a.name()).collect();
        let datasets: Vec<&str> = Dataset::all().iter().map(|d| d.name()).collect();
        vec![
            ParamSpec::choice("platform", "graph-processing platform model", &platforms),
            ParamSpec::choice("algorithm", "graph algorithm to run", &algorithms),
            ParamSpec::choice("dataset", "generated dataset family", &datasets),
            ParamSpec::optional("n", "approximate vertex count of the graph", "600"),
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
        let platform = *platform_roster_hpad()
            .iter()
            .find(|p| p.name() == params["platform"])
            .expect("choice validation");
        let algorithm = Algorithm::all()
            .into_iter()
            .find(|a| a.name() == params["algorithm"])
            .expect("choice validation");
        let dataset = Dataset::all()
            .into_iter()
            .find(|d| d.name() == params["dataset"])
            .expect("choice validation");
        let n: usize = parse_param(params, "n")?;
        if n == 0 || n > 200_000 {
            return Err(format!("parameter 'n': {n} outside 1..=200000"));
        }
        let config = PadConfig {
            platform,
            algorithm,
            dataset,
            n,
            graph_seed: split_labeled(seed, dataset.name()),
        };
        let rows = run_replicated(seed, replications, cancel, |seed| run_pad(&config, seed))?;
        let first = &rows[0];
        Ok(CellOutput {
            metrics: vec![
                (
                    "critical_path".to_string(),
                    Summary::from_iter(rows.iter().map(|r| r.critical_path)),
                ),
                (
                    "iterations".to_string(),
                    Summary::from_iter(rows.iter().map(|r| f64::from(r.iterations))),
                ),
            ],
            notes: vec![
                ("platform".to_string(), first.platform.to_string()),
                ("algorithm".to_string(), first.algorithm.to_string()),
                ("dataset".to_string(), first.dataset.to_string()),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Vec<PadCell> {
        pad_sweep(1_200, 3)
    }

    #[test]
    fn sweep_is_full_factorial() {
        let cells = sweep();
        assert_eq!(cells.len(), 3 * 6 * 3);
    }

    #[test]
    fn pad_law_holds() {
        // The paper's "law!": performance depends on the interaction of
        // platform, algorithm, and dataset — the interaction term must
        // explain a non-trivial share of variance.
        let d = pad_decomposition(&sweep());
        assert!(
            d.interaction_share() > 0.05,
            "interaction share {} too small for the PAD law",
            d.interaction_share()
        );
        assert!(d.ss_total > 0.0);
    }

    #[test]
    fn no_platform_wins_everywhere() {
        let w = winners(&sweep());
        let distinct: std::collections::BTreeSet<&str> = w.iter().map(|&(_, p)| p).collect();
        assert!(
            distinct.len() >= 2,
            "one platform swept all algorithm×dataset cells: {distinct:?}"
        );
    }

    #[test]
    fn hpad_accelerator_wins_some_cells_only() {
        // [106]: with heterogeneous hardware "the PAD law is applicable
        // only in special situations" — the accelerator must win some
        // cells and lose others.
        let cells = hpad_sweep(1_200, 3);
        let w = winners(&cells);
        let accel_wins = w.iter().filter(|&&(_, p)| p == "accelerator").count();
        assert!(accel_wins > 0, "accelerator should win somewhere");
        assert!(
            accel_wins < w.len(),
            "accelerator should not win everywhere"
        );
    }

    #[test]
    fn cells_of_one_dataset_share_their_graph() {
        let r = pad_campaign(400, 3);
        for cell in &r.cells {
            let d = cell.config.dataset.name();
            assert_eq!(cell.config.graph_seed, split_labeled(3, d));
        }
    }

    #[test]
    fn campaign_feeds_factorial_decomposition() {
        // The engine's own 3-factor bridge agrees with pad_decomposition
        // on the interaction structure.
        let r = pad_campaign(400, 3);
        let cells = r.to_factorial_cells(|c: &PadCell| c.critical_path.max(1.0).ln());
        let d = decompose(&cells);
        assert!(d.ss_total > 0.0);
        assert_eq!(cells.len(), 54);
    }

    #[test]
    fn serve_cell_matches_campaign_cell_exactly() {
        // A served graph query must agree byte-for-byte with the
        // corresponding cell of the declared PAD campaign: same graph
        // seed convention, same deterministic platform model.
        let seed = 3;
        let r = pad_campaign(400, seed);
        let campaign_cell = r
            .cells
            .iter()
            .find(|c| {
                c.config.platform.name() == "edge-centric"
                    && c.config.algorithm.name() == "pagerank"
                    && c.config.dataset.name() == "powerlaw"
            })
            .expect("full factorial contains the cell");

        let mut reg = atlarge_exp::Registry::new();
        reg.register(Box::new(PadExplorerCell));
        let raw = BTreeMap::from([
            ("platform".to_string(), "edge-centric".to_string()),
            ("algorithm".to_string(), "pagerank".to_string()),
            ("dataset".to_string(), "powerlaw".to_string()),
            ("n".to_string(), "400".to_string()),
        ]);
        let params = reg.validate("graph", &raw).expect("valid query");
        let tracer = atlarge_telemetry::NullTracer;
        let out = PadExplorerCell
            .run_cell(&params, seed, 1, &CancelToken::new(), &tracer)
            .expect("runs clean");
        assert_eq!(out.metrics[0].0, "critical_path");
        assert_eq!(out.metrics[0].1.mean(), campaign_cell.first().critical_path);
        assert_eq!(
            out.metrics[1].1.mean(),
            f64::from(campaign_cell.first().iterations)
        );
    }

    #[test]
    fn serve_cell_rejects_degenerate_sizes() {
        let tracer = atlarge_telemetry::NullTracer;
        let mut reg = atlarge_exp::Registry::new();
        reg.register(Box::new(PadExplorerCell));
        let defaults = reg.validate("graph", &BTreeMap::new()).expect("defaults");
        assert_eq!(defaults["n"], "600");
        let mut params = defaults.clone();
        params.insert("n".to_string(), "0".to_string());
        let err = PadExplorerCell
            .run_cell(&params, 1, 1, &CancelToken::new(), &tracer)
            .unwrap_err();
        assert!(err.contains("outside"), "{err}");
        let mut params = defaults;
        params.insert("n".to_string(), "forty".to_string());
        let err = PadExplorerCell
            .run_cell(&params, 1, 1, &CancelToken::new(), &tracer)
            .unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");
    }
}
