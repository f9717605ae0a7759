//! The datacenter capacity campaign: cluster sizing as an
//! `atlarge-exp` factor grid.
//!
//! Section 6.2's reference architecture asks how a datacenter's serving
//! capacity scales with its shape. This module sweeps host count ×
//! cores-per-host over a fixed open-arrival workload through the
//! campaign engine, replicated over derived seeds, and summarizes
//! makespan and utilization per cell.

use crate::loadgen::{run_cluster, ClusterRunStats};
use atlarge_exp::registry::{parse_param, run_replicated, CellOutput, CellScenario, ParamSpec};
use atlarge_exp::{Campaign, CampaignResult, CancelToken};
use atlarge_stats::descriptive::Summary;
use atlarge_telemetry::tracer::Tracer;
use std::collections::BTreeMap;

/// One capacity cell's config: the cluster shape and offered load.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Number of hosts.
    pub hosts: usize,
    /// Cores per host.
    pub cores_per_host: u32,
    /// Rigid jobs offered over the run.
    pub jobs: usize,
}

/// One capacity run: a seeded cluster run of the cell's shape and load.
/// The campaign and the served cell both call it.
fn run_capacity(spec: &ClusterSpec, seed: u64) -> ClusterRunStats {
    run_cluster(spec.hosts, spec.cores_per_host, spec.jobs, seed, None)
}

/// Runs the capacity campaign: `hosts` × `cores-per-host` levels, the
/// same `jobs`-job workload family per cell, `replications` derived
/// seeds each.
pub(crate) fn capacity_campaign(
    hosts: &[usize],
    cores: &[u32],
    jobs: usize,
    seed: u64,
    replications: usize,
) -> CampaignResult<ClusterSpec, ClusterRunStats> {
    Campaign::new("datacenter.capacity", run_capacity)
        .factor("hosts", hosts.iter().map(|h| h.to_string()))
        .factor("cores", cores.iter().map(|c| c.to_string()))
        .replications(replications)
        .root_seed(seed)
        .run(|cell| ClusterSpec {
            hosts: cell.level("hosts").parse().expect("hosts level parses"),
            cores_per_host: cell.level("cores").parse().expect("cores level parses"),
            jobs,
        })
}

/// The default capacity grid used by the paper-tables driver.
pub fn default_capacity_campaign(
    seed: u64,
    replications: usize,
) -> CampaignResult<ClusterSpec, ClusterRunStats> {
    capacity_campaign(&[2, 4, 8], &[8, 16], 400, seed, replications)
}

/// Renders the campaign as a text table: one line per cell with
/// makespan (mean ± CI over replications) and mean utilization.
pub fn render_capacity(result: &CampaignResult<ClusterSpec, ClusterRunStats>) -> String {
    let mut out = format!(
        "{:<18}{:>10}{:>22}{:>12}\n",
        "cell", "completed", "makespan", "util"
    );
    for cell in &result.cells {
        let makespan = cell.summarize(|s| s.makespan);
        let util = cell.summarize(|s| s.mean_utilization);
        out.push_str(&format!(
            "{:<18}{:>10}{:>15.1} ±{:<5.1}{:>12.2}\n",
            cell.spec.label(),
            cell.first().completed,
            makespan.mean(),
            makespan.ci95_half_width(),
            util.mean()
        ));
    }
    out
}

/// The largest cluster a capacity query may ask for: the model holds
/// every host in memory.
const MAX_HOSTS: usize = 10_000;

/// One capacity-planning cell as a servable exploration query: cluster
/// shape and offered load as numeric knobs, replicated with
/// campaign-compatible seeding.
#[derive(Debug, Clone, Copy, Default)]
pub struct CapacityCell;

impl CellScenario for CapacityCell {
    fn domain(&self) -> &str {
        "datacenter"
    }

    fn describe(&self) -> &str {
        "seeded rigid-job capacity run against a homogeneous cluster"
    }

    fn params(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec::optional("hosts", "number of hosts", "4"),
            ParamSpec::optional("cores_per_host", "cores per host", "16"),
            ParamSpec::optional("jobs", "rigid jobs offered over the run", "400"),
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
        let hosts: usize = parse_param(params, "hosts")?;
        let cores_per_host: u32 = parse_param(params, "cores_per_host")?;
        let jobs: usize = parse_param(params, "jobs")?;
        if hosts == 0 || cores_per_host == 0 {
            return Err("parameters 'hosts' and 'cores_per_host' must be positive".to_string());
        }
        if hosts > MAX_HOSTS {
            return Err(format!(
                "parameter 'hosts': {hosts} outside 1..={MAX_HOSTS}"
            ));
        }
        // The cluster counts its cores in a u32.
        let total_cores = hosts as u64 * u64::from(cores_per_host);
        if total_cores > u64::from(u32::MAX) {
            return Err(format!(
                "parameters 'hosts' x 'cores_per_host': {total_cores} cores exceed {}",
                u32::MAX
            ));
        }
        if jobs == 0 || jobs > 100_000 {
            return Err(format!("parameter 'jobs': {jobs} outside 1..=100000"));
        }
        let spec = ClusterSpec {
            hosts,
            cores_per_host,
            jobs,
        };
        let runs = run_replicated(seed, replications, cancel, |seed| run_capacity(&spec, seed))?;
        let summarize =
            |f: &dyn Fn(&ClusterRunStats) -> f64| Summary::from_iter(runs.iter().map(f));
        Ok(CellOutput {
            metrics: vec![
                ("makespan".to_string(), summarize(&|s| s.makespan)),
                (
                    "utilization".to_string(),
                    summarize(&|s| s.mean_utilization),
                ),
                ("completed".to_string(), summarize(&|s| s.completed as f64)),
                (
                    "queued_peak".to_string(),
                    summarize(&|s| s.queued_peak as f64),
                ),
            ],
            notes: vec![(
                "cluster".to_string(),
                format!("{hosts} hosts x {cores_per_host} cores, {jobs} jobs"),
            )],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_covers_the_grid_and_completes_all_jobs() {
        let r = capacity_campaign(&[2, 4], &[8], 100, 17, 2);
        assert_eq!(r.cells.len(), 2);
        for cell in &r.cells {
            for run in &cell.runs {
                assert_eq!(run.outcome.completed, 100, "{}", cell.spec.label());
            }
        }
    }

    #[test]
    fn more_hosts_shrink_the_makespan() {
        let r = capacity_campaign(&[2, 8], &[8], 300, 17, 3);
        let small = r.cells[0].summarize(|s| s.makespan).mean();
        let big = r.cells[1].summarize(|s| s.makespan).mean();
        assert!(big < small, "8 hosts ({big}) should beat 2 hosts ({small})");
    }

    #[test]
    fn replications_vary_the_runs() {
        // Distinct derived seeds must produce distinct workloads.
        let r = capacity_campaign(&[4], &[8], 200, 17, 3);
        let makespans: std::collections::BTreeSet<String> = r.cells[0]
            .runs
            .iter()
            .map(|run| format!("{:.6}", run.outcome.makespan))
            .collect();
        assert!(makespans.len() > 1, "replications collapsed: {makespans:?}");
    }

    #[test]
    fn render_lists_every_cell() {
        let r = default_capacity_campaign(17, 2);
        let s = render_capacity(&r);
        assert_eq!(r.cells.len(), 6);
        for cell in &r.cells {
            assert!(s.contains(&cell.spec.label()));
        }
    }

    #[test]
    fn serve_cell_matches_campaign_cell_statistics() {
        // A served "4 hosts x 16 cores, 400 jobs" query must reproduce
        // the matching cell of the declared capacity campaign.
        let r = capacity_campaign(&[4], &[16], 400, 17, 3);
        let campaign_makespan = r.cells[0].summarize(|s| s.makespan);

        let mut reg = atlarge_exp::Registry::new();
        reg.register(Box::new(CapacityCell));
        let params = reg
            .validate("datacenter", &BTreeMap::new())
            .expect("defaults fill");
        assert_eq!(params["hosts"], "4");
        let tracer = atlarge_telemetry::NullTracer;
        let out = CapacityCell
            .run_cell(&params, 17, 3, &CancelToken::new(), &tracer)
            .expect("runs clean");
        assert_eq!(out.metrics[0].0, "makespan");
        assert_eq!(out.metrics[0].1.mean(), campaign_makespan.mean());
        assert_eq!(out.metrics[0].1.len(), 3);
    }

    #[test]
    fn serve_cell_rejects_degenerate_clusters() {
        let tracer = atlarge_telemetry::NullTracer;
        let refusal = |hosts: &str, cores_per_host: &str| {
            let raw = BTreeMap::from([
                ("hosts".to_string(), hosts.to_string()),
                ("cores_per_host".to_string(), cores_per_host.to_string()),
                ("jobs".to_string(), "10".to_string()),
            ]);
            CapacityCell
                .run_cell(&raw, 1, 1, &CancelToken::new(), &tracer)
                .unwrap_err()
        };
        let err = refusal("0", "16");
        assert!(err.contains("positive"), "{err}");
        // 4 x 2^30 cores is one more than the cluster's u32 core count holds.
        let err = refusal("4", "1073741824");
        assert!(err.contains(&format!("exceed {}", u32::MAX)), "{err}");
        let err = refusal("10001", "16");
        assert!(err.contains("1..=10000"), "{err}");
    }
}
