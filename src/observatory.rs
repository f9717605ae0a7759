//! Observatory trace export: the machine-readable half of the
//! `ecosystem_observatory` example, as a library.
//!
//! Two export modes, mirroring the example's `--trace` flag:
//!
//! - [`export_trace`] — single-file mode: re-runs the flashcrowd swarm
//!   with a [`Recorder`] attached and writes `<path>` (kernel trace +
//!   manifest) plus `<path>.metrics.jsonl`.
//!   Parent directories are created as needed — `--trace out/deep/run.jsonl`
//!   works even when `out/` does not exist yet.
//! - [`export_all_domains`] — directory mode: a seven-cell `domain`
//!   campaign re-runs every instrumented domain traced and fills the
//!   directory with one `<domain>.trace.jsonl` + `<domain>.metrics.jsonl`
//!   pair per domain.
//!
//! Both modes derive all randomness from one root seed; export two seeds
//! and feed the metrics files to `trace_lens diff`.

use crate::autoscaling::autoscaler::React;
use crate::autoscaling::sim::{run as run_autoscaling, AutoscaleConfig};
use crate::datacenter::run_cluster;
use crate::evolve::SwapPlan;
use crate::exp::Campaign;
use crate::graph::generators::preferential_attachment;
use crate::graph::platforms::{run as run_graph, Algorithm, Platform};
use crate::mmog::provisioning::compare_policies;
use crate::p2p::swarm::{run_swarm, Bandwidth, SharingPolicy, SwarmConfig, TitForTat};
use crate::scheduling::policy::Policy;
use crate::scheduling::simulator::{simulate, SimConfig};
use crate::serverless::platform::{run_platform, FaasConfig, FunctionSpec};
use crate::telemetry::manifest::RunManifest;
use crate::telemetry::Recorder;
use crate::workload::job::{Job, JobId, Task};
use crate::workload::workflow::{generate, Shape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

/// The seven instrumented domains of the observatory export.
pub const EXPORT_DOMAINS: [&str; 7] = [
    "p2p",
    "serverless",
    "autoscaling",
    "datacenter",
    "graph",
    "mmog",
    "scheduling",
];

/// Runs the flashcrowd swarm traced on `rec`.
fn trace_p2p(arrivals: &[f64], seed: u64, rec: &Recorder) {
    let config = SwarmConfig {
        file_size: 50e6,
        mean_seed_time: 1_000.0,
        ..SwarmConfig::default()
    };
    let joins: Vec<(f64, Bandwidth)> = arrivals.iter().map(|&t| (t, config.bandwidth)).collect();
    run_swarm(
        config,
        &joins,
        80_000.0,
        seed,
        TitForTat.name(),
        SwapPlan::none(),
        Some(rec),
    )
    .expect("tit-for-tat with no plan always runs");
}

/// Creates the parent directory of `path`, if it has one that is missing.
///
/// `File::create` does not do this, so a plain `--trace out/run.jsonl`
/// against a fresh checkout used to fail with `NotFound` before a human
/// guessed they had to `mkdir` first.
fn ensure_parent(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    Ok(())
}

/// Writes `rec`'s trace and metrics as `<dir>/<domain>.{trace,metrics}.jsonl`
/// and returns the summary line for the export listing.
fn write_domain(dir: &Path, domain: &str, rec: &Recorder) -> std::io::Result<String> {
    let trace_path = dir.join(format!("{domain}.trace.jsonl"));
    let mut w = BufWriter::new(File::create(&trace_path)?);
    rec.write_trace_jsonl(&mut w)?;
    let mut w = BufWriter::new(File::create(dir.join(format!("{domain}.metrics.jsonl")))?);
    rec.write_metrics_jsonl(&mut w)?;
    let m = rec.manifest();
    Ok(format!(
        "  {domain:<12} model={:<20} events={:<7} sim_time={:>10.1} trace_records={}{}",
        m.model,
        m.events_dispatched,
        m.sim_time,
        m.trace_records,
        if m.trace_dropped > 0 {
            format!(" (dropped {})", m.trace_dropped)
        } else {
            String::new()
        }
    ))
}

/// One traced export: re-runs `domain` with a [`Recorder`] attached and
/// writes its JSONL pair into `dir`. Each is one cell of the export
/// campaign; cells touch disjoint files, so the campaign can fan domains
/// across threads, and the summary lines come back as outcomes and
/// print in canonical order.
fn export_domain(dir: &Path, arrivals: &[f64], domain: &str, seed: u64) -> std::io::Result<String> {
    let rec = Recorder::new();
    match domain {
        "p2p" => trace_p2p(arrivals, seed, &rec),
        "serverless" => {
            let functions = vec![
                FunctionSpec {
                    name: "thumbnail".into(),
                    exec_time: 0.8,
                    memory_gb: 0.5,
                },
                FunctionSpec {
                    name: "transcode".into(),
                    exec_time: 3.0,
                    memory_gb: 2.0,
                },
            ];
            let invocations: Vec<(f64, usize)> = (0..400)
                .map(|i| (f64::from(i) * 2.5, (i % 3 == 0) as usize))
                .collect();
            let cfg = FaasConfig {
                keep_alive: 60.0,
                ..FaasConfig::default()
            };
            run_platform(functions, cfg, &invocations, seed, Some(&rec));
        }
        "autoscaling" => {
            let mut rng = StdRng::seed_from_u64(seed);
            let workflows: Vec<_> = (0..12)
                .map(|i| generate(&mut rng, Shape::ForkJoin(6), 30.0, 0.3, f64::from(i) * 40.0))
                .collect();
            run_autoscaling(
                workflows,
                React,
                AutoscaleConfig::default(),
                seed,
                Some(&rec),
            );
        }
        "datacenter" => {
            run_cluster(8, 16, 400, seed, Some(&rec));
        }
        "graph" => {
            let graph = preferential_attachment(600, 4, seed);
            run_graph(
                Platform::Sequential,
                Algorithm::PageRank,
                &graph,
                Some(&rec),
            );
        }
        "mmog" => {
            compare_policies(seed, Some(&rec));
        }
        "scheduling" => {
            let jobs: Vec<Job> = (0..40)
                .map(|i| {
                    Job::new(
                        JobId(i),
                        i as f64 * 5.0,
                        vec![Task::new(8.0 + (i % 7) as f64, 1), Task::new(12.0, 2)],
                    )
                })
                .collect();
            let sched_cfg = SimConfig {
                estimate_sigma: 0.3,
                seed,
            };
            simulate(&jobs, &[8, 8], Policy::Sjf, &sched_cfg, &[], Some(&rec));
        }
        other => unreachable!("unknown export domain {other}"),
    }
    write_domain(dir, domain, &rec)
}

/// Re-runs every instrumented domain traced — a seven-cell `domain`
/// campaign — and writes one JSONL pair per domain into `dir`, creating
/// it (and any missing ancestors) first. Returns one summary line per
/// domain, in [`EXPORT_DOMAINS`] order.
pub fn export_all_domains(dir: &Path, arrivals: &[f64], seed: u64) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;

    let result = Campaign::new("observatory.export", |domain: &String, seed| {
        export_domain(dir, arrivals, domain, seed)
    })
    .factor("domain", EXPORT_DOMAINS)
    .root_seed(seed)
    .run(|cell| cell.level("domain").to_string());

    let mut lines = Vec::new();
    for cell in &result.cells {
        match cell.first() {
            Ok(line) => lines.push(line.clone()),
            Err(e) => {
                return Err(std::io::Error::new(
                    e.kind(),
                    format!("{} export failed: {e}", cell.config),
                ))
            }
        }
    }
    Ok(lines)
}

/// What [`export_trace`] wrote, for the caller to report.
pub struct TraceExport {
    /// Where the kernel event trace (+ closing manifest line) landed.
    pub trace_path: PathBuf,
    /// Where the domain metrics landed.
    pub metrics_path: PathBuf,
    /// The run manifest of the traced swarm.
    pub manifest: RunManifest,
    /// Trace records captured.
    pub records: usize,
    /// Trace records dropped by the recorder's ring.
    pub dropped: u64,
}

/// Single-file mode: re-runs the flashcrowd swarm traced and writes the
/// kernel trace to `path` and metrics to `<path minus .jsonl>.metrics.jsonl`,
/// creating missing parent directories for both.
pub fn export_trace(path: &Path, arrivals: &[f64], seed: u64) -> std::io::Result<TraceExport> {
    let rec = Recorder::new();
    trace_p2p(arrivals, seed, &rec);
    ensure_parent(path)?;
    let mut trace = BufWriter::new(File::create(path)?);
    rec.write_trace_jsonl(&mut trace)?;
    let stem = path.to_string_lossy();
    let metrics_path = PathBuf::from(format!("{}.metrics.jsonl", stem.trim_end_matches(".jsonl")));
    let mut metrics = BufWriter::new(File::create(&metrics_path)?);
    rec.write_metrics_jsonl(&mut metrics)?;
    Ok(TraceExport {
        trace_path: path.to_path_buf(),
        metrics_path,
        manifest: rec.manifest(),
        records: rec.trace_len(),
        dropped: rec.trace_dropped(),
    })
}
