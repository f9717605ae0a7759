//! The Table 7 reproduction: one runnable check per study row, declared
//! as the [`TABLE7`] study table and run as an `atlarge-exp` campaign.
//!
//! Each study is one cell of a single-factor grid with an independently
//! derived seed. Paired contrasts within a row (cold vs warm keep-alive,
//! FaaS vs reserved) reuse the cell seed for common random numbers.

use crate::evolution::{earliest_feasible, timeline};
use crate::platform::{faas_vs_reserved, run_platform, FaasConfig, FunctionSpec};
use crate::refarch::{surveyed_platforms, ServerlessPrinciple};
use crate::storage::{right_size, single_tier, tiers, JobRequirements};
use crate::workflow::{map_reduce_workflow, WorkflowEngine};
use atlarge_exp::{StudyRow, StudyTable};

fn demo_function() -> FunctionSpec {
    FunctionSpec {
        name: "handler".into(),
        exec_time: 0.8,
        memory_gb: 0.5,
    }
}

// [101] ('17) General — terminology and principles.
fn row_principles(seed: u64) -> StudyRow {
    StudyRow {
        study: "[101] ('17)",
        feature: "General",
        source: "SPEC RG Cloud",
        finding: format!(
            "{} serverless principles encoded; pay-per-use verified on the platform model",
            ServerlessPrinciple::all().len()
        ),
        claim_holds: {
            // Principle (2): cost tracks execution only, not idle time.
            let sparse: Vec<(f64, usize)> = (0..10).map(|i| (i as f64 * 1_000.0, 0)).collect();
            let dense: Vec<(f64, usize)> = (0..10).map(|i| (i as f64 * 1.0, 0)).collect();
            let cfg = FaasConfig::default();
            let ms = run_platform(vec![demo_function()], cfg, &sparse, seed, None);
            let md = run_platform(vec![demo_function()], cfg, &dense, seed, None);
            (ms.gb_seconds - md.gb_seconds).abs() < 1e-9
        },
    }
}

// [102] ('18) Performance — the cold-start challenge.
fn row_cold_start(seed: u64) -> StudyRow {
    let sparse: Vec<(f64, usize)> = (0..50).map(|i| (i as f64 * 120.0, 0)).collect();
    let cold = run_platform(
        vec![demo_function()],
        FaasConfig {
            keep_alive: 30.0,
            ..FaasConfig::default()
        },
        &sparse,
        seed,
        None,
    );
    let warm = run_platform(
        vec![demo_function()],
        FaasConfig {
            keep_alive: 600.0,
            ..FaasConfig::default()
        },
        &sparse,
        seed,
        None,
    );
    StudyRow {
        study: "[102] ('18)",
        feature: "Performance",
        source: "SPEC RG Cloud",
        finding: format!(
            "cold fraction {:.0}% (30s keep-alive) vs {:.0}% (600s); p50 {:.2}s vs {:.2}s",
            cold.cold_fraction * 100.0,
            warm.cold_fraction * 100.0,
            cold.latency_summary().median(),
            warm.latency_summary().median()
        ),
        claim_holds: cold.cold_fraction > warm.cold_fraction
            && cold.latency_summary().median() > warm.latency_summary().median(),
    }
}

// [60] ('18) Evolution — could not have happened ten years ago.
fn row_evolution(_seed: u64) -> StudyRow {
    let year = earliest_feasible(&timeline(), "faas").unwrap_or(0);
    StudyRow {
        study: "[60] ('18)",
        feature: "Evolution",
        source: "SPEC RG Cloud",
        finding: format!("earliest feasible FaaS emergence: {year}"),
        claim_holds: year >= 2015,
    }
}

// GitHub ('17-'19) Fission Workflows — the engine keeps overhead low.
fn row_fission_workflows(seed: u64) -> StudyRow {
    let registry = vec![
        FunctionSpec {
            name: "prepare".into(),
            exec_time: 0.1,
            memory_gb: 0.25,
        },
        FunctionSpec {
            name: "map".into(),
            exec_time: 1.0,
            memory_gb: 0.5,
        },
        FunctionSpec {
            name: "reduce".into(),
            exec_time: 0.3,
            memory_gb: 0.5,
        },
    ];
    let engine = WorkflowEngine::new(registry, FaasConfig::default());
    let wf = map_reduce_workflow(16);
    let run = engine.execute(&wf, seed);
    let cp = engine.critical_path(&wf, seed);
    StudyRow {
        study: "GitHub ('17-'19)",
        feature: "Fission WF.",
        source: "Platform9",
        finding: format!(
            "map-reduce workflow: makespan {:.2}s vs critical path {:.2}s ({} invocations)",
            run.makespan, cp, run.invocations
        ),
        claim_holds: run.makespan < cp * 1.1,
    }
}

// [103] ('19) Reference architecture — coverage of surveyed platforms.
fn row_ref_arch(_seed: u64) -> StudyRow {
    let covered = surveyed_platforms()
        .iter()
        .filter(|p| p.missing_core().is_empty())
        .count();
    let total = surveyed_platforms().len();
    StudyRow {
        study: "[103] ('19)",
        feature: "Ref. Arch",
        source: "SPEC RG Cloud",
        finding: format!("{covered}/{total} surveyed platforms fully mapped"),
        claim_holds: covered == total,
    }
}

// [96]/[104] Pocket — right-sized ephemeral storage (the joining
// designer's line of work, §6.4's closing).
fn row_pocket_storage(_seed: u64) -> StudyRow {
    let job = JobRequirements {
        throughput: 2_000.0,
        capacity: 3_000.0,
        lifetime_hours: 0.5,
    };
    let sized = right_size(&job);
    let dram = single_tier(tiers()[0], &job);
    StudyRow {
        study: "[96] ('18)",
        feature: "Storage",
        source: "Stanford/IBM",
        finding: format!(
            "right-sized cost {:.1} vs DRAM-only {:.1} (both satisfy the job)",
            sized.cost(job.lifetime_hours),
            dram.cost(job.lifetime_hours)
        ),
        claim_holds: sized.satisfies(&job)
            && sized.cost(job.lifetime_hours) < dram.cost(job.lifetime_hours),
    }
}

// The FaaS economics headline: serverless wins bursty sparse loads.
fn row_economics(seed: u64) -> StudyRow {
    let invs: Vec<(f64, usize)> = (0..720).map(|i| (i as f64 * 120.0, 0)).collect();
    let (faas, reserved, p50) = faas_vs_reserved(&invs, demo_function(), 86_400.0, 0.05, seed);
    StudyRow {
        study: "[101] §perf",
        feature: "Economics",
        source: "SPEC RG Cloud",
        finding: format!(
            "sparse workload: faas cost {faas:.3} vs reserved {reserved:.2} (p50 {p50:.2}s)"
        ),
        claim_holds: faas < reserved / 10.0,
    }
}

/// Table 7: the serverless studies, printed and served as one study
/// table. Its third column names the team, not an instrument.
pub const TABLE7: StudyTable = StudyTable {
    name: "serverless.table7",
    domain: "serverless",
    describe: "Table 7 serverless study reproductions, one study row per cell",
    study_help: "which Table 7 study row to reproduce",
    source_header: "Team",
    widths: [18, 14, 16],
    studies: &[
        ("principles", row_principles),
        ("cold-start", row_cold_start),
        ("evolution", row_evolution),
        ("fission-workflows", row_fission_workflows),
        ("ref-arch", row_ref_arch),
        ("pocket-storage", row_pocket_storage),
        ("economics", row_economics),
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_exp::CellScenario;

    #[test]
    fn every_table7_claim_holds() {
        for row in TABLE7.rows(19) {
            assert!(
                row.claim_holds,
                "{} {}: claim failed — {}",
                row.study, row.feature, row.finding
            );
        }
    }

    #[test]
    fn table_has_all_rows() {
        let rows = TABLE7.rows(19);
        assert_eq!(rows.len(), 7);
        let s = TABLE7.render(&rows);
        for tag in ["[101]", "[102]", "[60]", "Fission", "[103]", "[96]"] {
            assert!(s.contains(tag), "missing {tag}");
        }
    }

    #[test]
    fn replicated_claims_hold_across_seeds() {
        for cell in &TABLE7.campaign(19, 3).cells {
            for run in &cell.runs {
                assert!(
                    run.outcome.claim_holds,
                    "{} (seed {}): {}",
                    run.outcome.study, run.seed, run.outcome.finding
                );
            }
        }
    }

    #[test]
    fn table7_prints_and_serves_its_declared_shape() {
        assert_eq!(
            TABLE7.render(&[]),
            "Study             Feature       Team            OK     Finding\n"
        );
        assert_eq!(TABLE7.domain(), "serverless");
        let spec = TABLE7.params();
        assert_eq!(spec.len(), 1);
        assert_eq!(spec[0].name, "study");
        assert_eq!(spec[0].help, "which Table 7 study row to reproduce");
        assert_eq!(spec[0].default.as_deref(), Some("principles"));
        assert_eq!(spec[0].choices.len(), 7);
    }
}
