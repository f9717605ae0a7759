//! Regenerates every table and figure of the paper as text.
//!
//! This is the harness EXPERIMENTS.md is produced from: each section
//! prints the series/rows behind one paper artifact, from the
//! bibliometric figures through the seven Section-6 case studies. Every
//! Section-6 table runs through the `atlarge-exp` campaign engine, so
//! the whole report is reproducible from one root seed and
//! byte-identical across thread counts (`ATLARGE_EXP_THREADS`).
//!
//! ```sh
//! cargo run --release --example paper_tables -- --seed 2026 --replications 1
//! ```

use atlarge::autoscaling::experiments as autoscaling_exp;
use atlarge::biblio::corpus::Corpus;
use atlarge::biblio::keywords::keyword_presence;
use atlarge::biblio::reviews::{extract_findings, violin_panel, Criterion, ReviewModel};
use atlarge::biblio::trends::design_counts_by_block;
use atlarge::core::catalog;
use atlarge::core::exploration::{ExplorationProcess, Explorer};
use atlarge::core::quality::DesignDocument;
use atlarge::core::reasoning::ReasoningMode;
use atlarge::core::space::RuggedSpace;
use atlarge::datacenter::experiments as datacenter_exp;
use atlarge::datacenter::refarch::{big_data_refarch, full_datacenter_refarch};
use atlarge::exp::interop::exploration_campaign;
use atlarge::exp::CampaignResult;
use atlarge::graph::experiments as graph_exp;
use atlarge::mmog::experiments::TABLE6;
use atlarge::p2p::experiments::TABLE5;
use atlarge::p2p::sharded::{run_regional_swarm, RegionalConfig};
use atlarge::p2p::swarm::{Bandwidth, SwarmConfig};
use atlarge::scheduling::experiments::{render_table9, table9_campaign, Scale};
use atlarge::serverless::experiments::TABLE7;
use atlarge::serverless::platform::{FaasConfig, FunctionSpec};
use atlarge::serverless::sharded::run_sharded_platform;

/// Default root seed: the year the reproduction targets.
const SEED: u64 = 2026;
/// Default replications per campaign cell.
const REPLICATIONS: usize = 1;
/// Default shard count for the parallel-in-time section. Any value
/// must produce byte-identical output — partitioning is an execution
/// detail, never a modelling one, and CI diffs `--shards 1` against
/// `--shards 8` to hold that line.
const SHARDS: usize = 1;

fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Claim-holds rate across every replicated run of a table campaign.
fn claim_rate<C: std::fmt::Debug, O>(
    result: &CampaignResult<C, O>,
    holds: impl Fn(&O) -> bool,
) -> (usize, usize) {
    let total = result.total_runs();
    let held = result
        .cells
        .iter()
        .flat_map(|c| c.runs.iter())
        .filter(|r| holds(&r.outcome))
        .count();
    (held, total)
}

fn parse_args() -> (u64, usize, usize) {
    let mut seed = SEED;
    let mut replications = REPLICATIONS;
    let mut shards = SHARDS;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed takes an integer");
            }
            "--replications" => {
                replications = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r| r > 0)
                    .expect("--replications takes a positive integer");
            }
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&s| s > 0)
                    .expect("--shards takes a positive integer");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: paper_tables [--seed N] [--replications R] [--shards S]");
                std::process::exit(2);
            }
        }
    }
    (seed, replications, shards)
}

/// Parallel-in-time appendix: two Section-6 domains re-run on the
/// sharded conservative kernel. The shard count comes from `--shards`
/// and deliberately never appears in the output: CI diffs the report
/// at 1 and 8 shards byte-for-byte, so any partition-dependent
/// behaviour in the kernel surfaces as a reproducibility failure, not
/// a silent drift.
fn sharded_kernel_section(seed: u64, shards: usize) {
    header("Appendix — parallel-in-time kernel (sharded backend)");

    let config = RegionalConfig {
        swarm: SwarmConfig {
            file_size: 10e6,
            bandwidth: Bandwidth::adsl(100e3, 8.0),
            mean_seed_time: 600.0,
            origin_seeds: 1,
            recalc_interval: 5.0,
            optimistic_floor: 0.1,
        },
        regions: 8,
        link_delay: 2.5,
        transit_fraction: 0.5,
    };
    let joins: Vec<(f64, u32, Bandwidth)> = (0..64)
        .map(|i| (i as f64 * 11.0, i as u32 % 8, Bandwidth::adsl(100e3, 8.0)))
        .collect();
    let swarm = run_regional_swarm(config, &joins, 50_000.0, seed ^ 0x5A11, shards, 1)
        .expect("valid regional partition");
    println!(
        "regional swarm: {}/{} downloads completed, mean download {:.4} s",
        swarm.completed(),
        joins.len(),
        swarm.mean_download_time()
    );

    let functions: Vec<FunctionSpec> = (0..6)
        .map(|i| FunctionSpec {
            name: format!("f{i}"),
            exec_time: 0.050 + 0.025 * i as f64,
            memory_gb: 0.128 * (1 + i % 3) as f64,
        })
        .collect();
    let chains = vec![vec![0, 1, 2], vec![3, 4], vec![5, 0]];
    let requests: Vec<(f64, usize)> = (0..48).map(|i| (0.75 * i as f64, i % 3)).collect();
    let faas = run_sharded_platform(
        functions,
        FaasConfig::default(),
        chains,
        &requests,
        seed ^ 0xFAA5,
        shards,
        1,
    )
    .expect("valid platform partition");
    println!(
        "serverless chains: {}/{} requests completed, {} invocations \
         ({:.1}% cold), mean latency {:.4} s",
        faas.requests.len(),
        requests.len(),
        faas.invocations,
        faas.cold_fraction() * 100.0,
        faas.mean_latency()
    );
}

fn main() {
    let (seed, replications, shards) = parse_args();
    println!("root seed {seed}, {replications} replication(s) per campaign cell");

    header("Figure 1 — keyword presence in top systems venues (synthetic corpus)");
    let corpus = Corpus::generate(seed);
    print!("{}", keyword_presence(&corpus).to_table_string());

    header("Figure 2 — design articles per 5-year block");
    let blocks = design_counts_by_block(&corpus);
    print!("{}", blocks.to_table_string());
    println!(
        "totals per block: {:?}\nincreasing trend: {}; post-2000 increase: {:.1}x",
        blocks.totals(),
        blocks.is_increasing(),
        blocks.post_2000_increase()
    );

    header("Figure 3 — review-score violins (generative review model)");
    let articles = ReviewModel::default().simulate(seed);
    for criterion in [Criterion::Merit, Criterion::Quality, Criterion::Topic] {
        let p = violin_panel(&articles, criterion);
        println!(
            "{criterion:?}: design mean {:.2} median {:.1} IQR [{:.1},{:.1}] | \
             non-design mean {:.2} median {:.1} IQR [{:.1},{:.1}]",
            p.design.mean(),
            p.design.median(),
            p.design.q1(),
            p.design.q3(),
            p.non_design.mean(),
            p.non_design.median(),
            p.non_design.q1(),
            p.non_design.q3(),
        );
    }
    let f = extract_findings(&articles);
    println!(
        "finding 1 (design merit better): {}; finding 2 (design below 3): {:.0}%; \
         mean topic score {:.2}",
        f.design_merit_mean_higher,
        f.design_below_3_fraction * 100.0,
        f.mean_topic
    );

    header("Figure 4 — design-document rubric (student vs trained)");
    let student = DesignDocument::student_example();
    let trained = DesignDocument::trained_example();
    println!(
        "student score {:.2}, missing: {:?}",
        student.score(),
        student.missing()
    );
    println!("trained score {:.2}", trained.score());

    header("Figure 5 — Dorst reasoning modes");
    for mode in ReasoningMode::all() {
        println!("{mode:?}: {} unknown slot(s)", mode.unknowns());
    }

    header("Figure 6 — exploration processes at equal budget (campaign)");
    let space = RuggedSpace::new(40, 3, 7);
    let exploration = exploration_campaign(RuggedSpace::new(40, 3, 7), 0.64, 400, 30, seed);
    println!(
        "{:<14}{:>16}{:>12}{:>14}",
        "process", "satisfice rate", "novelty", "best quality"
    );
    for cell in &exploration.cells {
        println!(
            "{:<14}{:>16.2}{:>12.2}{:>14.3}",
            cell.config.name(),
            cell.summarize(|r| f64::from(u8::from(r.satisficed))).mean(),
            cell.summarize(|r| r.novelty).mean(),
            cell.summarize(|r| r.best_quality).mean()
        );
    }

    header("Figure 7 — a co-evolving trajectory");
    // Seeded to show the canonical Figure-7 narrative: the team struggles
    // on problem 1, evolves the problem, and finds solutions easily.
    let run = Explorer::new(ExplorationProcess::CoEvolving, 3_000)
        .stall_limit(2)
        .run(&space, 0.70, 9);
    println!(
        "problems visited {} | solutions per problem {:?} | failures {} | best quality {:.3}",
        run.problems_visited,
        run.solutions_per_problem,
        run.failures(),
        run.best_quality
    );

    header("Figure 8 / Tables 1-3 — framework catalogs");
    println!(
        "overview rows: {}; principles: {}; challenges: {}; integrity violations: {:?}",
        catalog::overview().len(),
        catalog::principles().len(),
        catalog::challenges().len(),
        catalog::integrity_violations()
    );

    header("Figure 9 — reference architectures");
    let old = big_data_refarch();
    let new = full_datacenter_refarch();
    println!(
        "{}: layers {:?}, components {}",
        old.name,
        old.layers,
        old.components.len()
    );
    println!(
        "{}: layers {:?}, components {}",
        new.name,
        new.layers,
        new.components.len()
    );
    for missing in [
        "MemEFS",
        "Pocket",
        "Crail",
        "FlashNet",
        "Graphalytics",
        "Granula",
    ] {
        println!(
            "  {missing:<14} old: {}  new: {}",
            old.find(missing).map_or("absent", |_| "mapped"),
            new.find(missing).map_or("absent", |_| "mapped")
        );
    }

    header("Table 5 — P2P studies");
    let t5 = TABLE5.campaign(seed, replications);
    if replications > 1 {
        print!("{}", TABLE5.render_campaign(&t5));
    } else {
        print!(
            "{}",
            TABLE5.render(&t5.first_outcomes().into_iter().cloned().collect::<Vec<_>>())
        );
    }

    header("Table 6 — MMOG studies");
    let t6 = TABLE6.campaign(seed, replications);
    print!(
        "{}",
        TABLE6.render(&t6.first_outcomes().into_iter().cloned().collect::<Vec<_>>())
    );
    if replications > 1 {
        let (held, total) = claim_rate(&t6, |r| r.claim_holds);
        println!("claims held in {held}/{total} replicated runs");
    }

    header("Table 7 — serverless studies");
    let t7 = TABLE7.campaign(seed, replications);
    print!(
        "{}",
        TABLE7.render(&t7.first_outcomes().into_iter().cloned().collect::<Vec<_>>())
    );
    if replications > 1 {
        let (held, total) = claim_rate(&t7, |r| r.claim_holds);
        println!("claims held in {held}/{total} replicated runs");
    }

    header("Table 8 — the PAD/HPAD sweeps");
    let pad = graph_exp::pad_sweep(1_500, seed);
    let d = graph_exp::pad_decomposition(&pad);
    println!(
        "PAD: {} cells; interaction share {:.2}; max main effect {:.2}",
        pad.len(),
        d.interaction_share(),
        d.max_main_share()
    );
    let hpad = graph_exp::hpad_sweep(1_500, seed);
    println!("HPAD winners per (algorithm, dataset):");
    for ((alg, ds), platform) in graph_exp::winners(&hpad) {
        println!("   {alg:<10} on {ds:<10} -> {platform}");
    }

    header("Table 9 — portfolio scheduling");
    let t9 = table9_campaign(Scale::Quick, seed, replications);
    print!(
        "{}",
        render_table9(&t9.first_outcomes().into_iter().cloned().collect::<Vec<_>>())
    );
    if replications > 1 {
        let (useful, total) = claim_rate(&t9, |r| r.portfolio_gap() <= 1.25);
        println!("PS strictly 'useful' in {useful}/{total} replicated runs");
    }

    header("§6.2 — datacenter capacity campaign");
    let capacity = datacenter_exp::default_capacity_campaign(seed, replications);
    print!("{}", datacenter_exp::render_capacity(&capacity));

    header("§6.7 — autoscaling campaign");
    let cells = autoscaling_exp::campaign(4_000.0, seed);
    let (h2h, borda, grades) = autoscaling_exp::aggregate(&cells);
    println!("head-to-head wins: {h2h:?}");
    println!("borda points:      {borda:?}");
    println!("weighted grades:   {grades:?}");

    sharded_kernel_section(seed, shards);
}
