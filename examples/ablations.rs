//! Ablations for the design decisions DESIGN.md calls out: cold-start
//! keep-alive, co-evolution stall limit, Area-of-Simulation battle
//! composition, and the portfolio scheduler's active-set size and
//! runtime-prediction error. `paper_tables` prints none of them.
//!
//! ```sh
//! cargo run --release --example ablations
//! ```

use atlarge::core::exploration::{ExplorationProcess, Explorer};
use atlarge::core::space::RuggedSpace;
use atlarge::mmog::rts::{load, Architecture, Scenario};
use atlarge::scheduling::experiments::{active_set_ablation, prediction_sensitivity, Scale};
use atlarge::serverless::platform::{run_platform, FaasConfig, FunctionSpec};

fn main() {
    println!("cold-start keep-alive ablation (keep-alive s -> cold %, p50 s, GB-s):");
    for (ka, cold, p50, gbs) in keepalive_sweep(1) {
        println!(
            "  {ka:>6.0}s -> {:>3.0}% cold, p50 {p50:.2}s, {gbs:.1} GB-s",
            cold * 100.0
        );
    }

    println!("co-evolution stall-limit ablation (limit -> problems visited, satisficed):");
    let space = RuggedSpace::new(40, 6, 7);
    for limit in [1usize, 2, 4, 8] {
        let r = Explorer::new(ExplorationProcess::CoEvolving, 2_000)
            .stall_limit(limit)
            .run(&space, 0.68, 3);
        println!(
            "  limit {limit}: {} problems, satisficed {}, best {:.3}",
            r.problems_visited, r.satisficed, r.best_quality
        );
    }

    println!("AoS battle-composition ablation (hot points -> AoS/full load ratio):");
    for hot in [0usize, 1, 3, 5, 7] {
        let s = Scenario::replay_shaped(hot.max(1), 7 - hot.min(7), 1);
        let ratio = load(&s, Architecture::AreaOfSimulation) / load(&s, Architecture::FullFidelity);
        println!("  {hot} hot points -> ratio {ratio:.2}");
    }

    println!("portfolio active-set ablation (k, lookahead events, slowdown):");
    for (k, events, slowdown) in active_set_ablation(Scale::Quick, 1) {
        println!("  k={k}: {events} events, slowdown {slowdown:.2}");
    }
    println!("prediction sensitivity (estimate sigma -> normalized PS slowdown):");
    for (sigma, gap) in prediction_sensitivity(Scale::Quick, 1, 3) {
        println!("  sigma={sigma:.1}: degradation {gap:.3}");
    }
}

/// Sweeps the keep-alive window on a sparse invocation schedule.
fn keepalive_sweep(seed: u64) -> Vec<(f64, f64, f64, f64)> {
    let spec = FunctionSpec {
        name: "handler".into(),
        exec_time: 0.4,
        memory_gb: 0.5,
    };
    let invs: Vec<(f64, usize)> = (0..200).map(|i| (i as f64 * 90.0, 0)).collect();
    [10.0, 60.0, 300.0, 1_200.0]
        .iter()
        .map(|&ka| {
            let cfg = FaasConfig {
                keep_alive: ka,
                ..FaasConfig::default()
            };
            let m = run_platform(vec![spec.clone()], cfg, &invs, seed, None);
            (
                ka,
                m.cold_fraction,
                m.latency_summary().median(),
                m.gb_seconds,
            )
        })
        .collect()
}
