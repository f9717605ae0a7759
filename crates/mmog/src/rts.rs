//! RTS scalability: RTSenv, Area of Simulation, Mirror (\[76\], \[81\], \[82\]).
//!
//! RTSenv revealed "a new form of scalability, unique to MMOGs, that
//! combines systems and game-design concepts": cost depends not on total
//! units but on how units pile into *points of interest*. Replay analysis
//! then showed RTS play has "(i) multiple points of interest, (ii) careful
//! management of up to tens of entities in some ..., (iii) more casual
//! management of up to hundreds ... in the others" — leading to the Area
//! of Simulation (AoS) technique: full-fidelity simulation only where
//! careful management happens, casual (low-rate) simulation elsewhere, and
//! to Mirror's computation offloading for mobile clients.

/// A point of interest on the RTS map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointOfInterest {
    /// Entities gathered at this point.
    pub entities: u32,
    /// Whether players manage this point carefully (high interaction
    /// rate) or casually.
    pub careful: bool,
}

/// A battle scenario: entities spread over points of interest.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The points of interest.
    pub points: Vec<PointOfInterest>,
}

impl Scenario {
    /// The replay-derived shape: a few carefully-managed hot points (tens
    /// of entities each) and several casual ones (hundreds).
    pub fn replay_shaped(hot_points: usize, casual_points: usize, scale: u32) -> Self {
        let mut points = Vec::new();
        for _ in 0..hot_points {
            points.push(PointOfInterest {
                entities: 30 * scale,
                careful: true,
            });
        }
        for _ in 0..casual_points {
            points.push(PointOfInterest {
                entities: 200 * scale,
                careful: false,
            });
        }
        Scenario { points }
    }
}

/// Simulation architectures compared by the AoS study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Classic client-server: the server simulates everything at full
    /// fidelity.
    FullFidelity,
    /// Static zoning: per-zone servers, but still full fidelity per zone
    /// (cost unchanged, only distributed; coordination overhead added).
    Zoning,
    /// Area of Simulation: full fidelity only at carefully-managed
    /// points, casual fidelity elsewhere.
    AreaOfSimulation,
}

impl Architecture {
    /// All architectures.
    pub fn all() -> [Architecture; 3] {
        [
            Architecture::FullFidelity,
            Architecture::Zoning,
            Architecture::AreaOfSimulation,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Architecture::FullFidelity => "full",
            Architecture::Zoning => "zoning",
            Architecture::AreaOfSimulation => "aos",
        }
    }
}

/// Full-fidelity tick rate (Hz) and the casual AoS rate.
pub(crate) const FULL_RATE: f64 = 20.0;
/// Casual simulation rate used by AoS outside areas of interest.
pub(crate) const CASUAL_RATE: f64 = 2.0;

/// Per-tick cost of simulating one point: interactions are quadratic in
/// co-located entities (unit collision/targeting), the game-design fact
/// RTSenv surfaced.
fn point_cost(entities: u32) -> f64 {
    let e = f64::from(entities);
    e + 0.01 * e * e
}

/// Computation load (cost × tick-rate, arbitrary units/s) of a scenario
/// under an architecture.
pub fn load(scenario: &Scenario, arch: Architecture) -> f64 {
    match arch {
        Architecture::FullFidelity => scenario
            .points
            .iter()
            .map(|p| point_cost(p.entities) * FULL_RATE)
            .sum(),
        Architecture::Zoning => {
            // Same per-point full-fidelity cost plus 10% cross-zone
            // coordination overhead.
            scenario
                .points
                .iter()
                .map(|p| point_cost(p.entities) * FULL_RATE)
                .sum::<f64>()
                * 1.1
        }
        Architecture::AreaOfSimulation => scenario
            .points
            .iter()
            .map(|p| {
                let rate = if p.careful { FULL_RATE } else { CASUAL_RATE };
                point_cost(p.entities) * rate
            })
            .sum(),
    }
}

/// Maximum `scale` (see [`Scenario::replay_shaped`]) an architecture
/// sustains within a compute `budget`.
pub(crate) fn max_scale(arch: Architecture, budget: f64) -> u32 {
    let mut scale = 1;
    loop {
        let s = Scenario::replay_shaped(3, 4, scale);
        if load(&s, arch) > budget {
            return scale.saturating_sub(1);
        }
        scale += 1;
        if scale > 10_000 {
            return scale;
        }
    }
}

/// Mirror (\[82\]): offloads a fraction of simulation computation from a
/// mobile client to a cloud mirror. Returns `(client_load, cloud_load,
/// added_latency_ms)`.
pub(crate) fn mirror_offload(
    scenario: &Scenario,
    offload_fraction: f64,
    network_rtt_ms: f64,
) -> (f64, f64, f64) {
    assert!((0.0..=1.0).contains(&offload_fraction), "fraction in [0,1]");
    let total = load(scenario, Architecture::AreaOfSimulation);
    let cloud = total * offload_fraction;
    let client = total - cloud;
    // Offloaded state updates pay half an RTT each way amortized.
    let latency = if offload_fraction > 0.0 {
        network_rtt_ms
    } else {
        0.0
    };
    (client, cloud, latency)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interaction_cost_is_superlinear() {
        // RTSenv's discovery: doubling entities at one point more than
        // doubles cost, while splitting them across points does not.
        let packed = Scenario {
            points: vec![PointOfInterest {
                entities: 400,
                careful: true,
            }],
        };
        let split = Scenario {
            points: vec![
                PointOfInterest {
                    entities: 200,
                    careful: true,
                },
                PointOfInterest {
                    entities: 200,
                    careful: true,
                },
            ],
        };
        let total = |s: &Scenario| s.points.iter().map(|p| p.entities).sum::<u32>();
        assert_eq!(total(&packed), total(&split));
        assert!(
            load(&packed, Architecture::FullFidelity)
                > 1.4 * load(&split, Architecture::FullFidelity),
            "same units, packed should cost much more"
        );
    }

    #[test]
    fn aos_cuts_load_on_replay_shaped_battles() {
        let s = Scenario::replay_shaped(3, 4, 1);
        let full = load(&s, Architecture::FullFidelity);
        let aos = load(&s, Architecture::AreaOfSimulation);
        assert!(
            aos < 0.5 * full,
            "AoS {aos} should cost well under half of full {full}"
        );
    }

    #[test]
    fn zoning_does_not_cut_load() {
        let s = Scenario::replay_shaped(3, 4, 1);
        assert!(load(&s, Architecture::Zoning) >= load(&s, Architecture::FullFidelity));
    }

    #[test]
    fn aos_scales_further_under_fixed_budget() {
        let budget = 2_000_000.0;
        let full = max_scale(Architecture::FullFidelity, budget);
        let aos = max_scale(Architecture::AreaOfSimulation, budget);
        assert!(
            aos > full,
            "AoS max scale {aos} should exceed full fidelity {full}"
        );
    }

    #[test]
    fn mirror_trades_latency_for_client_load() {
        let s = Scenario::replay_shaped(2, 2, 1);
        let (c0, g0, l0) = mirror_offload(&s, 0.0, 60.0);
        let (c1, g1, l1) = mirror_offload(&s, 0.7, 60.0);
        assert_eq!(g0, 0.0);
        assert_eq!(l0, 0.0);
        assert!(c1 < c0);
        assert!(g1 > 0.0);
        assert_eq!(l1, 60.0);
    }

    #[test]
    fn architectures_enumerate() {
        assert_eq!(Architecture::all().len(), 3);
        assert_eq!(Architecture::AreaOfSimulation.name(), "aos");
    }
}
