//! Pocket-style ephemeral storage for serverless analytics (\[96\],
//! \[104\]).
//!
//! The Stanford/IBM line "identified the problem, formulated the new
//! requirements for temporary storage for serverless, and analyzed the
//! available trade-offs", then "designed a complete system" — Pocket —
//! that right-sizes a tiered store (DRAM / Flash / HDD) to each job's
//! throughput and capacity needs instead of defaulting to one tier. The
//! model here reproduces the trade-off analysis and the right-sizing
//! policy.

/// A storage tier with capacity economics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Tier {
    /// Tier name.
    pub name: &'static str,
    /// Throughput per provisioned node, MB/s.
    pub throughput_per_node: f64,
    /// Capacity per node, GB.
    pub capacity_per_node: f64,
    /// Cost per node-hour.
    pub cost_per_node_hour: f64,
}

/// The three tiers of the Pocket analysis.
pub(crate) fn tiers() -> [Tier; 3] {
    [
        Tier {
            name: "dram",
            throughput_per_node: 4_000.0,
            capacity_per_node: 60.0,
            cost_per_node_hour: 3.0,
        },
        Tier {
            name: "flash",
            throughput_per_node: 1_000.0,
            capacity_per_node: 500.0,
            cost_per_node_hour: 0.8,
        },
        Tier {
            name: "hdd",
            throughput_per_node: 150.0,
            capacity_per_node: 4_000.0,
            cost_per_node_hour: 0.3,
        },
    ]
}

/// A serverless analytics job's ephemeral-storage requirements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct JobRequirements {
    /// Aggregate throughput needed, MB/s.
    pub throughput: f64,
    /// Peak intermediate-data capacity, GB.
    pub capacity: f64,
    /// How long the data lives, hours.
    pub lifetime_hours: f64,
}

/// A provisioning decision: nodes per tier.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Allocation {
    /// `(tier, nodes)` pairs.
    pub nodes: Vec<(Tier, u32)>,
}

impl Allocation {
    /// Total cost for a job lifetime.
    pub fn cost(&self, hours: f64) -> f64 {
        self.nodes
            .iter()
            .map(|(t, n)| t.cost_per_node_hour * f64::from(*n) * hours)
            .sum()
    }

    /// Aggregate throughput.
    pub(crate) fn throughput(&self) -> f64 {
        self.nodes
            .iter()
            .map(|(t, n)| t.throughput_per_node * f64::from(*n))
            .sum()
    }

    /// Aggregate capacity.
    pub fn capacity(&self) -> f64 {
        self.nodes
            .iter()
            .map(|(t, n)| t.capacity_per_node * f64::from(*n))
            .sum()
    }

    /// Whether the allocation meets a job's requirements.
    pub(crate) fn satisfies(&self, job: &JobRequirements) -> bool {
        self.throughput() >= job.throughput && self.capacity() >= job.capacity
    }
}

/// Single-tier sizing: enough nodes of one tier for both throughput and
/// capacity.
pub(crate) fn single_tier(tier: Tier, job: &JobRequirements) -> Allocation {
    let for_tp = (job.throughput / tier.throughput_per_node).ceil() as u32;
    let for_cap = (job.capacity / tier.capacity_per_node).ceil() as u32;
    Allocation {
        nodes: vec![(tier, for_tp.max(for_cap).max(1))],
    }
}

/// Pocket's right-sizing: considers every single-tier allocation plus a
/// mixed allocation (throughput served by the cheapest per-MB/s tier,
/// residual capacity by the cheapest per-GB tier) and returns the
/// cheapest that satisfies the job.
pub(crate) fn right_size(job: &JobRequirements) -> Allocation {
    let mut candidates: Vec<Allocation> = tiers().iter().map(|&t| single_tier(t, job)).collect();
    candidates.push(mixed_allocation(job));
    candidates
        .into_iter()
        .filter(|a| a.satisfies(job))
        .min_by(|a, b| {
            a.cost(job.lifetime_hours)
                .partial_cmp(&b.cost(job.lifetime_hours))
                .expect("finite costs")
        })
        .expect("single-tier allocations always satisfy")
}

/// The mixed allocation: throughput from the cheapest per-MB/s tier,
/// residual capacity from the cheapest per-GB tier.
fn mixed_allocation(job: &JobRequirements) -> Allocation {
    let ts = tiers();
    // Cheapest cost per MB/s.
    let tp_tier = ts
        .iter()
        .min_by(|a, b| {
            (a.cost_per_node_hour / a.throughput_per_node)
                .partial_cmp(&(b.cost_per_node_hour / b.throughput_per_node))
                .expect("finite costs")
        })
        .copied()
        .expect("tiers exist");
    // Cheapest cost per GB.
    let cap_tier = ts
        .iter()
        .min_by(|a, b| {
            (a.cost_per_node_hour / a.capacity_per_node)
                .partial_cmp(&(b.cost_per_node_hour / b.capacity_per_node))
                .expect("finite costs")
        })
        .copied()
        .expect("tiers exist");
    let mut nodes = Vec::new();
    let tp_nodes = (job.throughput / tp_tier.throughput_per_node).ceil() as u32;
    if tp_nodes > 0 {
        nodes.push((tp_tier, tp_nodes));
    }
    let covered_cap = tp_tier.capacity_per_node * f64::from(tp_nodes);
    let remaining = (job.capacity - covered_cap).max(0.0);
    let cap_nodes = (remaining / cap_tier.capacity_per_node).ceil() as u32;
    if cap_nodes > 0 {
        nodes.push((cap_tier, cap_nodes));
    }
    if nodes.is_empty() {
        nodes.push((tp_tier, 1));
    }
    Allocation { nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_check::check;
    use rand::Rng;

    fn throughput_heavy() -> JobRequirements {
        JobRequirements {
            throughput: 12_000.0,
            capacity: 100.0,
            lifetime_hours: 0.25,
        }
    }

    fn capacity_heavy() -> JobRequirements {
        JobRequirements {
            throughput: 300.0,
            capacity: 8_000.0,
            lifetime_hours: 1.0,
        }
    }

    #[test]
    fn allocations_always_satisfy() {
        for job in [throughput_heavy(), capacity_heavy()] {
            let a = right_size(&job);
            assert!(a.satisfies(&job), "{a:?} fails {job:?}");
            for t in tiers() {
                assert!(single_tier(t, &job).satisfies(&job));
            }
        }
    }

    #[test]
    fn right_sizing_beats_dram_only_on_capacity_heavy_jobs() {
        let job = capacity_heavy();
        let dram = single_tier(tiers()[0], &job);
        let sized = right_size(&job);
        assert!(
            sized.cost(job.lifetime_hours) < 0.5 * dram.cost(job.lifetime_hours),
            "right-sized {} vs dram {}",
            sized.cost(job.lifetime_hours),
            dram.cost(job.lifetime_hours)
        );
    }

    #[test]
    fn right_sizing_beats_hdd_only_on_throughput_heavy_jobs() {
        let job = throughput_heavy();
        let hdd = single_tier(tiers()[2], &job);
        let sized = right_size(&job);
        assert!(
            sized.cost(job.lifetime_hours) < hdd.cost(job.lifetime_hours),
            "right-sized {} vs hdd {}",
            sized.cost(job.lifetime_hours),
            hdd.cost(job.lifetime_hours)
        );
    }

    /// Right-sizing always satisfies the job and never costs more than
    /// the best single tier.
    fn right_size_satisfies_and_is_competitive(throughput: f64, capacity: f64, hours: f64) {
        let job = JobRequirements {
            throughput,
            capacity,
            lifetime_hours: hours,
        };
        let sized = right_size(&job);
        assert!(sized.satisfies(&job), "{sized:?} fails {job:?}");
        let best_single = tiers()
            .iter()
            .map(|&t| single_tier(t, &job).cost(hours))
            .fold(f64::INFINITY, f64::min);
        assert!(
            sized.cost(hours) <= best_single * 1.3 + 1e-9,
            "right-sized {} vs best single {}",
            sized.cost(hours),
            best_single
        );
    }

    #[test]
    fn prop_right_size_satisfies_and_is_competitive() {
        // A case that once failed: the smallest job of the input ranges.
        right_size_satisfies_and_is_competitive(10.0, 1.0, 0.05);
        check("prop_right_size_satisfies_and_is_competitive", 256, |rng| {
            right_size_satisfies_and_is_competitive(
                rng.gen_range(10.0f64..20_000.0),
                rng.gen_range(1.0f64..10_000.0),
                rng.gen_range(0.05f64..4.0),
            );
        });
    }

    #[test]
    fn tier_economics_are_ordered() {
        let ts = tiers();
        // DRAM: best $/throughput; HDD: best $/capacity.
        let per_tp: Vec<f64> = ts
            .iter()
            .map(|t| t.cost_per_node_hour / t.throughput_per_node)
            .collect();
        let per_cap: Vec<f64> = ts
            .iter()
            .map(|t| t.cost_per_node_hour / t.capacity_per_node)
            .collect();
        assert!(per_tp[0] < per_tp[2]);
        assert!(per_cap[2] < per_cap[0]);
    }
}
