//! Vicissitude: shifting bottlenecks in big-data workflows (\[38\], \[67\]).
//!
//! While analyzing the full BTWorld dataset with a MapReduce pipeline, the
//! team discovered *vicissitude*: "a class of phenomena where several
//! known bottlenecks appear seemingly at random in various parts of the
//! system". This module models a staged analytics pipeline whose
//! per-chunk stage costs depend on data properties (skew, size, overlap);
//! as chunks stream through, the bottleneck stage shifts. The analysis
//! detects the shifts and scores how "vicissitudinous" a run is by the
//! entropy of its bottleneck distribution.

use atlarge_evolve::{Capsule, CapsuleError, Evolvable, Live, SwapPlan, SwapRecord};
use atlarge_stats::dist::{LogNormal, Sample};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The stages of the BTWorld-like analytics pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Parse raw samples.
    Ingest,
    /// Shuffle by key (tracker/swarm).
    Shuffle,
    /// Aggregate per key.
    Aggregate,
    /// Join across time windows.
    Join,
    /// Write results.
    Output,
}

impl Stage {
    /// All stages in pipeline order.
    pub fn all() -> [Stage; 5] {
        [
            Stage::Ingest,
            Stage::Shuffle,
            Stage::Aggregate,
            Stage::Join,
            Stage::Output,
        ]
    }
}

/// Per-chunk data properties driving stage costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkProfile {
    /// Raw size multiplier.
    pub size: f64,
    /// Key skew (hot trackers) — hits shuffle and aggregate.
    pub skew: f64,
    /// Cross-window overlap — hits the join.
    pub overlap: f64,
}

/// One processed chunk: per-stage times and the bottleneck.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkResult {
    /// Time spent per stage, aligned with [`Stage::all`].
    pub stage_times: [f64; 5],
    /// The slowest stage.
    pub bottleneck: Stage,
}

/// Deterministic stage-cost model for one chunk.
pub(crate) fn process_chunk(p: &ChunkProfile) -> ChunkResult {
    let stage_times = [
        10.0 * p.size,                // ingest scales with size
        6.0 * p.size * p.skew,        // shuffle suffers under skew
        4.0 * p.size * p.skew.sqrt(), // aggregate, milder skew effect
        5.0 * p.size * p.overlap,     // join scales with overlap
        2.0 * p.size,                 // output
    ];
    let (bi, _) = stage_times
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
        .expect("five stages");
    ChunkResult {
        stage_times,
        bottleneck: Stage::all()[bi],
    }
}

/// How one chunk is processed: the pipeline's evolvable policy surface.
///
/// Policies may accumulate state across chunks; they are [`Evolvable`],
/// so [`run_pipeline`] can retire one mid-stream — e.g. deploy
/// a rebalancer once the bottleneck starts shifting.
pub trait ChunkPolicy: Evolvable + std::fmt::Debug {
    /// Short display name (also the swap-plan key).
    fn name(&self) -> &'static str;

    /// Processes one chunk.
    fn process(&mut self, p: &ChunkProfile) -> ChunkResult;
}

/// The historical pipeline: [`process_chunk`] verbatim, counting chunks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Baseline {
    /// Chunks processed so far.
    pub chunks_seen: u64,
}

impl ChunkPolicy for Baseline {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn process(&mut self, p: &ChunkProfile) -> ChunkResult {
        self.chunks_seen += 1;
        process_chunk(p)
    }
}

impl Evolvable for Baseline {
    fn capsule_kind(&self) -> &'static str {
        "p2p.chunk.baseline"
    }

    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new(self.capsule_kind(), self.capsule_version())
            .with_u64("chunks_seen", self.chunks_seen)
    }

    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())?;
        self.chunks_seen = capsule.u64_field("chunks_seen")?;
        Ok(())
    }
}

/// A rebalancer: spends extra capacity on whatever stage bottlenecks a
/// chunk, dividing that stage's time by `factor` (and re-deriving the
/// bottleneck from the adjusted times).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Rebalance {
    /// Speedup applied to the bottleneck stage (must be ≥ 1).
    pub factor: f64,
    /// Chunks rebalanced so far.
    pub rebalanced: u64,
}

impl Default for Rebalance {
    fn default() -> Self {
        Rebalance {
            factor: 2.0,
            rebalanced: 0,
        }
    }
}

impl ChunkPolicy for Rebalance {
    fn name(&self) -> &'static str {
        "rebalance"
    }

    fn process(&mut self, p: &ChunkProfile) -> ChunkResult {
        let raw = process_chunk(p);
        let mut stage_times = raw.stage_times;
        let bi = Stage::all()
            .iter()
            .position(|&s| s == raw.bottleneck)
            .expect("stage known");
        stage_times[bi] /= self.factor;
        self.rebalanced += 1;
        let (nbi, _) = stage_times
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
            .expect("five stages");
        ChunkResult {
            stage_times,
            bottleneck: Stage::all()[nbi],
        }
    }
}

impl Evolvable for Rebalance {
    fn capsule_kind(&self) -> &'static str {
        "p2p.chunk.rebalance"
    }

    fn capture(&self, _now: f64) -> Capsule {
        Capsule::new(self.capsule_kind(), self.capsule_version())
            .with_f64("factor", self.factor)
            .with_u64("rebalanced", self.rebalanced)
    }

    fn resume(&mut self, capsule: &Capsule, _now: f64) -> Result<(), CapsuleError> {
        capsule.expect_kind(self.capsule_kind())?;
        let factor = capsule.f64_field("factor")?;
        if factor < 1.0 || factor.is_nan() {
            return Err(CapsuleError::BadValue(format!(
                "rebalance factor {factor} must be >= 1"
            )));
        }
        self.factor = factor;
        self.rebalanced = capsule.u64_field("rebalanced")?;
        Ok(())
    }
}

/// Builds a chunk policy by its swap-plan name.
pub(crate) fn chunk_policy_by_name(name: &str) -> Option<Box<dyn ChunkPolicy>> {
    match name {
        "baseline" => Some(Box::new(Baseline::default())),
        "rebalance" => Some(Box::new(Rebalance::default())),
        _ => None,
    }
}

/// Processes `chunks` data chunks with seeded random data properties
/// under the `initial` chunk policy, with `plan` executing live. "Time"
/// is the chunk index; the trigger metric is the number of bottleneck
/// shifts observed so far, so a plan like `rebalance@peak40` deploys the
/// rebalancer once the stream turns vicissitudinous. `"baseline"` with
/// [`SwapPlan::none`] is the historical pipeline. Returns per-chunk
/// results and the swap log, or an error, before anything runs, when a
/// policy name is unknown.
pub fn run_pipeline(
    chunks: usize,
    seed: u64,
    initial: &str,
    plan: SwapPlan,
) -> Result<(Vec<ChunkResult>, Vec<SwapRecord>), String> {
    let mut policy = Live::new("chunk policy", chunk_policy_by_name, initial, plan)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let size_d = LogNormal::with_mean_cv(1.0, 0.6);
    let skew_d = LogNormal::with_mean_cv(1.0, 1.2);
    let overlap_d = LogNormal::with_mean_cv(1.0, 1.5);
    let mut results: Vec<ChunkResult> = Vec::with_capacity(chunks);
    let mut shifts = 0usize;
    for i in 0..chunks {
        if policy.swap_due(i as f64, shifts as f64).is_some() {
            policy.apply_swap(i as f64);
        }
        let p = ChunkProfile {
            size: size_d.sample(&mut rng),
            skew: skew_d.sample(&mut rng),
            overlap: overlap_d.sample(&mut rng),
        };
        let r = policy.current_mut().process(&p);
        if results
            .last()
            .is_some_and(|last| last.bottleneck != r.bottleneck)
        {
            shifts += 1;
        }
        results.push(r);
    }
    Ok((results, policy.swap_log().to_vec()))
}

/// The vicissitude score: normalized entropy of the bottleneck
/// distribution across chunks (0 = one fixed bottleneck, 1 = uniform
/// shifting).
pub fn vicissitude_score(results: &[ChunkResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    let mut counts = [0usize; 5];
    for r in results {
        let idx = Stage::all()
            .iter()
            .position(|&s| s == r.bottleneck)
            .expect("stage known");
        counts[idx] += 1;
    }
    let n = results.len() as f64;
    let entropy: f64 = counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum();
    entropy / (5f64).log2()
}

/// Number of bottleneck *shifts*: adjacent chunks whose bottleneck
/// differs.
pub fn bottleneck_shifts(results: &[ChunkResult]) -> usize {
    results
        .windows(2)
        .filter(|w| w[0].bottleneck != w[1].bottleneck)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_chunks_have_fixed_bottleneck() {
        let p = ChunkProfile {
            size: 1.0,
            skew: 1.0,
            overlap: 1.0,
        };
        let results: Vec<ChunkResult> = (0..50).map(|_| process_chunk(&p)).collect();
        assert_eq!(vicissitude_score(&results), 0.0);
        assert_eq!(bottleneck_shifts(&results), 0);
        assert_eq!(results[0].bottleneck, Stage::Ingest);
    }

    #[test]
    fn skew_moves_the_bottleneck_to_shuffle() {
        let p = ChunkProfile {
            size: 1.0,
            skew: 5.0,
            overlap: 1.0,
        };
        assert_eq!(process_chunk(&p).bottleneck, Stage::Shuffle);
    }

    #[test]
    fn overlap_moves_the_bottleneck_to_join() {
        let p = ChunkProfile {
            size: 1.0,
            skew: 1.0,
            overlap: 4.0,
        };
        assert_eq!(process_chunk(&p).bottleneck, Stage::Join);
    }

    #[test]
    fn realistic_runs_exhibit_vicissitude() {
        // The [38] phenomenon: bottlenecks appear "seemingly at random in
        // various parts of the system".
        let (results, _) = run_pipeline(500, 9, "baseline", SwapPlan::none()).unwrap();
        let score = vicissitude_score(&results);
        assert!(score > 0.4, "vicissitude score {score}");
        assert!(bottleneck_shifts(&results) > 100);
        // At least three distinct stages bottleneck at some point.
        let distinct: std::collections::BTreeSet<Stage> =
            results.iter().map(|r| r.bottleneck).collect();
        assert!(distinct.len() >= 3, "distinct bottlenecks {distinct:?}");
    }

    #[test]
    fn score_is_bounded() {
        let (results, _) = run_pipeline(100, 3, "baseline", SwapPlan::none()).unwrap();
        let s = vicissitude_score(&results);
        assert!((0.0..=1.0).contains(&s));
        assert_eq!(vicissitude_score(&[]), 0.0);
    }

    #[test]
    fn identity_swap_is_observationally_free() {
        let (plain, none) = run_pipeline(200, 9, "baseline", SwapPlan::none()).unwrap();
        assert!(none.is_empty());
        let plan = SwapPlan::parse("baseline@100").unwrap();
        let (swapped, log) = run_pipeline(200, 9, "baseline", plan).unwrap();
        assert_eq!(log.len(), 1);
        assert!(log[0].resumed, "chunk counter must survive the handoff");
        assert_eq!((log[0].time - 100.0).abs(), 0.0);
        assert_eq!(plain, swapped, "identity swap changed the pipeline");
    }

    #[test]
    fn shift_triggered_rebalance_tames_the_bottleneck() {
        let (baseline, _) = run_pipeline(300, 9, "baseline", SwapPlan::none()).unwrap();
        let plan = SwapPlan::parse("rebalance@peak40").unwrap();
        let (evolved, log) = run_pipeline(300, 9, "baseline", plan).unwrap();
        assert_eq!(log.len(), 1, "300 vicissitudinous chunks exceed 40 shifts");
        assert_eq!(log[0].from, "baseline");
        assert_eq!(log[0].to, "rebalance");
        assert!(!log[0].resumed, "cross-kind swap starts fresh");
        let cut = log[0].time as usize;
        // Before the swap the runs agree chunk-for-chunk...
        assert_eq!(baseline[..cut], evolved[..cut]);
        // ...after it, the rebalancer strictly lowers total chunk time.
        let total = |rs: &[ChunkResult]| -> f64 {
            rs.iter().map(|r| r.stage_times.iter().sum::<f64>()).sum()
        };
        assert!(total(&evolved[cut..]) < total(&baseline[cut..]));
    }

    #[test]
    fn rebalance_capsule_round_trips_with_validation() {
        let mut r = Rebalance {
            factor: 3.0,
            rebalanced: 17,
        };
        let capsule = r.capture(5.0);
        let mut fresh = Rebalance::default();
        fresh.resume(&capsule, 5.0).unwrap();
        assert_eq!(fresh, r);
        let mut broken = capsule.clone();
        broken.set("factor", atlarge_evolve::Value::F64(0.5));
        assert!(fresh.resume(&broken, 5.0).is_err());
        assert!(r.resume(&Baseline::default().capture(0.0), 0.0).is_err());
    }

    #[test]
    fn unknown_chunk_policies_are_rejected_up_front() {
        assert!(run_pipeline(10, 1, "nope", SwapPlan::none()).is_err());
        let plan = SwapPlan::parse("nope@5").unwrap();
        assert!(run_pipeline(10, 1, "baseline", plan).is_err());
    }
}
