//! Property tests for the `atlarge-exp` campaign engine: the
//! determinism, independence, and seed-separation guarantees every
//! Section-6 harness now relies on.

use atlarge::exp::seed::derive_seed;
use atlarge::exp::Campaign;
use atlarge_check::check;
use rand::Rng;
use std::collections::BTreeSet;

/// A stochastic run function: a seeded random walk whose outcome
/// depends on every bit of the seed and on the configured length.
fn walk(steps: &usize, seed: u64) -> f64 {
    let mut state = seed | 1;
    let mut sum = 0.0;
    for _ in 0..*steps {
        // xorshift64 keeps the walk cheap and seed-sensitive.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        sum += (state % 1_000) as f64 / 1_000.0 - 0.5;
    }
    sum
}

fn walk_campaign(
    levels: usize,
    replications: usize,
    root_seed: u64,
    threads: usize,
) -> atlarge::exp::CampaignResult<usize, f64> {
    Campaign::new("prop.walk", walk)
        .factor("steps", (1..=levels).map(|s| (s * 10).to_string()))
        .replications(replications)
        .root_seed(root_seed)
        .threads(threads)
        .run(|cell| cell.level("steps").parse().expect("steps level parses"))
}

/// (a) Serial and parallel execution of the same campaign produce
/// identical `CampaignResult`s — outcomes, seeds, manifests — for any
/// root seed, grid size, and thread count.
#[test]
fn prop_serial_equals_parallel() {
    check("prop_serial_equals_parallel", 24, |rng| {
        let root = rng.gen_range(0u64..u64::MAX);
        let levels = rng.gen_range(1usize..6);
        let replications = rng.gen_range(1usize..4);
        let threads = rng.gen_range(2usize..8);
        let serial = walk_campaign(levels, replications, root, 1);
        let parallel = walk_campaign(levels, replications, root, threads);
        assert_eq!(&serial, &parallel);
        assert!(serial.manifest().same_run_as(&parallel.manifest()));
    });
}

/// (b) Distinct replications of a stochastic run function produce nonzero
/// variance: the replication seeds are genuinely different streams, not
/// one stream repeated.
#[test]
fn prop_replications_vary() {
    check("prop_replications_vary", 24, |rng| {
        let root = rng.gen_range(0u64..u64::MAX);
        let levels = rng.gen_range(1usize..4);
        let r = walk_campaign(levels, 8, root, 1);
        for cell in &r.cells {
            let s = cell.summarize(|&y| y);
            assert!(
                s.variance() > 0.0,
                "cell {} collapsed to a single outcome across 8 replications",
                cell.spec.label()
            );
        }
    });
}

/// (c) Derived sub-seeds are pairwise distinct across a 10k-cell grid,
/// for any root seed and replication index.
#[test]
fn prop_derived_seeds_distinct_across_10k_cells() {
    check("prop_derived_seeds_distinct_across_10k_cells", 24, |rng| {
        let root = rng.gen_range(0u64..u64::MAX);
        let replication = rng.gen_range(0u64..4);
        let mut seen = BTreeSet::new();
        for cell in 0..10_000u64 {
            assert!(
                seen.insert(derive_seed(root, cell, replication)),
                "seed collision at cell {cell} (root {root}, replication {replication})"
            );
        }
    });
}

/// Replications are also distinct from each other for a fixed cell, and
/// cells from replications: the two derivation axes do not alias.
#[test]
fn prop_seed_axes_do_not_alias() {
    check("prop_seed_axes_do_not_alias", 24, |rng| {
        let root = rng.gen_range(0u64..u64::MAX);
        let mut seen = BTreeSet::new();
        for cell in 0..100u64 {
            for replication in 0..100u64 {
                assert!(
                    seen.insert(derive_seed(root, cell, replication)),
                    "collision at cell {cell} x replication {replication}"
                );
            }
        }
    });
}

/// Two executions of the same campaign render byte-identical output —
/// the end-to-end regression guard for the `unordered-iteration` lint:
/// no iteration-order nondeterminism anywhere between run outcomes
/// and the exported JSONL (the manifest line's digest included).
#[test]
fn identical_campaign_output_across_two_runs() {
    let render = || {
        let r = walk_campaign(4, 3, 2026, 4);
        let mut buf = Vec::new();
        let mean: &dyn Fn(&f64) -> f64 = &|&y| y;
        r.write_metrics_jsonl(&mut buf, &[("walk", mean)])
            .expect("in-memory write succeeds");
        // Drop the manifest's wall_ms field (report-only, wall-clock):
        // everything else must match byte-for-byte.
        let text = String::from_utf8(buf).expect("JSONL is UTF-8");
        text.lines()
            .map(|l| match l.find("\"wall_ms\"") {
                Some(i) => &l[..i],
                None => l,
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(render(), render());
}
