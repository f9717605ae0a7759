//! SplitMix64-style seed derivation: one root seed, many independent
//! streams.
//!
//! Every campaign run derives its RNG seed from a single root through the
//! SplitMix64 output permutation. The scheme has two properties the
//! engine's determinism guarantee depends on:
//!
//! 1. **Reproducible** — derivation is a pure function of
//!    `(root, cell, replication)`; no global state, no execution order.
//! 2. **Collision-free where it matters** — for a fixed root and
//!    replication, the map `cell → seed` is *injective* (and likewise
//!    `replication → seed` for a fixed cell): the inner combination
//!    multiplies by an odd constant and adds, both bijections modulo
//!    2^64, and the SplitMix64 finalizer is itself a bijection. Two
//!    different cells of the same campaign can never share a seed — the
//!    correlated-stream bug this module exists to kill.

/// The SplitMix64 output permutation (Steele, Lea & Flood 2014): a
/// bijective avalanche mix of a 64-bit word.
#[inline]
pub(crate) fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 golden-gamma increment.
pub(crate) const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Odd multiplier decorrelating the replication stream from the cell
/// stream (an arbitrary odd constant ≠ [`GOLDEN_GAMMA`]).
const REPLICATION_GAMMA: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Derives the seed of one `(cell, replication)` run from the campaign
/// root seed.
///
/// For a fixed `(root, replication)`, distinct cells get distinct seeds;
/// for a fixed `(root, cell)`, distinct replications get distinct seeds.
///
/// # Examples
///
/// ```
/// use atlarge_exp::seed::derive_seed;
///
/// let a = derive_seed(2026, 0, 0);
/// let b = derive_seed(2026, 1, 0);
/// let c = derive_seed(2026, 0, 1);
/// assert_ne!(a, b);
/// assert_ne!(a, c);
/// assert_eq!(a, derive_seed(2026, 0, 0));
/// ```
#[inline]
pub fn derive_seed(root: u64, cell: u64, replication: u64) -> u64 {
    // Root and replication fold into a stream base; the finalizer
    // avalanches it. Cells then advance the base by a golden-gamma
    // multiple, and a second finalize decorrelates neighbors.
    let base = splitmix64_mix(
        root.wrapping_add(1)
            .wrapping_add(REPLICATION_GAMMA.wrapping_mul(replication)),
    );
    splitmix64_mix(base.wrapping_add(GOLDEN_GAMMA.wrapping_mul(cell)))
}

/// Derives a named sub-stream seed, for splitting one seed between
/// sub-studies ("ecosystem", "ground-truth", …) without correlation.
///
/// ```
/// use atlarge_exp::seed::split_labeled;
///
/// assert_ne!(split_labeled(7, "ecosystem"), split_labeled(7, "flashcrowd"));
/// assert_eq!(split_labeled(7, "ecosystem"), split_labeled(7, "ecosystem"));
/// ```
#[inline]
pub fn split_labeled(root: u64, label: &str) -> u64 {
    let h = atlarge_telemetry::manifest::fnv1a(label.as_bytes());
    splitmix64_mix(splitmix64_mix(h).wrapping_add(root.wrapping_mul(GOLDEN_GAMMA) | 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn cells_are_pairwise_distinct() {
        let seeds: BTreeSet<u64> = (0..10_000).map(|c| derive_seed(42, c, 3)).collect();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn replications_are_pairwise_distinct() {
        let seeds: BTreeSet<u64> = (0..10_000).map(|r| derive_seed(42, 3, r)).collect();
        assert_eq!(seeds.len(), 10_000);
    }

    #[test]
    fn grid_of_cells_and_replications_has_no_collisions_in_practice() {
        let mut seeds = BTreeSet::new();
        for cell in 0..200 {
            for rep in 0..50 {
                seeds.insert(derive_seed(7, cell, rep));
            }
        }
        assert_eq!(seeds.len(), 200 * 50);
    }

    #[test]
    fn labels_split_cleanly() {
        let labels = [
            "ecosystem",
            "ground-truth",
            "bias",
            "flashcrowd",
            "pipeline",
        ];
        let distinct: BTreeSet<u64> = labels.iter().map(|l| split_labeled(11, l)).collect();
        assert_eq!(distinct.len(), labels.len());
        // And across roots the same label moves.
        assert_ne!(
            split_labeled(11, "ecosystem"),
            split_labeled(12, "ecosystem")
        );
    }

    #[test]
    fn mix_is_a_permutation_sample() {
        // Bijectivity spot check: no collisions over a dense local range.
        let outs: BTreeSet<u64> = (0..100_000u64).map(splitmix64_mix).collect();
        assert_eq!(outs.len(), 100_000);
    }
}
