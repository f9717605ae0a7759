//! Design spaces.
//!
//! A design space pairs a set of candidate designs with a quality function.
//! The framework's two traditional problems — "identify the design space
//! and explore it efficiently" (§3.2) — become concrete here: spaces know
//! their neighborhoods, can be *constrained* along the What/How axes of
//! Figure 6, and can *evolve* into a new problem (the co-evolving
//! problem-solution of Figure 7).
//!
//! The concrete space is [`RuggedSpace`], an NK-style rugged fitness
//! landscape over bit strings. Ruggedness (the `k` parameter) models the
//! interaction between design decisions; high `k` makes local search
//! stall, which is what makes the exploration-process comparison of
//! Figure 6 non-trivial.

use rand::Rng;

/// Which decision axis an exploration process may vary (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Vary everything (free and co-evolving exploration).
    All,
    /// The technology is fixed; only relationships may vary
    /// ("Fix the What").
    HowOnly,
    /// The relationship kinds are fixed; only concepts may vary
    /// ("Fix the How" / re-framing).
    WhatOnly,
}

/// A design space: candidates, neighborhoods, and a quality function.
pub trait DesignSpace: Clone {
    /// The representation of one design.
    type Design: Clone + PartialEq;

    /// Samples a uniformly random design.
    fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Design;

    /// Neighbors of `design` reachable by one decision change along
    /// `axis`.
    fn neighbors(&self, design: &Self::Design, axis: Axis) -> Vec<Self::Design>;

    /// Quality of a design in `[0, 1]`; a design *satisfices* a problem
    /// when its quality reaches the problem's threshold (Simon's
    /// satisficing, §2.4).
    fn quality(&self, design: &Self::Design) -> f64;

    /// Normalized distance between two designs in `[0, 1]`; exploration
    /// reports use it as a novelty measure.
    fn distance(&self, a: &Self::Design, b: &Self::Design) -> f64;

    /// Evolves the *problem*: returns a successor space, as when a design
    /// team replaces the ecosystem that proved too limited (Figure 7 (b)).
    /// The default keeps the problem unchanged.
    fn evolve<R: Rng + ?Sized>(&self, _rng: &mut R) -> Self {
        self.clone()
    }

    /// log2 of the number of designs, as a size measure of the space.
    fn log2_size(&self) -> f64;
}

/// An NK-style rugged landscape over `n`-bit designs.
///
/// Each bit position contributes a fitness that depends on itself and its
/// `k` cyclic successors; contributions are derived from a seeded hash so
/// the landscape is deterministic. `k = 0` yields a smooth, single-peak
/// landscape; larger `k` yields many local optima.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuggedSpace {
    n: usize,
    k: usize,
    seed: u64,
}

impl RuggedSpace {
    /// Creates a landscape over `n` bits with interaction degree `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < n` and `k < n`.
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        assert!(n > 0, "space needs at least one decision");
        assert!(k < n, "interaction degree must be below n");
        RuggedSpace { n, k, seed }
    }

    /// Number of binary decisions.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Interaction degree (ruggedness).
    pub fn k(&self) -> usize {
        self.k
    }

    fn contribution(&self, locus: usize, pattern: u64) -> f64 {
        // SplitMix64-style hash of (seed, locus, pattern) -> [0,1).
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(locus as u64)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(pattern);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl DesignSpace for RuggedSpace {
    type Design = Vec<bool>;

    fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<bool> {
        (0..self.n).map(|_| rng.gen()).collect()
    }

    fn neighbors(&self, design: &Vec<bool>, axis: Axis) -> Vec<Vec<bool>> {
        // The What axis is the first half of the bits (the technology
        // choices); the How axis is the second half (the relationships).
        let half = self.n / 2;
        let range: Vec<usize> = match axis {
            Axis::All => (0..self.n).collect(),
            Axis::HowOnly => (half..self.n).collect(),
            Axis::WhatOnly => (0..half).collect(),
        };
        range
            .into_iter()
            .map(|i| {
                let mut d = design.clone();
                d[i] = !d[i];
                d
            })
            .collect()
    }

    fn quality(&self, design: &Vec<bool>) -> f64 {
        assert_eq!(design.len(), self.n, "design dimension mismatch");
        let mut total = 0.0;
        for i in 0..self.n {
            let mut pattern = 0u64;
            for j in 0..=self.k {
                let bit = design[(i + j) % self.n] as u64;
                pattern = (pattern << 1) | bit;
            }
            total += self.contribution(i, pattern);
        }
        total / self.n as f64
    }

    fn distance(&self, a: &Vec<bool>, b: &Vec<bool>) -> f64 {
        let diff = a.iter().zip(b).filter(|(x, y)| x != y).count();
        diff as f64 / self.n as f64
    }

    fn evolve<R: Rng + ?Sized>(&self, rng: &mut R) -> Self {
        // A new problem: a fresh landscape, somewhat smoother — the paper's
        // Figure 7 narrative has the evolved problem admit "many new
        // solutions relatively easily".
        RuggedSpace {
            n: self.n,
            k: self.k.saturating_sub(1),
            seed: rng.gen(),
        }
    }

    fn log2_size(&self) -> f64 {
        self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_check::check;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn quality_is_bounded_and_deterministic() {
        let s = RuggedSpace::new(16, 4, 3);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let d = s.random(&mut rng);
            let q = s.quality(&d);
            assert!((0.0..=1.0).contains(&q));
            assert_eq!(q, s.quality(&d));
        }
    }

    #[test]
    fn neighbors_respect_axes() {
        let s = RuggedSpace::new(10, 2, 1);
        let d = vec![false; 10];
        assert_eq!(s.neighbors(&d, Axis::All).len(), 10);
        assert_eq!(s.neighbors(&d, Axis::WhatOnly).len(), 5);
        assert_eq!(s.neighbors(&d, Axis::HowOnly).len(), 5);
        for n in s.neighbors(&d, Axis::WhatOnly) {
            // Only the first half may differ.
            assert!(n[5..].iter().all(|&b| !b));
        }
    }

    #[test]
    fn smooth_landscape_hill_climbs_to_optimum() {
        // k=0: each bit contributes independently; greedy ascent from
        // anywhere must reach the global optimum.
        let s = RuggedSpace::new(12, 0, 11);
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = s.random(&mut rng);
        loop {
            let cur = s.quality(&d);
            let best = s
                .neighbors(&d, Axis::All)
                .into_iter()
                .max_by(|a, b| s.quality(a).partial_cmp(&s.quality(b)).unwrap())
                .unwrap();
            if s.quality(&best) <= cur {
                break;
            }
            d = best;
        }
        // Exhaustive check: no design beats the climbed one.
        let q = s.quality(&d);
        for code in 0u32..(1 << 12) {
            let cand: Vec<bool> = (0..12).map(|i| (code >> i) & 1 == 1).collect();
            assert!(s.quality(&cand) <= q + 1e-12);
        }
    }

    #[test]
    fn evolve_smooths_the_problem() {
        let s = RuggedSpace::new(10, 4, 5);
        let mut rng = StdRng::seed_from_u64(2);
        let e = s.evolve(&mut rng);
        assert_eq!(e.k(), 3);
        assert_eq!(e.n(), 10);
    }

    #[test]
    fn distance_is_normalized_hamming() {
        let s = RuggedSpace::new(4, 0, 0);
        let a = vec![false, false, true, true];
        let b = vec![false, true, true, false];
        assert_eq!(s.distance(&a, &b), 0.5);
        assert_eq!(s.distance(&a, &a), 0.0);
    }

    /// Quality stays in [0,1] for arbitrary designs and parameters.
    #[test]
    fn prop_quality_bounded() {
        check("prop_quality_bounded", 256, |rng| {
            let n = rng.gen_range(1usize..20);
            let k = ((n - 1) as f64 * rng.gen_range(0.0f64..1.0)) as usize;
            let s = RuggedSpace::new(n, k, rng.gen_range(0u64..100));
            let mut design_rng = StdRng::seed_from_u64(rng.gen_range(0u64..100));
            let d = s.random(&mut design_rng);
            let q = s.quality(&d);
            assert!((0.0..=1.0).contains(&q));
        });
    }

    /// Distance is a metric-ish: symmetric, zero on identity, bounded.
    #[test]
    fn prop_distance() {
        check("prop_distance", 256, |rng| {
            let n = rng.gen_range(1usize..16);
            let seed = rng.gen_range(0u64..50);
            let s = RuggedSpace::new(n, 0, seed);
            let mut design_rng = StdRng::seed_from_u64(seed);
            let a = s.random(&mut design_rng);
            let b = s.random(&mut design_rng);
            assert_eq!(s.distance(&a, &b), s.distance(&b, &a));
            assert_eq!(s.distance(&a, &a), 0.0);
            assert!(s.distance(&a, &b) <= 1.0);
        });
    }
}
