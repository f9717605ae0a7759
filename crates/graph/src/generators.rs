//! Dataset generators.
//!
//! The "D" of the PAD triangle: datasets differ in the structural
//! properties that interact with algorithms and platforms — degree skew
//! (power-law vs uniform) and diameter (small-world vs grid). Three
//! families cover the corners, standing in for the LDBC Datagen and
//! real-world graphs of the benchmark.

use crate::csr::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dataset families of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Preferential attachment: power-law degrees, tiny diameter.
    PowerLaw,
    /// Erdős–Rényi: concentrated degrees, small diameter.
    Random,
    /// 2-D grid: uniform degree 4, large diameter.
    Grid,
}

impl Dataset {
    /// All dataset families.
    pub fn all() -> [Dataset; 3] {
        [Dataset::PowerLaw, Dataset::Random, Dataset::Grid]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::PowerLaw => "powerlaw",
            Dataset::Random => "random",
            Dataset::Grid => "grid",
        }
    }

    /// Generates an instance with roughly `n` vertices (grid rounds to a
    /// square). Undirected.
    pub fn generate(&self, n: usize, seed: u64) -> Csr {
        match self {
            Dataset::PowerLaw => preferential_attachment(n, 4, seed),
            Dataset::Random => erdos_renyi(n, 4 * n, seed),
            Dataset::Grid => grid((n as f64).sqrt().round() as usize),
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Barabási–Albert-style preferential attachment: each new vertex
/// attaches `m` edges to existing vertices chosen proportionally to
/// degree.
///
/// # Panics
///
/// Panics unless `n > m` and `m > 0`.
pub fn preferential_attachment(n: usize, m: usize, seed: u64) -> Csr {
    assert!(m > 0 && n > m, "need n > m > 0");
    let mut rng = StdRng::seed_from_u64(seed);
    // Repeated-endpoints list: sampling uniformly from it is sampling
    // proportionally to degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * m);
    // Seed clique over the first m+1 vertices.
    for i in 0..=m as u32 {
        for j in 0..i {
            edges.push((j, i));
            endpoints.push(i);
            endpoints.push(j);
        }
    }
    for v in (m + 1)..n {
        let mut chosen: Vec<u32> = Vec::with_capacity(m);
        while chosen.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != v as u32 && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            edges.push((v as u32, t));
            endpoints.push(v as u32);
            endpoints.push(t);
        }
    }
    Csr::from_edges(n, &edges, true)
}

/// Erdős–Rényi `G(n, m)`: `m` uniformly random undirected edges.
pub(crate) fn erdos_renyi(n: usize, m: usize, seed: u64) -> Csr {
    assert!(n >= 2, "need at least two vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| {
            let a = rng.gen_range(0..n as u32);
            let mut b = rng.gen_range(0..n as u32);
            while b == a {
                b = rng.gen_range(0..n as u32);
            }
            (a, b)
        })
        .collect();
    Csr::from_edges(n, &edges, true)
}

/// A `side × side` 2-D grid (undirected, 4-neighborhood).
///
/// # Panics
///
/// Panics if `side < 2`.
pub fn grid(side: usize) -> Csr {
    assert!(side >= 2, "grid side must be at least 2");
    let n = side * side;
    let mut edges = Vec::with_capacity(2 * n);
    let at = |r: usize, c: usize| (r * side + c) as u32;
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                edges.push((at(r, c), at(r, c + 1)));
            }
            if r + 1 < side {
                edges.push((at(r, c), at(r + 1, c)));
            }
        }
    }
    Csr::from_edges(n, &edges, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::bfs_levels;

    #[test]
    fn powerlaw_is_skewed() {
        let g = preferential_attachment(2_000, 4, 5);
        let max = (0..g.num_vertices())
            .map(|v| g.out_degree(v))
            .max()
            .unwrap_or(0);
        let mean = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            max as f64 > 8.0 * mean,
            "max degree {max} should dwarf mean {mean}"
        );
    }

    #[test]
    fn grid_is_uniform_and_high_diameter() {
        let g = grid(20);
        assert_eq!(g.num_vertices(), 400);
        assert!((0..g.num_vertices()).all(|v| g.out_degree(v) <= 4));
        // BFS eccentricity from the corner = 2*(side-1).
        let levels = bfs_levels(&g, 0);
        let max_level = levels.iter().flatten().max().copied().unwrap();
        assert_eq!(max_level, 38);
    }

    #[test]
    fn powerlaw_has_tiny_diameter() {
        let g = preferential_attachment(2_000, 4, 7);
        let levels = bfs_levels(&g, 0);
        let max_level = levels.iter().flatten().max().copied().unwrap();
        assert!(max_level < 8, "power-law diameter ~log n, got {max_level}");
    }

    #[test]
    fn er_edge_count_and_connectivity_scale() {
        let g = erdos_renyi(1_000, 4_000, 3);
        assert_eq!(g.num_edges(), 8_000); // undirected doubling
        let levels = bfs_levels(&g, 0);
        let reached = levels.iter().flatten().count();
        assert!(reached > 900, "G(n, 4n) is almost surely connected");
    }

    #[test]
    fn generators_are_deterministic() {
        let a = preferential_attachment(200, 3, 9);
        let b = preferential_attachment(200, 3, 9);
        assert_eq!(a, b);
        assert_eq!(erdos_renyi(100, 300, 1), erdos_renyi(100, 300, 1));
    }

    #[test]
    fn dataset_enum_generates_all() {
        for d in Dataset::all() {
            let g = d.generate(400, 11);
            assert!(g.num_vertices() >= 396, "{d} too small");
            assert!(g.num_edges() > 0);
        }
    }
}
