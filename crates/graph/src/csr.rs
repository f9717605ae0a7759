//! Compressed sparse row graphs.

/// A directed graph in CSR form, with both out- and in-adjacency, plus
/// deterministic per-edge weights for SSSP.
///
/// # Examples
///
/// ```
/// use atlarge_graph::csr::Csr;
///
/// let g = Csr::from_edges(3, &[(0, 1), (0, 2)], false);
/// assert_eq!(g.out_neighbors(0), &[1, 2]);
/// assert_eq!(g.in_neighbors(2), &[0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n: usize,
    out_offsets: Vec<usize>,
    out_targets: Vec<u32>,
    in_offsets: Vec<usize>,
    in_targets: Vec<u32>,
}

impl Csr {
    /// Builds a CSR graph over `n` vertices from an edge list.
    /// `undirected` inserts both directions. Self-loops and duplicate
    /// edges are kept (they are legal and the algorithms tolerate them).
    ///
    /// # Panics
    ///
    /// Panics if an edge references a vertex `>= n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)], undirected: bool) -> Self {
        let mut dir: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            assert!((a as usize) < n && (b as usize) < n, "edge out of range");
            dir.push((a, b));
            if undirected && a != b {
                dir.push((b, a));
            }
        }
        let build =
            |pairs: &[(u32, u32)], key: fn(&(u32, u32)) -> u32, val: fn(&(u32, u32)) -> u32| {
                let mut counts = vec![0usize; n + 1];
                for p in pairs {
                    counts[key(p) as usize + 1] += 1;
                }
                for i in 0..n {
                    counts[i + 1] += counts[i];
                }
                let offsets = counts.clone();
                let mut pos = counts;
                let mut targets = vec![0u32; pairs.len()];
                for p in pairs {
                    let k = key(p) as usize;
                    targets[pos[k]] = val(p);
                    pos[k] += 1;
                }
                // Sort each adjacency run for determinism.
                let mut offs = offsets;
                for v in 0..n {
                    targets[offs[v]..offs[v + 1]].sort_unstable();
                }
                offs.truncate(n + 1);
                (offs, targets)
            };
        let (out_offsets, out_targets) = build(&dir, |p| p.0, |p| p.1);
        let (in_offsets, in_targets) = build(&dir, |p| p.1, |p| p.0);
        Csr {
            n,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
        }
    }

    /// Number of vertices.
    pub(crate) fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of directed edges stored.
    pub(crate) fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn out_neighbors(&self, v: usize) -> &[u32] {
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// In-neighbors of `v`.
    pub fn in_neighbors(&self, v: usize) -> &[u32] {
        &self.in_targets[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Out-degree of `v`.
    pub(crate) fn out_degree(&self, v: usize) -> usize {
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// Deterministic positive weight of edge `(u, v)` for SSSP: derived
    /// from a hash of the endpoints so every platform sees identical
    /// weights without storing them.
    pub fn weight(&self, u: u32, v: u32) -> f64 {
        let mut z = (u64::from(u) << 32 | u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 31;
        1.0 + (z >> 11) as f64 / (1u64 << 53) as f64 * 9.0 // in [1, 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlarge_check::{check, vec_of};
    use rand::Rng;

    #[test]
    fn adjacency_is_correct_and_sorted() {
        let g = Csr::from_edges(4, &[(0, 2), (0, 1), (2, 3), (1, 2)], false);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn undirected_doubles_edges() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)], true);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(1), &[0, 2]);
    }

    #[test]
    fn self_loops_kept_once_in_undirected() {
        let g = Csr::from_edges(2, &[(0, 0), (0, 1)], true);
        assert_eq!(g.out_neighbors(0), &[0, 1]);
    }

    #[test]
    fn weights_are_deterministic_and_bounded() {
        let g = Csr::from_edges(3, &[(0, 1)], false);
        let w = g.weight(0, 1);
        assert_eq!(w, g.weight(0, 1));
        assert!((1.0..10.0).contains(&w));
        assert_ne!(g.weight(0, 1), g.weight(1, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        Csr::from_edges(2, &[(0, 5)], false);
    }

    /// Every inserted edge appears in both adjacency directions.
    #[test]
    fn prop_edges_round_trip() {
        check("prop_edges_round_trip", 256, |rng| {
            let n = rng.gen_range(2usize..40);
            let edges: Vec<(u32, u32)> = vec_of(rng, 0..120, |r| {
                (r.gen_range(0u32..40), r.gen_range(0u32..40))
            })
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
            let g = Csr::from_edges(n, &edges, false);
            assert_eq!(g.num_edges(), edges.len());
            for &(a, b) in &edges {
                assert!(g.out_neighbors(a as usize).contains(&b));
                assert!(g.in_neighbors(b as usize).contains(&a));
            }
            // Degree sums match edge count.
            let total: usize = (0..n).map(|v| g.out_degree(v)).sum();
            assert_eq!(total, edges.len());
        });
    }
}
