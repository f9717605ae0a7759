//! The six LDBC Graphalytics algorithms.
//!
//! Each algorithm exists twice: as a *direct* reference implementation
//! (this module) and as a synchronous vertex program executed by the
//! platforms of [`crate::platforms`]. The test suite checks the platforms
//! against these references — Graphalytics' own validation approach.

use crate::csr::Csr;
use std::collections::BinaryHeap;

/// Breadth-first search levels from `source` (`None` = unreachable).
pub fn bfs_levels(g: &Csr, source: usize) -> Vec<Option<u32>> {
    let mut levels = vec![None; g.num_vertices()];
    let mut frontier = vec![source];
    levels[source] = Some(0);
    let mut depth = 0u32;
    while !frontier.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &v in &frontier {
            for &w in g.out_neighbors(v) {
                if levels[w as usize].is_none() {
                    levels[w as usize] = Some(depth);
                    next.push(w as usize);
                }
            }
        }
        frontier = next;
    }
    levels
}

/// PageRank with uniform teleport, fixed iteration count (the
/// Graphalytics convention), damping 0.85.
///
/// Dangling-vertex mass is redistributed uniformly each iteration.
// #[allow_atlarge(dead-public-surface, reason = "Graphalytics reference implementation: the platform tests validate the vertex programs against it")]
pub fn pagerank(g: &Csr, iterations: u32) -> Vec<f64> {
    let n = g.num_vertices();
    let nf = n as f64;
    let d = 0.85;
    let mut rank = vec![1.0 / nf; n];
    for _ in 0..iterations {
        let dangling: f64 = (0..n)
            .filter(|&v| g.out_degree(v) == 0)
            .map(|v| rank[v])
            .sum();
        let mut next = vec![(1.0 - d) / nf + d * dangling / nf; n];
        for (v, &r) in rank.iter().enumerate() {
            let deg = g.out_degree(v);
            if deg > 0 {
                let share = d * r / deg as f64;
                for &w in g.out_neighbors(v) {
                    next[w as usize] += share;
                }
            }
        }
        rank = next;
    }
    rank
}

/// Weakly connected components via label propagation to the minimum
/// vertex id (treats edges as undirected by using both adjacencies).
// #[allow_atlarge(dead-public-surface, reason = "Graphalytics reference implementation: the platform tests validate the vertex programs against it")]
pub fn wcc(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices();
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            let mut best = label[v];
            for &w in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
                best = best.min(label[w as usize]);
            }
            if best < label[v] {
                label[v] = best;
                changed = true;
            }
        }
    }
    label
}

/// Community detection by synchronous label propagation (CDLP): each
/// iteration every vertex adopts the most frequent label among its
/// neighbors (smallest label breaks ties), for a fixed iteration count.
// #[allow_atlarge(dead-public-surface, reason = "Graphalytics reference implementation: the platform tests validate the vertex programs against it")]
pub fn cdlp(g: &Csr, iterations: u32) -> Vec<u32> {
    let n = g.num_vertices();
    let mut label: Vec<u32> = (0..n as u32).collect();
    for _ in 0..iterations {
        let mut next = label.clone();
        let mut counts: std::collections::BTreeMap<u32, usize> = Default::default();
        for (v, nx) in next.iter_mut().enumerate() {
            counts.clear();
            for &w in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
                *counts.entry(label[w as usize]).or_insert(0) += 1;
            }
            if let Some((&l, _)) = counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            {
                *nx = l;
            }
        }
        label = next;
    }
    label
}

/// Local clustering coefficient per vertex over the undirected
/// neighborhood (out ∪ in, self-loops ignored).
pub(crate) fn lcc(g: &Csr) -> Vec<f64> {
    let n = g.num_vertices();
    // Deduplicated undirected neighborhoods.
    let neighborhoods: Vec<Vec<u32>> = (0..n)
        .map(|v| {
            let mut ns: Vec<u32> = g
                .out_neighbors(v)
                .iter()
                .chain(g.in_neighbors(v))
                .copied()
                .filter(|&w| w as usize != v)
                .collect();
            ns.sort_unstable();
            ns.dedup();
            ns
        })
        .collect();
    (0..n)
        .map(|v| {
            let ns = &neighborhoods[v];
            let k = ns.len();
            if k < 2 {
                return 0.0;
            }
            let mut links = 0usize;
            for (i, &a) in ns.iter().enumerate() {
                let na = &neighborhoods[a as usize];
                for &b in &ns[i + 1..] {
                    if na.binary_search(&b).is_ok() {
                        links += 1;
                    }
                }
            }
            2.0 * links as f64 / (k * (k - 1)) as f64
        })
        .collect()
}

/// Single-source shortest paths with the deterministic hash weights of
/// [`Csr::weight`] (Dijkstra).
// #[allow_atlarge(dead-public-surface, reason = "Graphalytics reference implementation: the platform tests validate the vertex programs against it")]
pub fn sssp(g: &Csr, source: usize) -> Vec<Option<f64>> {
    let n = g.num_vertices();
    let mut dist: Vec<Option<f64>> = vec![None; n];
    let mut heap: BinaryHeap<(std::cmp::Reverse<u64>, u32)> = BinaryHeap::new();
    let key = |d: f64| std::cmp::Reverse(d.to_bits()); // non-negative floats order as bits
    dist[source] = Some(0.0);
    heap.push((key(0.0), source as u32));
    while let Some((std::cmp::Reverse(bits), v)) = heap.pop() {
        let d = f64::from_bits(bits);
        if dist[v as usize].is_none_or(|cur| d > cur) {
            continue;
        }
        for &w in g.out_neighbors(v as usize) {
            let nd = d + g.weight(v, w);
            if dist[w as usize].is_none_or(|cur| nd < cur) {
                dist[w as usize] = Some(nd);
                heap.push((key(nd), w));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::grid;

    fn path4() -> Csr {
        Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)], false)
    }

    #[test]
    fn bfs_on_path() {
        let levels = bfs_levels(&path4(), 0);
        assert_eq!(levels, vec![Some(0), Some(1), Some(2), Some(3)]);
        let back = bfs_levels(&path4(), 3);
        assert_eq!(back, vec![None, None, None, Some(0)]);
    }

    #[test]
    fn pagerank_sums_to_one_and_orders_hubs() {
        // A star: center receives everyone's rank.
        let g = Csr::from_edges(5, &[(1, 0), (2, 0), (3, 0), (4, 0)], false);
        let pr = pagerank(&g, 30);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        for v in 1..5 {
            assert!(pr[0] > pr[v]);
        }
    }

    #[test]
    fn wcc_separates_components() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 2), (3, 4)], false);
        let c = wcc(&g);
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
        assert_eq!(c[3], c[4]);
        assert_ne!(c[0], c[3]);
    }

    #[test]
    fn cdlp_converges_on_two_cliques() {
        // Two triangles joined by one edge: labels settle within cliques.
        let g = Csr::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
            true,
        );
        let l = cdlp(&g, 10);
        assert_eq!(l[0], l[1]);
        assert_eq!(l[3], l[4]);
    }

    #[test]
    fn lcc_of_triangle_and_path() {
        let tri = Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)], true);
        assert_eq!(lcc(&tri), vec![1.0, 1.0, 1.0]);
        let path = Csr::from_edges(3, &[(0, 1), (1, 2)], true);
        assert_eq!(lcc(&path)[1], 0.0);
    }

    #[test]
    fn sssp_respects_triangle_inequality() {
        let g = grid(8);
        let d = sssp(&g, 0);
        // Every reachable vertex's distance <= neighbor distance + weight.
        for v in 0..g.num_vertices() {
            if let Some(dv) = d[v] {
                for &w in g.out_neighbors(v) {
                    let dw = d[w as usize].expect("grid connected");
                    assert!(dw <= dv + g.weight(v as u32, w) + 1e-9);
                }
            }
        }
        assert_eq!(d[0], Some(0.0));
    }

    #[test]
    fn sssp_unreachable_is_none() {
        let g = Csr::from_edges(3, &[(0, 1)], false);
        let d = sssp(&g, 0);
        assert!(d[2].is_none());
    }
}
