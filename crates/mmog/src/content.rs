//! POGGI: procedural puzzle-content generation at scale (\[78\]).
//!
//! POGGI was "the first distributed and parallel system to generate fresh
//! and diverse content at scale" — puzzle instances produced on grid
//! infrastructure, validated for solvability and graded by difficulty.
//! The reproduction generates peg-solitaire-like *jump puzzles*:
//! a row of cells with pegs; a move jumps a peg over a neighbor into an
//! empty cell, removing the jumped peg; the goal is one peg left.
//! Solvability is decided by exact search, difficulty by the size of the
//! search tree — giving the generator real work and real validation, as
//! POGGI's puzzle generation had.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A linear peg puzzle: `true` = peg, `false` = empty.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Puzzle {
    cells: Vec<bool>,
}

impl Puzzle {
    /// Creates a puzzle from a cell layout.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 3 cells.
    pub fn new(cells: Vec<bool>) -> Self {
        assert!(cells.len() >= 3, "puzzles need at least 3 cells");
        Puzzle { cells }
    }

    /// Number of pegs remaining.
    pub(crate) fn pegs(&self) -> usize {
        self.cells.iter().filter(|&&c| c).count()
    }

    /// All legal successor states (jump left or right).
    pub(crate) fn moves(&self) -> Vec<Puzzle> {
        let n = self.cells.len();
        let mut out = Vec::new();
        for i in 0..n {
            if !self.cells[i] {
                continue;
            }
            // Jump right: i, i+1 pegs, i+2 empty.
            if i + 2 < n && self.cells[i + 1] && !self.cells[i + 2] {
                let mut c = self.cells.clone();
                c[i] = false;
                c[i + 1] = false;
                c[i + 2] = true;
                out.push(Puzzle { cells: c });
            }
            // Jump left.
            if i >= 2 && self.cells[i - 1] && !self.cells[i - 2] {
                let mut c = self.cells.clone();
                c[i] = false;
                c[i - 1] = false;
                c[i - 2] = true;
                out.push(Puzzle { cells: c });
            }
        }
        out
    }

    /// Exact solvability check: can the puzzle reach a single-peg state?
    /// Returns `(solvable, states_explored)` — the explored count is the
    /// difficulty signal.
    pub(crate) fn solve(&self) -> (bool, usize) {
        let mut seen: BTreeSet<Puzzle> = BTreeSet::new();
        let mut stack = vec![self.clone()];
        let mut explored = 0;
        while let Some(p) = stack.pop() {
            if !seen.insert(p.clone()) {
                continue;
            }
            explored += 1;
            if p.pegs() == 1 {
                return (true, explored);
            }
            stack.extend(p.moves());
        }
        (false, explored)
    }
}

/// A generated, validated content item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GeneratedPuzzle {
    /// The puzzle.
    pub puzzle: Puzzle,
    /// Search states explored to prove solvability (difficulty proxy).
    pub difficulty: usize,
}

/// Difficulty bands requested by the game designer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Difficulty {
    /// Quick puzzles.
    Easy,
    /// Moderate search.
    Medium,
    /// Large search trees.
    Hard,
}

impl Difficulty {
    fn band(&self) -> std::ops::Range<usize> {
        match self {
            Difficulty::Easy => 1..20,
            Difficulty::Medium => 20..200,
            Difficulty::Hard => 200..usize::MAX,
        }
    }

    /// Classifies a difficulty score into a band.
    pub fn classify(score: usize) -> Difficulty {
        if Difficulty::Easy.band().contains(&score) {
            Difficulty::Easy
        } else if Difficulty::Medium.band().contains(&score) {
            Difficulty::Medium
        } else {
            Difficulty::Hard
        }
    }
}

/// The POGGI-style generator: one "worker" generating validated, fresh
/// (deduplicated) puzzles of a requested band.
#[derive(Debug)]
pub(crate) struct Generator {
    rng: StdRng,
    cells: usize,
    produced: BTreeSet<Puzzle>,
    /// Candidates examined (work accounting).
    pub candidates: usize,
}

impl Generator {
    /// Creates a generator of puzzles with `cells` cells.
    pub fn new(cells: usize, seed: u64) -> Self {
        Generator {
            rng: StdRng::seed_from_u64(seed),
            cells,
            produced: BTreeSet::new(),
            candidates: 0,
        }
    }

    /// Generates the next fresh solvable puzzle in the band, or `None`
    /// after `max_tries` candidates.
    pub fn next(&mut self, band: Difficulty, max_tries: usize) -> Option<GeneratedPuzzle> {
        for _ in 0..max_tries {
            self.candidates += 1;
            let cells: Vec<bool> = (0..self.cells)
                .map(|_| self.rng.gen::<f64>() < 0.6)
                .collect();
            if cells.iter().filter(|&&c| c).count() < 2 {
                continue;
            }
            let p = Puzzle::new(cells);
            if self.produced.contains(&p) {
                continue; // freshness: never emit a duplicate
            }
            let (solvable, difficulty) = p.solve();
            if solvable && Difficulty::classify(difficulty) == band {
                self.produced.insert(p.clone());
                return Some(GeneratedPuzzle {
                    puzzle: p,
                    difficulty,
                });
            }
        }
        None
    }
}

/// The distributed-generation experiment: `workers` independent
/// generators (distinct seeds) produce a batch each; the merge
/// deduplicates. Returns `(total_unique, per_worker_counts)`.
pub(crate) fn distributed_generation(
    workers: usize,
    per_worker: usize,
    band: Difficulty,
    cells: usize,
    seed: u64,
) -> (usize, Vec<usize>) {
    let mut all: BTreeSet<Puzzle> = BTreeSet::new();
    let mut counts = Vec::new();
    for w in 0..workers {
        let mut g = Generator::new(cells, seed + w as u64);
        let mut n = 0;
        for _ in 0..per_worker {
            if let Some(gp) = g.next(band, 2_000) {
                all.insert(gp.puzzle);
                n += 1;
            }
        }
        counts.push(n);
    }
    (all.len(), counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_puzzle_solves() {
        // [peg, peg, empty] -> jump -> one peg.
        let p = Puzzle::new(vec![true, true, false]);
        let (ok, states) = p.solve();
        assert!(ok);
        assert!(states >= 1);
    }

    #[test]
    fn single_peg_is_already_solved() {
        let p = Puzzle::new(vec![false, true, false]);
        assert!(p.solve().0);
    }

    #[test]
    fn isolated_pegs_are_unsolvable() {
        // Two pegs too far apart to ever jump.
        let p = Puzzle::new(vec![true, false, false, false, true]);
        assert!(!p.solve().0);
    }

    #[test]
    fn moves_are_legal() {
        let p = Puzzle::new(vec![true, true, false, true]);
        for m in p.moves() {
            assert_eq!(m.pegs(), p.pegs() - 1, "a jump removes exactly one peg");
        }
    }

    #[test]
    fn generator_respects_band_and_freshness() {
        let mut g = Generator::new(12, 3);
        let mut seen = BTreeSet::new();
        for _ in 0..5 {
            let gp = g.next(Difficulty::Medium, 5_000).expect("generates");
            assert_eq!(Difficulty::classify(gp.difficulty), Difficulty::Medium);
            assert!(seen.insert(gp.puzzle.clone()), "duplicate emitted");
        }
    }

    #[test]
    fn distributed_workers_scale_output() {
        let (one, _) = distributed_generation(1, 10, Difficulty::Easy, 8, 50);
        let (four, counts) = distributed_generation(4, 10, Difficulty::Easy, 8, 50);
        assert_eq!(counts.len(), 4);
        assert!(
            four > 2 * one,
            "4 workers ({four}) should out-produce 1 ({one}) even after dedup"
        );
    }

    #[test]
    fn difficulty_bands_partition() {
        assert_eq!(Difficulty::classify(5), Difficulty::Easy);
        assert_eq!(Difficulty::classify(50), Difficulty::Medium);
        assert_eq!(Difficulty::classify(5_000), Difficulty::Hard);
    }
}
