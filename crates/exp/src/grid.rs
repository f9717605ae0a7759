//! Factor grids: the declared design space of a campaign.
//!
//! A campaign sweeps the full cross product of its factors' levels —
//! the Graphalytics/PAD shape of experiment (platform × algorithm ×
//! dataset) the paper's Section 6 keeps returning to. Cells are
//! enumerated in row-major order (first factor slowest), so a grid
//! defines a single canonical cell order every executor must reproduce.

/// One experimental factor and its levels, e.g. `workload ∈ {steady,
/// bursty, chains, wide}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Factor {
    /// Factor name.
    pub name: String,
    /// The levels swept, in declaration order.
    pub levels: Vec<String>,
}

/// A full-factorial grid of experimental factors.
///
/// # Examples
///
/// ```
/// use atlarge_exp::grid::FactorGrid;
///
/// let grid = FactorGrid::new()
///     .factor("platform", ["sequential", "distributed"])
///     .factor("dataset", ["dotaleague", "wiki"]);
/// assert_eq!(grid.len(), 4);
/// assert_eq!(grid.cell(1).level("platform"), "sequential");
/// assert_eq!(grid.cell(1).level("dataset"), "wiki");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FactorGrid {
    factors: Vec<Factor>,
}

impl FactorGrid {
    /// An empty grid (one implicit cell until factors are added).
    pub fn new() -> Self {
        FactorGrid::default()
    }

    /// Adds a factor with the given levels.
    ///
    /// # Panics
    ///
    /// Panics if the factor has no levels, duplicates a level, or reuses
    /// an existing factor name — every cell must be uniquely addressable.
    pub fn factor<I, L>(mut self, name: &str, levels: I) -> Self
    where
        I: IntoIterator<Item = L>,
        L: Into<String>,
    {
        let levels: Vec<String> = levels.into_iter().map(Into::into).collect();
        assert!(
            !levels.is_empty(),
            "factor {name:?} needs at least one level"
        );
        for (i, l) in levels.iter().enumerate() {
            assert!(
                !levels[..i].contains(l),
                "factor {name:?} repeats level {l:?}"
            );
        }
        assert!(
            self.factors.iter().all(|f| f.name != name),
            "factor {name:?} declared twice"
        );
        self.factors.push(Factor {
            name: name.to_string(),
            levels,
        });
        self
    }

    /// The declared factors, in declaration order.
    pub(crate) fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Number of cells: the product of level counts (1 for an empty
    /// grid — a campaign with a single unnamed cell).
    pub fn len(&self) -> usize {
        self.factors.iter().map(|f| f.levels.len()).product()
    }

    /// Whether the grid has no factors.
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// The cell at `index` in canonical row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn cell(&self, index: usize) -> CellSpec {
        assert!(index < self.len(), "cell {index} out of range");
        let mut rem = index;
        let mut levels = vec![String::new(); self.factors.len()];
        for (i, f) in self.factors.iter().enumerate().rev() {
            levels[i] = f.levels[rem % f.levels.len()].clone();
            rem /= f.levels.len();
        }
        CellSpec {
            index,
            levels: self
                .factors
                .iter()
                .zip(levels)
                .map(|(f, l)| (f.name.clone(), l))
                .collect(),
        }
    }

    /// Iterates every cell in canonical order.
    pub fn cells(&self) -> impl Iterator<Item = CellSpec> + '_ {
        (0..self.len()).map(|i| self.cell(i))
    }
}

/// One addressed cell of a grid: the level chosen for every factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Position in the grid's canonical row-major order.
    pub index: usize,
    levels: Vec<(String, String)>,
}

impl CellSpec {
    /// The level of `factor` in this cell.
    ///
    /// # Panics
    ///
    /// Panics if the grid has no factor of that name.
    pub fn level(&self, factor: &str) -> &str {
        self.levels
            .iter()
            .find(|(n, _)| n == factor)
            .map(|(_, l)| l.as_str())
            .unwrap_or_else(|| panic!("no factor named {factor:?}"))
    }

    /// `(factor, level)` pairs in factor declaration order.
    pub fn levels(&self) -> &[(String, String)] {
        &self.levels
    }

    /// Compact display label: `level` for one factor, `a=x,b=y` beyond.
    pub fn label(&self) -> String {
        match self.levels.len() {
            0 => "all".to_string(),
            1 => self.levels[0].1.clone(),
            _ => self
                .levels
                .iter()
                .map(|(n, l)| format!("{n}={l}"))
                .collect::<Vec<_>>()
                .join(","),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_order_matches_nested_loops() {
        let grid = FactorGrid::new()
            .factor("a", ["a0", "a1"])
            .factor("b", ["b0", "b1", "b2"]);
        let got: Vec<(String, String)> = grid
            .cells()
            .map(|c| (c.level("a").to_string(), c.level("b").to_string()))
            .collect();
        let mut want = Vec::new();
        for a in ["a0", "a1"] {
            for b in ["b0", "b1", "b2"] {
                want.push((a.to_string(), b.to_string()));
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn empty_grid_has_one_cell() {
        let grid = FactorGrid::new();
        assert_eq!(grid.len(), 1);
        assert_eq!(grid.cell(0).label(), "all");
    }

    #[test]
    fn labels_and_indices_round_trip() {
        let grid = FactorGrid::new()
            .factor("p", ["x", "y"])
            .factor("d", ["g1", "g2"]);
        for (i, cell) in grid.cells().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(grid.cell(i), cell);
        }
        assert_eq!(grid.cell(3).label(), "p=y,d=g2");
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn duplicate_factor_panics() {
        let _ = FactorGrid::new().factor("a", ["x"]).factor("a", ["y"]);
    }

    #[test]
    #[should_panic(expected = "repeats level")]
    fn duplicate_level_panics() {
        let _ = FactorGrid::new().factor("a", ["x", "x"]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_out_of_range_panics() {
        let _ = FactorGrid::new().factor("a", ["x"]).cell(1);
    }
}
