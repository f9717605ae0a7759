//! Cost models and deadline SLAs (\[127\]).
//!
//! \[127\] "added ... an analysis of cost metrics based on several
//! real-world cost models, an analysis of introducing two types of
//! deadline-based SLAs". The experiments use fine-grained per-second
//! billing and the hard-deadline SLA (violations counted).

use atlarge_stats::timeseries::StepSeries;

/// A billing model for provisioned supply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum BillingModel {
    /// Fine-grained: pay for exact server-seconds at `rate` per
    /// server-hour.
    PerSecond {
        /// Price per server-hour.
        rate: f64,
    },
}

impl BillingModel {
    /// Cost of a supply series over `[from, to]`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    pub fn cost(&self, supply: &StepSeries, from: f64, to: f64) -> f64 {
        assert!(from < to, "billing window must be non-empty");
        match *self {
            BillingModel::PerSecond { rate } => supply.integral(from, to) / 3600.0 * rate,
        }
    }
}

/// The deadline-based SLA of \[127\] the experiments use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum DeadlineSla {
    /// Hard: a workflow must finish within `slack` × its critical path;
    /// violations are counted.
    Hard {
        /// Allowed response/critical-path ratio.
        slack: f64,
    },
}

impl DeadlineSla {
    /// Number of violating workflows among `(submit, completion,
    /// critical_path)` triples.
    pub fn violations(&self, workflows: &[(f64, f64, f64)]) -> usize {
        let slack = match *self {
            DeadlineSla::Hard { slack } => slack,
        };
        workflows
            .iter()
            .filter(|&&(s, c, cp)| c - s > slack * cp)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn supply(points: &[(f64, f64)]) -> StepSeries {
        let mut s = StepSeries::new(0.0);
        for &(t, v) in points {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn per_second_is_exact_integral() {
        let s = supply(&[(0.0, 4.0)]);
        let m = BillingModel::PerSecond { rate: 1.0 };
        // 4 servers × 1800 s = 2 server-hours.
        assert!((m.cost(&s, 0.0, 1800.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hard_sla_counts_violations() {
        let wfs = vec![(0.0, 10.0, 8.0), (0.0, 30.0, 8.0), (0.0, 9.0, 8.0)];
        let sla = DeadlineSla::Hard { slack: 1.5 };
        assert_eq!(sla.violations(&wfs), 1); // the 30s one
    }
}
