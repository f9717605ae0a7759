//! Simple linear regression.
//!
//! The trend analyses behind Figures 1–2 (is the presence of design articles
//! increasing?) and the predictive components of the portfolio scheduler use
//! ordinary least squares from this module.

/// Result of an ordinary-least-squares fit `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination (R²).
    pub r_squared: f64,
}

impl LinearFit {
    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Fits `y = a*x + b` by ordinary least squares.
///
/// Returns `None` when fewer than two points are given or all `x` are equal
/// (the slope is then undefined).
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    assert_eq!(xs.len(), ys.len(), "x/y length mismatch");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (slope * x + intercept);
            e * e
        })
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line_recovered() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!((fit.predict(10.0) - 21.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_has_positive_slope() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + ((x * 7.0).sin())).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!(fit.slope > 2.5 && fit.slope < 3.5);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn degenerate_x_yields_none() {
        assert!(linear_fit(&[1.0, 1.0], &[2.0, 3.0]).is_none());
        assert!(linear_fit(&[1.0], &[2.0]).is_none());
    }
}
