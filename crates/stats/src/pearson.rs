//! Pearson product-moment correlation.
//!
//! Figure 6 of the paper reports "the Pearson correlation, averaged over all
//! locations is 0.41" between satellite launch date and the probability of a
//! satellite from that launch being picked.

/// Pearson correlation coefficient between paired samples.
///
/// Returns `None` when the samples have different lengths, fewer than two
/// points, or when either sample has zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;

    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    // Sums of squares are non-negative; `<=` rejects degenerate (constant)
    // samples without an exact float `==`.
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_correlation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_negative_correlation() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &ys).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_data_is_uncorrelated() {
        let xs = [-1.0, 0.0, 1.0];
        let ys = [1.0, 0.0, 1.0]; // symmetric in x
        assert!(pearson(&xs, &ys).unwrap().abs() < 1e-12);
    }

    #[test]
    fn known_textbook_value() {
        let xs = [43.0, 21.0, 25.0, 42.0, 57.0, 59.0];
        let ys = [99.0, 65.0, 79.0, 75.0, 87.0, 81.0];
        assert!((pearson(&xs, &ys).unwrap() - 0.5298).abs() < 1e-3);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(pearson(&[1.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 1.0], &[2.0, 3.0]).is_none()); // zero variance
    }

    #[test]
    fn correlation_is_scale_invariant() {
        let xs = [1.0, 4.0, 2.0, 8.0, 5.0];
        let ys = [0.3, 1.1, 0.4, 2.2, 1.4];
        let r1 = pearson(&xs, &ys).unwrap();
        let xs2: Vec<f64> = xs.iter().map(|x| 100.0 * x - 7.0).collect();
        let r2 = pearson(&xs2, &ys).unwrap();
        assert!((r1 - r2).abs() < 1e-12);
    }
}
