//! Empirical cumulative distribution functions.
//!
//! Figures 4, 5 and 7 of the paper are CDF plots comparing the distribution
//! of a property (angle of elevation, azimuth) over *available* satellites
//! against the same property over *selected* satellites. [`Ecdf`] provides
//! both point evaluation and the sampled curve the experiment binaries print.

/// An empirical CDF over a sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample (NaNs are dropped).
    pub fn new(xs: &[f64]) -> Ecdf {
        let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
        sorted.sort_by(f64::total_cmp);
        Ecdf { sorted }
    }

    /// Number of retained observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sample was empty (or all-NaN).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// F(x) = P(X ≤ x). Returns `NaN` on an empty ECDF.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        // Index of the first element strictly greater than x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Samples the curve at `points` evenly spaced x values over
    /// `[lo, hi]`, returning `(x, F(x))` pairs — the series the figure
    /// regeneration binaries print.
    pub fn curve(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least the two endpoints");
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }

    /// Fraction of the sample inside `[lo, hi)`.
    pub fn mass_in(&self, lo: f64, hi: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let below_hi = self.sorted.partition_point(|&v| v < hi);
        let below_lo = self.sorted.partition_point(|&v| v < lo);
        (below_hi - below_lo) as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_steps_at_sample_points() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn handles_ties() {
        let e = Ecdf::new(&[2.0, 2.0, 2.0, 5.0]);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(1.9), 0.0);
    }

    #[test]
    fn drops_nans() {
        let e = Ecdf::new(&[1.0, f64::NAN, 3.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn empty_is_nan() {
        let e = Ecdf::new(&[]);
        assert!(e.is_empty());
        assert!(e.eval(0.0).is_nan());
        assert!(e.mass_in(0.0, 1.0).is_nan());
    }

    #[test]
    fn curve_is_monotone_and_spans_range() {
        let e = Ecdf::new(&[25.0, 40.0, 60.0, 85.0]);
        let c = e.curve(25.0, 90.0, 14);
        assert_eq!(c.len(), 14);
        assert_eq!(c[0].0, 25.0);
        assert_eq!(c[13].0, 90.0);
        for w in c.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be nondecreasing");
        }
        assert_eq!(c[13].1, 1.0);
    }

    #[test]
    fn mass_in_band() {
        // The Figure 4 quote: share of satellites with AOE in [45°, 90°).
        let e = Ecdf::new(&[30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 89.0, 26.0, 35.0, 44.0]);
        assert!((e.mass_in(45.0, 90.0) - 0.5).abs() < 1e-12);
    }
}
