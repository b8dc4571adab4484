//! Mann-Whitney U test (Wilcoxon rank-sum).
//!
//! §3 of the paper: "we are also able to confirm that the latency
//! characteristics observed during these consecutive 15-second windows are
//! statistically different (Mann-Whitney U test; p < .05)". This module
//! implements the two-sided test with the normal approximation and tie
//! correction — appropriate here because each 15-second window contains
//! ~750 probe samples, far beyond where the exact distribution matters.

use crate::describe::mean;

/// Result of a Mann-Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannWhitney {
    /// The U statistic for the first sample.
    pub u: f64,
    /// Standardized z score (with continuity and tie correction).
    pub z: f64,
    /// Two-sided p-value from the normal approximation.
    pub p_value: f64,
}

impl MannWhitney {
    /// True when the test rejects equality at the given significance level.
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Runs the two-sided Mann-Whitney U test on two samples.
///
/// Returns `None` when either sample is empty or when every value across
/// both samples is identical (the statistic is undefined: σ_U = 0).
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> Option<MannWhitney> {
    let n1 = a.len();
    let n2 = b.len();
    if n1 == 0 || n2 == 0 {
        return None;
    }

    // Rank the pooled sample, averaging ranks across ties.
    let mut pooled: Vec<(f64, usize)> =
        a.iter().map(|&x| (x, 0usize)).chain(b.iter().map(|&x| (x, 1usize))).collect();
    pooled.sort_by(|x, y| x.0.total_cmp(&y.0));

    let n = pooled.len();
    let mut ranks = vec![0.0f64; n];
    let mut tie_term = 0.0f64; // Σ (t³ − t) over tie groups
    let mut i = 0;
    while i < n {
        let mut j = i;
        #[expect(
            clippy::float_cmp,
            reason = "ties are exactly equal values, as the U statistic defines them"
        )]
        while j + 1 < n && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = avg_rank;
        }
        let t = (j - i + 1) as f64;
        if t > 1.0 {
            tie_term += t * t * t - t;
        }
        i = j + 1;
    }

    let r1: f64 = pooled
        .iter()
        .zip(ranks.iter())
        .filter(|((_, group), _)| *group == 0)
        .map(|(_, &r)| r)
        .sum();

    let n1f = n1 as f64;
    let n2f = n2 as f64;
    let u1 = r1 - n1f * (n1f + 1.0) / 2.0;

    let mu = n1f * n2f / 2.0;
    let nf = n as f64;
    let sigma_sq = n1f * n2f / 12.0 * ((nf + 1.0) - tie_term / (nf * (nf - 1.0)));
    if sigma_sq <= 0.0 {
        return None; // all values tied
    }
    let sigma = sigma_sq.sqrt();

    // Continuity correction toward the mean.
    let diff = u1 - mu;
    let corrected = if diff > 0.5 {
        diff - 0.5
    } else if diff < -0.5 {
        diff + 0.5
    } else {
        0.0
    };
    let z = corrected / sigma;
    let p = 2.0 * (1.0 - standard_normal_cdf(z.abs()));

    Some(MannWhitney { u: u1, z, p_value: p.clamp(0.0, 1.0) })
}

/// Standard normal CDF via the complementary error function
/// (Abramowitz & Stegun 7.1.26 rational approximation, |ε| < 1.5e-7).
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = x.signum();
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Effect-size helper: the common-language effect size U / (n1·n2) — the
/// probability a random draw from the first sample exceeds one from the
/// second (ties counted half).
pub fn common_language_effect(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let u = mann_whitney_u(a, b)?.u;
    Some(u / (a.len() as f64 * b.len() as f64))
}

/// Convenience: difference of means, used when reporting which window is
/// slower alongside the test result.
pub fn mean_shift(a: &[f64], b: &[f64]) -> f64 {
    mean(a) - mean(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn clearly_shifted_samples_are_significant() {
        let a: Vec<f64> = (0..200).map(|i| 20.0 + (i % 10) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..200).map(|i| 30.0 + (i % 10) as f64 * 0.1).collect();
        let t = mann_whitney_u(&a, &b).unwrap();
        assert!(t.p_value < 1e-6, "p = {}", t.p_value);
        assert!(t.is_significant(0.05));
    }

    #[test]
    fn identical_distributions_are_not_significant() {
        let mut rng = StdRng::seed_from_u64(7);
        let a: Vec<f64> = (0..300).map(|_| rng.random_range(0.0..1.0)).collect();
        let b: Vec<f64> = (0..300).map(|_| rng.random_range(0.0..1.0)).collect();
        let t = mann_whitney_u(&a, &b).unwrap();
        assert!(t.p_value > 0.01, "p = {} should not be tiny", t.p_value);
    }

    #[test]
    fn u_statistic_small_example() {
        // Classic worked example: A = [1,2,3], B = [4,5,6] ⇒ U₁ = 0.
        let t = mann_whitney_u(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(t.u, 0.0);
        // And reversed: U₁ = n1·n2 = 9.
        let t = mann_whitney_u(&[4.0, 5.0, 6.0], &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(t.u, 9.0);
    }

    #[test]
    fn u_statistics_sum_to_n1_n2() {
        let a = [3.1, 2.2, 5.5, 0.4, 4.4, 2.0];
        let b = [1.1, 6.6, 2.2, 3.3];
        let u1 = mann_whitney_u(&a, &b).unwrap().u;
        let u2 = mann_whitney_u(&b, &a).unwrap().u;
        assert!((u1 + u2 - (a.len() * b.len()) as f64).abs() < 1e-9);
    }

    #[test]
    fn all_tied_returns_none() {
        assert!(mann_whitney_u(&[5.0, 5.0, 5.0], &[5.0, 5.0]).is_none());
    }

    #[test]
    fn empty_returns_none() {
        assert!(mann_whitney_u(&[], &[1.0]).is_none());
        assert!(mann_whitney_u(&[1.0], &[]).is_none());
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((standard_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((standard_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(standard_normal_cdf(6.0) > 0.999_999);
    }

    #[test]
    fn effect_size_is_half_for_identical_samples() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let e = common_language_effect(&a, &a).unwrap();
        assert!((e - 0.5).abs() < 1e-12);
    }

    #[test]
    fn effect_size_is_one_for_dominant_sample() {
        let e = common_language_effect(&[10.0, 11.0], &[1.0, 2.0]).unwrap();
        assert_eq!(e, 1.0);
    }

    #[test]
    fn mean_shift_sign() {
        assert!(mean_shift(&[3.0, 4.0], &[1.0, 2.0]) > 0.0);
    }
}
