//! Property-based tests for the statistics crate.

use proptest::prelude::*;
use starsense_stats::describe::{mean, quantile, std_dev_population};
use starsense_stats::{mann_whitney_u, pearson, Ecdf};

proptest! {
    #[test]
    fn u_statistics_sum_to_product(
        a in prop::collection::vec(-100.0f64..100.0, 2..40),
        b in prop::collection::vec(-100.0f64..100.0, 2..40),
    ) {
        if let (Some(t1), Some(t2)) = (mann_whitney_u(&a, &b), mann_whitney_u(&b, &a)) {
            prop_assert!((t1.u + t2.u - (a.len() * b.len()) as f64).abs() < 1e-9);
            // Two-sided p-values agree regardless of direction.
            prop_assert!((t1.p_value - t2.p_value).abs() < 1e-9);
        }
    }

    #[test]
    fn p_value_is_a_probability(
        a in prop::collection::vec(-100.0f64..100.0, 2..40),
        b in prop::collection::vec(-100.0f64..100.0, 2..40),
    ) {
        if let Some(t) = mann_whitney_u(&a, &b) {
            prop_assert!((0.0..=1.0).contains(&t.p_value));
        }
    }

    #[test]
    fn shifting_one_sample_far_enough_is_always_significant(
        a in prop::collection::vec(0.0f64..10.0, 30..100),
    ) {
        let b: Vec<f64> = a.iter().map(|x| x + 100.0).collect();
        let t = mann_whitney_u(&a, &b).unwrap();
        prop_assert!(t.p_value < 1e-6);
    }

    #[test]
    fn ecdf_is_monotone_and_bounded(xs in prop::collection::vec(-50.0f64..50.0, 1..60)) {
        let e = Ecdf::new(&xs);
        let mut prev = 0.0;
        for k in -60..=60 {
            let f = e.eval(k as f64);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev - 1e-12);
            prev = f;
        }
        prop_assert_eq!(e.eval(100.0), 1.0);
        prop_assert_eq!(e.eval(-100.0), 0.0);
    }

    #[test]
    fn quantile_is_monotone_and_within_sample(xs in prop::collection::vec(-50.0f64..50.0, 1..60)) {
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = lo;
        for k in 0..=10 {
            let q = quantile(&xs, k as f64 / 10.0);
            prop_assert!((lo..=hi).contains(&q));
            prop_assert!(q >= prev - 1e-12);
            prev = q;
        }
    }

    #[test]
    fn pearson_is_within_unit_interval_and_symmetric(
        pairs in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 3..40),
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            prop_assert!((pearson(&ys, &xs).unwrap() - r).abs() < 1e-12);
        }
    }

    #[test]
    fn pearson_of_affine_transform_is_plus_minus_one(
        xs in prop::collection::vec(-50.0f64..50.0, 3..40),
        slope in prop::sample::select(vec![-3.0f64, -0.5, 0.5, 2.0]),
        intercept in -10.0f64..10.0,
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        if let Some(r) = pearson(&xs, &ys) {
            prop_assert!((r.abs() - 1.0).abs() < 1e-9);
            prop_assert_eq!(r > 0.0, slope > 0.0);
        }
    }

    #[test]
    fn population_std_dev_is_translation_invariant(
        xs in prop::collection::vec(-50.0f64..50.0, 2..40),
        shift in -100.0f64..100.0,
    ) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let a = std_dev_population(&xs);
        let b = std_dev_population(&shifted);
        prop_assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        prop_assert!((mean(&shifted) - mean(&xs) - shift).abs() < 1e-7);
    }
}
