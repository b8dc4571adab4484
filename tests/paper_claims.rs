//! The paper's §5–§6 claims, each asserted at the full scheduler policy
//! and shown to fail under the ablation of its own term.
//!
//! World: gen1 seed 42 and the paper's four terminals, 480 slots (two
//! hours) per campaign, at campaign seeds 42–44 and windows starting at
//! 00:00 and 12:00 UTC on 2023-06-01 (and 06:00 UTC for the sunlit claim
//! at the US sites). Each claim reads the four-terminal mean of its
//! statistic, per draw, except the US sunlit claim, which reads each site
//! on its own. The bands are the measured draws' ranges, rounded outward
//! to the printed digit: they may be tightened, never loosened.

use starsense::core::model::train_and_evaluate;
use starsense::core::vantage::{IOWA, ITHACA, MADRID, WASHINGTON};
use starsense::forest::{ForestParams, MaxFeatures, TreeParams};
use starsense::prelude::*;
use std::sync::OnceLock;

const SLOTS: usize = 480;
const SEEDS: [u64; 3] = [42, 43, 44];
/// Window starts, UTC hours: the full policy runs both; each ablation runs
/// the day window, except the sunlit one. In June a site sees sunlit and
/// dark satellites together only near local night, so the sunlit claim
/// reads the night window, where only Madrid has such slots, and the US
/// night window.
const DAY: u32 = 12;
const NIGHT: u32 = 0;
const US_NIGHT: u32 = 6;

fn world() -> &'static Constellation {
    static WORLD: OnceLock<Constellation> = OnceLock::new();
    WORLD.get_or_init(|| ConstellationBuilder::starlink_gen1().seed(42).build())
}

/// The campaigns of `policy` at every seed and each of `windows`, in
/// (seed, window) order, run side by side.
fn draws(policy: &SchedulerPolicy, windows: &[u32]) -> Vec<Vec<SlotObservation>> {
    let world = world();
    std::thread::scope(|scope| {
        let runs: Vec<_> = SEEDS
            .iter()
            .flat_map(|&seed| windows.iter().map(move |&hour| (seed, hour)))
            .map(|(seed, hour)| {
                scope.spawn(move || {
                    let config = CampaignConfig {
                        policy: policy.clone(),
                        threads: 1,
                        ..CampaignConfig::default()
                    };
                    let from = JulianDate::from_ymd_hms(2023, 6, 1, hour, 0, 0.0);
                    Campaign::oracle(world, paper_terminals(), config, seed).run(from, SLOTS)
                })
            })
            .collect();
        runs.into_iter().map(|run| run.join().expect("a campaign draw")).collect()
    })
}

/// The full-policy draws at both windows, shared by every claim.
fn full() -> &'static [Vec<SlotObservation>] {
    static FULL: OnceLock<Vec<Vec<SlotObservation>>> = OnceLock::new();
    FULL.get_or_init(|| draws(&SchedulerPolicy::default(), &[NIGHT, DAY]))
}

/// Per draw, the mean of `statistic` over the four sites, skipping the
/// sites where it is undefined (NaN).
fn site_means(
    draws: &[Vec<SlotObservation>],
    statistic: impl Fn(&[SlotObservation], usize) -> f64,
) -> Vec<f64> {
    let mean = |obs: &[SlotObservation]| {
        let values: Vec<f64> =
            (0..4).map(|tid| statistic(obs, tid)).filter(|v| !v.is_nan()).collect();
        values.iter().sum::<f64>() / values.len() as f64
    };
    draws.iter().map(|obs| mean(obs)).collect()
}

fn assert_within(what: &str, values: &[f64], lo: f64, hi: f64) {
    assert!(!values.is_empty(), "{what}: no draws");
    for &v in values {
        assert!((lo..=hi).contains(&v), "{what}: {v:.4} outside [{lo}, {hi}] in {values:.4?}");
    }
}

fn aoe_shift(obs: &[SlotObservation], tid: usize) -> f64 {
    aoe_analysis(obs, tid).median_shift_deg
}

fn north_delta(obs: &[SlotObservation], tid: usize) -> f64 {
    let az = azimuth_analysis(obs, tid);
    az.chosen_north - az.available_north
}

fn pearson(obs: &[SlotObservation], tid: usize) -> f64 {
    launch_analysis(obs, tid).pearson.unwrap_or(f64::NAN)
}

fn sunlit_share(obs: &[SlotObservation], tid: usize) -> f64 {
    let s = sunlit_analysis(obs, tid);
    if s.mixed_slots == 0 {
        f64::NAN
    } else {
        s.sunlit_pick_share
    }
}

#[test]
fn chosen_satellites_sit_higher_than_available_ones() {
    // Fig. 4: the chosen AOE median sits ~25° above the available one.
    assert_within("AOE shift, full policy", &site_means(full(), aoe_shift), 24.2, 26.7);
    let flat = SchedulerPolicy { w_elevation: 0.0, ..SchedulerPolicy::default() };
    let ablated = site_means(&draws(&flat, &[DAY]), aoe_shift);
    assert_within("AOE shift, w_elevation = 0", &ablated, 0.1, 1.6);
}

#[test]
fn chosen_satellites_lean_north() {
    // Fig. 5: picks lean north of what is available, because of the GSO
    // exclusion zone and margin.
    assert_within("north Δ, full policy", &site_means(full(), north_delta), 0.146, 0.174);
    let no_gso = SchedulerPolicy {
        gso_half_angle_deg: None,
        w_gso_margin: 0.0,
        ..SchedulerPolicy::default()
    };
    let ablated = site_means(&draws(&no_gso, &[DAY]), north_delta);
    assert_within("north Δ, GSO off", &ablated, -0.08, 0.0);
}

#[test]
fn newer_launches_are_picked_more() {
    // Fig. 6: the pick-to-available ratio rises with launch date.
    assert_within("Pearson, full policy", &site_means(full(), pearson), 0.23, 0.40);
    let ageless = SchedulerPolicy { w_age: 0.0, ..SchedulerPolicy::default() };
    let ablated = site_means(&draws(&ageless, &[DAY]), pearson);
    assert_within("Pearson, w_age = 0", &ablated, -0.05, 0.11);
}

#[test]
fn sunlit_satellites_are_preferred_at_night() {
    // §5.3: where sunlit and dark satellites are both available, a pick is
    // sunlit far more often than without the sunlit terms.
    let night: Vec<Vec<SlotObservation>> = full().iter().step_by(2).cloned().collect();
    assert_within("sunlit share, full policy", &site_means(&night, sunlit_share), 0.54, 0.58);
    let unlit =
        SchedulerPolicy { w_sunlit: 0.0, w_dark_low_elevation: 0.0, ..SchedulerPolicy::default() };
    let ablated = site_means(&draws(&unlit, &[NIGHT]), sunlit_share);
    assert_within("sunlit share, sunlit terms off", &ablated, 0.29, 0.33);

    // At 06:00 UTC the three US sites have mixed slots and Madrid has
    // none; the claim is read at each US site. Washington's picks are
    // sunlit with or without the sunlit terms (its bands overlap), so the
    // ablation's teeth there are Iowa's and New York's.
    let full_us = draws(&SchedulerPolicy::default(), &[US_NIGHT]);
    let unlit_us = draws(&unlit, &[US_NIGHT]);
    let mixed: Vec<usize> =
        (0..4).filter(|&tid| sunlit_analysis(&full_us[0], tid).mixed_slots > 0).collect();
    assert_eq!(mixed, [IOWA, ITHACA, WASHINGTON], "sites with mixed slots at 06:00 UTC");
    assert_eq!(sunlit_analysis(&full_us[0], MADRID).mixed_slots, 0);
    let bands = [
        (IOWA, "Iowa", (0.73, 0.75), (0.46, 0.52)),
        (ITHACA, "New York", (0.92, 0.95), (0.83, 0.86)),
        (WASHINGTON, "Washington", (0.99, 1.0), (0.98, 1.0)),
    ];
    for (tid, site, (lo, hi), (ablated_lo, ablated_hi)) in bands {
        let shares = |draws: &[Vec<SlotObservation>]| -> Vec<f64> {
            draws.iter().map(|obs| sunlit_share(obs, tid)).collect()
        };
        assert_within(&format!("{site} sunlit share, full policy"), &shares(&full_us), lo, hi);
        assert_within(
            &format!("{site} sunlit share, sunlit terms off"),
            &shares(&unlit_us),
            ablated_lo,
            ablated_hi,
        );
    }
}

#[test]
fn the_forest_beats_the_most_available_baseline() {
    // Fig. 8: a forest trained on one location's slots ranks the chosen
    // cluster better than the most-available baseline at k = 5, with one
    // grid point.
    let params = ForestParams {
        n_trees: 30,
        tree: TreeParams {
            max_depth: 14,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::Sqrt,
        },
        bootstrap: true,
    };
    let eval = train_and_evaluate(&full()[0], IOWA, &[params], 42);
    assert!(eval.rf_top_k[4] > eval.baseline_top_k[4], "{eval:?}");
}
