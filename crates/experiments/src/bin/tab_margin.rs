//! Identification confidence analysis: precision vs. coverage as a
//! function of the DTW decision margin.
//!
//! The paper accepts every lowest-DTW match (validated manually at >99%).
//! With simulator ground truth we can quantify the margin signal the
//! pipeline exposes: requiring the winner to beat the runner-up by a
//! larger margin trades coverage (fraction of slots answered) for
//! precision (fraction of answers correct) — the knob an operator of this
//! methodology would actually tune.

use starsense_astro::frames::Geodetic;
use starsense_constellation::ConstellationBuilder;
use starsense_core::report::{csv, pct, text_table};
use starsense_experiments::{campaign_start, slots_from_env, write_artifact, WORLD_SEED};
use starsense_ident::run_validation;
use starsense_scheduler::{GlobalScheduler, SchedulerPolicy, Terminal};

fn main() {
    println!("== identification margin: precision vs coverage ==\n");
    let slots = slots_from_env(400);
    let location = Geodetic::new(41.66, -91.53, 0.2);

    // Run under moderately stale TLEs so errors exist to be filtered.
    let constellation =
        ConstellationBuilder::starlink_gen1().seed(WORLD_SEED).staleness_hours(4.0, 10.0).build();
    let terminals = vec![Terminal::new(0, "Iowa", location)];
    let mut scheduler = GlobalScheduler::new(SchedulerPolicy::default(), terminals, WORLD_SEED);

    // (margin, correct) pairs for every attempted slot.
    let attempts =
        run_validation(&constellation, &mut scheduler, 0, campaign_start(), slots).outcomes;

    let total = attempts.len();
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for threshold in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7] {
        let kept: Vec<&(f64, bool)> = attempts.iter().filter(|(m, _)| *m >= threshold).collect();
        let correct = kept.iter().filter(|(_, ok)| *ok).count();
        let coverage = kept.len() as f64 / total.max(1) as f64;
        let precision = if kept.is_empty() { f64::NAN } else { correct as f64 / kept.len() as f64 };
        rows.push(vec![
            format!("{threshold:.1}"),
            kept.len().to_string(),
            pct(coverage),
            pct(precision),
        ]);
        csv_rows.push(vec![
            format!("{threshold}"),
            format!("{coverage:.4}"),
            format!("{precision:.4}"),
        ]);
    }

    println!("{}", text_table(&["margin ≥", "answered", "coverage", "precision"], &rows));
    println!("({total} attempted slots under 4-10 h TLE staleness)");
    write_artifact(
        "tab_margin.csv",
        &csv(&["margin_threshold", "coverage", "precision"], &csv_rows),
    );

    // Shape: precision is monotone-ish in the threshold and exceeds the
    // unfiltered rate at high margins.
    let p0: f64 = {
        let ok = attempts.iter().filter(|(_, c)| *c).count();
        ok as f64 / total.max(1) as f64
    };
    let high: Vec<&(f64, bool)> = attempts.iter().filter(|(m, _)| *m >= 0.5).collect();
    if high.len() >= 20 {
        let p_high = high.iter().filter(|(_, c)| *c).count() as f64 / high.len() as f64;
        assert!(p_high >= p0, "high-margin precision {p_high:.3} must not fall below base {p0:.3}");
        println!("\nbase precision {} → {} at margin ≥ 0.5", pct(p0), pct(p_high));
    }
}
