//! Shared scaffolding for the experiment binaries.
//!
//! Every figure and table of the paper has a binary in `src/bin` that
//! regenerates it against the simulated system:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig2` | Figure 2 (RTT time series) + the §3 Mann-Whitney window test |
//! | `fig3` | Figure 3 (obstruction maps, XOR) + the §4.1 calibration table |
//! | `fig4` | Figure 4 (angle-of-elevation CDFs) |
//! | `fig5` | Figure 5 (azimuth CDFs and quadrant shares) |
//! | `fig6` | Figure 6 (launch-date preference) |
//! | `fig7` | Figure 7 + §5.3 (sunlit preference) |
//! | `fig8` | Figure 8 (model vs baseline top-k accuracy) |
//! | `tab_ident` | §4.1 validation (identification accuracy, staleness sweep) |
//! | `tab_importance` | §6 feature-importance table |
//! | `chaos_soak` | robustness soak: seeded fault tiers, degradation monotonicity |
//!
//! All binaries share one deterministic world (seed 42, constellation and
//! campaign window below), print the figure's series as an aligned table,
//! and drop CSV/PGM artifacts under `results/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use starsense_astro::time::JulianDate;
use starsense_constellation::{Constellation, ConstellationBuilder};
use starsense_core::campaign::{Campaign, CampaignConfig, SlotObservation};
use starsense_core::vantage::paper_terminals;
use std::path::PathBuf;

/// The seed every experiment derives its world from.
pub const WORLD_SEED: u64 = 42;

/// Campaign start: 2023-06-01 00:00 UTC (mid-constellation-era, matching
/// the paper's measurement period).
pub fn campaign_start() -> JulianDate {
    JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0)
}

/// The standard full-scale constellation.
pub fn standard_constellation() -> Constellation {
    ConstellationBuilder::starlink_gen1().seed(WORLD_SEED).build()
}

/// Number of campaign slots: `STARSENSE_SLOTS` env var or the default.
pub fn slots_from_env(default: usize) -> usize {
    std::env::var("STARSENSE_SLOTS").ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Runs the standard four-terminal oracle campaign.
pub fn standard_campaign(constellation: &Constellation, slots: usize) -> Vec<SlotObservation> {
    let campaign =
        Campaign::oracle(constellation, paper_terminals(), CampaignConfig::default(), WORLD_SEED);
    campaign.run(campaign_start(), slots)
}

/// Output directory for CSV/PGM artifacts (`results/`, created on demand).
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    // starlint: allow(P102, reason = "experiment harness helper; the bins have no recovery path for an unwritable working directory")
    std::fs::create_dir_all(&dir).expect("create results/");
    dir
}

/// Writes an artifact under `results/` and logs the path.
pub fn write_artifact(name: &str, contents: &str) {
    let path = out_dir().join(name);
    // starlint: allow(P102, reason = "experiment harness helper; losing an artifact silently would invalidate the run")
    std::fs::write(&path, contents).expect("write artifact");
    // starlint: allow(Q201, reason = "experiment bins report artifact paths on stdout by design")
    println!("[wrote {}]", path.display());
}

/// Formats an `(x, F(x))` CDF curve as CSV rows with a label column.
pub fn cdf_rows(label: &str, curve: &[(f64, f64)]) -> Vec<Vec<String>> {
    curve
        .iter()
        .map(|(x, y)| vec![label.to_string(), format!("{x:.2}"), format!("{y:.4}")])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_env_default_applies() {
        std::env::remove_var("STARSENSE_SLOTS");
        assert_eq!(slots_from_env(77), 77);
    }

    #[test]
    fn cdf_rows_format() {
        let rows = cdf_rows("Iowa", &[(25.0, 0.0), (90.0, 1.0)]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec!["Iowa".to_string(), "25.00".into(), "0.0000".into()]);
    }
}
