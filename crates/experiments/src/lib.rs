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

use starsense_astro::time::JulianDate;
use starsense_constellation::{Constellation, ConstellationBuilder};
use starsense_core::campaign::{Campaign, CampaignConfig, SlotObservation};
use starsense_core::vantage::paper_terminals;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

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
    env_integer("STARSENSE_SLOTS", default, 1)
}

/// Reads an integer knob from the environment variable `name`: `default`
/// when it is unset, otherwise its value, which must be an integer no
/// smaller than `min` (pass `1` for counts, so zero is rejected too).
///
/// # Panics
///
/// Panics with a message naming the variable and its value when the
/// variable is set to anything else, so a typo never silently runs the
/// default.
pub fn env_integer<T: FromStr + PartialOrd + Display>(name: &str, default: T, min: T) -> T {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    match parse_env_integer(name, value.as_deref(), default, min) {
        Ok(n) => n,
        #[expect(
            clippy::panic,
            reason = "experiment bins have no recovery path for a malformed knob; stopping beats running the default"
        )]
        Err(message) => panic!("{message}"),
    }
}

/// The parse behind [`env_integer`], as a pure function of the
/// variable's value (`None` when unset).
fn parse_env_integer<T: FromStr + PartialOrd + Display>(
    name: &str,
    value: Option<&str>,
    default: T,
    min: T,
) -> Result<T, String> {
    let Some(value) = value else { return Ok(default) };
    match value.parse::<T>() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!("{name}={value:?}: expected an integer of at least {min}")),
    }
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
    #[expect(
        clippy::expect_used,
        reason = "experiment harness helper; the bins have no recovery path for an unwritable working directory"
    )]
    std::fs::create_dir_all(&dir).expect("create results/");
    dir
}

/// Writes an artifact under `results/` and logs the path.
#[expect(
    clippy::print_stdout,
    reason = "experiment bins report artifact paths on stdout by design"
)]
pub fn write_artifact(name: &str, contents: &str) {
    let path = out_dir().join(name);
    #[expect(
        clippy::expect_used,
        reason = "experiment harness helper; losing an artifact silently would invalidate the run"
    )]
    std::fs::write(&path, contents).expect("write artifact");
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
    fn unset_knob_takes_the_default() {
        assert_eq!(parse_env_integer("STARSENSE_SLOTS", None, 77usize, 1), Ok(77));
    }

    #[test]
    fn set_knob_overrides_the_default() {
        assert_eq!(parse_env_integer("STARSENSE_SLOTS", Some("12"), 77usize, 1), Ok(12));
        assert_eq!(parse_env_integer("STARSENSE_CRASH_SEED", Some("0"), 201u64, 0), Ok(0));
    }

    #[test]
    fn malformed_knob_is_rejected_by_name_and_value() {
        for bad in ["1e3", "", " 5", "-1", "twelve", "2.5"] {
            let err = parse_env_integer("STARSENSE_SLOTS", Some(bad), 2_400usize, 1)
                .expect_err("a malformed value must not fall back to the default");
            assert!(err.contains("STARSENSE_SLOTS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn zero_count_is_rejected() {
        let err = parse_env_integer("STARSENSE_CHAOS_KILL", Some("0"), 1usize, 1)
            .expect_err("zero is not a count");
        assert_eq!(err, "STARSENSE_CHAOS_KILL=\"0\": expected an integer of at least 1");
    }

    #[test]
    fn cdf_rows_format() {
        let rows = cdf_rows("Iowa", &[(25.0, 0.0), (90.0, 1.0)]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec!["Iowa".to_string(), "25.00".into(), "0.0000".into()]);
    }
}
