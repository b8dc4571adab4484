//! The §5 characterization analyses.
//!
//! Each function consumes campaign observations and produces the data
//! behind one figure of the paper: chosen-vs-available comparisons of
//! angle of elevation (Figure 4), azimuth (Figure 5), launch date
//! (Figure 6), and sunlit status (Figure 7 / §5.3's headline numbers).

use crate::campaign::SlotObservation;
use starsense_astro::angles::Quadrant;
use starsense_stats::{median, pearson, Ecdf};
use std::collections::BTreeMap;

fn per_terminal(
    obs: &[SlotObservation],
    terminal_id: usize,
) -> impl Iterator<Item = &SlotObservation> {
    obs.iter().filter(move |o| o.terminal_id == terminal_id)
}

/// Figure 4: angle-of-elevation preference.
#[derive(Debug, Clone)]
pub struct AoeAnalysis {
    /// Terminal the analysis covers.
    pub terminal_id: usize,
    /// ECDF of available satellites' AOE.
    pub available_ecdf: Ecdf,
    /// ECDF of chosen satellites' AOE.
    pub chosen_ecdf: Ecdf,
    /// Median available AOE, degrees.
    pub available_median_deg: f64,
    /// Median chosen AOE, degrees.
    pub chosen_median_deg: f64,
    /// Chosen-minus-available median shift, degrees (paper: ≈ +22.9°).
    pub median_shift_deg: f64,
    /// Share of available satellites in the 45–90° band (paper: ≈ 30%).
    pub available_high_band: f64,
    /// Share of chosen satellites in the 45–90° band (paper: ≈ 80%).
    pub chosen_high_band: f64,
}

/// Runs the Figure 4 analysis for one terminal.
pub fn aoe_analysis(obs: &[SlotObservation], terminal_id: usize) -> AoeAnalysis {
    let mut available = Vec::new();
    let mut chosen = Vec::new();
    for o in per_terminal(obs, terminal_id) {
        available.extend(o.available.iter().map(|s| s.elevation_deg));
        if let Some(c) = &o.chosen {
            chosen.push(c.elevation_deg);
        }
    }
    let available_ecdf = Ecdf::new(&available);
    let chosen_ecdf = Ecdf::new(&chosen);
    let available_median_deg = median(&available);
    let chosen_median_deg = median(&chosen);
    AoeAnalysis {
        terminal_id,
        available_high_band: available_ecdf.mass_in(45.0, 90.1),
        chosen_high_band: chosen_ecdf.mass_in(45.0, 90.1),
        available_ecdf,
        chosen_ecdf,
        available_median_deg,
        chosen_median_deg,
        median_shift_deg: chosen_median_deg - available_median_deg,
    }
}

/// Figure 5: azimuth preference.
#[derive(Debug, Clone)]
pub struct AzimuthAnalysis {
    /// Terminal the analysis covers.
    pub terminal_id: usize,
    /// ECDF of available satellites' azimuth.
    pub available_ecdf: Ecdf,
    /// ECDF of chosen satellites' azimuth.
    pub chosen_ecdf: Ecdf,
    /// Share of available satellites per quadrant (NE/SE/SW/NW order).
    pub available_quadrants: [f64; 4],
    /// Share of chosen satellites per quadrant.
    pub chosen_quadrants: [f64; 4],
    /// Share of available satellites in the two northern quadrants
    /// (paper average: ≈ 58%).
    pub available_north: f64,
    /// Share of chosen satellites in the two northern quadrants
    /// (paper average: ≈ 82% away from obstructions).
    pub chosen_north: f64,
    /// Share of chosen satellites specifically in the north-west quadrant
    /// (the Ithaca-tree diagnostic: ≈ 9.7% there vs ≈ 55.4% elsewhere).
    pub chosen_northwest: f64,
}

/// Runs the Figure 5 analysis for one terminal.
pub fn azimuth_analysis(obs: &[SlotObservation], terminal_id: usize) -> AzimuthAnalysis {
    let mut available = Vec::new();
    let mut chosen = Vec::new();
    for o in per_terminal(obs, terminal_id) {
        available.extend(o.available.iter().map(|s| s.azimuth_deg));
        if let Some(c) = &o.chosen {
            chosen.push(c.azimuth_deg);
        }
    }

    let shares = |xs: &[f64]| -> [f64; 4] {
        let mut counts = [0usize; 4];
        for &az in xs {
            let q = Quadrant::of_azimuth_deg(az);
            counts[q.index()] += 1;
        }
        let total = xs.len().max(1) as f64;
        [
            counts[0] as f64 / total,
            counts[1] as f64 / total,
            counts[2] as f64 / total,
            counts[3] as f64 / total,
        ]
    };

    let available_quadrants = shares(&available);
    let chosen_quadrants = shares(&chosen);
    AzimuthAnalysis {
        terminal_id,
        available_ecdf: Ecdf::new(&available),
        chosen_ecdf: Ecdf::new(&chosen),
        available_north: available_quadrants[0] + available_quadrants[3],
        chosen_north: chosen_quadrants[0] + chosen_quadrants[3],
        chosen_northwest: chosen_quadrants[3],
        available_quadrants,
        chosen_quadrants,
    }
}

/// One launch-month bin of Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchBin {
    /// `"YYYY-MM"` label (the figure's x-axis).
    pub label: String,
    /// Months since 2020-01, the regression x value.
    pub month_index: f64,
    /// Slot-satellite pairs where a satellite of this launch was available.
    pub available: usize,
    /// Slots where a satellite of this launch was picked.
    pub picked: usize,
    /// picked / available (the figure's y value).
    pub ratio: f64,
}

/// Figure 6: launch-date preference.
#[derive(Debug, Clone)]
pub struct LaunchAnalysis {
    /// Terminal the analysis covers.
    pub terminal_id: usize,
    /// Per-launch-month bins, chronological.
    pub bins: Vec<LaunchBin>,
    /// Pearson correlation of `ratio` against launch date
    /// (paper average over unobstructed locations: ≈ 0.41).
    pub pearson: Option<f64>,
}

/// Runs the Figure 6 analysis for one terminal.
pub fn launch_analysis(obs: &[SlotObservation], terminal_id: usize) -> LaunchAnalysis {
    // (year, month) → (available, picked) counts.
    let mut bins: BTreeMap<(i32, u32), (usize, usize)> = BTreeMap::new();
    for o in per_terminal(obs, terminal_id) {
        for a in &o.available {
            bins.entry((a.launch_year, a.launch_month)).or_default().0 += 1;
        }
        if let Some(c) = &o.chosen {
            bins.entry((c.launch_year, c.launch_month)).or_default().1 += 1;
        }
    }

    let bins: Vec<LaunchBin> = bins
        .into_iter()
        .filter(|(_, (avail, _))| *avail > 0)
        .map(|((y, m), (avail, picked))| LaunchBin {
            label: format!("{y:04}-{m:02}"),
            month_index: (y - 2020) as f64 * 12.0 + (m - 1) as f64,
            available: avail,
            picked,
            ratio: picked as f64 / avail as f64,
        })
        .collect();

    let xs: Vec<f64> = bins.iter().map(|b| b.month_index).collect();
    let ys: Vec<f64> = bins.iter().map(|b| b.ratio).collect();
    LaunchAnalysis { terminal_id, pearson: pearson(&xs, &ys), bins }
}

/// §5.3 and Figure 7: sunlit preference.
#[derive(Debug, Clone)]
pub struct SunlitAnalysis {
    /// Terminal the analysis covers.
    pub terminal_id: usize,
    /// Slots with at least one sunlit and one dark satellite available.
    pub mixed_slots: usize,
    /// Share of mixed slots whose pick was sunlit (paper: ≈ 72.3%).
    pub sunlit_pick_share: f64,
    /// Among mixed slots where a *dark* satellite was picked, the minimum
    /// dark/available share observed (paper: dark picked only when that
    /// share ≥ 35%).
    pub min_dark_share_when_dark_picked: Option<f64>,
    /// ECDF of AOE for dark chosen satellites.
    pub dark_chosen_aoe: Ecdf,
    /// ECDF of AOE for sunlit chosen satellites.
    pub sunlit_chosen_aoe: Ecdf,
    /// ECDF of AOE for dark available satellites.
    pub dark_available_aoe: Ecdf,
    /// ECDF of AOE for sunlit available satellites.
    pub sunlit_available_aoe: Ecdf,
    /// Share of dark picks above 60° AOE (paper: ≈ 82%).
    pub dark_chosen_above_60: f64,
    /// Share of sunlit picks above 60° AOE (paper: ≈ 54%).
    pub sunlit_chosen_above_60: f64,
    /// Number of dark picks (sample size behind the dark statistics).
    pub n_dark_chosen: usize,
    /// Number of sunlit picks.
    pub n_sunlit_chosen: usize,
}

/// Runs the §5.3 / Figure 7 analysis for one terminal.
pub fn sunlit_analysis(obs: &[SlotObservation], terminal_id: usize) -> SunlitAnalysis {
    let mut mixed_slots = 0usize;
    let mut sunlit_picks = 0usize;
    let mut dark_picks = 0usize;
    let mut min_dark_share: Option<f64> = None;

    let mut dark_chosen = Vec::new();
    let mut sunlit_chosen = Vec::new();
    let mut dark_avail = Vec::new();
    let mut sunlit_avail = Vec::new();

    for o in per_terminal(obs, terminal_id) {
        let n_dark = o.available.iter().filter(|s| !s.sunlit).count();
        let n_sunlit = o.available.len() - n_dark;
        for a in &o.available {
            if a.sunlit {
                sunlit_avail.push(a.elevation_deg);
            } else {
                dark_avail.push(a.elevation_deg);
            }
        }
        let Some(c) = &o.chosen else { continue };
        if c.sunlit {
            sunlit_chosen.push(c.elevation_deg);
        } else {
            dark_chosen.push(c.elevation_deg);
        }

        if n_dark > 0 && n_sunlit > 0 {
            mixed_slots += 1;
            if c.sunlit {
                sunlit_picks += 1;
            } else {
                dark_picks += 1;
                let share = n_dark as f64 / o.available.len() as f64;
                min_dark_share = Some(min_dark_share.map_or(share, |m: f64| m.min(share)));
            }
        }
    }

    let picks = (sunlit_picks + dark_picks).max(1) as f64;
    let above = |xs: &[f64]| {
        if xs.is_empty() {
            f64::NAN
        } else {
            xs.iter().filter(|&&e| e > 60.0).count() as f64 / xs.len() as f64
        }
    };

    SunlitAnalysis {
        terminal_id,
        mixed_slots,
        sunlit_pick_share: sunlit_picks as f64 / picks,
        min_dark_share_when_dark_picked: min_dark_share,
        dark_chosen_above_60: above(&dark_chosen),
        sunlit_chosen_above_60: above(&sunlit_chosen),
        n_dark_chosen: dark_chosen.len(),
        n_sunlit_chosen: sunlit_chosen.len(),
        dark_chosen_aoe: Ecdf::new(&dark_chosen),
        sunlit_chosen_aoe: Ecdf::new(&sunlit_chosen),
        dark_available_aoe: Ecdf::new(&dark_avail),
        sunlit_available_aoe: Ecdf::new(&sunlit_avail),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::vantage::{paper_terminals, IOWA, ITHACA};
    use starsense_astro::time::JulianDate;
    use starsense_constellation::ConstellationBuilder;

    /// A moderately sized oracle campaign shared by the tests (built once).
    fn observations() -> &'static [SlotObservation] {
        use std::sync::OnceLock;
        static OBS: OnceLock<Vec<SlotObservation>> = OnceLock::new();
        OBS.get_or_init(|| {
            let c = Box::leak(Box::new(ConstellationBuilder::starlink_gen1().seed(41).build()));
            let campaign = Campaign::oracle(c, paper_terminals(), CampaignConfig::default(), 41);
            // 2h of slots covering deep night for the US sites so both
            // sunlit and dark satellites appear in numbers.
            campaign.run(JulianDate::from_ymd_hms(2023, 6, 1, 6, 0, 0.0), 480)
        })
    }

    #[test]
    fn aoe_chosen_dominates_available() {
        let a = aoe_analysis(observations(), IOWA);
        assert!(
            a.median_shift_deg > 10.0,
            "median shift {:.1} (chosen {:.1} vs available {:.1})",
            a.median_shift_deg,
            a.chosen_median_deg,
            a.available_median_deg
        );
        assert!(
            a.chosen_high_band > a.available_high_band + 0.2,
            "high-band: chosen {:.2} vs available {:.2}",
            a.chosen_high_band,
            a.available_high_band
        );
        // CDF of chosen sits to the right of available at mid-elevations.
        assert!(a.chosen_ecdf.eval(50.0) < a.available_ecdf.eval(50.0));
    }

    #[test]
    fn azimuth_skews_north_at_unobstructed_sites() {
        let a = azimuth_analysis(observations(), IOWA);
        assert!(
            a.chosen_north > a.available_north + 0.1,
            "north share: chosen {:.2} vs available {:.2}",
            a.chosen_north,
            a.available_north
        );
        let total: f64 = a.chosen_quadrants.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ithaca_trees_suppress_northwest_picks() {
        let ithaca = azimuth_analysis(observations(), ITHACA);
        let iowa = azimuth_analysis(observations(), IOWA);
        assert!(
            ithaca.chosen_northwest < iowa.chosen_northwest * 0.6,
            "Ithaca NW {:.3} vs Iowa NW {:.3}",
            ithaca.chosen_northwest,
            iowa.chosen_northwest
        );
    }

    #[test]
    fn launch_preference_is_positive() {
        let a = launch_analysis(observations(), IOWA);
        assert!(a.bins.len() > 10, "{} bins", a.bins.len());
        let r = a.pearson.expect("enough bins for correlation");
        assert!(r > 0.1, "Pearson {r:.3} should be positive");
        // Bins are chronological and ratios are sane.
        for w in a.bins.windows(2) {
            assert!(w[1].month_index > w[0].month_index);
        }
        for b in &a.bins {
            assert!((0.0..=1.0).contains(&b.ratio));
        }
    }

    #[test]
    fn sunlit_is_preferred_in_mixed_slots() {
        let a = sunlit_analysis(observations(), IOWA);
        if a.mixed_slots >= 20 {
            assert!(
                a.sunlit_pick_share > 0.5,
                "sunlit share {:.2} over {} mixed slots",
                a.sunlit_pick_share,
                a.mixed_slots
            );
        }
    }

    #[test]
    fn dark_picks_sit_higher_than_sunlit_picks() {
        // Evaluate the §5.3 AOE split wherever the dark-pick sample is big
        // enough to be meaningful (the measurement window doesn't put every
        // terminal in darkness).
        let mut evaluated = 0;
        for tid in 0..4 {
            let a = sunlit_analysis(observations(), tid);
            if a.n_dark_chosen >= 20 && a.n_sunlit_chosen >= 20 {
                evaluated += 1;
                assert!(
                    a.dark_chosen_above_60 > a.sunlit_chosen_above_60,
                    "terminal {tid}: dark>60° {:.2} (n={}) vs sunlit>60° {:.2} (n={})",
                    a.dark_chosen_above_60,
                    a.n_dark_chosen,
                    a.sunlit_chosen_above_60,
                    a.n_sunlit_chosen
                );
            }
        }
        assert!(evaluated >= 1, "no terminal had enough dark picks to evaluate");
    }
}
