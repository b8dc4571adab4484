//! Figure 7 + §5.3: sunlit preference and the AOE split between dark and
//! sunlit picks.
//!
//! Paper shape targets: sunlit satellites picked ≈72.3% of mixed slots;
//! dark satellites picked only when the dark share of availability is
//! substantial; picked dark satellites sit much higher than picked sunlit
//! ones (≈82% vs ≈54% above 60°).

use starsense_core::characterize::sunlit_analysis;
use starsense_core::report::{csv, num, pct, text_table};
use starsense_core::vantage::paper_terminals;
use starsense_experiments::{
    cdf_rows, slots_from_env, standard_campaign, standard_constellation, write_artifact,
};

fn main() {
    println!("== Figure 7 / §5.3: sunlit preference ==\n");
    let constellation = standard_constellation();
    // Sunlit analysis needs night coverage: default to a full day of slots.
    let slots = slots_from_env(5760);
    let obs = standard_campaign(&constellation, slots);
    let names: Vec<String> = paper_terminals().iter().map(|t| t.name.clone()).collect();

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut shares = Vec::new();
    for (tid, name) in names.iter().enumerate() {
        let a = sunlit_analysis(&obs, tid);
        rows.push(vec![
            name.clone(),
            a.mixed_slots.to_string(),
            pct(a.sunlit_pick_share),
            a.min_dark_share_when_dark_picked.map(pct).unwrap_or_else(|| "-".into()),
            pct(a.dark_chosen_above_60),
            pct(a.sunlit_chosen_above_60),
            a.n_dark_chosen.to_string(),
        ]);
        if a.mixed_slots > 0 {
            shares.push(a.sunlit_pick_share);
        }
        // Figure 7 plots the four AOE CDFs for three locations; emit all.
        for (label, ecdf) in [
            ("dark+chosen", &a.dark_chosen_aoe),
            ("sunlit+chosen", &a.sunlit_chosen_aoe),
            ("dark+available", &a.dark_available_aoe),
            ("sunlit+available", &a.sunlit_available_aoe),
        ] {
            if !ecdf.is_empty() {
                csv_rows.extend(cdf_rows(&format!("{name}/{label}"), &ecdf.curve(25.0, 90.0, 66)));
            }
        }
    }

    println!(
        "{}",
        text_table(
            &[
                "location",
                "mixed slots",
                "sunlit picked",
                "min dark share @ dark pick",
                "dark>60°",
                "sunlit>60°",
                "n dark picks"
            ],
            &rows
        )
    );
    let mean_share = shares.iter().sum::<f64>() / shares.len().max(1) as f64;
    println!(
        "\nmean sunlit pick share over locations with mixed slots: {} (paper: 72.3%)",
        pct(mean_share)
    );
    println!("({slots} slots per location; set STARSENSE_SLOTS to adjust)");

    write_artifact("fig7_sunlit_aoe_cdfs.csv", &csv(&["series", "aoe_deg", "cdf"], &csv_rows));

    assert!(mean_share > 0.5, "sunlit preference must hold on average: {}", num(mean_share, 3));
}
