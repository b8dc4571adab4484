//! The figures and tables of the paper's evaluation, one function each.
//!
//! [`paper_results`] builds the standard constellation once and runs the
//! standard four-terminal oracle campaign once, at the longest length any
//! section reads. A campaign is a slot-major prefix of any longer run from
//! the same start (pinned by `crates/core/tests/prefix.rs`), so a section
//! that wants `n` slots reads the first `n × terminals` observations. Each
//! location's forest is fitted once and shared by Figure 8 and the §6
//! importance table. Each section asserts the paper's qualitative shape.

#![expect(
    clippy::expect_used,
    reason = "like the shape asserts, a section that cannot compute stops the run rather than report nothing"
)]

use crate::{campaign_start, standard_constellation, PaperResults, Section, WORLD_SEED};
use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_constellation::{Constellation, ConstellationBuilder};
use starsense_core::campaign::{Campaign, CampaignConfig, SlotObservation};
use starsense_core::characterize::{
    aoe_analysis, azimuth_analysis, launch_analysis, sunlit_analysis,
};
use starsense_core::model::{default_grid, train_and_evaluate, ModelEvaluation};
use starsense_core::report::{csv, num, pct};
use starsense_core::vantage::{paper_terminals, IOWA, ITHACA, MADRID, UNOBSTRUCTED};
use starsense_faults::FaultPlan;
use starsense_ident::{run_validation, DishSimulator};
use starsense_netemu::groundstation::paper_pops;
use starsense_netemu::{Emulator, IperfSender};
use starsense_obstruction::render::to_pgm;
use starsense_obstruction::{calibrate, isolate};
use starsense_scheduler::slots::{slot_start, SLOT_PERIOD_SECONDS};
use starsense_scheduler::{GlobalScheduler, SchedulerPolicy, Terminal};
use starsense_stats::mannwhitney::mann_whitney_u;
use starsense_stats::Summary;

/// Runs every figure and table of the paper once.
///
/// `slots` overrides every section's campaign length (the
/// `STARSENSE_SLOTS` knob); `None` keeps each section's default.
///
/// # Panics
///
/// Panics when a section's result loses the paper's qualitative shape
/// (each section's `assert!`s), or when `slots` is too short for a
/// section to compute at all.
pub fn paper_results(slots: Option<usize>) -> PaperResults {
    let len = |default: usize| slots.unwrap_or(default);
    let constellation = standard_constellation();
    let names: Vec<String> = paper_terminals().iter().map(|t| t.name.clone()).collect();
    // The longest section (Figure 7) reads a full day.
    let campaign =
        Campaign::oracle(&constellation, paper_terminals(), CampaignConfig::default(), WORLD_SEED)
            .run(campaign_start(), len(5760));
    let head = |n: usize| &campaign[..n * names.len()];
    let standard = head(len(2400));
    let grid = default_grid();
    let models: Vec<ModelEvaluation> = (0..names.len())
        .map(|tid| train_and_evaluate(standard, tid, &grid, WORLD_SEED ^ tid as u64))
        .collect();

    let sections = vec![
        fig2(&constellation),
        fig3(&constellation, len(2000)),
        tab_ident(len(500)),
        fig4(standard, &names, len(2400)),
        fig5(standard, &names, len(2400)),
        fig6(standard, &names, len(2400)),
        fig7(&campaign, &names, len(5760)),
        fig8(&models, &names, len(2400)),
        tab_importance(&models, &names, len(2400)),
        tab_ablation(&constellation, head(len(1600)), len(1600)),
        tab_southern(&constellation, len(1600)),
        tab_margin(len(400)),
        tab_capacity(&constellation, len(40)),
    ];
    PaperResults { sections }
}

/// Formats an `(x, F(x))` CDF curve as CSV rows with a label column.
fn cdf_rows(label: &str, curve: &[(f64, f64)]) -> Vec<Vec<String>> {
    curve
        .iter()
        .map(|(x, y)| vec![label.to_string(), format!("{x:.2}"), format!("{y:.4}")])
        .collect()
}

fn paper_emulator(constellation: &Constellation) -> Emulator<'_> {
    let scheduler = GlobalScheduler::new(SchedulerPolicy::default(), paper_terminals(), WORLD_SEED);
    Emulator::new(constellation, scheduler, paper_pops(), FaultPlan::none(), WORLD_SEED)
}

/// Figure 2 + §3: a 3-minute RTT trace from the EU (Madrid) terminal,
/// 15-second latency regimes anchored at :12/:27/:42/:57, parallel MAC
/// bands, and the Mann-Whitney test between consecutive windows.
fn fig2(constellation: &Constellation) -> Section {
    let mut s = Section::new("fig2");
    // The paper's Figure 2 spans ~3 minutes starting at 05:37:30 UTC.
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 5, 37, 30.0);
    let trace = paper_emulator(constellation).probe_trace(MADRID, from, 180.0);

    let rows: Vec<Vec<String>> =
        trace.series().iter().map(|(t, r)| vec![format!("{t:.3}"), format!("{r:.3}")]).collect();
    s.artifact("fig2_rtt_series.csv", csv(&["seconds", "rtt_ms"], &rows));

    // Per-window summary: regime levels and where the boundaries fall.
    let windows = trace.windows();
    let mut table = Vec::new();
    for w in &windows {
        let Some(sum) = Summary::of(&w.rtts) else { continue };
        table.push(vec![
            format!("{}", w.slot),
            format!(":{:04.1}", w.start.to_civil().second),
            w.serving_sat.map(|x| x.to_string()).unwrap_or_else(|| "-".into()),
            num(sum.median, 2),
            num(sum.p25, 2),
            num(sum.p75, 2),
            pct(w.loss_rate()),
        ]);
    }
    s.table(&["slot", "starts", "serving sat", "median rtt", "p25", "p75", "loss"], &table);

    // §3's claim 1: boundaries at :12/:27/:42/:57 (the first window is
    // partial).
    let anchors: Vec<u32> =
        windows.iter().skip(1).map(|w| w.start.to_civil().second.round() as u32 % 60).collect();
    s.text(format!("window boundaries (seconds past the minute): {anchors:?}"));
    assert!(
        anchors.iter().all(|s| [12, 27, 42, 57].contains(s)),
        "boundaries must fall on the paper's anchors"
    );

    // §3's claim 2: consecutive windows statistically distinct
    // (Mann-Whitney U, p < .05) whenever the satellite actually changed.
    let mut rows = Vec::new();
    let mut significant = 0;
    for pair in windows.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a.rtts.len() < 100 || b.rtts.len() < 100 || a.serving_sat == b.serving_sat {
            continue;
        }
        let Some(t) = mann_whitney_u(&a.rtts, &b.rtts) else { continue };
        significant += usize::from(t.is_significant(0.05));
        rows.push(vec![
            format!("{} vs {}", a.slot, b.slot),
            format!("{:.1}", t.u),
            format!("{:.2}", t.z),
            format!("{:.2e}", t.p_value),
            (if t.is_significant(0.05) { "yes" } else { "no" }).to_string(),
        ]);
    }
    s.text("Mann-Whitney U between consecutive windows where the satellite changed:");
    s.table(&["windows", "U", "z", "p", "p < .05"], &rows);
    s.text(format!("distinct: {significant}/{} window pairs", rows.len()));

    // The MAC-band observation: spread of RTT inside a single window.
    if let Some(w) = windows.iter().find(|w| w.rtts.len() > 500) {
        let mut sorted = w.rtts.clone();
        sorted.sort_by(f64::total_cmp);
        let spread = sorted[sorted.len() * 95 / 100] - sorted[sorted.len() * 5 / 100];
        s.text(format!(
            "within-window p5–p95 RTT spread (slot {}): {spread:.2} ms \
             (parallel bands a few ms apart: MAC round-robin frame queueing)",
            w.slot
        ));
    }
    s
}

/// Figure 3 + §4.1: obstruction maps for consecutive slots, their XOR, a
/// saturated map with no resets, and the blind calibration that recovers
/// the polar plot's center (62×62) and radius (45 px).
fn fig3(constellation: &Constellation, slots: usize) -> Section {
    let mut s = Section::new("fig3");
    let terminals = paper_terminals();
    let location = terminals[IOWA].location;
    let mut scheduler = GlobalScheduler::new(SchedulerPolicy::default(), terminals, WORLD_SEED);
    let first_mid = slot_start(campaign_start()).plus_seconds(SLOT_PERIOD_SECONDS / 2.0);

    // One scheduler, played once: the dish with its 10-minute map reset
    // sees slots 0-7 (panels b-d), the dish that never resets sees every
    // slot of the saturation run (panel e).
    let mut dish = DishSimulator::new(location);
    let mut sat_dish = DishSimulator::new(location).with_reset_every_slots(0);
    let mut captures = Vec::new();
    let mut saturated = None;
    for k in 0..slots.max(8) {
        let at = first_mid.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS);
        let alloc = &scheduler.allocate(constellation, at)[IOWA];
        let (slot, start, chosen) = (alloc.slot, alloc.slot_start, alloc.chosen_id());
        if k < 8 {
            captures.push(dish.play_slot(constellation, slot, start, chosen));
        }
        if k < slots {
            saturated = Some(sat_dish.play_slot(constellation, slot, start, chosen).map);
        }
    }

    // (b), (c), (d): two consecutive 15-second slots and their XOR.
    let (prev, curr) = (&captures[6], &captures[7]);
    let xor = isolate(&prev.map, &curr.map);
    s.artifact("fig3b_gRPC_t_minus_1.pgm", to_pgm(&prev.map));
    s.artifact("fig3c_gRPC_t.pgm", to_pgm(&curr.map));
    s.artifact("fig3d_xor.pgm", to_pgm(&xor));
    s.text(format!(
        "gRPC(t-1): {} px, gRPC(t): {} px, XOR: {} px",
        prev.map.count_set(),
        curr.map.count_set(),
        xor.count_set()
    ));

    // (e): the saturation run, with no map resets.
    let saturated = saturated.expect("at least one slot");
    s.artifact("fig3e_saturated.pgm", to_pgm(&saturated));
    s.text(format!(
        "saturated map after {} slots ({:.1} h): {} px set, fill {:.1}%",
        slots,
        slots as f64 * 15.0 / 3600.0,
        saturated.count_set(),
        100.0 * saturated.fill_fraction(),
    ));

    // §4.1 calibration: bounding-box recovery of the plot parameters.
    match calibrate(&saturated) {
        Some(c) => {
            let truth = "61 (\"62\" 1-based)";
            let rows = vec![
                vec!["center x (px)".into(), format!("{:.1}", c.center_x), truth.into()],
                vec!["center y (px)".into(), format!("{:.1}", c.center_y), truth.into()],
                vec!["plot radius (px)".into(), format!("{:.1}", c.radius_px), "45".into()],
                vec!["support (px)".into(), format!("{}", c.support), "-".into()],
            ];
            s.text("§4.1 blind calibration (bounding box on the saturated map):");
            s.table(&["parameter", "recovered", "paper / truth"], &rows);
            assert!((c.center_x - 61.0).abs() < 3.0 && (c.radius_px - 45.0).abs() < 3.0);
        }
        None => s.text("map not yet saturated enough to calibrate; raise STARSENSE_SLOTS"),
    }
    s
}

/// One Iowa terminal under the standard policy, the identification
/// sections' vantage point.
fn iowa_scheduler() -> GlobalScheduler {
    let terminals = vec![Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2))];
    GlobalScheduler::new(SchedulerPolicy::default(), terminals, WORLD_SEED)
}

fn stale_constellation(lo_hours: f64, hi_hours: f64) -> Constellation {
    ConstellationBuilder::starlink_gen1()
        .seed(WORLD_SEED)
        .staleness_hours(lo_hours, hi_hours)
        .build()
}

/// §4.1 validation: identification accuracy against the hidden
/// scheduler's assignments, swept over published-TLE staleness (the
/// pipeline's main error source, which the paper could not vary).
fn tab_ident(slots: usize) -> Section {
    let mut s = Section::new("tab_ident");
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (lo, hi) in [(0.0, 0.5), (0.0, 6.0), (6.0, 12.0), (12.0, 24.0)] {
        let constellation = stale_constellation(lo, hi);
        let report =
            run_validation(&constellation, &mut iowa_scheduler(), 0, campaign_start(), slots);
        rows.push(vec![
            format!("{lo:.0}-{hi:.0} h"),
            report.slots_played.to_string(),
            report.attempted.to_string(),
            report.correct.to_string(),
            report.wrong.to_string(),
            report.skipped.to_string(),
            pct(report.accuracy()),
            num(report.mean_margin, 3),
        ]);
        csv_rows.push(vec![
            format!("{lo}"),
            format!("{hi}"),
            report.attempted.to_string(),
            format!("{:.5}", report.accuracy()),
        ]);
        if hi <= 6.0 {
            assert!(
                report.accuracy() > 0.9,
                "CelesTrak-like staleness must identify >90%: got {}",
                pct(report.accuracy())
            );
        }
    }
    s.table(
        &[
            "TLE staleness",
            "slots",
            "attempted",
            "correct",
            "wrong",
            "skipped",
            "accuracy",
            "mean margin",
        ],
        &rows,
    );
    s.artifact(
        "tab_ident_staleness.csv",
        csv(&["staleness_lo_h", "staleness_hi_h", "attempted", "accuracy"], &csv_rows),
    );
    s
}

/// Figure 4: angle of elevation of available vs selected satellites.
fn fig4(obs: &[SlotObservation], names: &[String], slots: usize) -> Section {
    let mut s = Section::new("fig4");
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut shifts = Vec::new();
    for (tid, name) in names.iter().enumerate() {
        let a = aoe_analysis(obs, tid);
        rows.push(vec![
            name.clone(),
            num(a.available_median_deg, 1),
            num(a.chosen_median_deg, 1),
            num(a.median_shift_deg, 1),
            pct(a.available_high_band),
            pct(a.chosen_high_band),
        ]);
        shifts.push(a.median_shift_deg);
        csv_rows.extend(cdf_rows(
            &format!("{name}/available"),
            &a.available_ecdf.curve(25.0, 90.0, 66),
        ));
        csv_rows.extend(cdf_rows(&format!("{name}/chosen"), &a.chosen_ecdf.curve(25.0, 90.0, 66)));
    }
    s.table(
        &["location", "avail median°", "chosen median°", "shift°", "avail 45-90°", "chosen 45-90°"],
        &rows,
    );
    let mean_shift = shifts.iter().sum::<f64>() / shifts.len() as f64;
    s.text(format!("mean median shift: {mean_shift:.1}° ({slots} slots per location)"));
    s.artifact("fig4_aoe_cdfs.csv", csv(&["series", "aoe_deg", "cdf"], &csv_rows));
    assert!(mean_shift > 10.0, "selected satellites must sit well above available");
    s
}

/// Figure 5: azimuth of available vs selected satellites by compass
/// quadrant, plus the Ithaca obstruction diagnostic.
fn fig5(obs: &[SlotObservation], names: &[String], slots: usize) -> Section {
    let mut s = Section::new("fig5");
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut analyses = Vec::new();
    for (tid, name) in names.iter().enumerate() {
        let a = azimuth_analysis(obs, tid);
        rows.push(vec![
            name.clone(),
            pct(a.available_north),
            pct(a.chosen_north),
            pct(a.chosen_quadrants[0]),
            pct(a.chosen_quadrants[1]),
            pct(a.chosen_quadrants[2]),
            pct(a.chosen_quadrants[3]),
        ]);
        csv_rows.extend(cdf_rows(
            &format!("{name}/available"),
            &a.available_ecdf.curve(0.0, 360.0, 73),
        ));
        csv_rows.extend(cdf_rows(&format!("{name}/chosen"), &a.chosen_ecdf.curve(0.0, 360.0, 73)));
        analyses.push(a);
    }
    s.table(&["location", "avail north", "chosen north", "NE", "SE", "SW", "NW"], &rows);
    let others_nw = analyses
        .iter()
        .enumerate()
        .filter(|(tid, _)| *tid != ITHACA)
        .map(|(_, a)| a.chosen_northwest)
        .sum::<f64>()
        / 3.0;
    s.text(format!(
        "NW-quadrant pick share: Ithaca {} vs other sites {} ({slots} slots per location)",
        pct(analyses[ITHACA].chosen_northwest),
        pct(others_nw)
    ));
    s.artifact("fig5_azimuth_cdfs.csv", csv(&["series", "azimuth_deg", "cdf"], &csv_rows));
    assert!(
        analyses[ITHACA].chosen_northwest < others_nw * 0.6,
        "Ithaca's trees must suppress north-west picks"
    );
    for (tid, a) in analyses.iter().enumerate() {
        if tid != ITHACA {
            assert!(a.chosen_north > a.available_north, "north preference must hold at {tid}");
        }
    }
    s
}

/// Figure 6: probability of a launch's satellites being picked against
/// the launch date, with the Pearson correlation per location.
fn fig6(obs: &[SlotObservation], names: &[String], slots: usize) -> Section {
    let mut s = Section::new("fig6");
    let mut csv_rows = Vec::new();
    let mut pearson_rows = Vec::new();
    let mut unobstructed_r = Vec::new();
    for (tid, name) in names.iter().enumerate() {
        let a = launch_analysis(obs, tid);
        for b in &a.bins {
            csv_rows.push(vec![
                name.clone(),
                b.label.clone(),
                b.available.to_string(),
                b.picked.to_string(),
                format!("{:.5}", b.ratio),
            ]);
        }
        let r = a.pearson.unwrap_or(f64::NAN);
        if UNOBSTRUCTED.contains(&tid) {
            unobstructed_r.push(r);
        }
        pearson_rows.push(vec![name.clone(), num(r, 3), a.bins.len().to_string()]);
    }
    s.table(&["location", "Pearson r", "launch bins"], &pearson_rows);
    let mean_r = unobstructed_r.iter().sum::<f64>() / unobstructed_r.len() as f64;
    s.text(format!(
        "mean Pearson over unobstructed locations (New York discarded): {mean_r:.3} \
         ({slots} slots per location)"
    ));

    // One location's bins as the figure's series.
    let rows: Vec<Vec<String>> = launch_analysis(obs, IOWA)
        .bins
        .iter()
        .map(|b| {
            vec![
                b.label.clone(),
                b.available.to_string(),
                b.picked.to_string(),
                format!("{:.4}", b.ratio),
            ]
        })
        .collect();
    s.text("Iowa launch bins:");
    s.table(&["launch", "avail", "picked", "picked/avail"], &rows);
    s.artifact(
        "fig6_launch_bins.csv",
        csv(&["location", "launch", "available", "picked", "ratio"], &csv_rows),
    );
    assert!(mean_r > 0.1, "launch-date preference must correlate positively");
    s
}

/// Figure 7 + §5.3: sunlit preference and the AOE split between dark and
/// sunlit picks. It needs night coverage, so it reads a full day.
fn fig7(obs: &[SlotObservation], names: &[String], slots: usize) -> Section {
    let mut s = Section::new("fig7");
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut shares = Vec::new();
    for (tid, name) in names.iter().enumerate() {
        let a = sunlit_analysis(obs, tid);
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
    s.table(
        &[
            "location",
            "mixed slots",
            "sunlit picked",
            "min dark share @ dark pick",
            "dark>60°",
            "sunlit>60°",
            "n dark picks",
        ],
        &rows,
    );
    let mean_share = shares.iter().sum::<f64>() / shares.len().max(1) as f64;
    s.text(format!(
        "mean sunlit pick share over locations with mixed slots: {} ({slots} slots per location)",
        pct(mean_share)
    ));
    s.artifact("fig7_sunlit_aoe_cdfs.csv", csv(&["series", "aoe_deg", "cdf"], &csv_rows));
    assert!(mean_share > 0.5, "sunlit preference must hold on average: {}", num(mean_share, 3));
    s
}

/// Figure 8: top-k accuracy of the random-forest scheduler model against
/// the most-available-cluster baseline, k = 1…9.
fn fig8(models: &[ModelEvaluation], names: &[String], slots: usize) -> Section {
    let mut s = Section::new("fig8");
    let mut csv_rows = Vec::new();
    for (eval, name) in models.iter().zip(names) {
        let mut rows = Vec::new();
        for (i, &k) in eval.k_values.iter().enumerate() {
            rows.push(vec![
                k.to_string(),
                pct(eval.rf_top_k[i]),
                pct(eval.baseline_top_k[i]),
                num(eval.rf_top_k[i] / eval.baseline_top_k[i].max(1e-9), 2),
            ]);
            csv_rows.push(vec![
                name.clone(),
                k.to_string(),
                format!("{:.4}", eval.rf_top_k[i]),
                format!("{:.4}", eval.baseline_top_k[i]),
            ]);
        }
        s.text(format!(
            "**{name}**: {} train rows, {} holdout rows, {} clusters",
            eval.n_train, eval.n_holdout, eval.n_classes
        ));
        s.table(&["k", "RF model", "baseline", "ratio"], &rows);
        s.text(format!(
            "cv accuracy {} vs holdout top-1 {} vs OOB {} (over-fitting checks)",
            pct(eval.cv_accuracy),
            pct(eval.holdout_accuracy),
            eval.oob_accuracy.map(pct).unwrap_or_else(|| "n/a".into())
        ));
        assert!(
            eval.rf_top_k[4] > eval.baseline_top_k[4],
            "{name}: model must beat baseline at k=5"
        );
    }
    s.text(format!("({slots} slots per location)"));
    s.artifact("fig8_topk.csv", csv(&["location", "k", "rf", "baseline"], &csv_rows));
    s
}

/// §6: gini feature importances of the Figure 8 models.
fn tab_importance(models: &[ModelEvaluation], names: &[String], slots: usize) -> Section {
    let mut s = Section::new("tab_importance");
    let mut csv_rows = Vec::new();
    for (eval, name) in models.iter().zip(names) {
        let top: Vec<Vec<String>> =
            eval.importances.iter().take(12).map(|(n, v)| vec![n.clone(), num(*v, 4)]).collect();
        let local_hour_rank = eval
            .importances
            .iter()
            .position(|(n, _)| n == "local_hour")
            .expect("local_hour feature exists");
        // High-AOE clusters ((x,2,y,z) tuples) must carry real importance:
        // the scheduler's strongest preference.
        let high_aoe_mass: f64 = eval
            .importances
            .iter()
            .filter(|(n, _)| n.split(',').nth(1) == Some("2"))
            .map(|(_, v)| v)
            .sum();
        s.text(format!(
            "**{name}**: `local_hour` rank {} of {}; total importance on (x,2,y,z) high-AOE \
             clusters {}",
            local_hour_rank + 1,
            eval.importances.len(),
            num(high_aoe_mass, 3)
        ));
        s.table(&["feature", "gini importance"], &top);
        for (n, v) in &eval.importances {
            csv_rows.push(vec![name.clone(), n.clone(), format!("{v:.6}")]);
        }
        assert!(high_aoe_mass > 0.05, "{name}: high-AOE clusters must matter");
    }
    s.text(format!("({slots} slots per location)"));
    s.artifact("tab_importance.csv", csv(&["location", "feature", "importance"], &csv_rows));
    s
}

/// Ablations: zero each scheduler preference and measure which finding
/// collapses. Each §5 observation must be driven by exactly the policy
/// term built for it.
fn tab_ablation(constellation: &Constellation, full: &[SlotObservation], slots: usize) -> Section {
    let mut s = Section::new("tab_ablation");
    let base = SchedulerPolicy::default();
    let variants = [
        ("w_elevation = 0", SchedulerPolicy { w_elevation: 0.0, ..base.clone() }),
        (
            "GSO zone + margin off",
            SchedulerPolicy { gso_half_angle_deg: None, w_gso_margin: 0.0, ..base.clone() },
        ),
        ("w_age = 0", SchedulerPolicy { w_age: 0.0, ..base.clone() }),
        (
            "sunlit terms off",
            SchedulerPolicy { w_sunlit: 0.0, w_dark_low_elevation: 0.0, ..base.clone() },
        ),
    ];
    // (aoe shift, north delta, Pearson, sunlit share) at Iowa; the full
    // policy is the standard campaign's head.
    let measure = |obs: &[SlotObservation]| {
        let az = azimuth_analysis(obs, IOWA);
        [
            aoe_analysis(obs, IOWA).median_shift_deg,
            az.chosen_north - az.available_north,
            launch_analysis(obs, IOWA).pearson.unwrap_or(f64::NAN),
            sunlit_analysis(obs, IOWA).sunlit_pick_share,
        ]
    };
    let mut results = vec![("full policy", measure(full))];
    for (name, policy) in variants {
        let config = CampaignConfig { policy, ..CampaignConfig::default() };
        let obs = Campaign::oracle(constellation, paper_terminals(), config, WORLD_SEED)
            .run(campaign_start(), slots);
        results.push((name, measure(&obs)));
    }

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(name, m)| {
            vec![name.to_string(), num(m[0], 1), num(m[1], 3), num(m[2], 3), num(m[3], 3)]
        })
        .collect();
    let csv_rows: Vec<Vec<String>> = results
        .iter()
        .map(|(name, m)| {
            vec![
                name.to_string(),
                format!("{:.3}", m[0]),
                format!("{:.4}", m[1]),
                format!("{:.4}", m[2]),
                format!("{:.4}", m[3]),
            ]
        })
        .collect();
    s.table(
        &["policy", "fig4 AOE shift°", "fig5 north Δ", "fig6 Pearson", "§5.3 sunlit share"],
        &rows,
    );
    s.text(format!("(Iowa terminal, {slots} slots per variant)"));
    s.artifact(
        "tab_ablation.csv",
        csv(&["policy", "aoe_shift", "north_delta", "pearson", "sunlit_share"], &csv_rows),
    );

    // Each ablation must gut its own finding.
    let [full, no_el, no_gso, no_age, _] = [0, 1, 2, 3, 4].map(|i| results[i].1);
    assert!(no_el[0] < full[0] * 0.5, "elevation ablation must collapse fig4");
    assert!(no_gso[1] < full[1] * 0.5, "GSO ablation must collapse fig5");
    assert!(no_age[2] < full[2] * 0.5, "age ablation must collapse fig6");
    s
}

/// §8 future work: a mirror of the Iowa terminal at 41.66°S. The GSO
/// geometry predicts the azimuth skew flips south while the elevation
/// preference is unchanged.
fn tab_southern(constellation: &Constellation, slots: usize) -> Section {
    let mut s = Section::new("tab_southern");
    let terminals = vec![
        Terminal::new(0, "Iowa (41.66N)", Geodetic::new(41.66, -91.53, 0.2)),
        Terminal::new(1, "Mirror (41.66S)", Geodetic::new(-41.66, -91.53, 0.2)),
    ];
    let names: Vec<String> = terminals.iter().map(|t| t.name.clone()).collect();
    let obs = Campaign::oracle(constellation, terminals, CampaignConfig::default(), WORLD_SEED)
        .run(campaign_start(), slots);

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut south_share = [0.0f64; 2];
    let mut shifts = [0.0f64; 2];
    for tid in 0..2 {
        let az = azimuth_analysis(&obs, tid);
        let aoe = aoe_analysis(&obs, tid);
        south_share[tid] = az.chosen_quadrants[1] + az.chosen_quadrants[2];
        shifts[tid] = aoe.median_shift_deg;
        rows.push(vec![
            names[tid].clone(),
            pct(az.chosen_north),
            pct(south_share[tid]),
            num(aoe.median_shift_deg, 1),
        ]);
        csv_rows.push(vec![
            names[tid].clone(),
            format!("{:.4}", az.chosen_north),
            format!("{:.4}", south_share[tid]),
            format!("{:.3}", aoe.median_shift_deg),
        ]);
    }
    s.table(&["terminal", "chosen north", "chosen south", "AOE shift°"], &rows);
    s.text(format!("({slots} slots per terminal)"));
    s.artifact(
        "tab_southern.csv",
        csv(&["terminal", "chosen_north", "chosen_south", "aoe_shift"], &csv_rows),
    );
    assert!(
        south_share[1] > south_share[0] + 0.15,
        "southern terminal must skew south: {} vs {}",
        pct(south_share[1]),
        pct(south_share[0])
    );
    assert!(
        shifts[1] > 10.0,
        "elevation preference must survive the hemisphere flip: {:.1}°",
        shifts[1]
    );
    s
}

/// Identification confidence: precision vs coverage as the required DTW
/// decision margin rises, under moderately stale (4–10 h) TLEs so that
/// errors exist to be filtered.
fn tab_margin(slots: usize) -> Section {
    let mut s = Section::new("tab_margin");
    let constellation = stale_constellation(4.0, 10.0);
    // (margin, correct) for every attempted slot.
    let attempts =
        run_validation(&constellation, &mut iowa_scheduler(), 0, campaign_start(), slots).outcomes;
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
    s.table(&["margin ≥", "answered", "coverage", "precision"], &rows);
    s.text(format!("({total} attempted slots under 4-10 h TLE staleness)"));
    s.artifact("tab_margin.csv", csv(&["margin_threshold", "coverage", "precision"], &csv_rows));

    // Precision at high margins must not fall below the unfiltered rate.
    let p0 = attempts.iter().filter(|(_, c)| *c).count() as f64 / total.max(1) as f64;
    let high: Vec<&(f64, bool)> = attempts.iter().filter(|(m, _)| *m >= 0.5).collect();
    if high.len() >= 20 {
        let p_high = high.iter().filter(|(_, c)| *c).count() as f64 / high.len() as f64;
        assert!(p_high >= p0, "high-margin precision {p_high:.3} must not fall below base {p0:.3}");
        s.text(format!("base precision {} → {} at margin ≥ 0.5", pct(p0), pct(p_high)));
    }
    s
}

/// §3's iPerf side: per-slot uplink capacity stepping at every 15-second
/// reallocation, and the loss profile within a slot showing the handover
/// burst.
fn tab_capacity(constellation: &Constellation, slots: usize) -> Section {
    let mut s = Section::new("tab_capacity");
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 15, 0, 0.0);
    let recs = paper_emulator(constellation).throughput_trace(IOWA, from, slots);
    // The paper's iPerf at 50% of a 40 Mbit/s-class upstream.
    let sender = IperfSender::paper_nominal(40.0);

    let rows: Vec<Vec<String>> = recs
        .iter()
        .take(16)
        .map(|r| match r.throughput {
            Some(t) => vec![
                r.slot.to_string(),
                r.serving_sat.map(|s| s.to_string()).unwrap_or_default(),
                num(t.link_capacity_mbps, 1),
                t.mac_share.to_string(),
                num(t.terminal_share_mbps, 1),
                (if sender.sustainable(&t) { "yes" } else { "no" }).to_string(),
            ],
            None => {
                let mut row = vec!["-".to_string(); 6];
                row[0] = r.slot.to_string();
                row
            }
        })
        .collect();
    let served: Vec<_> = recs.iter().filter_map(|r| r.throughput.map(|t| (r.slot, t))).collect();
    let sustainable = served.iter().filter(|(_, t)| sender.sustainable(t)).count();
    let csv_rows: Vec<Vec<String>> = served
        .iter()
        .map(|(slot, t)| {
            vec![
                slot.to_string(),
                format!("{:.3}", t.link_capacity_mbps),
                t.mac_share.to_string(),
                format!("{:.3}", t.terminal_share_mbps),
            ]
        })
        .collect();
    s.table(
        &["slot", "sat", "link Mbit/s", "MAC share", "terminal Mbit/s", "20 Mbit/s iPerf ok"],
        &rows,
    );
    s.text(format!(
        "iPerf at {} Mbit/s sustainable in {sustainable}/{} served slots",
        sender.rate_mbps,
        served.len()
    ));
    s.artifact(
        "tab_capacity.csv",
        csv(&["slot", "link_mbps", "mac_share", "terminal_mbps"], &csv_rows),
    );

    // Handover loss profile: loss rate by offset within the slot.
    let trace = paper_emulator(constellation).probe_trace(IOWA, from, slots as f64 * 15.0);
    let mut bins = [(0usize, 0usize); 15]; // (lost, total) per 1 s offset
    for rec in &trace.records {
        let bin = rec.at.seconds_since(slot_start(rec.at)).clamp(0.0, 14.999) as usize;
        bins[bin].1 += 1;
        bins[bin].0 += usize::from(rec.rtt_ms.is_none());
    }
    let rate = |(lost, total): (usize, usize)| lost as f64 / total.max(1) as f64;
    let rows: Vec<Vec<String>> = bins
        .iter()
        .enumerate()
        .map(|(s, &b)| vec![format!("{s}-{} s", s + 1), b.1.to_string(), pct(rate(b))])
        .collect();
    s.text("loss rate by offset within the 15 s slot (handover burst in the first second):");
    s.table(&["offset", "probes", "loss"], &rows);
    let first = rate(bins[0]);
    let rest = bins[1..].iter().map(|&b| rate(b)).sum::<f64>() / 14.0;
    s.text(format!("first-second loss {} vs steady-state {}", pct(first), pct(rest)));
    assert!(first > 2.0 * rest, "handover burst must dominate steady-state loss");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_rows_format() {
        let rows = cdf_rows("Iowa", &[(25.0, 0.0), (90.0, 1.0)]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec!["Iowa".to_string(), "25.00".into(), "0.0000".into()]);
    }
}
