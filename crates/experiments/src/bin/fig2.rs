//! Figure 2 + §3: high-frequency RTT trace from the EU (Madrid) terminal,
//! 15-second latency regimes anchored at :12/:27/:42/:57, parallel MAC
//! bands, and the Mann-Whitney distinctness test between consecutive
//! windows.

use starsense_core::report::{num, pct, text_table};
use starsense_core::vantage::{paper_terminals, MADRID};
use starsense_experiments::{standard_constellation, write_artifact, WORLD_SEED};
use starsense_faults::FaultPlan;
use starsense_netemu::groundstation::paper_pops;
use starsense_netemu::Emulator;
use starsense_scheduler::GlobalScheduler;
use starsense_scheduler::SchedulerPolicy;
use starsense_stats::mannwhitney::mann_whitney_u;
use starsense_stats::Summary;

fn main() {
    println!("== Figure 2: measured RTT from the EU terminal ==\n");
    let constellation = standard_constellation();
    let terminals = paper_terminals();
    let pops = paper_pops();

    let scheduler = GlobalScheduler::new(SchedulerPolicy::default(), terminals, WORLD_SEED);
    let mut emu = Emulator::new(&constellation, scheduler, pops, FaultPlan::none(), WORLD_SEED);

    // The paper's Figure 2 spans ~3 minutes starting at 05:37:30 UTC.
    let from = starsense_astro::time::JulianDate::from_ymd_hms(2023, 6, 1, 5, 37, 30.0);
    let trace = emu.probe_trace(MADRID, from, 180.0);

    // Emit the full series as CSV (seconds, rtt_ms).
    let rows: Vec<Vec<String>> =
        trace.series().iter().map(|(t, r)| vec![format!("{t:.3}"), format!("{r:.3}")]).collect();
    write_artifact(
        "fig2_rtt_series.csv",
        &starsense_core::report::csv(&["seconds", "rtt_ms"], &rows),
    );

    // Per-window summary: regime levels and where the boundaries fall.
    let windows = trace.windows();
    let mut table = Vec::new();
    for w in &windows {
        let Some(s) = Summary::of(&w.rtts) else { continue };
        let boundary_sec = w.start.to_civil().second;
        table.push(vec![
            format!("{}", w.slot),
            format!(":{:04.1}", boundary_sec),
            w.serving_sat.map(|x| x.to_string()).unwrap_or_else(|| "-".into()),
            num(s.median, 2),
            num(s.p25, 2),
            num(s.p75, 2),
            pct(w.loss_rate()),
        ]);
    }
    println!(
        "{}",
        text_table(&["slot", "starts", "serving sat", "median rtt", "p25", "p75", "loss"], &table)
    );

    // §3's claim 1: boundaries at :12/:27/:42/:57.
    let anchors: Vec<u32> = windows
        .iter()
        .skip(1) // first window is partial
        .map(|w| w.start.to_civil().second.round() as u32 % 60)
        .collect();
    println!("window boundaries (seconds past the minute): {anchors:?}");
    assert!(
        anchors.iter().all(|s| [12, 27, 42, 57].contains(s)),
        "boundaries must fall on the paper's anchors"
    );

    // §3's claim 2: consecutive windows statistically distinct
    // (Mann-Whitney U, p < .05) whenever the satellite actually changed.
    let mut rows = Vec::new();
    let mut significant = 0;
    let mut tested = 0;
    for pair in windows.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a.rtts.len() < 100 || b.rtts.len() < 100 || a.serving_sat == b.serving_sat {
            continue;
        }
        let Some(t) = mann_whitney_u(&a.rtts, &b.rtts) else { continue };
        tested += 1;
        if t.is_significant(0.05) {
            significant += 1;
        }
        rows.push(vec![
            format!("{} vs {}", a.slot, b.slot),
            format!("{:.1}", t.u),
            format!("{:.2}", t.z),
            format!("{:.2e}", t.p_value),
            (if t.is_significant(0.05) { "yes" } else { "no" }).to_string(),
        ]);
    }
    println!(
        "\n== Mann-Whitney U between consecutive windows (satellite changed) ==\n{}",
        text_table(&["windows", "U", "z", "p", "p < .05"], &rows)
    );
    println!("distinct: {significant}/{tested} window pairs");

    // The MAC-band observation: spread of RTT inside a single window.
    let full: Vec<&starsense_netemu::SlotWindow> =
        windows.iter().filter(|w| w.rtts.len() > 500).collect();
    if let Some(w) = full.first() {
        let mut sorted = w.rtts.clone();
        sorted.sort_by(f64::total_cmp);
        let spread = sorted[sorted.len() * 95 / 100] - sorted[sorted.len() * 5 / 100];
        println!("\nwithin-window p5–p95 RTT spread (slot {}): {:.2} ms", w.slot, spread);
        println!("(parallel bands a few ms apart: MAC round-robin frame queueing)");
    }
}
