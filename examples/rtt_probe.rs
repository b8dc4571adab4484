//! Figure-2 style demo: probe a terminal at 1 packet / 20 ms against its
//! PoP and watch the 15-second scheduler regimes and MAC bands appear in
//! the RTT trace.
//!
//! ```sh
//! cargo run --release --example rtt_probe
//! ```

use starsense::netemu::groundstation::paper_pops;
use starsense::prelude::*;
use starsense::stats::{mann_whitney_u, Summary};

fn main() {
    let constellation = ConstellationBuilder::starlink_gen1().seed(11).build();
    let scheduler = GlobalScheduler::new(SchedulerPolicy::default(), paper_terminals(), 11);
    let mut emulator =
        Emulator::new(&constellation, scheduler, paper_pops(), FaultPlan::none(), 11);

    // One minute of probing from the Madrid terminal (the paper's Figure 2
    // is its EU dish).
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 5, 37, 30.0);
    let trace = emulator.probe_trace(2, from, 75.0);
    println!("{} probes sent, {:.2}% lost", trace.records.len(), 100.0 * trace.loss_rate());

    // A terminal-friendly sparkline of the series (one char per ~0.6 s).
    let series = trace.series();
    let glyphs =
        ['\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}'];
    let lo = series.iter().map(|x| x.1).fold(f64::INFINITY, f64::min);
    let hi = series.iter().map(|x| x.1).fold(f64::NEG_INFINITY, f64::max);
    let spark: String = series
        .chunks(30)
        .map(|chunk| {
            let m = chunk.iter().map(|x| x.1).sum::<f64>() / chunk.len() as f64;
            let idx = ((m - lo) / (hi - lo + 1e-9) * (glyphs.len() - 1) as f64) as usize;
            glyphs[idx.min(glyphs.len() - 1)]
        })
        .collect();
    println!("rtt {lo:.1}–{hi:.1} ms:  {spark}");

    // Per-window summary with the Mann-Whitney verdict against the
    // previous window.
    let windows = trace.windows();
    println!("\nslot windows (boundaries at :12/:27/:42/:57):");
    for pair in windows.windows(2) {
        let (prev, w) = (&pair[0], &pair[1]);
        let Some(s) = Summary::of(&w.rtts) else { continue };
        let verdict = mann_whitney_u(&prev.rtts, &w.rtts)
            .map(|t| if t.is_significant(0.05) { "distinct" } else { "similar" })
            .unwrap_or("n/a");
        println!(
            "  starts :{:02.0}  sat {:>6}  median {:>6.2} ms  vs prev: {}",
            w.start.to_civil().second,
            w.serving_sat.map(|x| x.to_string()).unwrap_or_else(|| "-".into()),
            s.median,
            verdict
        );
    }
}
