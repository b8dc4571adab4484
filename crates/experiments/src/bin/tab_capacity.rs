//! §3 measurement companion: the iPerf side of the setup.
//!
//! The paper probed with iRTT *and* ran iPerf3 at 50% of the upstream
//! rate. This experiment reports what that load sees in the emulator:
//! per-slot uplink capacity stepping at every 15-second reallocation
//! (driven by the new satellite's elevation and MAC share), and the
//! per-slot loss profile showing the handover burst at slot boundaries.

use starsense_astro::time::JulianDate;
use starsense_core::report::{csv, num, pct, text_table};
use starsense_core::vantage::{paper_terminals, IOWA};
use starsense_experiments::{slots_from_env, standard_constellation, write_artifact, WORLD_SEED};
use starsense_faults::FaultPlan;
use starsense_netemu::groundstation::paper_pops;
use starsense_netemu::{Emulator, IperfSender};
use starsense_scheduler::{GlobalScheduler, SchedulerPolicy};

fn main() {
    println!("== §3 companion: per-slot uplink capacity and handover loss ==\n");
    let constellation = standard_constellation();
    let from = JulianDate::from_ymd_hms(2023, 6, 1, 15, 0, 0.0);
    let slots = slots_from_env(40);

    // Capacity trace.
    let scheduler = GlobalScheduler::new(SchedulerPolicy::default(), paper_terminals(), WORLD_SEED);
    let mut emu =
        Emulator::new(&constellation, scheduler, paper_pops(), FaultPlan::none(), WORLD_SEED);
    let recs = emu.throughput_trace(IOWA, from, slots);

    // The paper's iPerf at 50% of a 40 Mbit/s-class upstream.
    let sender = IperfSender::paper_nominal(40.0);

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut sustainable = 0usize;
    let mut served = 0usize;
    for r in recs.iter().take(16) {
        match r.throughput {
            Some(t) => rows.push(vec![
                r.slot.to_string(),
                r.serving_sat.map(|s| s.to_string()).unwrap_or_default(),
                num(t.link_capacity_mbps, 1),
                t.mac_share.to_string(),
                num(t.terminal_share_mbps, 1),
                (if sender.sustainable(&t) { "yes" } else { "no" }).to_string(),
            ]),
            None => rows.push(vec![
                r.slot.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    for r in &recs {
        if let Some(t) = r.throughput {
            served += 1;
            if sender.sustainable(&t) {
                sustainable += 1;
            }
            csv_rows.push(vec![
                r.slot.to_string(),
                format!("{:.3}", t.link_capacity_mbps),
                t.mac_share.to_string(),
                format!("{:.3}", t.terminal_share_mbps),
            ]);
        }
    }
    println!(
        "{}",
        text_table(
            &["slot", "sat", "link Mbit/s", "MAC share", "terminal Mbit/s", "20 Mbit/s iPerf ok"],
            &rows
        )
    );
    println!(
        "iPerf at {} Mbit/s sustainable in {}/{} served slots\n",
        sender.rate_mbps, sustainable, served
    );
    write_artifact(
        "tab_capacity.csv",
        &csv(&["slot", "link_mbps", "mac_share", "terminal_mbps"], &csv_rows),
    );

    // Handover loss profile: loss rate by offset within the slot.
    let scheduler = GlobalScheduler::new(SchedulerPolicy::default(), paper_terminals(), WORLD_SEED);
    let mut emu =
        Emulator::new(&constellation, scheduler, paper_pops(), FaultPlan::none(), WORLD_SEED);
    let trace = emu.probe_trace(IOWA, from, slots as f64 * 15.0);

    let mut bins = vec![(0usize, 0usize); 15]; // (lost, total) per 1 s offset
    for rec in &trace.records {
        let offset =
            rec.at.seconds_since(starsense_scheduler::slots::slot_start(rec.at)).clamp(0.0, 14.999);
        let bin = offset as usize;
        bins[bin].1 += 1;
        if rec.rtt_ms.is_none() {
            bins[bin].0 += 1;
        }
    }
    let rows: Vec<Vec<String>> = bins
        .iter()
        .enumerate()
        .map(|(s, (lost, total))| {
            vec![
                format!("{s}-{} s", s + 1),
                total.to_string(),
                pct(*lost as f64 / (*total).max(1) as f64),
            ]
        })
        .collect();
    println!(
        "loss rate by offset within the 15 s slot (handover burst in the first second):\n{}",
        text_table(&["offset", "probes", "loss"], &rows)
    );

    let first = bins[0].0 as f64 / bins[0].1.max(1) as f64;
    let rest: f64 =
        bins[1..].iter().map(|(l, t)| *l as f64 / (*t).max(1) as f64).sum::<f64>() / 14.0;
    println!("first-second loss {} vs steady-state {}", pct(first), pct(rest));
    assert!(first > 2.0 * rest, "handover burst must dominate steady-state loss");
}
