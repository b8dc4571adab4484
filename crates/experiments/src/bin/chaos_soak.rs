//! Chaos soak: the whole measurement pipeline under escalating seeded
//! fault tiers.
//!
//! Not a paper figure — a robustness harness. For each fault tier the
//! soak replays a seed sweep of identified-mode campaigns on the mini
//! constellation, a probe-emulation window, and a catalog-feed load, all
//! driven by one [`FaultPlan`] per (seed, tier). It aggregates the
//! campaign [`DegradationStats`] per tier and asserts the invariants the
//! `tests/chaos.rs` suite pins:
//!
//! * the pipeline finishes every run — faults degrade, never abort;
//! * the fault-free tier is bit-identical to a fault-unaware campaign;
//! * degradation (no-data slots, probe losses, broken catalog records)
//!   is monotone in the injected rate.
//!
//! A final kill/resume tier replays the mid-rate campaigns through the
//! resumable engine, crashing (in-process) after every
//! `STARSENSE_CHAOS_KILL` checkpoints (default 1) and resuming from the
//! snapshot until done — the surviving stream must be bit-identical to
//! an uninterrupted run's, for every seed.
//!
//! Env knobs: `STARSENSE_CHAOS_SEEDS` (seed-sweep width, default 8),
//! `STARSENSE_SLOTS` (slots per campaign, default 40), and
//! `STARSENSE_CHAOS_KILL` (checkpoints between kills, default 1).

use starsense_constellation::{load_catalog_text, Constellation, ConstellationBuilder};
use starsense_core::campaign::{Campaign, CampaignConfig, SlotObservation};
use starsense_core::degrade::DegradationStats;
use starsense_core::report::{csv, pct, text_table};
use starsense_core::resume::{fingerprint_observations, ResumeConfig};
use starsense_core::vantage::paper_terminals;
use starsense_experiments::{
    campaign_start, env_integer, slots_from_env, write_artifact, WORLD_SEED,
};
use starsense_faults::{FaultPlan, FaultRates};
use starsense_ident::DEFAULT_MIN_MARGIN;
use starsense_netemu::groundstation::paper_pops;
use starsense_netemu::{Emulator, LossCause};
use starsense_scheduler::{GlobalScheduler, SchedulerPolicy, Terminal};

/// Escalating uniform fault tiers (tier 0 must stay fault-free: it is
/// the bit-identity control).
const TIER_RATES: &[f64] = &[0.0, 0.05, 0.15, 0.35];

/// Probe-emulation window per seed, seconds (12 scheduling slots).
const PROBE_WINDOW_S: f64 = 180.0;

fn chaos_seeds() -> Vec<u64> {
    let n: u64 = env_integer("STARSENSE_CHAOS_SEEDS", 8, 1);
    (0..n).map(|i| 101 + i).collect()
}

/// The per-(seed, tier) fault plan. The plan seed is decorrelated from
/// the world seed so fault placement does not track scheduler draws.
fn plan(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), FaultRates::uniform(rate))
}

fn chaos_config(seed: u64, rate: f64) -> CampaignConfig {
    CampaignConfig {
        faults: plan(seed, rate),
        min_margin: DEFAULT_MIN_MARGIN,
        quarantine_after: 3,
        ..CampaignConfig::default()
    }
}

fn one_terminal() -> Vec<Terminal> {
    let mut t = paper_terminals();
    t.truncate(1);
    t
}

fn run_campaign(
    constellation: &Constellation,
    config: CampaignConfig,
    seed: u64,
    slots: usize,
) -> (Vec<SlotObservation>, DegradationStats) {
    let (obs, stats, _) = Campaign::identified(constellation, one_terminal(), config, seed)
        .run_resumable(campaign_start(), slots, &ResumeConfig::default())
        .expect("measurement faults never fail a campaign");
    (obs, stats)
}

/// Probe losses and record count for one seed under one tier.
fn run_probes(constellation: &Constellation, seed: u64, rate: f64) -> (usize, usize, usize) {
    let scheduler = GlobalScheduler::new(SchedulerPolicy::default(), one_terminal(), seed);
    let mut pops = paper_pops();
    pops.truncate(1);
    let mut emulator = Emulator::new(constellation, scheduler, pops, plan(seed, rate), seed);
    let trace = emulator.probe_trace(0, campaign_start(), PROBE_WINDOW_S);
    for r in &trace.records {
        assert_eq!(
            r.loss.is_some(),
            r.rtt_ms.is_none(),
            "loss-attribution invariant broken at seed {seed} rate {rate}"
        );
    }
    let lost = trace.records.iter().filter(|r| r.rtt_ms.is_none()).count();
    let burst = trace.losses_by_cause(LossCause::FaultBurst);
    (trace.records.len(), lost, burst)
}

fn main() {
    println!("== chaos soak: pipeline under escalating fault tiers ==\n");
    let slots = slots_from_env(40);
    let seeds = chaos_seeds();
    let constellation = ConstellationBuilder::starlink_mini().seed(WORLD_SEED).build();
    let catalog_text = constellation.published_catalog_text();

    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut prev_no_data = 0usize;
    let mut prev_burst = 0usize;
    for (tier, &rate) in TIER_RATES.iter().enumerate() {
        let mut agg = DegradationStats::default();
        let mut probes = 0usize;
        let mut lost = 0usize;
        let mut burst = 0usize;
        let mut usable = 0usize;
        let mut records = 0usize;
        for &seed in &seeds {
            let (obs, stats) = run_campaign(&constellation, chaos_config(seed, rate), seed, slots);
            assert_eq!(obs.len(), slots, "campaign truncated at seed {seed} rate {rate}");
            for w in obs.windows(2) {
                assert_eq!(w[1].slot, w[0].slot + 1, "slot sequence broken");
            }
            agg.merge(&stats);

            let (p, l, b) = run_probes(&constellation, seed, rate);
            probes += p;
            lost += l;
            burst += b;

            let load = load_catalog_text(&plan(seed, rate).corrupt_catalog_text(&catalog_text));
            usable += load.usable.len();
            records += load.total();
        }

        // Tier 0 is the control: bit-identical to a fault-unaware run.
        if tier == 0 {
            let seed = seeds[0];
            let (faulted, _) = run_campaign(&constellation, chaos_config(seed, 0.0), seed, slots);
            let (plain, _) = run_campaign(
                &constellation,
                CampaignConfig { min_margin: DEFAULT_MIN_MARGIN, ..CampaignConfig::default() },
                seed,
                slots,
            );
            for (x, y) in faulted.iter().zip(&plain) {
                assert_eq!(x.truth_id, y.truth_id, "fault-free tier diverged from plain run");
                assert_eq!(
                    x.chosen.as_ref().map(|c| c.norad_id),
                    y.chosen.as_ref().map(|c| c.norad_id),
                    "fault-free tier diverged from plain run"
                );
                assert_eq!(x.outcome, y.outcome, "fault-free tier diverged from plain run");
            }
            assert_eq!(lost, {
                let mut l0 = 0;
                for &seed in &seeds {
                    l0 += run_probes(&constellation, seed, 0.0).1;
                }
                l0
            });
            assert_eq!(usable, records, "fault-free catalog must load clean");
        }

        assert!(
            agg.no_data >= prev_no_data,
            "no-data slots not monotone at rate {rate}: {} < {prev_no_data}",
            agg.no_data
        );
        assert!(
            burst >= prev_burst,
            "burst losses not monotone at rate {rate}: {burst} < {prev_burst}"
        );
        prev_no_data = agg.no_data;
        prev_burst = burst;

        rows.push(vec![
            format!("{rate:.2}"),
            agg.slots.to_string(),
            agg.observed.to_string(),
            agg.ambiguous.to_string(),
            agg.no_data.to_string(),
            agg.frame_dropped.to_string(),
            agg.stale_frames.to_string(),
            agg.quarantined_sats.to_string(),
            pct(agg.observed_rate()),
            pct(lost as f64 / probes.max(1) as f64),
            pct(usable as f64 / records.max(1) as f64),
        ]);
        csv_rows.push(vec![
            format!("{rate}"),
            agg.slots.to_string(),
            agg.observed.to_string(),
            agg.ambiguous.to_string(),
            agg.no_data.to_string(),
            agg.frame_dropped.to_string(),
            agg.stale_frames.to_string(),
            agg.outages.to_string(),
            agg.quarantined_sats.to_string(),
            agg.masked_propagations.to_string(),
            format!("{:.5}", agg.observed_rate()),
            format!("{:.5}", lost as f64 / probes.max(1) as f64),
            burst.to_string(),
            format!("{:.5}", usable as f64 / records.max(1) as f64),
        ]);
    }

    println!(
        "{}",
        text_table(
            &[
                "fault rate",
                "slots",
                "observed",
                "ambiguous",
                "no data",
                "frames dropped",
                "stale",
                "quarantined",
                "observed %",
                "probe loss %",
                "catalog usable %",
            ],
            &rows
        )
    );
    // Kill/resume tier: the same mid-rate campaigns through the
    // resumable engine, crashed after every STARSENSE_CHAOS_KILL
    // checkpoints and resumed, must reassemble the uninterrupted stream bit
    // for bit.
    let kill_every: usize = env_integer("STARSENSE_CHAOS_KILL", 1, 1);
    let mid_rate = TIER_RATES[TIER_RATES.len() / 2];
    let mut total_lives = 0usize;
    for &seed in &seeds {
        let campaign = Campaign::identified(
            &constellation,
            one_terminal(),
            chaos_config(seed, mid_rate),
            seed,
        );
        let one_shot = fingerprint_observations(&campaign.run(campaign_start(), slots));
        let path = std::env::temp_dir()
            .join(format!("starsense-chaos-soak-{}-{seed}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(starsense_checkpoint::backup_path(&path));
        let opts = ResumeConfig {
            checkpoint_every: (slots / 5).max(1),
            stop_after_checkpoints: Some(kill_every),
            ..ResumeConfig::new(path.clone())
        };
        let mut lives = 0usize;
        let resumed = loop {
            lives += 1;
            assert!(lives <= slots + 2, "kill/resume chain failed to converge at seed {seed}");
            let (obs, _, report) = campaign
                .run_resumable(campaign_start(), slots, &opts)
                .expect("resumable campaign must never abort");
            if report.completed {
                break fingerprint_observations(&obs);
            }
        };
        assert_eq!(
            resumed, one_shot,
            "kill/resume stream diverged from a plain run at seed {seed} rate {mid_rate}"
        );
        total_lives += lives;
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(starsense_checkpoint::backup_path(&path));
    }
    println!(
        "\nkill/resume tier: {} seeds at rate {mid_rate:.2}, killed every {kill_every} \
         checkpoint(s), {total_lives} total process lives — all bit-identical to a plain run",
        seeds.len()
    );

    println!(
        "\n{} seeds x {} tiers, {} campaign slots + {:.0} s probe window each; \
         zero panics, fault-free tier bit-identical, degradation monotone",
        seeds.len(),
        TIER_RATES.len(),
        slots,
        PROBE_WINDOW_S
    );

    write_artifact(
        "chaos_soak.csv",
        &csv(
            &[
                "fault_rate",
                "slots",
                "observed",
                "ambiguous",
                "no_data",
                "frame_dropped",
                "stale_frames",
                "outages",
                "quarantined_sats",
                "masked_propagations",
                "observed_rate",
                "probe_loss_rate",
                "burst_losses",
                "catalog_usable_rate",
            ],
            &csv_rows,
        ),
    );
}
