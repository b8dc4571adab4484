//! Chaos soak: the measurement pipeline under deterministic fault
//! injection must degrade gracefully, never abort.
//!
//! A seed sweep (≥8 seeds) runs identified-mode campaigns through
//! escalating fault tiers (≥3 non-zero rates plus the fault-free
//! control) and pins four properties:
//!
//! * zero panics — every run completes and keeps its slot count;
//! * slot times stay monotone under any fault mix;
//! * a fault-free [`FaultPlan`] is bit-identical to a fault-unaware
//!   configuration, in the campaign and in the probe emulator;
//! * aggregated degradation is monotone in the injected rate, and every
//!   slot lands in exactly one outcome bucket.

use starsense::core::degrade::DegradationStats;
use starsense::ident::DEFAULT_MIN_MARGIN;
use starsense::netemu::groundstation::paper_pops;
use starsense::netemu::LossCause;
use starsense::prelude::*;

const SEEDS: [u64; 8] = [11, 23, 37, 41, 59, 67, 83, 97];
const TIER_RATES: [f64; 4] = [0.0, 0.08, 0.2, 0.45];
const SLOTS: usize = 18;

fn mini() -> Constellation {
    ConstellationBuilder::starlink_mini().seed(7).build()
}

fn start() -> JulianDate {
    JulianDate::from_ymd_hms(2023, 6, 1, 8, 0, 0.0)
}

fn one_terminal() -> Vec<Terminal> {
    let mut t = paper_terminals();
    t.truncate(1);
    t
}

/// Decorrelate the fault-plan seed from the world seed so fault
/// placement does not track scheduler draws.
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

#[test]
fn escalating_fault_tiers_degrade_monotonically_without_panicking() {
    let constellation = mini();
    let mut prev_no_data = 0usize;
    let mut baseline_observed = 0usize;
    for (tier, &rate) in TIER_RATES.iter().enumerate() {
        let mut agg = DegradationStats::default();
        for &seed in &SEEDS {
            let campaign = Campaign::identified(
                &constellation,
                one_terminal(),
                chaos_config(seed, rate),
                seed,
            );
            let (obs, stats, _) = campaign
                .run_resumable(start(), SLOTS, &ResumeConfig::default())
                .expect("measurement faults never fail a campaign");

            // Zero panics: the run completed with its full slot count.
            assert_eq!(obs.len(), SLOTS, "campaign truncated at seed {seed} rate {rate}");
            // Slot times stay monotone no matter what was injected.
            for w in obs.windows(2) {
                assert_eq!(w[1].slot, w[0].slot + 1, "slot indices must stay consecutive");
                assert!(w[1].slot_start.0 > w[0].slot_start.0, "slot times must stay monotone");
            }
            // Every slot resolves to exactly one outcome bucket, and the
            // chosen pick exists exactly on Observed slots.
            for o in &obs {
                assert_eq!(o.chosen.is_some(), matches!(o.outcome, SlotOutcome::Observed { .. }));
            }
            agg.merge(&stats);
        }

        assert_eq!(agg.slots, SEEDS.len() * SLOTS);
        assert_eq!(
            agg.observed + agg.ambiguous + agg.no_data,
            agg.slots,
            "outcome buckets must partition the slots at rate {rate}"
        );
        if tier == 0 {
            baseline_observed = agg.observed;
            assert!(
                agg.observed_rate() > 0.5,
                "fault-free identified campaigns should mostly observe: {:.2}",
                agg.observed_rate()
            );
        }
        // Aggregated degradation is monotone in the tier rate.
        assert!(
            agg.no_data >= prev_no_data,
            "no-data slots not monotone at rate {rate}: {} < {prev_no_data}",
            agg.no_data
        );
        prev_no_data = agg.no_data;
        if tier == TIER_RATES.len() - 1 {
            assert!(agg.no_data > 0, "the top tier must actually cause data loss");
            assert!(
                agg.observed < baseline_observed,
                "the top tier must observe less than the fault-free control"
            );
        }
    }
}

#[test]
fn fault_free_plans_are_bit_identical_to_fault_unaware_runs() {
    let constellation = mini();
    for &seed in &[SEEDS[0], SEEDS[5]] {
        // A seeded all-zero plan plus non-default resilience knobs must
        // not perturb a single bit of the observation stream.
        let faultless = CampaignConfig {
            faults: plan(seed, 0.0),
            frame_retries: 9,
            quarantine_after: 5,
            ..CampaignConfig::default()
        };
        let a = Campaign::identified(&constellation, one_terminal(), faultless, seed)
            .run(start(), SLOTS);
        let b =
            Campaign::identified(&constellation, one_terminal(), CampaignConfig::default(), seed)
                .run(start(), SLOTS);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.slot, y.slot);
            assert_eq!(x.slot_start.0.to_bits(), y.slot_start.0.to_bits());
            assert_eq!(x.truth_id, y.truth_id);
            assert_eq!(
                x.chosen.as_ref().map(|c| c.norad_id),
                y.chosen.as_ref().map(|c| c.norad_id)
            );
            assert_eq!(x.available.len(), y.available.len());
            assert_eq!(x.outcome, y.outcome);
        }
    }
}

/// Kill/resume tier: every seed's campaign is run through the resumable
/// engine and "killed" (in-process, after the checkpoint is durably on
/// disk — the same boundary a real `kill -9` resumes from) after every
/// `STARSENSE_CHAOS_KILL` checkpoints, then resumed from the snapshot
/// until done. The reassembled stream must be bit-for-bit identical to
/// an uninterrupted run's, under fault injection, for every seed.
#[test]
fn kill_resume_chain_is_bit_identical_across_seeds() {
    let constellation = mini();
    let kill_every = std::env::var("STARSENSE_CHAOS_KILL")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1usize)
        .max(1);
    let scratch = std::env::temp_dir().join(format!("starsense-chaos-kill-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    for &seed in &SEEDS {
        let campaign = Campaign::identified(
            &constellation,
            one_terminal(),
            chaos_config(seed, TIER_RATES[2]),
            seed,
        );
        let one_shot = fingerprint_observations(&campaign.run(start(), SLOTS));

        let opts = ResumeConfig {
            checkpoint_every: 4,
            stop_after_checkpoints: Some(kill_every),
            ..ResumeConfig::new(scratch.join(format!("seed-{seed}.ckpt")))
        };
        let mut lives = 0usize;
        let (resumed, last_report) = loop {
            lives += 1;
            assert!(lives <= SLOTS + 2, "kill/resume chain failed to converge at seed {seed}");
            let (obs, _, report) = campaign
                .run_resumable(start(), SLOTS, &opts)
                .expect("resumable campaign must never abort");
            if report.completed {
                break (fingerprint_observations(&obs), report);
            }
        };
        assert!(lives > 1, "the kill switch must actually interrupt at seed {seed}");
        assert!(last_report.resumed_at_slot.is_some(), "the final life must have resumed");
        assert_eq!(
            resumed, one_shot,
            "seed {seed}: kill/resume stream diverged from the uninterrupted run"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn probe_bursts_escalate_losses_and_stay_attributed() {
    let constellation = mini();
    let probe = |seed: u64, rate: f64| {
        let scheduler = GlobalScheduler::new(SchedulerPolicy::default(), one_terminal(), seed);
        let mut pops = paper_pops();
        pops.truncate(1);
        let mut emulator = Emulator::new(&constellation, scheduler, pops, plan(seed, rate), seed);
        emulator.probe_trace(0, start(), 120.0)
    };

    // Fault-free plan: bit-identical to no plan at all.
    let zero = probe(SEEDS[0], 0.0);
    let plain = {
        let scheduler = GlobalScheduler::new(SchedulerPolicy::default(), one_terminal(), SEEDS[0]);
        let mut pops = paper_pops();
        pops.truncate(1);
        let mut emulator =
            Emulator::new(&constellation, scheduler, pops, FaultPlan::none(), SEEDS[0]);
        emulator.probe_trace(0, start(), 120.0)
    };
    assert_eq!(zero.records.len(), plain.records.len());
    for (x, y) in zero.records.iter().zip(&plain.records) {
        assert_eq!(x.rtt_ms.map(f64::to_bits), y.rtt_ms.map(f64::to_bits));
        assert_eq!(x.loss, y.loss);
    }

    // Escalating tiers: loss attribution invariant holds everywhere and
    // aggregated burst losses are monotone in the rate.
    let mut prev_burst = 0usize;
    for &rate in &TIER_RATES {
        let mut burst = 0usize;
        for &seed in &SEEDS {
            let trace = probe(seed, rate);
            assert!(!trace.records.is_empty());
            for r in &trace.records {
                assert_eq!(
                    r.loss.is_some(),
                    r.rtt_ms.is_none(),
                    "loss-attribution invariant broken at seed {seed} rate {rate}"
                );
            }
            burst += trace.losses_by_cause(LossCause::FaultBurst);
        }
        assert!(
            burst >= prev_burst,
            "burst losses not monotone at rate {rate}: {burst} < {prev_burst}"
        );
        prev_burst = burst;
    }
    assert!(prev_burst > 0, "the top tier must inject marked probe losses");
}
