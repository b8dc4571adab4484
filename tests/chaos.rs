//! The robustness harness: under deterministic fault injection the
//! measurement pipeline must degrade gracefully, never abort, and a
//! killed campaign must lose nothing.
//!
//! A seed sweep (≥8 seeds) runs identified-mode campaigns through
//! escalating fault tiers (≥3 non-zero rates plus the fault-free
//! control) and pins these properties:
//!
//! * zero panics — every run completes and keeps its slot count;
//! * slot times stay monotone under any fault mix;
//! * a fault-free [`FaultPlan`] is bit-identical to a fault-unaware
//!   configuration, in the campaign and in the probe emulator;
//! * aggregated degradation is monotone in the injected rate, and every
//!   slot lands in exactly one outcome bucket;
//! * a campaign killed at every checkpoint and resumed reassembles the
//!   uninterrupted stream bit for bit — in-process, and across real
//!   process deaths (the test binary re-runs itself as the dying worker).

use std::path::{Path, PathBuf};
use std::process::Command;

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
        ..CampaignConfig::default()
    }
}

/// The campaign the kill/resume tests interrupt: mid-tier faults.
fn kill_campaign(constellation: &Constellation, seed: u64) -> Campaign<'_> {
    Campaign::identified(constellation, one_terminal(), chaos_config(seed, TIER_RATES[2]), seed)
}

/// A checkpoint every 4 slots; each life stops after its first one.
fn kill_opts(path: PathBuf) -> ResumeConfig {
    ResumeConfig { checkpoint_every: 4, stop_after_checkpoints: Some(1), ..ResumeConfig::new(path) }
}

/// A per-process scratch directory, removed when dropped (a failing test
/// cleans up too).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("starsense-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
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
        // A seeded all-zero plan plus a non-default retry knob must
        // not perturb a single bit of the observation stream.
        let faultless = CampaignConfig {
            faults: plan(seed, 0.0),
            frame_retries: 9,
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
/// checkpoint, then resumed from the snapshot until done. The reassembled
/// stream must be bit-for-bit identical to an uninterrupted run's, under
/// fault injection, for every seed.
#[test]
fn kill_resume_chain_is_bit_identical_across_seeds() {
    let constellation = mini();
    let scratch = ScratchDir::new("chaos-kill");
    for &seed in &SEEDS {
        let campaign = kill_campaign(&constellation, seed);
        let one_shot = fingerprint_observations(&campaign.run(start(), SLOTS));
        let opts = kill_opts(scratch.path(&format!("seed-{seed}.ckpt")));
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
}

/// Tells [`process_kill_child`] to act: `<seed> <checkpoint path>`.
const CHILD_ENV: &str = "STARSENSE_TEST_KILL_CHILD";

/// Exit status of a life that died after a durable checkpoint.
const KILLED: i32 = 3;

/// One process life of [`process_kill_chain_is_bit_identical_across_seeds`]:
/// run the campaign until one checkpoint is durable, then die without
/// unwinding, or print the fingerprint when the campaign completes.
/// Returns at once when [`CHILD_ENV`] is unset (a plain test run).
#[test]
#[expect(
    clippy::exit,
    clippy::disallowed_methods,
    reason = "the child stands in for a crashing process: it must die without unwinding"
)]
fn process_kill_child() {
    let Ok(job) = std::env::var(CHILD_ENV) else { return };
    let (seed, path) = job.split_once(' ').expect("`<seed> <path>`");
    let seed: u64 = seed.parse().expect("child seed");
    let (obs, _, report) = kill_campaign(&mini(), seed)
        .run_resumable(start(), SLOTS, &kill_opts(PathBuf::from(path)))
        .expect("resumable campaign must never abort");
    if !report.completed {
        // The checkpoint is already on disk: dying here loses nothing.
        std::process::exit(KILLED);
    }
    println!("fingerprint={:016x}", fingerprint_observations(&obs));
}

/// Runs one life of the chain for `seed` in a fresh process; returns its
/// exit status and its output (stdout, then stderr).
fn child_life(seed: u64, checkpoint: &Path) -> (Option<i32>, String) {
    let exe = std::env::current_exe().expect("own test binary");
    let output = Command::new(exe)
        .args(["--exact", "process_kill_child", "--test-threads=1", "--nocapture"])
        .env(CHILD_ENV, format!("{seed} {}", checkpoint.display()))
        .output()
        .expect("spawn child");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&output.stderr);
    (output.status.code(), format!("{stdout}{stderr}"))
}

/// The kill/resume chain across real process boundaries: each life is a
/// new process, so resume can lean on nothing process-global (no cached
/// table, no static), only on the snapshot file.
#[test]
fn process_kill_chain_is_bit_identical_across_seeds() {
    let constellation = mini();
    let scratch = ScratchDir::new("chaos-process-kill");
    for &seed in &SEEDS {
        let one_shot =
            fingerprint_observations(&kill_campaign(&constellation, seed).run(start(), SLOTS));
        let checkpoint = scratch.path(&format!("seed-{seed}.ckpt"));
        let mut lives = 0usize;
        let survived = loop {
            lives += 1;
            assert!(lives <= SLOTS + 2, "seed {seed}: the process chain failed to converge");
            match child_life(seed, &checkpoint) {
                (Some(KILLED), _) => continue,
                (Some(0), output) => {
                    break output
                        .split_once("fingerprint=")
                        .and_then(|(_, hex)| u64::from_str_radix(hex.get(..16)?, 16).ok())
                        .unwrap_or_else(|| panic!("seed {seed}: no fingerprint in\n{output}"));
                }
                (code, output) => panic!("seed {seed}: life {lives} exited {code:?}\n{output}"),
            }
        };
        assert!(lives > 1, "seed {seed}: no life was killed");
        assert_eq!(
            survived, one_shot,
            "seed {seed}: the stream reassembled across {lives} processes diverged"
        );
    }
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
