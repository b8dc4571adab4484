//! Crash/resume drill: kill a checkpointing campaign over and over and
//! prove the reassembled stream is bit-identical to an uninterrupted run.
//!
//! Not a paper figure — the robustness recipe behind `EXPERIMENTS.md`'s
//! "kill a campaign mid-flight" walkthrough. The binary plays both roles:
//!
//! * **supervisor** (no `STARSENSE_CHAOS_KILL` in the environment) —
//!   computes each seed's uninterrupted fingerprint in-process, then
//!   re-spawns *itself* as a worker that dies after every checkpoint,
//!   restarting it until the campaign completes. Asserts the surviving
//!   stream's fingerprint matches the uninterrupted one, per seed;
//! * **worker** (`STARSENSE_CHAOS_KILL=<n>` set) — runs the resumable
//!   campaign, hard-exits with status 3 after writing `n` checkpoints
//!   (the checkpoint is already durable — an atomic rename — so this is
//!   equivalent to `kill -9` at the boundary), or prints the final
//!   fingerprint and exits 0.
//!
//! Because snapshots are written atomically and validated by checksum on
//! load, an external `kill -9` at *any* moment (not just boundaries) is
//! also safe: the campaign resumes from the last completed checkpoint.
//! Env knobs: `STARSENSE_SLOTS` (default 24), `STARSENSE_CHAOS_KILL`
//! (worker role: checkpoints before the simulated crash).

use std::path::PathBuf;
use std::process::Command;

use starsense_constellation::ConstellationBuilder;
use starsense_core::campaign::{Campaign, CampaignConfig};
use starsense_core::resume::{fingerprint_observations, ResumeConfig};
use starsense_core::vantage::paper_terminals;
use starsense_experiments::{
    campaign_start, env_integer, slots_from_env, write_artifact, WORLD_SEED,
};
use starsense_faults::{FaultPlan, FaultRates};
use starsense_ident::DEFAULT_MIN_MARGIN;
use starsense_scheduler::Terminal;

const SEEDS: [u64; 3] = [201, 202, 203];
const CHECKPOINT_EVERY: usize = 4;

fn terminals() -> Vec<Terminal> {
    let mut t = paper_terminals();
    t.truncate(2);
    t
}

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        faults: FaultPlan::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), FaultRates::uniform(0.1)),
        min_margin: DEFAULT_MIN_MARGIN,
        quarantine_after: 3,
        ..CampaignConfig::default()
    }
}

fn scratch_path(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("starsense-crash-resume-{seed}.ckpt"))
}

fn resume_opts(seed: u64) -> ResumeConfig {
    ResumeConfig { checkpoint_every: CHECKPOINT_EVERY, ..ResumeConfig::new(scratch_path(seed)) }
}

/// Worker role: run until `kill_after` checkpoints are durable, then die
/// the hard way. Prints the fingerprint and exits 0 when the campaign
/// actually finishes.
#[expect(
    clippy::exit,
    clippy::disallowed_methods,
    reason = "the worker stands in for a crashing process: it must die without unwinding"
)]
fn worker(seed: u64, slots: usize, kill_after: usize) -> ! {
    let constellation = ConstellationBuilder::starlink_mini().seed(WORLD_SEED).build();
    let campaign = Campaign::identified(&constellation, terminals(), config(seed), seed);
    let opts = ResumeConfig { stop_after_checkpoints: Some(kill_after), ..resume_opts(seed) };
    let (obs, stats, report) = campaign
        .run_resumable(campaign_start(), slots, &opts)
        .expect("worker campaign must never abort");
    if report.completed {
        println!("fingerprint={:#018x}", fingerprint_observations(&obs));
        println!("observed_rate={:.5}", stats.observed_rate());
        std::process::exit(0);
    }
    // The checkpoint is already on disk; dying here loses nothing. Exit
    // status 3 tells the supervisor this was a planned crash.
    std::process::exit(3);
}

fn main() {
    let slots = slots_from_env(24);
    if std::env::var_os("STARSENSE_CHAOS_KILL").is_some() {
        let kill_after = env_integer("STARSENSE_CHAOS_KILL", 1, 1);
        let seed = env_integer("STARSENSE_CRASH_SEED", SEEDS[0], 0);
        worker(seed, slots, kill_after);
    }

    println!("== crash/resume drill: die at every checkpoint, lose nothing ==\n");
    let constellation = ConstellationBuilder::starlink_mini().seed(WORLD_SEED).build();
    let exe = std::env::current_exe().expect("own executable path");
    let mut csv_rows = Vec::new();
    for seed in SEEDS {
        let path = scratch_path(seed);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(starsense_checkpoint::backup_path(&path));

        let campaign = Campaign::identified(&constellation, terminals(), config(seed), seed);
        let (baseline_obs, _, report) = campaign
            .run_resumable(
                campaign_start(),
                slots,
                &ResumeConfig {
                    checkpoint_path: path.with_extension("baseline"),
                    ..resume_opts(seed)
                },
            )
            .expect("baseline campaign");
        assert!(report.completed);
        let baseline = fingerprint_observations(&baseline_obs);
        let _ = std::fs::remove_file(path.with_extension("baseline"));
        let _ = std::fs::remove_file(starsense_checkpoint::backup_path(
            &path.with_extension("baseline"),
        ));

        let mut lives = 0usize;
        let survived = loop {
            lives += 1;
            assert!(lives <= slots + 2, "kill/resume chain failed to converge");
            let output = Command::new(&exe)
                .env("STARSENSE_CHAOS_KILL", "1")
                .env("STARSENSE_CRASH_SEED", seed.to_string())
                .env("STARSENSE_SLOTS", slots.to_string())
                .output()
                .expect("spawn worker");
            match output.status.code() {
                Some(3) => continue, // planned crash after a checkpoint
                Some(0) => {
                    let stdout = String::from_utf8_lossy(&output.stdout);
                    let fp = stdout
                        .lines()
                        .find_map(|l| l.strip_prefix("fingerprint="))
                        .and_then(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok())
                        .expect("worker must print its fingerprint");
                    break fp;
                }
                other => panic!("worker died unexpectedly: {other:?}"),
            }
        };
        assert_eq!(
            survived, baseline,
            "seed {seed}: kill/resume stream diverged from the uninterrupted run"
        );
        println!(
            "seed {seed}: {lives} process lives, {} checkpoints, fingerprint {survived:#018x} — \
             bit-identical to uninterrupted",
            slots.div_ceil(CHECKPOINT_EVERY),
        );
        csv_rows.push(vec![
            seed.to_string(),
            lives.to_string(),
            slots.div_ceil(CHECKPOINT_EVERY).to_string(),
            format!("{survived:#018x}"),
        ]);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(starsense_checkpoint::backup_path(&path));
    }

    println!(
        "\n{} seeds x {} slots each, killed after every {CHECKPOINT_EVERY}-slot checkpoint; \
         zero bits lost",
        SEEDS.len(),
        slots
    );
    write_artifact(
        "crash_resume.csv",
        &starsense_core::report::csv(
            &["seed", "process_lives", "checkpoints", "fingerprint"],
            &csv_rows,
        ),
    );
}
