//! Crash-resilience tier: bit-identical checkpoint/resume, snapshot
//! validation, and corruption recovery.
//!
//! The central claim under test: killing a campaign at *any* checkpoint
//! boundary and resuming it — possibly with a different thread count or
//! shard count — produces an observation stream
//! byte-for-byte identical to an uninterrupted run, in oracle mode,
//! identified mode, and under measurement-fault injection.

use std::path::PathBuf;

use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_checkpoint::{
    atomic_write, ByteReader, CheckpointError, LoadedFrom, Snapshot, SnapshotBuilder,
};
use starsense_constellation::{Constellation, ConstellationBuilder};
use starsense_core::campaign::{Campaign, CampaignConfig, CampaignError};
use starsense_core::resume::{
    fingerprint_observations, ResumeConfig, CAMPAIGN_STATE_VERSION, SEC_META, SEC_OBS, SEC_SCHED,
};
use starsense_core::{SlotObservation, SlotOutcome};
use starsense_faults::{bit_flipped_copy, FaultPlan, FaultRates, FaultRng};
use starsense_obstruction::{MaskSector, SkyMask};
use starsense_scheduler::Terminal;

const SLOTS: usize = 10;

fn start() -> JulianDate {
    JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0)
}

fn mini() -> Constellation {
    ConstellationBuilder::starlink_mini().seed(33).build()
}

fn terminals() -> Vec<Terminal> {
    vec![
        Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2)),
        Terminal::new(1, "Seattle", Geodetic::new(47.61, -122.33, 0.1)),
    ]
}

/// The three observation modes the matrix ranges over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Oracle,
    Identified,
    Faulted,
}

fn campaign(c: &Constellation, mode: Mode, threads: usize, shards: usize) -> Campaign<'_> {
    let mut config = CampaignConfig { threads, shards, ..CampaignConfig::default() };
    match mode {
        Mode::Oracle => Campaign::oracle(c, terminals(), config, 33),
        Mode::Identified => Campaign::identified(c, terminals(), config, 33),
        Mode::Faulted => {
            config.faults = FaultPlan::new(99, FaultRates::uniform(0.12));
            config.min_margin = starsense_ident::DEFAULT_MIN_MARGIN;
            Campaign::identified(c, terminals(), config, 33)
        }
    }
}

/// A scratch directory that is removed when dropped, so a test cleans up
/// after itself even when it fails.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A unique checkpoint path in a fresh temp directory, and the guard that
/// removes the directory: keep the guard alive while the path is in use.
fn scratch(tag: &str) -> (ScratchDir, PathBuf) {
    let dir = std::env::temp_dir().join(format!("starsense-resume-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("campaign.ckpt");
    (ScratchDir(dir), path)
}

fn opts(path: PathBuf, every: usize) -> ResumeConfig {
    ResumeConfig { checkpoint_every: every, ..ResumeConfig::new(path) }
}

/// Runs the campaign over `slots` slots as a kill/resume chain: every
/// call is stopped after one checkpoint (an in-process crash at the
/// boundary), then a new call resumes from disk, until completion.
/// Returns the final stream's fingerprint and the number of process
/// "lives" used.
fn run_killed_at_every_checkpoint(
    campaign: &Campaign<'_>,
    slots: usize,
    opts: &ResumeConfig,
) -> (u64, usize) {
    let chain = ResumeConfig { stop_after_checkpoints: Some(1), ..opts.clone() };
    let mut lives = 0;
    loop {
        lives += 1;
        assert!(lives <= slots + 2, "kill/resume chain failed to converge");
        let (obs, _, report) = campaign
            .run_resumable(start(), slots, &chain)
            .expect("interrupted segment must succeed");
        if report.completed {
            return (fingerprint_observations(&obs), lives);
        }
    }
}

#[test]
fn resumable_matches_one_shot_bit_for_bit() {
    let c = mini();
    for mode in [Mode::Oracle, Mode::Identified, Mode::Faulted] {
        let campaign = campaign(&c, mode, 1, 1);
        let (one_shot, one_shot_stats, _) = campaign
            .run_resumable(start(), SLOTS, &ResumeConfig::default())
            .expect("plain run must succeed");
        let (_dir, path) = scratch(&format!("oneshot-{mode:?}"));
        let (resumed, stats, report) = campaign
            .run_resumable(start(), SLOTS, &opts(path, 3))
            .expect("resumable run must succeed");
        assert!(report.completed && report.resumed_at_slot.is_none());
        assert_eq!(report.checkpoints_written, 4, "ceil(10 / 3) segments");
        assert_eq!(
            fingerprint_observations(&resumed),
            fingerprint_observations(&one_shot),
            "mode {mode:?}: a segmented run must reproduce the plain run's stream"
        );
        assert_eq!(stats, one_shot_stats);
    }
}

#[test]
fn kill_resume_matrix_is_bit_identical() {
    let c = mini();
    for mode in [Mode::Oracle, Mode::Identified, Mode::Faulted] {
        let baseline = {
            let campaign = campaign(&c, mode, 1, 1);
            let (_dir, path) = scratch(&format!("matrix-base-{mode:?}"));
            let (obs, _, report) = campaign
                .run_resumable(start(), SLOTS, &opts(path, 2))
                .expect("baseline run must succeed");
            assert!(report.completed);
            fingerprint_observations(&obs)
        };
        for (threads, shards) in [(1, 1), (2, 1), (2, 4), (4, 4)] {
            let campaign = campaign(&c, mode, threads, shards);
            let (_dir, path) = scratch(&format!("matrix-{mode:?}-{threads}x{shards}"));
            let (fp, lives) = run_killed_at_every_checkpoint(&campaign, SLOTS, &opts(path, 2));
            assert!(lives >= SLOTS / 2, "every checkpoint must actually interrupt");
            assert_eq!(
                fp, baseline,
                "mode {mode:?}, {threads} threads x {shards} shards: \
                 kill/resume must not move a bit"
            );
        }
    }
}

#[test]
fn final_snapshot_is_one_file_for_every_kill_schedule_and_layout() {
    // The observation log is carried from checkpoint to checkpoint (and
    // re-seeded from disk on resume) instead of re-encoded, so the final
    // snapshot must still be the very same file however the run got
    // there — and every resumed stream, its skies rebuilt from the
    // records, must be the one-shot run's.
    let c = mini();
    for mode in [Mode::Oracle, Mode::Identified, Mode::Faulted] {
        let one_shot = fingerprint_observations(&campaign(&c, mode, 1, 1).run(start(), SLOTS));
        let mut files = Vec::new();
        for (threads, shards) in [(1, 1), (4, 4)] {
            let campaign = campaign(&c, mode, threads, shards);
            let (_dir, path) = scratch(&format!("identity-whole-{mode:?}-{threads}"));
            let (_, _, report) =
                campaign.run_resumable(start(), SLOTS, &opts(path.clone(), 3)).expect("whole run");
            assert!(report.completed);
            files.push(std::fs::read(&path).expect("final snapshot"));

            let (_dir, path) = scratch(&format!("identity-killed-{mode:?}-{threads}"));
            let (resumed, _) =
                run_killed_at_every_checkpoint(&campaign, SLOTS, &opts(path.clone(), 3));
            assert_eq!(resumed, one_shot, "mode {mode:?}: the resumed stream is the one-shot's");
            files.push(std::fs::read(&path).expect("final snapshot"));
        }
        assert!(
            files.windows(2).all(|pair| pair[0] == pair[1]),
            "mode {mode:?}: whole and killed runs at 1 and 4 threads must leave the same file"
        );
    }
}

#[test]
fn resume_after_completion_returns_stored_stream() {
    let c = mini();
    let campaign = campaign(&c, Mode::Oracle, 1, 1);
    let (_dir, path) = scratch("complete");
    let config = opts(path, 4);
    let (first, _, report) = campaign.run_resumable(start(), SLOTS, &config).expect("first run");
    assert!(report.completed);
    let (second, _, report) = campaign.run_resumable(start(), SLOTS, &config).expect("second run");
    assert_eq!(report.resumed_at_slot, Some(SLOTS));
    assert_eq!(report.segments_run, 0, "a complete snapshot needs no recompute");
    assert_eq!(fingerprint_observations(&second), fingerprint_observations(&first));
}

#[test]
fn corrupt_primary_falls_back_to_last_good_and_converges() {
    let c = mini();
    let campaign = campaign(&c, Mode::Identified, 2, 2);
    let (_dir, base_path) = scratch("corrupt-primary");
    let config = opts(base_path.clone(), 2);
    let baseline = {
        let (_dir, path) = scratch("corrupt-primary-baseline");
        let (obs, _, _) = campaign.run_resumable(start(), SLOTS, &opts(path, 2)).expect("baseline");
        fingerprint_observations(&obs)
    };

    // Two checkpoints in: primary and .prev both exist.
    let stopped = ResumeConfig { stop_after_checkpoints: Some(2), ..config.clone() };
    let (_, _, report) = campaign.run_resumable(start(), SLOTS, &stopped).expect("partial run");
    assert_eq!(report.checkpoints_written, 2);
    assert!(!report.completed);

    // A torn/corrupted primary (any flipped bit breaks a checksum).
    let good = std::fs::read(&base_path).expect("read primary");
    let mut rng = FaultRng::from_salt(7);
    let bad = bit_flipped_copy(&good, &mut rng);
    std::fs::write(&base_path, bad).expect("corrupt primary");

    let (obs, _, report) = campaign.run_resumable(start(), SLOTS, &config).expect("recovery run");
    assert!(report.completed);
    assert_eq!(report.loaded_from, Some(LoadedFrom::Backup));
    assert_eq!(report.corrupt_discarded, 1);
    assert_eq!(report.resumed_at_slot, Some(2), "backup is one interval older");
    assert_eq!(
        fingerprint_observations(&obs),
        baseline,
        "recovering from the older checkpoint recomputes to the same bits"
    );
}

#[test]
fn corruption_of_all_history_restarts_cleanly() {
    let c = mini();
    let campaign = campaign(&c, Mode::Oracle, 1, 1);
    let (_dir, path) = scratch("corrupt-all");
    let config = opts(path.clone(), 2);
    let stopped = ResumeConfig { stop_after_checkpoints: Some(2), ..config.clone() };
    let (_, _, _) = campaign.run_resumable(start(), SLOTS, &stopped).expect("partial run");

    let mut rng = FaultRng::from_salt(8);
    for file in [path.clone(), starsense_checkpoint::backup_path(&path)] {
        let good = std::fs::read(&file).expect("read snapshot");
        std::fs::write(&file, bit_flipped_copy(&good, &mut rng)).expect("corrupt snapshot");
    }

    let (obs, _, report) = campaign.run_resumable(start(), SLOTS, &config).expect("fresh restart");
    assert!(report.completed);
    assert_eq!(report.resumed_at_slot, None, "nothing valid to resume from");
    assert_eq!(report.corrupt_discarded, 2);
    let one_shot = campaign.run(start(), SLOTS);
    assert_eq!(fingerprint_observations(&obs), fingerprint_observations(&one_shot));
}

#[test]
fn foreign_snapshot_is_rejected_not_resumed() {
    let c = mini();
    let (_dir, path) = scratch("foreign");
    let config = opts(path, 2);
    let stopped = ResumeConfig { stop_after_checkpoints: Some(1), ..config.clone() };
    let (_, _, _) = campaign(&c, Mode::Oracle, 1, 1)
        .run_resumable(start(), SLOTS, &stopped)
        .expect("partial run");

    // Same path, different campaign seed: resuming would fabricate data.
    let other = Campaign::oracle(
        &c,
        terminals(),
        CampaignConfig { threads: 1, shards: 1, ..CampaignConfig::default() },
        34,
    );
    let err = other.run_resumable(start(), SLOTS, &config).expect_err("must refuse");
    assert!(
        matches!(err, CampaignError::Checkpoint(CheckpointError::ConfigMismatch { .. })),
        "got {err:?}"
    );
}

/// Stops `original` after one checkpoint, then resumes the same path
/// with `other` and returns the error it must raise.
fn resume_into(original: &Campaign<'_>, other: &Campaign<'_>, tag: &str) -> CampaignError {
    let (_dir, path) = scratch(tag);
    let config = opts(path, 2);
    let stopped = ResumeConfig { stop_after_checkpoints: Some(1), ..config.clone() };
    original.run_resumable(start(), SLOTS, &stopped).expect("partial run");
    other.run_resumable(start(), SLOTS, &config).expect_err("must refuse")
}

#[test]
fn snapshot_over_another_catalog_is_rejected() {
    // Same campaign seed and terminals, catalog built from another seed:
    // every satellite's elements and published TLE differ.
    let (a, b) = (mini(), ConstellationBuilder::starlink_mini().seed(34).build());
    let err = resume_into(
        &campaign(&a, Mode::Oracle, 1, 1),
        &campaign(&b, Mode::Oracle, 1, 1),
        "catalog",
    );
    assert!(
        matches!(err, CampaignError::Checkpoint(CheckpointError::ConfigMismatch { .. })),
        "got {err:?}"
    );
}

#[test]
fn snapshot_under_a_mirrored_mask_is_rejected() {
    // A mask mirrored east-west blocks the same area of sky, so a
    // blocked-fraction fingerprint cannot tell the two apart.
    let masked = |from: f64, to: f64| {
        let mut t = terminals();
        t[0] = t[0].clone().with_mask(SkyMask::new(vec![MaskSector {
            az_from_deg: from,
            az_to_deg: to,
            max_blocked_elevation_deg: 62.0,
        }]));
        t
    };
    let (west, east) = (masked(270.0, 360.0), masked(0.0, 90.0));
    assert_eq!(west[0].mask.blocked_fraction(), east[0].mask.blocked_fraction());
    let c = mini();
    let config = CampaignConfig { threads: 1, shards: 1, ..CampaignConfig::default() };
    let err = resume_into(
        &Campaign::oracle(&c, west, config.clone(), 33),
        &Campaign::oracle(&c, east, config, 33),
        "mirrored-mask",
    );
    assert!(
        matches!(err, CampaignError::Checkpoint(CheckpointError::ConfigMismatch { .. })),
        "got {err:?}"
    );
}

#[test]
fn snapshot_of_the_other_mode_is_rejected() {
    // Same catalog, terminals, config and seed; only the observation mode
    // differs, so the mode alone must keep the fingerprints apart.
    let c = mini();
    let config = CampaignConfig { threads: 1, shards: 1, ..CampaignConfig::default() };
    let err = resume_into(
        &Campaign::oracle(&c, terminals(), config.clone(), 33),
        &Campaign::identified(&c, terminals(), config, 33),
        "other-mode",
    );
    assert!(
        matches!(err, CampaignError::Checkpoint(CheckpointError::ConfigMismatch { .. })),
        "got {err:?}"
    );
}

/// Stops an oracle campaign after one checkpoint (every 2 slots), then
/// rewrites one section of the snapshot through `edit` into a new
/// checksum-valid file — every other section byte-identical — and
/// resumes. Returns the resume error; the tampered file must survive
/// untouched, proving no segment ran. `edit` also sees the stream the
/// partial run returned.
fn resume_tampered(
    tag: &str,
    section: u32,
    edit: impl Fn(&mut Vec<u8>, &[SlotObservation]),
) -> CampaignError {
    let c = mini();
    let campaign = campaign(&c, Mode::Oracle, 1, 1);
    let (_dir, path) = scratch(tag);
    let config = opts(path.clone(), 2);
    let stopped = ResumeConfig { stop_after_checkpoints: Some(1), ..config.clone() };
    let (obs, _, _) = campaign.run_resumable(start(), SLOTS, &stopped).expect("partial run");

    let bytes = std::fs::read(&path).expect("snapshot written");
    let snap = Snapshot::parse(&bytes).expect("valid snapshot");
    let mut builder = SnapshotBuilder::new();
    for id in snap.section_ids() {
        let mut payload = snap.require_section(id).expect("listed section").to_vec();
        if id == section {
            edit(&mut payload, &obs);
        }
        builder.add_section(id, payload);
    }
    let tampered = builder.finish().expect("rebuilt snapshot");
    atomic_write(&path, &tampered).expect("write tampered snapshot");

    let err = campaign.run_resumable(start(), SLOTS, &config).expect_err("must refuse");
    assert_eq!(std::fs::read(&path).expect("snapshot kept"), tampered, "{tag}: no segment ran");
    err
}

#[test]
fn scheduler_state_for_another_terminal_is_rejected_on_decode() {
    // A checksum-valid snapshot whose scheduler section carries another
    // terminal's id at one position: only the decode-time id check can
    // catch it, and it must do so before any segment runs.
    let err = resume_tampered("sched-id", SEC_SCHED, |payload, _| {
        // The first entry opens with terminal 0's id, a little-endian u64.
        assert_eq!(payload[..8], 0u64.to_le_bytes());
        payload[..8].copy_from_slice(&7u64.to_le_bytes());
    });
    assert_eq!(
        err,
        CampaignError::Checkpoint(CheckpointError::Malformed {
            context: "scheduler state terminal-id mismatch"
        })
    );
}

#[test]
fn observation_log_must_hold_exactly_done_times_terminals_entries() {
    // `OBS` has no count prefix: `META`'s done × terminals fixes how many
    // records it holds. One short runs out mid-decode; one byte over is
    // trailing garbage.
    let err = resume_tampered("obs-short", SEC_OBS, |payload, obs| {
        let last = last_outcome_tag(payload, obs) - 10;
        payload.truncate(last);
    });
    assert_eq!(
        err,
        CampaignError::Checkpoint(CheckpointError::Truncated { context: "obs chosen flag" })
    );

    let err = resume_tampered("obs-trailing", SEC_OBS, |payload, _| payload.push(0));
    assert_eq!(
        err,
        CampaignError::Checkpoint(CheckpointError::Malformed { context: "observation section" })
    );

    // Outcome tags run 0..=2; no engine ever wrote tag 3.
    let err = resume_tampered("obs-tag", SEC_OBS, |payload, obs| {
        let tag = last_outcome_tag(payload, obs);
        payload[tag] = 3;
    });
    assert_eq!(
        err,
        CampaignError::Checkpoint(CheckpointError::Malformed { context: "obs outcome tag" })
    );

    // Reason tags run 0..=8: tag 9 was the retired worker-failure reason,
    // which no engine of this payload version writes. The last outcome
    // becomes no-data (tag 2) with reason 9.
    let err = resume_tampered("obs-reason", SEC_OBS, |payload, obs| {
        let tag = last_outcome_tag(payload, obs);
        payload.truncate(tag);
        payload.extend_from_slice(&[2, 9]);
    });
    assert_eq!(
        err,
        CampaignError::Checkpoint(CheckpointError::Malformed { context: "degrade reason tag" })
    );
}

/// Offset of the last record's outcome tag in an oracle `OBS` payload.
/// The payload ends with that whole 19-byte record: chosen flag and id,
/// truth flag and the same id, then tag 0 (observed) and the confidence's
/// eight bytes.
fn last_outcome_tag(payload: &[u8], obs: &[SlotObservation]) -> usize {
    let last = obs.last().expect("a partial run observes");
    assert_eq!(last.outcome, SlotOutcome::Observed { confidence: 1.0 });
    let id = last.truth_id.expect("an observed oracle slot has a truth id").to_le_bytes();
    assert_eq!(last.chosen.as_ref().map(|s| s.norad_id), last.truth_id);
    let tag = payload.len() - 9;
    let record = [&[1u8][..], &id, &[1], &id, &[0], &1.0f64.to_bits().to_le_bytes()].concat();
    assert_eq!(payload[tag - 10..], record);
    tag
}

#[test]
fn chosen_id_absent_from_the_rebuilt_sky_is_rejected() {
    // A checksum-valid record whose chosen id names a satellite that is in
    // no rebuilt sky: the replay must refuse it before any segment runs.
    let err = resume_tampered("obs-chosen", SEC_OBS, |payload, obs| {
        let chosen = last_outcome_tag(payload, obs) - 9;
        assert!(obs.iter().all(|o| o.available.iter().all(|s| s.norad_id != u32::MAX)));
        payload[chosen..chosen + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    assert_eq!(
        err,
        CampaignError::Checkpoint(CheckpointError::Malformed {
            context: "chosen satellite absent from its rebuilt sky"
        })
    );
}

#[test]
fn observation_records_stay_within_24_bytes() {
    // `OBS` keeps no sky: at most 24 bytes per record in every mode, at
    // every checkpoint of the run.
    let c = mini();
    for mode in [Mode::Oracle, Mode::Identified, Mode::Faulted] {
        let campaign = campaign(&c, mode, 1, 1);
        let (_dir, path) = scratch(&format!("obs-size-{mode:?}"));
        let stopped = ResumeConfig { stop_after_checkpoints: Some(1), ..opts(path.clone(), 3) };
        let mut done = 0;
        while done < SLOTS {
            campaign.run_resumable(start(), SLOTS, &stopped).expect("one segment");
            done = (done + 3).min(SLOTS);
            let bytes = std::fs::read(&path).expect("snapshot written");
            let snap = Snapshot::parse(&bytes).expect("valid snapshot");
            let obs = snap.require_section(SEC_OBS).expect("OBS section").len();
            let records = done * terminals().len();
            assert!(obs <= 24 * records, "mode {mode:?}: {obs} bytes for {records} records");
        }
    }
}

#[test]
fn earlier_payload_version_is_rejected() {
    // A version-2 payload carried an observation count before `OBS`, a
    // version-3 payload a fifth, supervisor-ledger section after it, and
    // a version-4 payload whole observations, skies included, in `OBS`;
    // reading any as version 5 would misparse, so all are refused
    // outright.
    assert_eq!(CAMPAIGN_STATE_VERSION, 5);
    for old in [2u32, 3, 4] {
        let err = resume_tampered(&format!("meta-v{old}"), SEC_META, |payload, _| {
            assert_eq!(payload[..4], CAMPAIGN_STATE_VERSION.to_le_bytes());
            payload[..4].copy_from_slice(&old.to_le_bytes());
        });
        assert_eq!(
            err,
            CampaignError::Checkpoint(CheckpointError::UnsupportedVersion { found: old })
        );
    }
}

#[test]
fn gen1_identified_segmentations_reproduce_the_one_shot_stream() {
    // On the full catalog the prepared rows are observer-culled and each
    // segment places its own key rows, so a cadence of 1, 3 or 7 slots
    // culls different satellite-rows; the stream must not notice.
    let c = ConstellationBuilder::starlink_gen1().seed(7).build();
    let terminals = starsense_core::vantage::paper_terminals();
    let config = CampaignConfig { threads: 2, ..CampaignConfig::default() };
    let campaign = Campaign::identified(&c, terminals, config, 7);
    let slots = 15;
    let one_shot = fingerprint_observations(&campaign.run(start(), slots));
    for every in [1, 3, 7] {
        let (_dir, path) = scratch(&format!("gen1-{every}"));
        let (obs, _, report) = campaign
            .run_resumable(start(), slots, &opts(path, every))
            .expect("resumable run must succeed");
        assert!(report.completed);
        assert_eq!(report.checkpoints_written, slots.div_ceil(every));
        assert_eq!(fingerprint_observations(&obs), one_shot, "checkpoint_every {every}");
    }
}

/// The done-slot count a snapshot file records in its `META` section.
fn snapshot_done(path: &std::path::Path) -> usize {
    let bytes = std::fs::read(path).expect("snapshot written");
    let snap = Snapshot::parse(&bytes).expect("valid snapshot");
    let mut meta = ByteReader::new(snap.require_section(SEC_META).expect("META section"));
    meta.get_u32("version").expect("version");
    meta.get_u64("fingerprint").expect("fingerprint");
    meta.get_f64_bits("first mid").expect("first mid");
    meta.get_usize("total slots").expect("total slots");
    meta.get_usize("done slots").expect("done slots")
}

#[test]
fn kill_resume_chain_across_segment_windows_checkpoints_on_the_cadence() {
    // The engine caps a segment at 96 slots. A cadence longer than that
    // window, and not a multiple of it, splits each checkpoint interval
    // into two segments: a full window and the rest. Checkpoints still
    // land on multiples of the cadence and at the end, and a chain killed
    // at every one of them reproduces the one-shot stream.
    const WINDOW: usize = 96;
    let every = WINDOW + 13;
    let slots = 2 * every + 17;
    let c = mini();
    for mode in [Mode::Oracle, Mode::Identified, Mode::Faulted] {
        let one_shot = fingerprint_observations(&campaign(&c, mode, 1, 1).run(start(), slots));
        let campaign = campaign(&c, mode, 2, 2);
        let (_dir, path) = scratch(&format!("windows-{mode:?}"));
        let chain = ResumeConfig { stop_after_checkpoints: Some(1), ..opts(path.clone(), every) };
        // (resumed at, checkpoint written at, segments run) per life.
        let lives = [(None, every, 2), (Some(every), 2 * every, 2), (Some(2 * every), slots, 1)];
        for (life, &(resumed_at, done, segments)) in lives.iter().enumerate() {
            let (obs, _, report) =
                campaign.run_resumable(start(), slots, &chain).expect("a life runs");
            assert_eq!(report.resumed_at_slot, resumed_at, "mode {mode:?}, life {life}");
            assert_eq!(report.checkpoints_written, 1, "mode {mode:?}, life {life}");
            assert_eq!(report.segments_run, segments, "mode {mode:?}, life {life}");
            assert_eq!(snapshot_done(&path), done, "mode {mode:?}, life {life}");
            assert_eq!(report.completed, done == slots, "mode {mode:?}, life {life}");
            if report.completed {
                assert_eq!(fingerprint_observations(&obs), one_shot, "mode {mode:?}");
            }
        }
    }
}

#[test]
fn min_elevation_outside_zero_to_ninety_is_rejected_before_any_work() {
    let c = mini();
    for bad in [-1.0, 90.0, 120.0, f64::NAN, f64::INFINITY] {
        let mut config = CampaignConfig::default();
        config.policy.min_elevation_deg = bad;
        let campaign = Campaign::oracle(&c, terminals(), config, 33);
        let (_dir, path) = scratch("invalid-config");
        let err = campaign
            .run_resumable(start(), SLOTS, &opts(path.clone(), 3))
            .expect_err("an invalid cutoff must be rejected");
        assert!(matches!(err, CampaignError::InvalidConfig(_)), "{bad}: {err:?}");
        assert!(!path.exists(), "{bad}: no checkpoint may be written");
        // `run` panics with the same message.
        let run = std::panic::AssertUnwindSafe(|| campaign.run(start(), SLOTS));
        let caught = std::panic::catch_unwind(run);
        let payload = caught.expect_err("run must panic on an invalid cutoff");
        assert_eq!(payload.downcast_ref::<String>(), Some(&err.to_string()), "{bad}");
    }
    // The boundaries of [0, 90) that are inside it run.
    let mut config = CampaignConfig::default();
    config.policy.min_elevation_deg = 0.0;
    assert_eq!(Campaign::oracle(&c, terminals(), config, 33).run(start(), 2).len(), 4);
}

/// Gen1 seed 30 and the 42 terminals of its 500-terminal Fibonacci
/// lattice that sit within 15° of ±180°.
const SEAM_SEED: u64 = 30;

fn seam_terminals() -> Vec<Terminal> {
    let phase = 360.0 * ((SEAM_SEED as f64 * 0.381_966_011_250_105).fract());
    let terminals: Vec<Terminal> = (0..500usize)
        .filter_map(|i| {
            let lat = -55.0 + 110.0 * ((i as f64 * 0.618_033_988_749_895).fract());
            let lon =
                (phase + 360.0 * ((i as f64 * 0.754_877_666_246_693).fract())) % 360.0 - 180.0;
            (lon.abs() > 165.0)
                .then(|| Terminal::new(i, format!("lattice{i}"), Geodetic::new(lat, lon, 0.1)))
        })
        .collect();
    assert_eq!(terminals.len(), 42);
    terminals
}

fn seam_campaign(c: &Constellation) -> Campaign<'_> {
    let config = CampaignConfig { threads: 2, ..CampaignConfig::default() };
    Campaign::oracle(c, seam_terminals(), config, SEAM_SEED ^ 0x5EED_CA4E)
}

#[test]
fn antimeridian_lattice_segmentation_matches_one_shot_and_the_linear_scan() {
    // Each segment culls its own propagation rows, and each culled
    // snapshot sizes its own index grid, so the two runs meet different
    // cell sizes at the seam; both must report exactly the satellites the
    // unculled linear scan sees.
    let c = ConstellationBuilder::starlink_gen1().seed(SEAM_SEED).build();
    let terminals = seam_terminals();
    let campaign = seam_campaign(&c);
    let min_el = CampaignConfig::default().policy.min_elevation_deg;
    let slots = 96;
    let one_shot = campaign.run(start(), slots);
    let (_dir, path) = scratch("antimeridian");
    let (segmented, _, report) =
        campaign.run_resumable(start(), slots, &opts(path, 8)).expect("resumable run");
    assert!(report.completed);
    assert_eq!(fingerprint_observations(&segmented), fingerprint_observations(&one_shot));

    let all: Vec<u32> = (0..c.len() as u32).collect();
    // Slot-major, terminal-minor: one snapshot per chunk.
    for slot in one_shot.chunks(terminals.len()) {
        let snap = c.snapshot(slot[0].slot_start);
        for (obs, terminal) in slot.iter().zip(&terminals) {
            let want: Vec<u32> = c
                .field_of_view(&snap, terminal.location, min_el, &all)
                .iter()
                .map(|v| v.norad_id)
                .collect();
            let got: Vec<u32> = obs.available.iter().map(|s| s.norad_id).collect();
            assert_eq!(got, want, "terminal {} slot {}", terminal.id, obs.slot);
        }
    }
}

#[test]
fn antimeridian_lattice_replay_matches_one_shot() {
    // Killed at every checkpoint, each resume rebuilds the skies of all
    // done slots through the visibility index, chunk by chunk; the seam's
    // terminals are where a gap in that index would show.
    let c = ConstellationBuilder::starlink_gen1().seed(SEAM_SEED).build();
    let campaign = seam_campaign(&c);
    let slots = 96;
    let one_shot = fingerprint_observations(&campaign.run(start(), slots));
    let (_dir, path) = scratch("antimeridian-replay");
    let (resumed, lives) = run_killed_at_every_checkpoint(&campaign, slots, &opts(path, 8));
    assert_eq!(lives, slots / 8, "one life per checkpoint");
    assert_eq!(resumed, one_shot);
}
