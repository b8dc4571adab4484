//! The end-to-end pass: repeated timed campaigns at the host's thread
//! count, with tracing off.

use std::path::Path;
use std::time::Instant;

use starsense_core::campaign::SlotObservation;

use crate::report::{
    degraded_share, ident_agreement, median, peak_rss_mb, stream_fingerprint, Metric, RunResult,
};
use crate::workload::{self, campaign_start, Setup, Size, Workload};

/// Set-ups before the first campaign, and between consecutive timed
/// campaigns; `setup_s` is the median of all of them. A set-up takes about
/// 10 ms, so a run makes dozens; spreading them over the run samples the
/// same host conditions the campaigns see.
const SETUPS_FIRST: usize = 15;
const SETUPS_PER_REPEAT: usize = 5;

/// Timed campaigns per run at least, however short `--seconds` is.
const MIN_REPEATS: usize = 3;

/// Identified-mode agreement below this fails the run. The paper's pilot
/// validation reports >99%; the floor leaves room for the seeded
/// catalog's ambiguous passes.
pub const AGREEMENT_FLOOR: f64 = 0.85;

/// Builds the workload's inputs `n` times, appending each build's time to
/// `times`, and returns the last set-up.
pub fn timed_setups(
    workload: Workload,
    size: Size,
    seed: u64,
    work_dir: &Path,
    n: usize,
    times: &mut Vec<f64>,
) -> Setup {
    let mut last: Option<Setup> = None;
    for _ in 0..n.max(1) {
        // Drop the previous set-up first so each build starts from the
        // same heap state.
        drop(last.take());
        let start = Instant::now();
        let s = workload::setup(workload, size, seed, work_dir);
        times.push(start.elapsed().as_secs_f64());
        last = Some(s);
    }
    last.expect("at least one set-up")
}

/// The checks every stream of a workload must pass, whatever produced it.
pub fn check_stream(
    workload: Workload,
    size: Size,
    setup: &Setup,
    obs: &[SlotObservation],
) -> Result<(), String> {
    let expected = size.slots * setup.terminals.len();
    if obs.len() != expected {
        return Err(format!("stream has {} observations, expected {expected}", obs.len()));
    }
    let agreement = ident_agreement(obs);
    if workload.identified() && agreement < AGREEMENT_FLOOR {
        return Err(format!("ident_agreement {agreement:.4} below the floor {AGREEMENT_FLOOR}"));
    }
    if !workload.identified() && agreement != 1.0 {
        return Err(format!("oracle ident_agreement {agreement} is not 1"));
    }
    Ok(())
}

/// Runs the end-to-end pass for `seconds` and reports the end-to-end
/// metrics.
pub fn run(
    workload: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    threads: usize,
    work_dir: &Path,
) -> Result<RunResult, String> {
    let mut setup_times = Vec::new();
    let setup = timed_setups(workload, size, seed, work_dir, SETUPS_FIRST, &mut setup_times);

    // Untimed reference run: it fills the allocator's pools the timed
    // repeats reuse, and fixes the stream every repeat must reproduce.
    let (obs, _) = workload::run_campaign(workload, size, &setup, threads, seed)?;
    check_stream(workload, size, &setup, &obs)?;
    let reference = stream_fingerprint(&obs);
    let degraded = degraded_share(&obs);
    // An unobstructed oracle campaign degrades no slot, and a metric that
    // reads 0 has no relative bound, so the result line carries the
    // observed share; the degraded share is printed alongside.
    println!("{:<40} {:>18.6} fraction", "degraded_share", degraded);
    let agreement = ident_agreement(&obs);
    drop(obs);
    // Peak memory of one campaign in a fresh process: read before the
    // repeats, whose allocator reuse would otherwise make it depend on
    // how many of them fit in `seconds`.
    let rss = peak_rss_mb().ok_or("VmHWM unavailable in /proc/self/status")?;
    if size.checkpoint_every > 0 {
        // The checkpointing engine must reproduce the one-shot engine.
        let one_shot =
            workload::campaign(workload, &setup, threads, seed).run(campaign_start(), size.slots);
        if stream_fingerprint(&one_shot) != reference {
            return Err("run_resumable stream differs from a one-shot Campaign::run".into());
        }
    }

    let slot_terms = (size.slots * setup.terminals.len()) as f64;
    let mut rates = Vec::new();
    let mut failed = 0usize;
    let start = Instant::now();
    while rates.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
        drop(timed_setups(workload, size, seed, work_dir, SETUPS_PER_REPEAT, &mut setup_times));
        let (obs, elapsed) = workload::run_campaign(workload, size, &setup, threads, seed)?;
        if stream_fingerprint(&obs) != reference {
            eprintln!("repeat {} produced a different stream", rates.len());
            failed += 1;
        } else {
            rates.push(slot_terms / elapsed);
        }
        if rates.len() + failed >= 1_000 {
            break;
        }
    }
    workload::reset_checkpoint(&setup.checkpoint);
    let attempted = rates.len() + failed;
    eprintln!(
        "{}: {} terminals x {} slots, {} threads, {} timed campaigns: {:.0?} slot_terms/s; \
         {} set-ups",
        workload.name(),
        setup.terminals.len(),
        size.slots,
        threads,
        attempted,
        rates,
        setup_times.len()
    );
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric::new("slot_terms_per_s", "slot_terms/s", median(&rates)),
            Metric::new("setup_s", "s", median(&setup_times)),
            Metric::new("peak_rss_mb", "MB", rss),
            Metric::new("observed_share", "fraction", 1.0 - degraded),
            Metric::new("ident_agreement", "fraction", agreement),
        ],
    })
}
