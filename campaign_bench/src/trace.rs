//! The traced pass: where a campaign's time goes, layer by layer.
//!
//! One traced pass per workload:
//!
//! 1. a few untraced campaigns at the host's thread count (the parallel
//!    reference stream and the denominator of `engine.parallel_speedup`);
//! 2. an untimed counting pass: the replay below with counters instead of
//!    clocks, and for the checkpointing workload a step-by-step run that
//!    reads each snapshot's size and times `write_rotating` of its bytes.
//!    It also warms the heap the serial runs allocate from;
//! 3. one untraced serial campaign, plus, for the checkpointing workload,
//!    the same run with checkpointing off — their difference is
//!    `checkpoint.s`: encoding, writing, and rebuilding the propagation
//!    table and scheduler every segment;
//! 4. the traced replay: the campaign re-run serially through the layers'
//!    public calls, phase by phase like `Campaign::run`, with a span around
//!    each call. A span's self time is its duration minus its children's.
//!    The replay builds the same observation stream as the engine and must
//!    reproduce it bit for bit, or the traced report is invalid;
//! 5. on `oracle-scale` only, the first-slot/steady-slot Schedule split at
//!    100 000 terminals (ROADMAP item 1, "the 100k drop").
//!
//! Identification is one public call (`verdict_slot_tracked`) that runs
//! XOR isolation, candidate tracks and the DTW cascade inside. The replay
//! times the XOR stage (`isolate` + `extract_trajectory`) and the track
//! stage (a second `TrackCache` fed the same slot sequence) as separate
//! calls on identical inputs just before the verdict, counts them as the
//! verdict's children, and so leaves the DTW cascade as the verdict's self
//! time. These duplicate calls are not part of the replay's total.

use std::path::Path;
use std::time::Instant;

use starsense_astro::time::JulianDate;
use starsense_checkpoint::write_rotating;
use starsense_constellation::PropagationCache;
use starsense_core::campaign::{CampaignConfig, SatObs, SlotObservation};
use starsense_core::degrade::{DegradeReason, SlotOutcome};
use starsense_ident::{
    identify_from_trajectory_counted, slot_boundary_epochs, verdict_slot_tracked, DishSimulator,
    FrameStatus, IdentVerdict, NoDataReason, SlotCapture, TrackCache, CANDIDATE_SAMPLES_PER_SLOT,
    MIN_CANDIDATE_ELEVATION_DEG,
};
use starsense_obstruction::{extract_trajectory, isolate};
use starsense_scheduler::slots::{slot_start, SLOT_PERIOD_SECONDS};
use starsense_scheduler::{Allocation, GlobalScheduler, Terminal};

use crate::e2e::{check_stream, timed_setups};
use crate::report::{high_percentile, median, stream_fingerprint, Metric, RunResult};
use crate::workload::{
    self, campaign_seed, campaign_start, lattice_terminals, reset_checkpoint, Setup, Size, Workload,
};

/// Parallel reference campaigns in the traced pass.
const PARALLEL_REPEATS: usize = 3;

/// Rounds of (serial engine, traced replay).
const ROUNDS: usize = 3;

/// The counting pass runs the uncached, counted DTW matcher on every
/// `DTW_COUNT_EVERY`-th verdict; cell counts are per counted verdict.
const DTW_COUNT_EVERY: usize = 8;

/// Slots of the 100k first-slot/steady-slot probe.
const T100K_SLOTS: usize = 4;

/// A layer boundary the replay records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// `PropagationCache::prepare`.
    Prepare,
    /// The first `Snapshot::visibility_index()` of a slot.
    IndexBuild,
    /// One slot of the Schedule phase (parent of the three below).
    ScheduleSlot,
    /// `GlobalScheduler::fields_of_view_cohort`.
    Fov,
    /// `GlobalScheduler::allocate_from_available`.
    Alloc,
    /// `DishSimulator::play_slot_faulted`.
    Paint,
    /// `verdict_slot_tracked` (parent of the two below).
    Verdict,
    /// `isolate` + `extract_trajectory`.
    Xor,
    /// `TrackCache::candidate_tracks`.
    Tracks,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    parent: Option<usize>,
    /// Campaign slot offset (schedule spans; 0 elsewhere).
    slot: usize,
    start: f64,
    end: f64,
}

/// In-memory span recorder; everything is summarized when the pass ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 14) }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn open(&mut self, layer: Layer, parent: Option<usize>, slot: usize) -> usize {
        let start = self.now();
        self.spans.push(Span { layer, parent, slot, start, end: start });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    fn duration(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Self time per span: its duration minus its children's durations.
    fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                out[p] -= self.duration(i);
            }
        }
        out
    }

    /// Summed self time of every span of `layer`.
    fn self_total(&self, layer: Layer, self_times: &[f64]) -> f64 {
        self.spans.iter().zip(self_times).filter(|(s, _)| s.layer == layer).map(|(_, t)| t).sum()
    }

    /// Summed full duration of every span of `layer`.
    fn total(&self, layer: Layer) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].layer == layer)
            .map(|i| self.duration(i))
            .sum()
    }
}

/// Work counters from the untimed counting pass.
#[derive(Debug, Default)]
struct Counts {
    prepare_rows: usize,
    term_slots: usize,
    visible: usize,
    eligible: usize,
    index_candidates: usize,
    verdicts: usize,
    candidates: usize,
    dtw_counted: usize,
    dtw_exact: usize,
    dtw_coarse: usize,
    dtw_full: usize,
}

/// What the replay records into: spans (traced) or counters (counting).
enum Probe<'p> {
    Trace(&'p mut Tracer),
    Count(&'p mut Counts),
}

impl Probe<'_> {
    fn open(&mut self, layer: Layer, parent: Option<usize>, slot: usize) -> Option<usize> {
        match self {
            Probe::Trace(t) => Some(t.open(layer, parent, slot)),
            Probe::Count(_) => None,
        }
    }

    fn close(&mut self, id: Option<usize>) {
        if let (Probe::Trace(t), Some(id)) = (self, id) {
            t.close(id);
        }
    }

    /// Makes `child` a child of `parent` after the fact (the XOR and track
    /// stand-ins run before the verdict they are part of).
    fn adopt(&mut self, child: Option<usize>, parent: Option<usize>) {
        if let (Probe::Trace(t), Some(c)) = (self, child) {
            t.spans[c].parent = parent;
        }
    }

    fn counts(&mut self) -> Option<&mut Counts> {
        match self {
            Probe::Count(c) => Some(c),
            Probe::Trace(_) => None,
        }
    }
}

/// Slot midpoints of a campaign, as the engine derives them.
fn slot_mids(slots: usize) -> Vec<JulianDate> {
    let first_mid = slot_start(campaign_start()).plus_seconds(SLOT_PERIOD_SECONDS / 2.0);
    (0..slots).map(|k| first_mid.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS)).collect()
}

/// Replays the workload's campaign serially through the layers' public
/// calls, phase by phase like the one-shot engine (`Campaign::run`), and
/// returns the observation stream the engine would have produced.
fn replay(
    workload: Workload,
    size: Size,
    setup: &Setup,
    seed: u64,
    probe: &mut Probe<'_>,
) -> Result<Vec<SlotObservation>, String> {
    let c = &setup.constellation;
    let config = workload::config(1);
    let n = setup.terminals.len();
    let mids = slot_mids(size.slots);

    let cache = PropagationCache::new(c);
    let starts: Vec<JulianDate> = mids.iter().map(|&at| slot_start(at)).collect();
    let boundaries: Vec<JulianDate> = if workload.identified() {
        starts.iter().flat_map(|&s| slot_boundary_epochs(s, CANDIDATE_SAMPLES_PER_SLOT)).collect()
    } else {
        Vec::new()
    };
    let span = probe.open(Layer::Prepare, None, 0);
    cache.prepare(&starts, &boundaries, 1);
    probe.close(span);
    if let Some(counts) = probe.counts() {
        let stats = cache.stats();
        counts.prepare_rows += stats.truth_entries + stats.published_entries;
    }

    let mut scheduler =
        GlobalScheduler::new(config.policy.clone(), setup.terminals.clone(), campaign_seed(seed));
    let mut columns: Vec<Vec<Allocation>> =
        (0..n).map(|_| Vec::with_capacity(mids.len())).collect();
    for (k, &at) in mids.iter().enumerate() {
        let slot_span = probe.open(Layer::ScheduleSlot, None, k);
        let snapshot = cache.snapshot(slot_start(at));
        let span = probe.open(Layer::IndexBuild, slot_span, k);
        let index = snapshot.visibility_index();
        probe.close(span);
        let span = probe.open(Layer::Fov, slot_span, k);
        let fov = scheduler.fields_of_view_cohort(c, &snapshot);
        probe.close(span);
        if let Some(counts) = probe.counts() {
            counts.visible += fov.iter().map(Vec::len).sum::<usize>();
            let min_el = config.policy.min_elevation_deg;
            counts.index_candidates += setup
                .terminals
                .iter()
                .map(|t| index.candidates(t.location, min_el).len())
                .sum::<usize>();
        }
        let span = probe.open(Layer::Alloc, slot_span, k);
        let allocs = scheduler.allocate_from_available(at, fov);
        probe.close(span);
        probe.close(slot_span);
        if let Some(counts) = probe.counts() {
            counts.term_slots += allocs.len();
            counts.eligible += allocs.iter().map(|a| a.eligible_ids.len()).sum::<usize>();
        }
        for alloc in allocs {
            let column = columns.get_mut(alloc.terminal_id).ok_or("terminal id out of range")?;
            column.push(alloc);
        }
    }

    let observed: Vec<Vec<SlotObservation>> = columns
        .into_iter()
        .enumerate()
        .map(|(tid, allocs)| {
            let terminal = &setup.terminals[tid];
            if workload.identified() {
                observe_identified(&cache, &config, terminal, &allocs, probe)
            } else {
                allocs.iter().map(|a| oracle_record(terminal, a)).collect()
            }
        })
        .collect();
    let mut columns: Vec<std::vec::IntoIter<SlotObservation>> =
        observed.into_iter().map(Vec::into_iter).collect();
    let mut obs = Vec::with_capacity(size.slots * n);
    for _ in 0..size.slots {
        for column in &mut columns {
            obs.extend(column.next());
        }
    }
    Ok(obs)
}

/// One oracle-mode observation record, as the engine builds it.
fn oracle_record(terminal: &Terminal, alloc: &Allocation) -> SlotObservation {
    let (chosen, outcome) = match alloc.chosen.as_ref() {
        Some(c) => (Some(SatObs::from(c)), SlotOutcome::Observed { confidence: 1.0 }),
        None => (None, SlotOutcome::NoData(DegradeReason::Outage)),
    };
    record(terminal, alloc, chosen, outcome)
}

fn record(
    terminal: &Terminal,
    alloc: &Allocation,
    chosen: Option<SatObs>,
    outcome: SlotOutcome,
) -> SlotObservation {
    SlotObservation {
        terminal_id: terminal.id,
        slot: alloc.slot,
        slot_start: alloc.slot_start,
        local_hour: alloc.slot_start.local_solar_hour(terminal.location.lon_deg),
        available: alloc.available.iter().map(SatObs::from).collect(),
        chosen,
        truth_id: alloc.chosen_id(),
        outcome,
    }
}

/// One terminal's identified-mode observation stream: dish painting, then
/// XOR → candidate tracks → DTW per slot, resolved into outcomes exactly
/// as the campaign engine resolves them.
fn observe_identified(
    cache: &PropagationCache<'_>,
    config: &CampaignConfig,
    terminal: &Terminal,
    allocs: &[Allocation],
    probe: &mut Probe<'_>,
) -> Vec<SlotObservation> {
    let c = cache.constellation();
    let loc = terminal.location;
    let mut dish = DishSimulator::new(loc);
    let mut tracks =
        TrackCache::new(cache, loc, MIN_CANDIDATE_ELEVATION_DEG, CANDIDATE_SAMPLES_PER_SLOT);
    // Fed the same slot sequence as `tracks`, so each call does the same
    // work the verdict's internal call does.
    let mut shadow =
        TrackCache::new(cache, loc, MIN_CANDIDATE_ELEVATION_DEG, CANDIDATE_SAMPLES_PER_SLOT);
    let mut prev: Option<SlotCapture> = None;
    let mut out = Vec::with_capacity(allocs.len());
    for alloc in allocs {
        let truth = alloc.chosen_id();
        let span = probe.open(Layer::Paint, None, 0);
        let fetch = dish.play_slot_faulted(
            c,
            alloc.slot,
            alloc.slot_start,
            truth,
            &config.faults,
            terminal.id as u64,
            config.frame_retries,
        );
        probe.close(span);
        let (chosen, outcome) = match fetch.capture {
            None => {
                prev = None;
                let reason = DegradeReason::FrameDropped { attempts: fetch.attempts };
                (None, SlotOutcome::NoData(reason))
            }
            Some(capture) => {
                let usable = if capture.after_reset { None } else { prev.as_ref() };
                let resolved = match usable {
                    None if capture.after_reset => {
                        (None, SlotOutcome::NoData(DegradeReason::AfterReset))
                    }
                    None => (None, SlotOutcome::NoData(DegradeReason::MissingBaseline)),
                    Some(p) => {
                        let xor = probe.open(Layer::Xor, None, 0);
                        let trajectory = extract_trajectory(&isolate(&p.map, &capture.map));
                        probe.close(xor);
                        let mut track_span = None;
                        if trajectory.len() >= 3 {
                            track_span = probe.open(Layer::Tracks, None, 0);
                            let candidates = shadow.candidate_tracks(alloc.slot_start);
                            probe.close(track_span);
                            if let Some(counts) = probe.counts() {
                                counts.verdicts += 1;
                                counts.candidates += candidates.len();
                                if counts.verdicts % DTW_COUNT_EVERY == 1 {
                                    let counted = identify_from_trajectory_counted(
                                        &trajectory,
                                        c,
                                        loc,
                                        alloc.slot_start,
                                    );
                                    if let Some((_, stats)) = counted {
                                        counts.dtw_counted += 1;
                                        counts.dtw_exact += stats.cells_evaluated;
                                        counts.dtw_coarse += stats.coarse_cells;
                                        counts.dtw_full += stats.cells_full;
                                    }
                                }
                            }
                        }
                        let span = probe.open(Layer::Verdict, None, 0);
                        let verdict = verdict_slot_tracked(
                            &mut tracks,
                            &p.map,
                            &capture.map,
                            alloc.slot_start,
                            config.min_margin,
                        );
                        probe.close(span);
                        probe.adopt(xor, span);
                        probe.adopt(track_span, span);
                        resolve(verdict, alloc, fetch.status, truth)
                    }
                };
                prev = Some(capture);
                resolved
            }
        };
        out.push(record(terminal, alloc, chosen, outcome));
    }
    out
}

/// The engine's verdict → outcome mapping.
fn resolve(
    verdict: IdentVerdict,
    alloc: &Allocation,
    status: FrameStatus,
    truth: Option<u32>,
) -> (Option<SatObs>, SlotOutcome) {
    match verdict {
        IdentVerdict::Identified { sat, confidence } => {
            match alloc.available.iter().find(|v| v.norad_id == sat.norad_id) {
                Some(v) => (Some(SatObs::from(v)), SlotOutcome::Observed { confidence }),
                None => (None, SlotOutcome::NoData(DegradeReason::UnmatchedIdentity)),
            }
        }
        IdentVerdict::Ambiguous { best } => {
            (None, SlotOutcome::Ambiguous { margin: best.margin() })
        }
        IdentVerdict::NoData(reason) => {
            let reason = match reason {
                NoDataReason::EmptyTrail if status == FrameStatus::Stale => {
                    DegradeReason::StaleFrame
                }
                NoDataReason::EmptyTrail if truth.is_none() => DegradeReason::Outage,
                NoDataReason::EmptyTrail => DegradeReason::EmptyTrail,
                NoDataReason::TinyTrail => DegradeReason::TinyTrail,
                NoDataReason::NoCandidates => DegradeReason::NoCandidates,
            };
            (None, SlotOutcome::NoData(reason))
        }
    }
}

/// Checkpoint sizes and write times from stepping the resumable engine
/// one checkpoint at a time.
#[derive(Debug, Default)]
struct CheckpointCounts {
    count: usize,
    bytes_total: u64,
    bytes_max: u64,
    write_s: f64,
}

/// Steps the resumable engine with `stop_after_checkpoints = 1` until it
/// completes, reading the snapshot after each step and timing
/// `write_rotating` of the same bytes to a scratch path. Returns the
/// counts and the final stream's fingerprint.
fn step_checkpoints(
    workload: Workload,
    size: Size,
    setup: &Setup,
    seed: u64,
    work_dir: &Path,
) -> Result<(CheckpointCounts, u64), String> {
    reset_checkpoint(&setup.checkpoint);
    let scratch = work_dir.join("write-probe.ckpt");
    reset_checkpoint(&scratch);
    let campaign = workload::campaign(workload, setup, 1, seed);
    let opts = starsense_core::resume::ResumeConfig {
        stop_after_checkpoints: Some(1),
        ..workload::resume_config(setup, size.checkpoint_every)
    };
    let mut counts = CheckpointCounts::default();
    loop {
        let (obs, _, report) = campaign
            .run_resumable(campaign_start(), size.slots, &opts)
            .map_err(|e| format!("stepped run_resumable failed: {e}"))?;
        if report.checkpoints_written != 1 {
            return Err(format!("a step wrote {} checkpoints", report.checkpoints_written));
        }
        let bytes = std::fs::read(&setup.checkpoint).map_err(|e| format!("read snapshot: {e}"))?;
        counts.count += 1;
        counts.bytes_total += bytes.len() as u64;
        counts.bytes_max = counts.bytes_max.max(bytes.len() as u64);
        let start = Instant::now();
        write_rotating(&scratch, &bytes).map_err(|e| format!("write_rotating: {e}"))?;
        counts.write_s += start.elapsed().as_secs_f64();
        if report.completed {
            reset_checkpoint(&scratch);
            reset_checkpoint(&setup.checkpoint);
            return Ok((counts, stream_fingerprint(&obs)));
        }
    }
}

/// First-slot versus steady-slot Schedule time at 100 000 terminals.
#[derive(Debug, Default)]
struct T100k {
    construct_s: f64,
    first_slot_s: f64,
    first_index_s: f64,
    steady_slot_ms: f64,
    steady_index_ms: f64,
}

/// Replays `T100K_SLOTS` Schedule slots over 100 000 lattice terminals,
/// serially, and splits the first slot from the later ones.
fn probe_100k(setup: &Setup, terminals: usize, seed: u64) -> T100k {
    let c = &setup.constellation;
    let config = workload::config(1);
    let start = Instant::now();
    let mut scheduler = GlobalScheduler::new(
        config.policy.clone(),
        lattice_terminals(terminals, seed),
        campaign_seed(seed),
    );
    let construct_s = start.elapsed().as_secs_f64();
    let mids = slot_mids(T100K_SLOTS);
    let cache = PropagationCache::new(c);
    let starts: Vec<JulianDate> = mids.iter().map(|&at| slot_start(at)).collect();
    cache.prepare(&starts, &[], 1);
    let mut slot_s = Vec::new();
    let mut index_s = Vec::new();
    for &at in &mids {
        let start = Instant::now();
        let snapshot = cache.snapshot(slot_start(at));
        snapshot.visibility_index();
        index_s.push(start.elapsed().as_secs_f64());
        let fov = scheduler.fields_of_view_cohort(c, &snapshot);
        let allocs = scheduler.allocate_from_available(at, fov);
        slot_s.push(start.elapsed().as_secs_f64());
        drop(allocs);
    }
    T100k {
        construct_s,
        first_slot_s: slot_s[0],
        first_index_s: index_s[0],
        steady_slot_ms: 1e3 * median(&slot_s[1..]),
        steady_index_ms: 1e3 * median(&index_s[1..]),
    }
}

/// Which of the ROADMAP's suspects explains the 100k throughput drop.
fn t100k_verdict(
    t: &T100k,
    probe_terminals: usize,
    steady_10k_ms: f64,
    terminals_10k: usize,
) -> String {
    let per_term_10k = steady_10k_ms / terminals_10k as f64;
    let per_term_100k = t.steady_slot_ms / probe_terminals as f64;
    let state_growth = per_term_100k / per_term_10k;
    let excess_s = t.first_slot_s - t.steady_slot_ms / 1e3;
    let index_excess_s = t.first_index_s - t.steady_index_ms / 1e3;
    let first_rate = probe_terminals as f64 / t.first_slot_s;
    let steady_rate = probe_terminals as f64 / (t.steady_slot_ms / 1e3);
    let construct_us = 1e6 * t.construct_s / probe_terminals as f64;
    let cause = if state_growth > 1.3 {
        format!(
            "per-terminal state: a steady 100k slot costs {state_growth:.2}x as much per terminal as a 10k slot"
        )
    } else if excess_s > 0.25 * t.first_slot_s && index_excess_s > 0.5 * excess_s {
        "the first-touch index build: the first slot's extra time is mostly its cold index build"
            .to_string()
    } else if excess_s > 0.25 * t.first_slot_s {
        "the one-slot sample: the first slot pays cold scratch and first-touch memory that later slots reuse".to_string()
    } else {
        "none of the suspects: first and steady slots cost the same, and per-terminal cost is flat"
            .to_string()
    };
    format!(
        "{probe_terminals}-terminal probe: first slot {:.3} s ({first_rate:.0} slot_terms/s, index {:.4} s), steady slot {:.1} ms \
         ({steady_rate:.0} slot_terms/s, index {:.2} ms), scheduler construction {:.3} s; \
         per-terminal steady cost is {state_growth:.2}x the 10k run's. Verdict: {cause}. \
         Per-terminal state does cost {construct_us:.0} us per terminal at scheduler construction, \
         which the old sweep left outside its timed region.",
        t.first_slot_s, t.first_index_s, t.steady_slot_ms, t.steady_index_ms, t.construct_s
    )
}

/// The phase the workload was chosen to stress.
fn predicted_phase(workload: Workload) -> &'static str {
    match workload {
        Workload::OracleScale => "Schedule",
        Workload::IdentifiedPaper => "Observe",
        Workload::ResumableCkpt => "Checkpoint",
    }
}

/// Runs the traced pass and reports the per-layer metrics.
pub fn run(
    workload: Workload,
    size: Size,
    seed: u64,
    threads: usize,
    work_dir: &Path,
) -> Result<RunResult, String> {
    let setup = timed_setups(workload, size, seed, work_dir, 1, &mut Vec::new());
    let mut attempted = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("check failed: {what}");
            failures.push(what.to_string());
        }
    };

    // 1. Parallel reference.
    let mut parallel = Vec::new();
    let mut reference = None;
    for _ in 0..PARALLEL_REPEATS {
        let (obs, t) = workload::run_campaign(workload, size, &setup, threads, seed)?;
        attempted += 1;
        check_stream(workload, size, &setup, &obs)?;
        let fp = stream_fingerprint(&obs);
        check(*reference.get_or_insert(fp) == fp, "parallel repeats reproduce the same stream");
        parallel.push(t);
    }
    let reference = reference.ok_or("no parallel reference run")?;

    // 2. Counting pass. It also warms the main thread's heap, so the timed
    // serial runs below all start from the same allocator state.
    let mut counts = Counts::default();
    let obs = replay(workload, size, &setup, seed, &mut Probe::Count(&mut counts))?;
    check(stream_fingerprint(&obs) == reference, "the counting replay reproduces the stream");
    drop(obs);
    let ckpt = if size.checkpoint_every > 0 {
        let (ckpt, fp) = step_checkpoints(workload, size, &setup, seed, work_dir)?;
        attempted += 1;
        check(fp == reference, "the stepped resumable run reproduces the one-shot stream");
        ckpt
    } else {
        CheckpointCounts::default()
    };

    // 3 and 4, in `ROUNDS` interleaved rounds: this host's run-to-run
    // noise is larger than the effects being split, so every figure
    // below is a median over rounds.
    let mut serial = Vec::with_capacity(ROUNDS);
    let mut base = Vec::with_capacity(ROUNDS);
    let mut replay_wall = Vec::with_capacity(ROUNDS);
    let mut tracers = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let (obs, serial_s) = workload::run_campaign(workload, size, &setup, 1, seed)?;
        attempted += 1;
        check(
            stream_fingerprint(&obs) == reference,
            "the serial run reproduces the parallel stream",
        );
        drop(obs);
        serial.push(serial_s);
        base.push(if size.checkpoint_every > 0 {
            let campaign = workload::campaign(workload, &setup, 1, seed);
            let opts = workload::resume_config(&setup, 0);
            let start = Instant::now();
            let result = campaign.run_resumable(campaign_start(), size.slots, &opts);
            let t = start.elapsed().as_secs_f64();
            let (obs, _, _) =
                result.map_err(|e| format!("run_resumable without checkpoints: {e}"))?;
            attempted += 1;
            check(
                stream_fingerprint(&obs) == reference,
                "checkpoint-free resumable run reproduces the stream",
            );
            t
        } else {
            serial_s
        });

        let mut tracer = Tracer::new();
        let start = Instant::now();
        let obs = replay(workload, size, &setup, seed, &mut Probe::Trace(&mut tracer))?;
        replay_wall.push(start.elapsed().as_secs_f64());
        attempted += 1;
        check(stream_fingerprint(&obs) == reference, "the traced replay reproduces the stream");
        drop(obs);
        tracers.push(tracer);
    }

    let layer = |l: Layer| {
        let totals: Vec<f64> = tracers.iter().map(|t| t.self_total(l, &t.self_times())).collect();
        median(&totals)
    };
    let prepare_s = layer(Layer::Prepare);
    let index_s = layer(Layer::IndexBuild);
    let fov_s = layer(Layer::Fov);
    let alloc_s = layer(Layer::Alloc);
    let slot_glue_s = layer(Layer::ScheduleSlot);
    let paint_s = layer(Layer::Paint);
    let xor_s = layer(Layer::Xor);
    let tracks_s = layer(Layer::Tracks);
    let dtw_s = layer(Layer::Verdict);
    let serial_s = median(&serial);
    let base_s = median(&base);
    let checkpoint_s = serial_s - base_s;
    // The XOR and track stand-ins duplicate work the verdict does inside,
    // so they are not part of what the replay itself costs.
    let replays: Vec<f64> = tracers
        .iter()
        .zip(&replay_wall)
        .map(|(t, wall)| wall - t.total(Layer::Xor) - t.total(Layer::Tracks))
        .collect();
    let replay_s = median(&replays);

    // Schedule spans per slot, pooled over rounds: slot 0 is the first
    // slot, every later slot is steady.
    let mut first_slot = Vec::with_capacity(ROUNDS);
    let mut steady_ms = Vec::new();
    for tracer in &tracers {
        for (i, span) in tracer.spans.iter().enumerate() {
            if span.layer == Layer::ScheduleSlot {
                match span.slot {
                    0 => first_slot.push(tracer.duration(i)),
                    _ => steady_ms.push(1e3 * tracer.duration(i)),
                }
            }
        }
    }
    let first_slot_s = median(&first_slot);
    let (steady_hi_ms, steady_hi_pct) = high_percentile(&steady_ms);

    let phases = [
        ("Prepare", prepare_s + index_s),
        ("Schedule", fov_s + alloc_s + slot_glue_s),
        ("Observe", paint_s + xor_s + tracks_s + dtw_s),
        ("Checkpoint", checkpoint_s),
    ];
    let attributed: f64 = phases.iter().map(|(_, t)| t).sum();
    let unattributed_s = serial_s - attributed;
    let overhead = (replay_s - base_s) / base_s;
    let parallel_s = median(&parallel);
    let (dominant, _) =
        phases
            .iter()
            .copied()
            .fold(("none", f64::MIN), |best, p| if p.1 > best.1 { p } else { best });

    let t100k = (size.probe_terminals > 0).then(|| probe_100k(&setup, size.probe_terminals, seed));

    // Human-readable report; the JSON result line follows it.
    println!(
        "traced {}: {} terminals x {} slots, serial {serial_s:.3} s, parallel {parallel_s:.3} s at {threads} threads \
         (medians of {ROUNDS} and {PARALLEL_REPEATS} runs)",
        workload.name(),
        setup.terminals.len(),
        size.slots
    );
    for (name, t) in phases.iter().chain([("unattributed", unattributed_s)].iter()) {
        println!("  {name:<12} {t:>9.4} s  {:>6.1}% of serial", 100.0 * t / serial_s);
    }
    println!(
        "  dominant layer: {dominant} (predicted {}){}",
        predicted_phase(workload),
        if dominant == predicted_phase(workload) { "" } else { " -- MISMATCH" }
    );
    println!(
        "  traced replay {replay_s:.3} s vs untraced engine {base_s:.3} s: overhead {:+.1}%",
        100.0 * overhead
    );
    println!(
        "  schedule slots: first {:.2} ms, steady median {:.2} ms, p{steady_hi_pct:.0} {steady_hi_ms:.2} ms (of {} steady slots)",
        1e3 * first_slot_s,
        median(&steady_ms),
        steady_ms.len()
    );
    if let Some(t) = &t100k {
        let verdict =
            t100k_verdict(t, size.probe_terminals, median(&steady_ms), setup.terminals.len());
        println!("  {verdict}");
    }
    for f in &failures {
        println!("  FAILED: {f}");
    }

    let per = |num: usize, den: usize| num as f64 / den.max(1) as f64;
    let t100k = t100k.unwrap_or_default();
    let metrics = vec![
        Metric::new("prepare.s", "s", prepare_s),
        Metric::new("prepare.rows", "count", counts.prepare_rows as f64),
        Metric::new("prepare.index_build_s", "s", index_s),
        Metric::new("schedule.fov_s", "s", fov_s),
        Metric::new("schedule.alloc_s", "s", alloc_s),
        Metric::new("schedule.first_slot_s", "s", first_slot_s),
        Metric::new("schedule.steady_slot_ms", "ms", median(&steady_ms)),
        Metric::new("schedule.steady_slot_hi_ms", "ms", steady_hi_ms),
        Metric::new(
            "schedule.visible_per_term_slot",
            "count",
            per(counts.visible, counts.term_slots),
        ),
        Metric::new("schedule.eligible_share", "fraction", per(counts.eligible, counts.visible)),
        Metric::new(
            "schedule.index_candidates_per_visible",
            "ratio",
            per(counts.index_candidates, counts.visible),
        ),
        Metric::new("schedule.t100k_first_slot_s", "s", t100k.first_slot_s),
        Metric::new("schedule.t100k_steady_slot_ms", "ms", t100k.steady_slot_ms),
        Metric::new("schedule.t100k_construct_s", "s", t100k.construct_s),
        Metric::new("observe.paint_s", "s", paint_s),
        Metric::new("observe.xor_s", "s", xor_s),
        Metric::new("observe.tracks_s", "s", tracks_s),
        Metric::new("observe.dtw_s", "s", dtw_s),
        Metric::new(
            "observe.candidates_per_slot",
            "count",
            per(counts.candidates, counts.verdicts),
        ),
        Metric::new("observe.dtw_cells_exact", "count", per(counts.dtw_exact, counts.dtw_counted)),
        Metric::new(
            "observe.dtw_cells_coarse",
            "count",
            per(counts.dtw_coarse, counts.dtw_counted),
        ),
        Metric::new("observe.dtw_prune_ratio", "ratio", per(counts.dtw_exact, counts.dtw_full)),
        Metric::new("checkpoint.s", "s", checkpoint_s),
        Metric::new("checkpoint.write_s", "s", ckpt.write_s),
        Metric::new("checkpoint.count", "count", ckpt.count as f64),
        Metric::new("checkpoint.bytes_total", "bytes", ckpt.bytes_total as f64),
        Metric::new("checkpoint.bytes_max", "bytes", ckpt.bytes_max as f64),
        Metric::new("engine.unattributed_s", "s", unattributed_s),
        Metric::new("engine.parallel_speedup", "ratio", serial_s / parallel_s),
        Metric::new("engine.threads", "count", threads as f64),
        Metric::new("trace.overhead_share", "fraction", overhead),
    ];
    Ok(RunResult {
        correct: failures.is_empty(),
        attempted,
        failed: failures.len().min(attempted),
        metrics,
    })
}
