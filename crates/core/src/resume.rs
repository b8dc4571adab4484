//! Crash-resilient campaign execution: versioned checkpoint/restore with
//! bit-identical resume, plus a supervision layer that retries, backs
//! off, and quarantines failing shard workers instead of letting one
//! panic sink a multi-hour run.
//!
//! # Execution model
//!
//! [`Campaign::run_resumable`] is the campaign engine; [`Campaign::run`]
//! calls it with checkpointing off. It splits the slot window into
//! *segments* of [`ResumeConfig::checkpoint_every`] slots (one segment
//! when checkpointing is off). Each segment runs the three campaign
//! phases (prepare → schedule → observe, see [`crate::campaign`]), and
//! every stateful component is owned by the engine between segments:
//!
//! * per-terminal scheduler state ([`TerminalSchedState`]: RNG stream +
//!   hysteresis key), kept shard-layout free so a resume may use a
//!   different shard or thread count and still produce the same bits;
//! * in identified mode, per-terminal dish state ([`DishState`]) and the
//!   previous slot capture the XOR differencing baselines against;
//! * the accumulated observation stream and the supervisor's failure
//!   ledger.
//!
//! With checkpointing on, the full state is serialized after each segment
//! into a checksummed [`starsense_checkpoint`] snapshot and streamed to
//! disk with [`write_snapshot_rotating`] (atomic rename + a rotating
//! last-good backup). A later call with the same campaign finds the
//! snapshot via [`load_latest`], validates a configuration fingerprint,
//! restores, and continues — the resumed run's observation stream is
//! byte-identical to an uninterrupted one because segmentation never
//! crosses a slot and every cache rebuilt per segment (propagation table,
//! track cache) is a pure function of the catalog.
//!
//! # Supervision
//!
//! Each schedule shard and each observation terminal is a supervised
//! *work unit*. An attempt can fail by panicking (caught with
//! `catch_unwind`, including panics injected by the deterministic
//! [`starsense_faults::FaultPlan::worker_fault`] channel) or by a *virtual* deadline
//! overrun reported by the same fault plan — no wall clock ever feeds a
//! decision, so chaos campaigns stay bit-reproducible. Failed attempts
//! are retried up to [`ResumeConfig::worker_retries`] times with bounded
//! exponential backoff (deterministically jittered; the sleep is skipped
//! entirely when the base is zero). A unit that exhausts its budget is
//! charged one *unit failure*; after
//! [`ResumeConfig::worker_quarantine_after`] unit failures the unit is
//! quarantined for the rest of the campaign and its slots degrade to
//! [`DegradeReason::WorkerFailed`] — visible in [`DegradationStats`],
//! never silently dropped. With quarantine disabled (`0`) the engine
//! fails fast with [`CampaignError::WorkerExhausted`].
//!
//! # Wire format
//!
//! The snapshot payload is five sections in the checkpoint container
//! (see `DESIGN.md` for the byte-level layout): campaign metadata and
//! fingerprint ([`SEC_META`]), scheduler states ([`SEC_SCHED`]), dish
//! states and baselines ([`SEC_DISH`], empty in oracle mode), accumulated
//! observations ([`SEC_OBS`]), and the supervisor ledger ([`SEC_STATS`]).
//!
//! [`SEC_OBS`] is the observation log: the encoded observations back to
//! back, with no count prefix — the decoder reads exactly
//! `done × terminals` of them (both from [`SEC_META`]) and rejects
//! leftover bytes. Without a prefix the section only ever grows at its
//! end, so the engine keeps it encoded between checkpoints, appends each
//! segment's observations, and extends the section's FNV-1a over the
//! appended tail alone: a checkpoint encodes and hashes only the slots
//! added since the previous one. The section checksum is therefore
//! exactly [`fingerprint_observations`] of the stream so far. On resume
//! the log is seeded from the validated section bytes and the checksum
//! [`Snapshot::parse`] already verified.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use crate::campaign::{
    payload_message, Campaign, CampaignError, SatObs, ShardFailure, SlotObservation,
};
use crate::degrade::{DegradationStats, DegradeReason, SlotOutcome};
use starsense_astro::time::JulianDate;
use starsense_checkpoint::{
    fnv1a, fnv1a_extend, load_latest, write_snapshot_rotating, ByteReader, ByteWriter,
    CheckpointError, LoadedFrom, SectionRef, Snapshot, FNV1A_EMPTY,
};
use starsense_constellation::PropagationCache;
use starsense_faults::{FaultRng, PropagationSchedule, WorkerFault};
use starsense_ident::{
    slot_boundary_epochs, DishSimulator, DishState, SlotCapture, CANDIDATE_SAMPLES_PER_SLOT,
};
use starsense_obstruction::ObstructionMap;
use starsense_scheduler::slots::{slot_index, slot_start, SLOT_PERIOD_SECONDS};
use starsense_scheduler::{Allocation, SiteGeometry, TerminalSchedState};

/// Campaign-state payload layout version (inside the checkpoint
/// container, which versions itself separately). Version 3 dropped the
/// observation count that prefixed [`SEC_OBS`].
pub const CAMPAIGN_STATE_VERSION: u32 = 3;

/// Section id: campaign metadata + configuration fingerprint.
pub const SEC_META: u32 = 1;
/// Section id: per-terminal scheduler states (RNG + hysteresis).
pub const SEC_SCHED: u32 = 2;
/// Section id: per-terminal dish states + differencing baselines.
pub const SEC_DISH: u32 = 3;
/// Section id: accumulated slot observations, encoded back to back
/// (no count prefix; see the module docs).
pub const SEC_OBS: u32 = 4;
/// Section id: supervisor ledger (retries, failures, quarantine).
pub const SEC_STATS: u32 = 5;

/// Configuration of the resumable engine: where to checkpoint, how
/// often, and the supervision budget for failing workers.
#[derive(Debug, Clone)]
pub struct ResumeConfig {
    /// Snapshot path. The engine also writes `<path>.prev` (rotating
    /// last-good backup) and `<path>.tmp` (atomic-write staging).
    pub checkpoint_path: PathBuf,
    /// Slots per segment; a checkpoint is written after every segment.
    /// `0` disables checkpointing: the run executes as one segment,
    /// reads and writes nothing, and ignores
    /// [`ResumeConfig::checkpoint_path`].
    pub checkpoint_every: usize,
    /// Retries per work-unit attempt budget: a unit gets `1 + retries`
    /// attempts per segment before it is charged a unit failure.
    pub worker_retries: u32,
    /// Unit failures before a work unit is quarantined for the rest of
    /// the campaign. `0` disables quarantine: the first exhausted unit
    /// fails the run with [`CampaignError::WorkerExhausted`].
    pub worker_quarantine_after: u32,
    /// Base backoff before a retry, milliseconds. `0` (the default, and
    /// what tests use) skips the sleep entirely; the backoff *schedule*
    /// stays deterministic either way.
    pub backoff_base_ms: u64,
    /// Upper bound on the exponential backoff, milliseconds.
    pub backoff_cap_ms: u64,
    /// Stop (successfully, with [`ResumeReport::completed`] `false`)
    /// after writing this many checkpoints. This is the in-process kill
    /// switch the chaos tests use to simulate a crash at an exact
    /// checkpoint boundary.
    pub stop_after_checkpoints: Option<usize>,
}

impl Default for ResumeConfig {
    /// The plain run [`Campaign::run`] uses: checkpointing off and no
    /// supervision budget — the first failed work unit fails the run.
    fn default() -> Self {
        ResumeConfig {
            checkpoint_path: PathBuf::new(),
            checkpoint_every: 0,
            worker_retries: 0,
            worker_quarantine_after: 0,
            backoff_base_ms: 0,
            backoff_cap_ms: 1_000,
            stop_after_checkpoints: None,
        }
    }
}

impl ResumeConfig {
    /// A resumable run checkpointing to `path` with the default cadence
    /// (240 slots — one hour of 15-second slots) and supervision budget
    /// (2 retries per attempt budget, quarantine after 3 unit failures,
    /// no backoff sleep).
    pub fn new(path: impl Into<PathBuf>) -> ResumeConfig {
        ResumeConfig {
            checkpoint_path: path.into(),
            checkpoint_every: 240,
            worker_retries: 2,
            worker_quarantine_after: 3,
            ..ResumeConfig::default()
        }
    }

    /// The deterministic backoff delay before retry `attempt` of `unit`:
    /// exponential in the attempt number, capped, plus a jitter drawn
    /// from a counter-based stream keyed by `(seed, unit, attempt)` —
    /// two runs of the same campaign back off identically. The value is
    /// defined (and tested) even when `backoff_base_ms == 0`, in which
    /// case the engine never sleeps at all.
    pub fn backoff_delay_ms(&self, seed: u64, unit: u64, attempt: u32) -> u64 {
        let base = self.backoff_base_ms.saturating_mul(1u64 << attempt.min(16));
        let capped = base.min(self.backoff_cap_ms.max(self.backoff_base_ms));
        let mut rng =
            FaultRng::from_salt(seed ^ unit.rotate_left(17) ^ (u64::from(attempt) << 1 | 1));
        capped.saturating_add(rng.below(self.backoff_base_ms.max(1)))
    }
}

/// What the resumable engine did, beyond the observations themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeReport {
    /// Slot offset a snapshot restored to, or `None` for a fresh start.
    pub resumed_at_slot: Option<usize>,
    /// Which file the restored snapshot came from.
    pub loaded_from: Option<LoadedFrom>,
    /// Snapshot files that existed but failed validation and were
    /// passed over (recovery fell back to the last good copy).
    pub corrupt_discarded: u32,
    /// Checkpoints written by this call.
    pub checkpoints_written: usize,
    /// Segments executed by this call.
    pub segments_run: usize,
    /// Whether the campaign ran to its final slot. `false` only when
    /// [`ResumeConfig::stop_after_checkpoints`] stopped it early.
    pub completed: bool,
}

/// FNV fingerprint of an observation stream's full bit pattern — every
/// field of every observation, floats by bit pattern. Two streams
/// fingerprint equal iff they are byte-identical under the snapshot
/// encoding, which is the equality the resume tests assert.
pub fn fingerprint_observations(obs: &[SlotObservation]) -> u64 {
    let mut w = ByteWriter::new();
    obs.iter().fold(FNV1A_EMPTY, |h, o| {
        w.clear();
        encode_observation(&mut w, o);
        fnv1a_extend(h, w.as_bytes())
    })
}

/// The [`SEC_OBS`] payload of an observation stream, kept encoded between
/// checkpoints with its running FNV-1a.
struct ObsLog {
    bytes: ByteWriter,
    /// `fnv1a` of `bytes`, i.e. [`fingerprint_observations`] of the
    /// stream the log encodes.
    fnv: u64,
}

impl ObsLog {
    fn new() -> ObsLog {
        ObsLog { bytes: ByteWriter::new(), fnv: FNV1A_EMPTY }
    }

    /// Encodes `obs` onto the end of the log and hashes only what it
    /// appended.
    fn append(&mut self, obs: &[SlotObservation]) {
        let start = self.bytes.len();
        for o in obs {
            encode_observation(&mut self.bytes, o);
        }
        self.fnv = fnv1a_extend(self.fnv, &self.bytes.as_bytes()[start..]);
    }
}

/// Engine-owned mutable state: everything that must survive a crash.
struct EngineState {
    sched: Vec<TerminalSchedState>,
    /// Per-terminal dish states; identified mode only (empty in oracle
    /// mode, which paints no dish).
    dish: Vec<DishState>,
    /// Per-terminal differencing baselines, paired with `dish`.
    prev: Vec<Option<SlotCapture>>,
    obs: Vec<SlotObservation>,
    done: usize,
    /// Worker attempts re-run by the supervisor (first tries excluded).
    retries: usize,
    /// Unit failures charged so far, per unit id.
    failures: BTreeMap<u64, u32>,
    /// Units quarantined for the rest of the campaign.
    quarantined: BTreeSet<u64>,
}

/// One supervised unit's outcome for a segment.
struct UnitRun<T> {
    /// `Some` iff an attempt completed; `None` means every attempt in
    /// the budget failed (or the unit was already quarantined).
    value: Option<T>,
    /// Attempts that failed before success or exhaustion.
    failed_attempts: u32,
    /// The last attempt's failure, when all attempts failed.
    last_failure: Option<ShardFailure>,
}

/// Observation-phase unit ids live in a disjoint range from schedule
/// shards: terminal `t` supervises as `2^32 + t`.
fn observe_unit_id(tid: usize) -> u64 {
    (1u64 << 32) | tid as u64
}

impl<'a> Campaign<'a> {
    /// Runs `slots` consecutive slots starting at the slot containing
    /// `from`, checkpointing to [`ResumeConfig::checkpoint_path`] every
    /// [`ResumeConfig::checkpoint_every`] slots and resuming from an
    /// existing snapshot when one validates. The returned observation
    /// stream is the same for every checkpoint cadence (a cadence of `0`
    /// is [`Campaign::run`]) as long as no work unit fails, and
    /// byte-identical across any kill/resume schedule at checkpoint
    /// boundaries — for every thread count and shard count.
    pub fn run_resumable(
        &self,
        from: JulianDate,
        slots: usize,
        opts: &ResumeConfig,
    ) -> Result<(Vec<SlotObservation>, DegradationStats, ResumeReport), CampaignError> {
        let threads = self.worker_threads();
        // Query each slot at its midpoint: slot boundaries are derived from
        // the instant, and a midpoint query can never fall on the wrong
        // side of a boundary through float rounding.
        let first_mid = slot_start(from).plus_seconds(SLOT_PERIOD_SECONDS / 2.0);
        let first_slot = slot_index(first_mid);
        let mids: Vec<JulianDate> =
            (0..slots).map(|k| first_mid.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS)).collect();
        // The fingerprint guards snapshots, so it is computed only when
        // checkpointing is on; `None` doubles as "checkpointing off".
        let fingerprint =
            (opts.checkpoint_every > 0).then(|| self.config_fingerprint(first_slot, slots));

        // The fault schedule spans the whole campaign window and the
        // mask is indexed by campaign-global slot offset, so a segmented
        // replay consults exactly the bits one uninterrupted pass would.
        let schedule = self.config.faults.enabled().then(|| {
            let mut ids: Vec<u32> = self.constellation.sats().iter().map(|s| s.norad_id).collect();
            ids.sort_unstable();
            let schedule = PropagationSchedule::build(
                &self.config.faults,
                &ids,
                first_slot,
                slots,
                self.config.quarantine_after,
            );
            (schedule, ids)
        });

        let mut report = ResumeReport {
            resumed_at_slot: None,
            loaded_from: None,
            corrupt_discarded: 0,
            checkpoints_written: 0,
            segments_run: 0,
            completed: false,
        };

        // Resume if a snapshot validates; otherwise start fresh. A
        // snapshot for a *different* campaign (config, window, or seed)
        // is a hard error, not a silent restart — resuming someone
        // else's state would fabricate data. The encoded observation log
        // exists only while checkpointing: a run without checkpoints
        // builds none.
        let (mut state, mut checkpointing) = match fingerprint {
            Some(fingerprint) => match self.load_state(opts, fingerprint, slots, &mut report)? {
                Some((state, log)) => (state, Some((fingerprint, log))),
                None => (self.fresh_state(), Some((fingerprint, ObsLog::new()))),
            },
            None => (self.fresh_state(), None),
        };

        // Site geometry is a pure function of (terminal, policy): built
        // once per call, in parallel over the shard ranges, and shared by
        // every segment's schedule shards.
        let ranges = crate::campaign::shard_ranges(self.terminals.len(), self.shard_count());
        let build = |_, range: std::ops::Range<usize>| -> Vec<SiteGeometry> {
            let policy = &self.config.policy;
            self.terminals[range].iter().map(|t| SiteGeometry::new(t.clone(), policy)).collect()
        };
        let sites: Vec<SiteGeometry> =
            parallel_units(ranges, threads, &build)?.into_iter().flatten().collect();

        while state.done < slots {
            let seg_len = match opts.checkpoint_every {
                0 => slots - state.done,
                n => n.min(slots - state.done),
            };
            let seg_mids = &mids[state.done..state.done + seg_len];
            let logged = state.obs.len();
            self.run_segment(&mut state, &sites, seg_mids, threads, schedule.as_ref(), opts)?;
            report.segments_run += 1;
            if let Some((fingerprint, log)) = &mut checkpointing {
                log.append(&state.obs[logged..]);
                self.write_checkpoint(&state, log, *fingerprint, first_mid, slots, opts)?;
                report.checkpoints_written += 1;
                if let Some(stop) = opts.stop_after_checkpoints {
                    if report.checkpoints_written >= stop && state.done < slots {
                        let stats = self.assemble_stats(&state, schedule.as_ref());
                        return Ok((state.obs, stats, report));
                    }
                }
            }
        }

        report.completed = true;
        let stats = self.assemble_stats(&state, schedule.as_ref());
        Ok((state.obs, stats, report))
    }

    /// Initial engine state: fresh per-terminal scheduler streams (the
    /// same `f(seed, terminal id)` initialization every shard scheduler
    /// derives), blank dishes and no baselines in identified mode, no
    /// ledger.
    fn fresh_state(&self) -> EngineState {
        let sched =
            self.terminals.iter().map(|t| TerminalSchedState::initial(self.seed, t.id)).collect();
        let dish_terminals = if self.config.identified { &self.terminals[..] } else { &[] };
        EngineState {
            sched,
            dish: dish_terminals
                .iter()
                .map(|t| DishSimulator::new(t.location).export_state())
                .collect(),
            prev: dish_terminals.iter().map(|_| None).collect(),
            obs: Vec::new(),
            done: 0,
            retries: 0,
            failures: BTreeMap::new(),
            quarantined: BTreeSet::new(),
        }
    }

    /// Folds the ledger and the fault schedule's quarantine counters
    /// into the observation tallies.
    fn assemble_stats(
        &self,
        state: &EngineState,
        schedule: Option<&(PropagationSchedule, Vec<u32>)>,
    ) -> DegradationStats {
        let mut stats = DegradationStats::collect(&state.obs);
        if let Some((schedule, _)) = schedule {
            stats.quarantined_sats = schedule.quarantined_count();
            stats.masked_propagations = schedule.masked_slot_count();
        }
        stats.worker_retries = state.retries;
        stats.quarantined_workers = state.quarantined.len();
        stats
    }

    /// Executes one segment — prepare, supervised schedule, supervised
    /// observe — over the slots at `seg_mids` and folds the results into
    /// `state`.
    fn run_segment(
        &self,
        state: &mut EngineState,
        sites: &[SiteGeometry],
        seg_mids: &[JulianDate],
        threads: usize,
        schedule: Option<&(PropagationSchedule, Vec<u32>)>,
        opts: &ResumeConfig,
    ) -> Result<(), CampaignError> {
        let done = state.done;
        let seg_len = seg_mids.len();
        let seg_first_slot = slot_index(seg_mids[0]);

        // Per-segment propagation table. Propagation is a pure function
        // of (catalog, epoch), so rebuilding per segment reproduces the
        // uninterrupted run's values bit for bit.
        let cache = PropagationCache::new(self.constellation);
        let starts: Vec<JulianDate> = seg_mids.iter().map(|&at| slot_start(at)).collect();
        let boundaries: Vec<JulianDate> = if self.config.identified {
            starts
                .iter()
                .flat_map(|&s| slot_boundary_epochs(s, CANDIDATE_SAMPLES_PER_SLOT))
                .collect()
        } else {
            Vec::new()
        };
        cache.prepare(&starts, &boundaries, threads);

        // ---- Supervised schedule phase (unit = shard) -------------------
        let ranges = crate::campaign::shard_ranges(self.terminals.len(), self.shard_count());
        let sched_states = &state.sched;
        let quarantined = &state.quarantined;
        let run_shard = |s: usize,
                         range: std::ops::Range<usize>|
         -> UnitRun<(Vec<Vec<Allocation>>, Vec<TerminalSchedState>)> {
            // Every attempt steps a fresh copy of the segment-start
            // states; the merge below commits them only on success.
            let body = || {
                let mut states = sched_states[range.clone()].to_vec();
                let columns = self.schedule_slots(
                    &sites[range.clone()],
                    &mut states,
                    &cache,
                    seg_mids,
                    done,
                    schedule,
                );
                (columns, states)
            };
            self.run_supervised(
                s as u64,
                seg_first_slot,
                quarantined.contains(&(s as u64)),
                opts,
                body,
            )
        };
        let shard_runs = parallel_units(ranges.clone(), threads, &run_shard)?;

        // Sequential, unit-ordered merge: commit successful shards'
        // scheduler states and allocation columns and charge failures. A
        // failed shard's terminals keep no column.
        let mut per_terminal: Vec<Option<Vec<Allocation>>> =
            self.terminals.iter().map(|_| None).collect();
        for (s, run) in shard_runs.into_iter().enumerate() {
            let start = ranges[s].start;
            if let Some((columns, new_states)) = self.settle_unit(state, s as u64, run, opts)? {
                for (offset, (column, st)) in columns.into_iter().zip(new_states).enumerate() {
                    per_terminal[start + offset] = Some(column);
                    state.sched[start + offset] = st;
                }
            }
        }

        // ---- Supervised observation phase (unit = terminal) -------------
        // Each unit takes its allocation column by value and drops it once
        // observed, so allocations and observations are not all alive at
        // once. A unit that fails hands the column back for degradation.
        // The advanced dish state comes back boxed: a dish map and its
        // baseline are ~4 KB inline, and every unit result would reserve
        // that space even in oracle mode.
        let dish_states = &state.dish;
        let prev_caps = &state.prev;
        let quarantined = &state.quarantined;
        let run_terminal = |tid: usize, allocs: Option<Vec<Allocation>>| {
            let allocs = allocs?;
            let body = || {
                if !self.config.identified {
                    let obs = self.observe_terminal_segment(&cache, tid, None, &allocs);
                    return (obs, None);
                }
                let mut dish = DishSimulator::new(self.terminals[tid].location);
                dish.restore_state(dish_states[tid].clone());
                let mut prev = prev_caps[tid].clone();
                let obs = self.observe_terminal_segment(
                    &cache,
                    tid,
                    Some((&mut dish, &mut prev)),
                    &allocs,
                );
                (obs, Some(Box::new((dish.export_state(), prev))))
            };
            let unit = observe_unit_id(tid);
            let run =
                self.run_supervised(unit, seg_first_slot, quarantined.contains(&unit), opts, body);
            let leftover = run.value.is_none().then_some(allocs);
            Some((run, leftover))
        };
        let terminal_runs = parallel_units(per_terminal, threads, &run_terminal)?;

        let mut columns: Vec<Vec<SlotObservation>> = Vec::with_capacity(self.terminals.len());
        for (tid, run) in terminal_runs.into_iter().enumerate() {
            let column = match run {
                // Schedule shard failed: the terminal has no allocations;
                // synthesize fully degraded observations straight from the
                // slot grid. Dish state is not advanced — deterministic,
                // and honest: no frame was ever painted.
                None => self.synthesize_scheduleless(tid, seg_mids),
                Some((run, leftover)) => {
                    match self.settle_unit(state, observe_unit_id(tid), run, opts)? {
                        Some((obs, dish)) => {
                            if let Some(advanced) = dish {
                                let (dish, prev) = *advanced;
                                state.dish[tid] = dish;
                                state.prev[tid] = prev;
                            }
                            obs
                        }
                        // Observation unit failed: allocations exist, so
                        // keep the scheduler's truth but degrade the
                        // identification.
                        None => match leftover {
                            Some(allocs) => self.synthesize_observeless(tid, &allocs),
                            None => self.synthesize_scheduleless(tid, seg_mids),
                        },
                    }
                }
            };
            columns.push(column);
        }

        // Slot-major, terminal-minor merge, appended to the accumulated
        // stream — segments partition the slot axis, so concatenation
        // preserves the uninterrupted run's global order.
        let mut iters: Vec<std::vec::IntoIter<SlotObservation>> =
            columns.into_iter().map(Vec::into_iter).collect();
        state.obs.reserve(seg_len * iters.len());
        for _ in 0..seg_len {
            for it in &mut iters {
                if let Some(obs) = it.next() {
                    state.obs.push(obs);
                }
            }
        }
        state.done += seg_len;
        Ok(())
    }

    /// Runs one supervised unit: up to `1 + worker_retries` attempts,
    /// each preceded (after the first) by a deterministic bounded
    /// backoff, with injected faults drawn from the campaign's fault
    /// plan and real panics caught at the attempt boundary.
    fn run_supervised<T>(
        &self,
        unit: u64,
        seg_first_slot: i64,
        quarantined: bool,
        opts: &ResumeConfig,
        body: impl Fn() -> T,
    ) -> UnitRun<T> {
        if quarantined {
            return UnitRun { value: None, failed_attempts: 0, last_failure: None };
        }
        let mut last_failure = None;
        let mut failed = 0u32;
        for attempt in 0..=opts.worker_retries {
            if attempt > 0 && opts.backoff_base_ms > 0 {
                let delay = opts.backoff_delay_ms(self.seed, unit, attempt);
                std::thread::sleep(std::time::Duration::from_millis(delay));
            }
            let injected = self.config.faults.worker_fault(unit, seg_first_slot, attempt);
            let outcome = if injected == WorkerFault::Overrun {
                // A virtual deadline miss: the attempt is charged without
                // running (its work would have been discarded anyway).
                Err(ShardFailure::DeadlineOverrun)
            } else {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if injected == WorkerFault::Panic {
                        #[expect(
                            clippy::panic,
                            reason = "the fault plan injects a real worker panic to exercise the catch_unwind supervisor"
                        )]
                        std::panic::panic_any(format!(
                            "injected worker panic: unit {unit}, segment slot {seg_first_slot}, attempt {attempt}"
                        ));
                    }
                    body()
                }))
                .map_err(|p| ShardFailure::Panicked { payload: payload_message(p.as_ref()) })
            };
            match outcome {
                Ok(v) => {
                    return UnitRun { value: Some(v), failed_attempts: failed, last_failure: None }
                }
                Err(f) => {
                    failed += 1;
                    last_failure = Some(f);
                }
            }
        }
        UnitRun { value: None, failed_attempts: failed, last_failure }
    }

    /// Settles a unit's segment outcome against the ledger: counts
    /// retries, charges unit failures, quarantines, and fails fast when
    /// quarantine is disabled. Returns the unit's value, or `None` when
    /// its slots must degrade.
    fn settle_unit<T>(
        &self,
        state: &mut EngineState,
        unit: u64,
        run: UnitRun<T>,
        opts: &ResumeConfig,
    ) -> Result<Option<T>, CampaignError> {
        match run.value {
            Some(v) => {
                state.retries += run.failed_attempts as usize;
                Ok(Some(v))
            }
            None if run.failed_attempts == 0 => Ok(None), // already quarantined
            None => {
                // Budget exhausted: the final failed attempt is not a
                // retry (nothing followed it).
                state.retries += run.failed_attempts.saturating_sub(1) as usize;
                let failure = run.last_failure.unwrap_or(ShardFailure::DeadlineOverrun);
                if opts.worker_quarantine_after == 0 {
                    return Err(CampaignError::WorkerExhausted {
                        unit,
                        attempts: run.failed_attempts,
                        failure,
                    });
                }
                let count = state.failures.entry(unit).or_insert(0);
                *count += 1;
                if *count >= opts.worker_quarantine_after {
                    state.quarantined.insert(unit);
                }
                Ok(None)
            }
        }
    }

    /// Fully degraded observations for a terminal whose schedule shard
    /// failed: no allocation ever existed, so availability and truth are
    /// honestly empty.
    fn synthesize_scheduleless(&self, tid: usize, seg_mids: &[JulianDate]) -> Vec<SlotObservation> {
        let lon = self.terminals[tid].location.lon_deg;
        seg_mids
            .iter()
            .map(|&at| {
                let start = slot_start(at);
                SlotObservation {
                    terminal_id: tid,
                    slot: slot_index(at),
                    slot_start: start,
                    local_hour: start.local_solar_hour(lon),
                    available: Vec::new(),
                    chosen: None,
                    truth_id: None,
                    outcome: SlotOutcome::NoData(DegradeReason::WorkerFailed),
                }
            })
            .collect()
    }

    /// Degraded observations for a terminal whose observation unit
    /// failed after scheduling succeeded: the scheduler's availability
    /// and ground truth are kept, only the identification is lost.
    fn synthesize_observeless(&self, tid: usize, allocs: &[Allocation]) -> Vec<SlotObservation> {
        let lon = self.terminals[tid].location.lon_deg;
        allocs
            .iter()
            .map(|alloc| SlotObservation {
                terminal_id: tid,
                slot: alloc.slot,
                slot_start: alloc.slot_start,
                local_hour: alloc.slot_start.local_solar_hour(lon),
                available: alloc.available.iter().map(SatObs::from).collect(),
                chosen: None,
                truth_id: alloc.chosen_id(),
                outcome: SlotOutcome::NoData(DegradeReason::WorkerFailed),
            })
            .collect()
    }

    // ---- Fingerprint ----------------------------------------------------

    /// FNV fingerprint of everything that determines the campaign's
    /// output bits: policy weights, mode, fault plan, seed, the catalog
    /// (every satellite's id, true elements and published TLE lines),
    /// terminals with every sky-mask sector, and the slot window.
    /// Deliberately *excluded*: thread count, shard count, and every
    /// resume knob — those are execution choices the determinism contract
    /// ranges over, so a snapshot may be resumed under any of them.
    fn config_fingerprint(&self, first_slot: i64, total_slots: usize) -> u64 {
        let mut w = ByteWriter::with_capacity(256);
        w.put_u32(CAMPAIGN_STATE_VERSION);
        let p = &self.config.policy;
        w.put_f64_bits(p.min_elevation_deg);
        w.put_f64_bits(p.w_elevation);
        w.put_f64_bits(p.w_dark_low_elevation);
        w.put_f64_bits(p.w_age);
        w.put_f64_bits(p.w_sunlit);
        w.put_f64_bits(p.w_load);
        w.put_f64_bits(p.w_hysteresis);
        match p.gso_half_angle_deg {
            Some(v) => {
                w.put_bool(true);
                w.put_f64_bits(v);
            }
            None => w.put_bool(false),
        }
        w.put_f64_bits(p.w_gso_margin);
        w.put_f64_bits(p.temperature);
        w.put_f64_bits(p.max_age_days);
        w.put_bool(self.config.identified);
        w.put_f64_bits(self.config.min_margin);
        w.put_u32(self.config.frame_retries);
        w.put_u32(self.config.quarantine_after);
        w.put_u64(self.config.faults.seed());
        let r = self.config.faults.rates();
        w.put_f64_bits(r.frame_drop);
        w.put_f64_bits(r.frame_stale);
        w.put_f64_bits(r.frame_corrupt);
        w.put_f64_bits(r.tle_corrupt);
        w.put_f64_bits(r.propagation_fail);
        w.put_f64_bits(r.probe_burst);
        w.put_f64_bits(r.worker_panic);
        w.put_f64_bits(r.worker_overrun);
        w.put_u64(self.seed);
        let sats = self.constellation.sats();
        w.put_usize(sats.len());
        for sat in sats {
            w.put_u32(sat.norad_id);
            let e = &sat.elements;
            w.put_u32(e.norad_id);
            for v in [e.epoch.0, e.no_kozai, e.ecco, e.inclo, e.nodeo, e.argpo, e.mo, e.bstar] {
                w.put_f64_bits(v);
            }
            let (line1, line2) = sat.published.format_lines();
            w.put_str(&line1);
            w.put_str(&line2);
        }
        w.put_usize(self.terminals.len());
        for t in &self.terminals {
            w.put_usize(t.id);
            w.put_str(&t.name);
            w.put_f64_bits(t.location.lat_deg);
            w.put_f64_bits(t.location.lon_deg);
            w.put_f64_bits(t.location.alt_km);
            let sectors = t.mask.sectors();
            w.put_usize(sectors.len());
            for sector in sectors {
                w.put_f64_bits(sector.az_from_deg);
                w.put_f64_bits(sector.az_to_deg);
                w.put_f64_bits(sector.max_blocked_elevation_deg);
            }
        }
        w.put_i64(first_slot);
        w.put_usize(total_slots);
        fnv1a(&w.into_bytes())
    }

    // ---- Encode ---------------------------------------------------------

    /// Serializes the full engine state into a checkpoint snapshot and
    /// streams it to [`ResumeConfig::checkpoint_path`]. `log` already
    /// holds `state.obs` encoded and hashed; every other section is small
    /// and re-encoded each time.
    fn write_checkpoint(
        &self,
        state: &EngineState,
        log: &ObsLog,
        fingerprint: u64,
        first_mid: JulianDate,
        total_slots: usize,
        opts: &ResumeConfig,
    ) -> Result<(), CampaignError> {
        let mut meta = ByteWriter::with_capacity(64);
        meta.put_u32(CAMPAIGN_STATE_VERSION);
        meta.put_u64(fingerprint);
        meta.put_f64_bits(first_mid.0);
        meta.put_usize(total_slots);
        meta.put_usize(state.done);
        meta.put_usize(self.terminals.len());

        let mut sched = ByteWriter::with_capacity(state.sched.len() * 48);
        for s in &state.sched {
            sched.put_usize(s.terminal_id);
            for word in s.rng_state {
                sched.put_u64(word);
            }
            match s.previous {
                Some(id) => {
                    sched.put_bool(true);
                    sched.put_u32(id);
                }
                None => sched.put_bool(false),
            }
        }

        let mut dish = ByteWriter::with_capacity(state.dish.len() * 1100);
        for (d, prev) in state.dish.iter().zip(&state.prev) {
            encode_map(&mut dish, &d.map);
            dish.put_u32(d.slots_since_reset);
            dish.put_bool(d.reset_since_fetch);
            match prev {
                Some(cap) => {
                    dish.put_bool(true);
                    dish.put_i64(cap.slot);
                    dish.put_f64_bits(cap.slot_start.0);
                    encode_map(&mut dish, &cap.map);
                    dish.put_bool(cap.after_reset);
                }
                None => dish.put_bool(false),
            }
        }

        let mut ledger = ByteWriter::with_capacity(64);
        ledger.put_usize(state.retries);
        ledger.put_usize(state.failures.len());
        for (unit, count) in &state.failures {
            ledger.put_u64(*unit);
            ledger.put_u32(*count);
        }
        ledger.put_usize(state.quarantined.len());
        for unit in &state.quarantined {
            ledger.put_u64(*unit);
        }

        let sections = [
            SectionRef::new(SEC_META, meta.as_bytes()),
            SectionRef::new(SEC_SCHED, sched.as_bytes()),
            SectionRef::new(SEC_DISH, dish.as_bytes()),
            SectionRef::with_checksum(SEC_OBS, log.bytes.as_bytes(), log.fnv),
            SectionRef::new(SEC_STATS, ledger.as_bytes()),
        ];
        Ok(write_snapshot_rotating(&opts.checkpoint_path, &sections)?)
    }

    // ---- Decode ---------------------------------------------------------

    /// Loads and validates the newest snapshot, if any, with its
    /// observation log. `Ok(None)` means "start fresh" (no file, or only
    /// corrupt files — the corrupt count is reported either way). A snapshot whose fingerprint or window
    /// disagrees with this campaign is a hard error.
    fn load_state(
        &self,
        opts: &ResumeConfig,
        fingerprint: u64,
        total_slots: usize,
        report: &mut ResumeReport,
    ) -> Result<Option<(EngineState, ObsLog)>, CampaignError> {
        if opts.checkpoint_every == 0 {
            return Ok(None);
        }
        let outcome = load_latest(&opts.checkpoint_path)?;
        report.corrupt_discarded = outcome.corrupt_discarded;
        let (bytes, origin) = match outcome.snapshot {
            Some(found) => found,
            None => return Ok(None),
        };
        let snap = Snapshot::parse(&bytes)?;

        let mut meta = ByteReader::new(snap.require_section(SEC_META)?);
        let version = meta.get_u32("campaign state version")?;
        if version != CAMPAIGN_STATE_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version }.into());
        }
        let stored_fp = meta.get_u64("config fingerprint")?;
        if stored_fp != fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                expected: fingerprint,
                found: stored_fp,
            }
            .into());
        }
        let _first_mid = meta.get_f64_bits("first mid")?;
        let stored_total = meta.get_usize("total slots")?;
        let done = meta.get_usize("done slots")?;
        let n_terminals = meta.get_usize("terminal count")?;
        meta.expect_exhausted("meta section")?;
        if stored_total != total_slots || done > total_slots || n_terminals != self.terminals.len()
        {
            return Err(CheckpointError::Malformed { context: "campaign window mismatch" }.into());
        }

        let mut r = ByteReader::new(snap.require_section(SEC_SCHED)?);
        let mut sched = Vec::with_capacity(n_terminals);
        for _ in 0..n_terminals {
            let terminal_id = r.get_usize("sched terminal id")?;
            let mut rng_state = [0u64; 4];
            for word in &mut rng_state {
                *word = r.get_u64("sched rng word")?;
            }
            let previous = if r.get_bool("sched previous flag")? {
                Some(r.get_u32("sched previous id")?)
            } else {
                None
            };
            sched.push(TerminalSchedState { terminal_id, rng_state, previous });
        }
        r.expect_exhausted("sched section")?;
        if sched.iter().zip(&self.terminals).any(|(s, t)| s.terminal_id != t.id) {
            return Err(CheckpointError::Malformed {
                context: "scheduler state terminal-id mismatch",
            }
            .into());
        }

        // Oracle-mode snapshots carry no dish states.
        let n_dishes = if self.config.identified { n_terminals } else { 0 };
        let mut r = ByteReader::new(snap.require_section(SEC_DISH)?);
        let mut dish = Vec::with_capacity(n_dishes);
        let mut prev = Vec::with_capacity(n_dishes);
        for _ in 0..n_dishes {
            let map = decode_map(&mut r)?;
            let slots_since_reset = r.get_u32("dish slots since reset")?;
            let reset_since_fetch = r.get_bool("dish reset flag")?;
            dish.push(DishState { map, slots_since_reset, reset_since_fetch });
            prev.push(if r.get_bool("baseline flag")? {
                let slot = r.get_i64("baseline slot")?;
                let slot_start = JulianDate(r.get_f64_bits("baseline slot start")?);
                let map = decode_map(&mut r)?;
                let after_reset = r.get_bool("baseline after reset")?;
                Some(SlotCapture { slot, slot_start, map, after_reset })
            } else {
                None
            });
        }
        r.expect_exhausted("dish section")?;

        // `done` and `n_terminals` were checked against this campaign
        // above, so the capacity is bounded by its own window.
        let log_bytes = snap.require_section(SEC_OBS)?;
        let mut r = ByteReader::new(log_bytes);
        let count = done * n_terminals;
        let mut obs = Vec::with_capacity(count);
        for _ in 0..count {
            obs.push(decode_observation(&mut r)?);
        }
        r.expect_exhausted("observation section")?;
        let log = ObsLog {
            bytes: ByteWriter::from_bytes(log_bytes.to_vec()),
            fnv: snap
                .section_checksum(SEC_OBS)
                .ok_or(CheckpointError::MissingSection { id: SEC_OBS })?,
        };

        let mut r = ByteReader::new(snap.require_section(SEC_STATS)?);
        let retries = r.get_usize("retry count")?;
        let n_failures = r.get_usize("failure count")?;
        let mut failures = BTreeMap::new();
        for _ in 0..n_failures {
            let unit = r.get_u64("failure unit")?;
            let count = r.get_u32("failure tally")?;
            failures.insert(unit, count);
        }
        let n_quarantined = r.get_usize("quarantine count")?;
        let mut quarantined = BTreeSet::new();
        for _ in 0..n_quarantined {
            quarantined.insert(r.get_u64("quarantined unit")?);
        }
        r.expect_exhausted("ledger section")?;

        report.resumed_at_slot = Some(done);
        report.loaded_from = Some(origin);
        let state = EngineState { sched, dish, prev, obs, done, retries, failures, quarantined };
        Ok(Some((state, log)))
    }
}

/// Fans `run` over `items` with the campaign's interleaved-chunk worker
/// pattern, handing each item to its unit by value; results are returned
/// in item order. `run` must be a pure function of its index and item
/// (all supervision state is settled by the sequential caller
/// afterwards). Inline when `threads <= 1`.
fn parallel_units<I: Send, T: Send>(
    items: Vec<I>,
    threads: usize,
    run: &(impl Fn(usize, I) -> T + Sync),
) -> Result<Vec<T>, CampaignError> {
    let count = items.len();
    let threads = threads.min(count.max(1));
    if threads <= 1 {
        return Ok(items.into_iter().enumerate().map(|(i, item)| run(i, item)).collect());
    }
    let mut work: Vec<Option<I>> = items.into_iter().map(Some).collect();
    let mut indexed: Vec<(usize, Result<T, CampaignError>)> = Vec::with_capacity(count);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for chunk in crate::campaign::chunk_interleaved(&mut work, threads) {
            let first = chunk.first().map(|(i, _)| *i).unwrap_or(0);
            handles.push((
                first,
                scope.spawn(move || {
                    chunk.into_iter().map(|(i, item)| (i, Ok(run(i, item)))).collect::<Vec<_>>()
                }),
            ));
        }
        for (first, handle) in handles {
            match handle.join() {
                Ok(part) => indexed.extend(part),
                // Unreachable in practice — every unit body is caught by
                // the supervisor — but a join failure still degrades into
                // the typed error rather than a panic. `unit` is the
                // chunk's first item index.
                Err(p) => indexed.push((
                    first,
                    Err(CampaignError::WorkerExhausted {
                        unit: first as u64,
                        attempts: 1,
                        failure: ShardFailure::Panicked { payload: payload_message(p.as_ref()) },
                    }),
                )),
            }
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

// ---- Shared codecs ------------------------------------------------------

fn encode_map(w: &mut ByteWriter, map: &ObstructionMap) {
    for word in map.words() {
        w.put_u64(*word);
    }
}

fn decode_map(r: &mut ByteReader<'_>) -> Result<ObstructionMap, CampaignError> {
    let mut words = [0u64; ObstructionMap::WORD_COUNT];
    for word in &mut words {
        *word = r.get_u64("map word")?;
    }
    ObstructionMap::from_words(&words)
        .ok_or_else(|| CheckpointError::Malformed { context: "obstruction map tail bits" }.into())
}

fn encode_sat(w: &mut ByteWriter, s: &SatObs) {
    w.put_u32(s.norad_id);
    w.put_f64_bits(s.elevation_deg);
    w.put_f64_bits(s.azimuth_deg);
    w.put_f64_bits(s.age_days);
    w.put_bool(s.sunlit);
    w.put_i64(i64::from(s.launch_year));
    w.put_u32(s.launch_month);
}

fn decode_sat(r: &mut ByteReader<'_>) -> Result<SatObs, CampaignError> {
    let norad_id = r.get_u32("sat norad id")?;
    let elevation_deg = r.get_f64_bits("sat elevation")?;
    let azimuth_deg = r.get_f64_bits("sat azimuth")?;
    let age_days = r.get_f64_bits("sat age")?;
    let sunlit = r.get_bool("sat sunlit")?;
    let launch_year = decode_launch_year(r.get_i64("sat launch year")?)?;
    let launch_month = r.get_u32("sat launch month")?;
    Ok(SatObs { norad_id, elevation_deg, azimuth_deg, age_days, sunlit, launch_year, launch_month })
}

fn decode_launch_year(v: i64) -> Result<i32, CampaignError> {
    i32::try_from(v).map_err(|_| CheckpointError::Malformed { context: "launch year range" }.into())
}

const OUTCOME_OBSERVED: u8 = 0;
const OUTCOME_AMBIGUOUS: u8 = 1;
const OUTCOME_NO_DATA: u8 = 2;
const OUTCOME_UNRECORDED: u8 = 3;

fn encode_reason(w: &mut ByteWriter, reason: DegradeReason) {
    match reason {
        DegradeReason::Outage => w.put_u8(0),
        DegradeReason::FrameDropped { attempts } => {
            w.put_u8(1);
            w.put_u32(attempts);
        }
        DegradeReason::StaleFrame => w.put_u8(2),
        DegradeReason::AfterReset => w.put_u8(3),
        DegradeReason::MissingBaseline => w.put_u8(4),
        DegradeReason::EmptyTrail => w.put_u8(5),
        DegradeReason::TinyTrail => w.put_u8(6),
        DegradeReason::NoCandidates => w.put_u8(7),
        DegradeReason::UnmatchedIdentity => w.put_u8(8),
        DegradeReason::WorkerFailed => w.put_u8(9),
    }
}

fn decode_reason(r: &mut ByteReader<'_>) -> Result<DegradeReason, CampaignError> {
    Ok(match r.get_u8("degrade reason tag")? {
        0 => DegradeReason::Outage,
        1 => DegradeReason::FrameDropped { attempts: r.get_u32("frame drop attempts")? },
        2 => DegradeReason::StaleFrame,
        3 => DegradeReason::AfterReset,
        4 => DegradeReason::MissingBaseline,
        5 => DegradeReason::EmptyTrail,
        6 => DegradeReason::TinyTrail,
        7 => DegradeReason::NoCandidates,
        8 => DegradeReason::UnmatchedIdentity,
        9 => DegradeReason::WorkerFailed,
        _ => return Err(CheckpointError::Malformed { context: "degrade reason tag" }.into()),
    })
}

fn encode_observation(w: &mut ByteWriter, o: &SlotObservation) {
    w.put_usize(o.terminal_id);
    w.put_i64(o.slot);
    w.put_f64_bits(o.slot_start.0);
    w.put_f64_bits(o.local_hour);
    w.put_usize(o.available.len());
    for s in &o.available {
        encode_sat(w, s);
    }
    match &o.chosen {
        Some(s) => {
            w.put_bool(true);
            encode_sat(w, s);
        }
        None => w.put_bool(false),
    }
    match o.truth_id {
        Some(id) => {
            w.put_bool(true);
            w.put_u32(id);
        }
        None => w.put_bool(false),
    }
    match o.outcome {
        SlotOutcome::Observed { confidence } => {
            w.put_u8(OUTCOME_OBSERVED);
            w.put_f64_bits(confidence);
        }
        SlotOutcome::Ambiguous { margin } => {
            w.put_u8(OUTCOME_AMBIGUOUS);
            w.put_f64_bits(margin);
        }
        SlotOutcome::NoData(reason) => {
            w.put_u8(OUTCOME_NO_DATA);
            encode_reason(w, reason);
        }
        SlotOutcome::Unrecorded => w.put_u8(OUTCOME_UNRECORDED),
    }
}

fn decode_observation(r: &mut ByteReader<'_>) -> Result<SlotObservation, CampaignError> {
    let terminal_id = r.get_usize("obs terminal id")?;
    let slot = r.get_i64("obs slot")?;
    let slot_start = JulianDate(r.get_f64_bits("obs slot start")?);
    let local_hour = r.get_f64_bits("obs local hour")?;
    let n_available = r.get_usize("obs available count")?;
    let mut available = Vec::with_capacity(n_available.min(4096));
    for _ in 0..n_available {
        available.push(decode_sat(r)?);
    }
    let chosen = if r.get_bool("obs chosen flag")? { Some(decode_sat(r)?) } else { None };
    let truth_id =
        if r.get_bool("obs truth flag")? { Some(r.get_u32("obs truth id")?) } else { None };
    let outcome = match r.get_u8("obs outcome tag")? {
        OUTCOME_OBSERVED => SlotOutcome::Observed { confidence: r.get_f64_bits("obs confidence")? },
        OUTCOME_AMBIGUOUS => SlotOutcome::Ambiguous { margin: r.get_f64_bits("obs margin")? },
        OUTCOME_NO_DATA => SlotOutcome::NoData(decode_reason(r)?),
        OUTCOME_UNRECORDED => SlotOutcome::Unrecorded,
        _ => return Err(CheckpointError::Malformed { context: "obs outcome tag" }.into()),
    };
    Ok(SlotObservation {
        terminal_id,
        slot,
        slot_start,
        local_hour,
        available,
        chosen,
        truth_id,
        outcome,
    })
}
