//! Crash-resilient campaign execution: versioned checkpoint/restore with
//! bit-identical resume.
//!
//! # Execution model
//!
//! [`Campaign::run_resumable`] is the campaign engine; [`Campaign::run`]
//! calls it with checkpointing off. It splits the slot window into
//! *segments* of at most 96 slots, the engine's window, whether or not
//! checkpointing is on: a segment ends at the window's end, at the next
//! multiple of [`ResumeConfig::checkpoint_every`], or at the campaign's
//! end, whichever comes first. A segment's propagation table holds a row
//! per slot until the segment ends, so the window, and not the campaign's
//! length, bounds the engine's memory. Each segment runs the campaign
//! phases (prepare → schedule → identify, the last in identified mode
//! only; see [`crate::campaign`]), and every stateful component is owned
//! by the engine between segments:
//!
//! * per-terminal scheduler state ([`TerminalSchedState`]: RNG stream +
//!   hysteresis key), kept shard-layout free so a resume may use a
//!   different shard or thread count and still produce the same bits;
//! * in identified mode, per-terminal dish state ([`DishState`]) and the
//!   previous slot capture the XOR differencing baselines against;
//! * the accumulated observation stream.
//!
//! With checkpointing on, the state is serialized at each multiple of
//! `checkpoint_every` and at the campaign's end into a checksummed
//! [`starsense_checkpoint`] snapshot and streamed to disk
//! with [`write_snapshot_rotating`] (atomic rename + a rotating last-good
//! backup). A later call with the same campaign finds the snapshot via
//! [`load_latest`], validates a configuration fingerprint, restores, and
//! continues — the resumed run's observation stream is byte-identical to
//! an uninterrupted one because segmentation never crosses a slot and
//! every cache rebuilt per segment (propagation table, track cache)
//! yields exactly what direct computation would — the propagation table's
//! key rows sit differently per segmentation, but what they cull is
//! provably invisible.
//!
//! A snapshot stores of each observation only what the run measured (see
//! *Wire format*). Its sky — the `available` list, slot and local hour —
//! is a pure function of (catalog, terminal, slot), so, like the caches,
//! it is rebuilt rather than serialized: a resume replays the done slots'
//! fields of view through the schedule phase's own call,
//! `Campaign::fields_of_view`, one propagation table at a time, each over
//! `checkpoint_every` slots or the window, whichever is shorter, so a
//! resume's memory is bounded like a run's. That replay is the price of a
//! resume — the schedule phase's field-of-view share of the done slots —
//! and, since the configuration fingerprint covers inputs and not code, a
//! resume under a changed build rebuilds old skies with the new code.
//!
//! # Failures
//!
//! Each schedule shard and each identify terminal is a *work unit*,
//! a pure function of its segment-start state. Running one again would
//! replay a panic bit for bit, so the engine neither catches nor retries:
//! a worker panic propagates to the caller with its own payload and ends
//! the run. The recovery is the last durable checkpoint — a later call
//! resumes from it and recomputes only the slots since. No slot is ever
//! filled with data the run did not measure.
//!
//! # Wire format
//!
//! The snapshot payload is four sections in the checkpoint container
//! (see `DESIGN.md` for the byte-level layout): campaign metadata and
//! fingerprint ([`SEC_META`]), scheduler states ([`SEC_SCHED`]), dish
//! states and baselines ([`SEC_DISH`], empty in oracle mode), and
//! accumulated observations ([`SEC_OBS`]).
//!
//! [`SEC_OBS`] is the observation log: one record per observation,
//! slot-major and terminal-minor, back to back, with no count prefix. A
//! record holds what cannot be recomputed: the chosen satellite's id and
//! the truth id (each a flag byte and a `u32`), then the outcome (a tag
//! byte and a confidence or margin `f64`, or a degradation-reason tag) —
//! at most 19 bytes. The decoder reads exactly `done × terminals` records
//! (both from [`SEC_META`]) and rejects leftover bytes; on resume a chosen
//! id missing from its rebuilt sky is [`CheckpointError::Malformed`].
//! Without a prefix the section only ever grows at its end, so the engine
//! keeps it encoded between checkpoints, appends each segment's records,
//! and extends the section's FNV-1a over the appended tail alone: a
//! checkpoint encodes and hashes only the slots added since the previous
//! one. On resume the log is seeded from the validated section bytes and
//! the checksum [`Snapshot::parse`] already verified.

use std::path::PathBuf;

use crate::campaign::{Campaign, CampaignError, SatObs, SlotObservation};
use crate::degrade::{DegradationStats, DegradeReason, SlotOutcome};
use starsense_astro::time::JulianDate;
use starsense_checkpoint::{
    fnv1a, fnv1a_extend, load_latest, write_snapshot_rotating, ByteReader, ByteWriter,
    CheckpointError, LoadedFrom, SectionRef, Snapshot, FNV1A_EMPTY,
};
use starsense_ident::{
    slot_boundary_epochs, DishSimulator, DishState, SlotCapture, CANDIDATE_SAMPLES_PER_SLOT,
};
use starsense_obstruction::ObstructionMap;
use starsense_scheduler::slots::{slot_index, slot_start, SLOT_PERIOD_SECONDS};
use starsense_scheduler::{SiteGeometry, TerminalSchedState};

/// Most slots one segment runs. A segment's propagation table holds a row
/// per slot until the segment ends, so this window, and not the campaign's
/// length or checkpoint cadence, bounds the engine's memory. 96 slots is
/// 24 minutes, eight of the table's twelve-slot key spacings, so the extra
/// prepares of a long run cost little.
const SEGMENT_WINDOW: usize = 96;

/// Campaign-state payload layout version (inside the checkpoint
/// container, which versions itself separately). Version 3 dropped the
/// observation count that prefixed [`SEC_OBS`]; version 4 dropped the
/// worker-supervisor ledger that followed it as a fifth section; version
/// 5 cut each [`SEC_OBS`] observation to its record (ids and outcome,
/// without the sky).
pub const CAMPAIGN_STATE_VERSION: u32 = 5;

/// Section id: campaign metadata + configuration fingerprint.
pub const SEC_META: u32 = 1;
/// Section id: per-terminal scheduler states (RNG + hysteresis).
pub const SEC_SCHED: u32 = 2;
/// Section id: per-terminal dish states + differencing baselines.
pub const SEC_DISH: u32 = 3;
/// Section id: accumulated slot observation records, encoded back to
/// back (no count prefix; see the module docs).
pub const SEC_OBS: u32 = 4;

/// Configuration of the resumable engine: where to checkpoint and how
/// often.
#[derive(Debug, Clone)]
pub struct ResumeConfig {
    /// Snapshot path. The engine also writes `<path>.prev` (rotating
    /// last-good backup) and `<path>.tmp` (atomic-write staging).
    pub checkpoint_path: PathBuf,
    /// Slots between checkpoints: one is written at every multiple of
    /// this count and at the campaign's end. `0` disables checkpointing:
    /// the run reads and writes nothing and ignores
    /// [`ResumeConfig::checkpoint_path`]. Either way the engine splits
    /// the run into segments of at most its 96-slot window (see the
    /// module docs).
    pub checkpoint_every: usize,
    /// Stop (successfully, with [`ResumeReport::completed`] `false`)
    /// after writing this many checkpoints. This is the in-process kill
    /// switch the chaos tests use to simulate a crash at an exact
    /// checkpoint boundary.
    pub stop_after_checkpoints: Option<usize>,
}

impl Default for ResumeConfig {
    /// The plain run [`Campaign::run`] uses: checkpointing off.
    fn default() -> Self {
        ResumeConfig {
            checkpoint_path: PathBuf::new(),
            checkpoint_every: 0,
            stop_after_checkpoints: None,
        }
    }
}

impl ResumeConfig {
    /// A resumable run checkpointing to `path` with the default cadence
    /// (240 slots — one hour of 15-second slots).
    pub fn new(path: impl Into<PathBuf>) -> ResumeConfig {
        ResumeConfig {
            checkpoint_path: path.into(),
            checkpoint_every: 240,
            ..ResumeConfig::default()
        }
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
    /// Segments executed by this call. A segment ends at the engine's
    /// 96-slot window, at a checkpoint or at the campaign's end,
    /// whichever comes first, so a run without checkpoints runs
    /// `ceil(slots / 96)` of them.
    pub segments_run: usize,
    /// Whether the campaign ran to its final slot. `false` only when
    /// [`ResumeConfig::stop_after_checkpoints`] stopped it early.
    pub completed: bool,
}

/// FNV fingerprint of an observation stream's full bit pattern — every
/// field of every observation, the whole `available` list included,
/// floats by bit pattern. Two streams fingerprint equal iff they are
/// byte-identical, which is the equality the resume tests assert. The
/// encoding it hashes is the full observation layout of payload version
/// 4, kept so that recorded stream fingerprints stay valid; it is not the
/// [`SEC_OBS`] checksum, which covers the records alone.
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
    /// `fnv1a` of `bytes`.
    fnv: u64,
}

impl ObsLog {
    fn new() -> ObsLog {
        ObsLog { bytes: ByteWriter::new(), fnv: FNV1A_EMPTY }
    }

    /// Encodes the records of `obs` onto the end of the log and hashes
    /// only what it appended.
    fn append(&mut self, obs: &[SlotObservation]) {
        let start = self.bytes.len();
        for o in obs {
            encode_record(&mut self.bytes, o);
        }
        self.fnv = fnv1a_extend(self.fnv, &self.bytes.as_bytes()[start..]);
    }
}

/// What one observation holds that its sky cannot give back: the
/// [`SEC_OBS`] record.
struct ObsRecord {
    chosen: Option<u32>,
    truth_id: Option<u32>,
    outcome: SlotOutcome,
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
}

impl<'a> Campaign<'a> {
    /// Runs `slots` consecutive slots starting at the slot containing
    /// `from`, checkpointing to [`ResumeConfig::checkpoint_path`] every
    /// [`ResumeConfig::checkpoint_every`] slots and resuming from an
    /// existing snapshot when one validates. The returned observation
    /// stream is the same for every checkpoint cadence (a cadence of `0`
    /// is [`Campaign::run`]), and byte-identical across any kill/resume
    /// schedule at checkpoint boundaries — for every thread count and
    /// shard count.
    ///
    /// # Errors
    ///
    /// [`CampaignError::InvalidConfig`] before any work when the
    /// configuration cannot be run (see [`CampaignError`]), and
    /// [`CampaignError::Checkpoint`] when a snapshot cannot be read or
    /// written, or belongs to another campaign.
    ///
    /// # Panics
    ///
    /// A panicking work unit ends the run with the unit's own payload;
    /// every checkpoint written before it stays on disk to resume from.
    pub fn run_resumable(
        &self,
        from: JulianDate,
        slots: usize,
        opts: &ResumeConfig,
    ) -> Result<(Vec<SlotObservation>, DegradationStats, ResumeReport), CampaignError> {
        self.validate_config()?;
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

        let mut report = ResumeReport {
            resumed_at_slot: None,
            loaded_from: None,
            corrupt_discarded: 0,
            checkpoints_written: 0,
            segments_run: 0,
            completed: false,
        };

        // Site geometry is a pure function of (terminal, policy): built
        // once per call, in parallel over the shard ranges, and shared by
        // every segment's schedule shards and a resume's replay.
        let ranges = crate::campaign::shard_ranges(self.terminals.len(), self.shard_count());
        let build = |_, range: std::ops::Range<usize>| -> Vec<SiteGeometry> {
            let policy = &self.config.policy;
            self.terminals[range].iter().map(|t| SiteGeometry::new(t.clone(), policy)).collect()
        };
        let sites: Vec<SiteGeometry> =
            parallel_units(ranges, threads, &build).into_iter().flatten().collect();

        // Resume if a snapshot validates; otherwise start fresh. A
        // snapshot for a *different* campaign (config, window, or seed)
        // is a hard error, not a silent restart — resuming someone
        // else's state would fabricate data. The encoded observation log
        // exists only while checkpointing: a run without checkpoints
        // builds none.
        let (mut state, mut checkpointing) = match fingerprint {
            Some(fingerprint) => {
                match self.load_state(opts, fingerprint, &sites, &mids, threads, &mut report)? {
                    Some((state, log)) => (state, Some((fingerprint, log))),
                    None => (self.fresh_state(), Some((fingerprint, ObsLog::new()))),
                }
            }
            None => (self.fresh_state(), None),
        };

        while state.done < slots {
            // The next checkpoint is at the next multiple of the cadence,
            // or at the campaign's end; a segment stops at it or earlier,
            // at the window's end.
            let next_checkpoint = match opts.checkpoint_every {
                0 => slots,
                n => (state.done / n + 1).saturating_mul(n).min(slots),
            };
            let seg_end = next_checkpoint.min(state.done + SEGMENT_WINDOW);
            let seg_mids = &mids[state.done..seg_end];
            let logged = state.obs.len();
            self.run_segment(&mut state, &sites, seg_mids, threads);
            report.segments_run += 1;
            let Some((fingerprint, log)) = &mut checkpointing else { continue };
            log.append(&state.obs[logged..]);
            if state.done < next_checkpoint {
                continue;
            }
            self.write_checkpoint(&state, log, *fingerprint, first_mid, slots, opts)?;
            report.checkpoints_written += 1;
            if let Some(stop) = opts.stop_after_checkpoints {
                if report.checkpoints_written >= stop && state.done < slots {
                    let stats = DegradationStats::collect(&state.obs);
                    return Ok((state.obs, stats, report));
                }
            }
        }

        report.completed = true;
        let stats = DegradationStats::collect(&state.obs);
        Ok((state.obs, stats, report))
    }

    /// Initial engine state: fresh per-terminal scheduler streams (the
    /// same `f(seed, terminal id)` initialization every shard scheduler
    /// derives), blank dishes and no baselines in identified mode.
    fn fresh_state(&self) -> EngineState {
        let sched =
            self.terminals.iter().map(|t| TerminalSchedState::initial(self.seed, t.id)).collect();
        let dish_terminals = if self.identified { &self.terminals[..] } else { &[] };
        EngineState {
            sched,
            dish: dish_terminals
                .iter()
                .map(|t| DishSimulator::new(t.location).export_state())
                .collect(),
            prev: dish_terminals.iter().map(|_| None).collect(),
            obs: Vec::new(),
            done: 0,
        }
    }

    /// Executes one segment — prepare, schedule, and in identified mode
    /// identify — over the slots at `seg_mids` and folds the resulting
    /// observations into `state`.
    fn run_segment(
        &self,
        state: &mut EngineState,
        sites: &[SiteGeometry],
        seg_mids: &[JulianDate],
        threads: usize,
    ) {
        let seg_len = seg_mids.len();

        // Per-segment propagation table, culled to the terminals' skies.
        // A kept entry is a pure function of (catalog, epoch) and a culled
        // one is provably below every consumer's cutoff, so rebuilding per
        // segment — with keys placed per segment — reproduces the
        // uninterrupted run's observations bit for bit.
        let cache = self.propagation_cache();
        let starts: Vec<JulianDate> = seg_mids.iter().map(|&at| slot_start(at)).collect();
        let boundaries: Vec<JulianDate> = if self.identified {
            starts
                .iter()
                .flat_map(|&s| slot_boundary_epochs(s, CANDIDATE_SAMPLES_PER_SLOT))
                .collect()
        } else {
            Vec::new()
        };
        cache.prepare(&starts, &boundaries, threads);

        // ---- Schedule phase (unit = shard) ------------------------------
        // Each shard steps its contiguous slice of the scheduler states in
        // place and turns each slot's allocations into observations as it
        // draws them; the observation columns come back in terminal order.
        let ranges = crate::campaign::shard_ranges(self.terminals.len(), self.shard_count());
        let mut shards = Vec::with_capacity(ranges.len());
        let mut rest = &mut state.sched[..];
        for range in ranges {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
            shards.push((range.start, &sites[range], head));
            rest = tail;
        }
        let mut columns: Vec<Vec<SlotObservation>> =
            parallel_units(shards, threads, &|_, (first, sites, states)| {
                self.schedule_slots(first, sites, states, &cache, seg_mids)
            })
            .into_iter()
            .flatten()
            .collect();

        // ---- Identify phase (identified mode only; unit = terminal) -----
        // Each unit refines its terminal's column in place, borrowing the
        // terminal's dish state and baseline and advancing them. Oracle
        // mode keeps no dish state and runs no unit: the schedule phase's
        // verdict is its observation.
        if self.identified {
            let units: Vec<_> =
                columns.iter_mut().zip(state.dish.iter_mut().zip(state.prev.iter_mut())).collect();
            parallel_units(units, threads, &|tid, (column, (dish_state, prev))| {
                let mut dish = DishSimulator::new(self.terminals[tid].location);
                dish.restore_state(dish_state.clone());
                self.identify_terminal_segment(&cache, tid, &mut dish, prev, column);
                *dish_state = dish.export_state();
            });
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
        w.put_bool(self.identified);
        w.put_f64_bits(self.config.min_margin);
        w.put_u32(self.config.frame_retries);
        w.put_u64(self.config.faults.seed());
        let r = self.config.faults.rates();
        w.put_f64_bits(r.frame_drop);
        w.put_f64_bits(r.frame_stale);
        w.put_f64_bits(r.frame_corrupt);
        w.put_f64_bits(r.tle_corrupt);
        w.put_f64_bits(r.probe_burst);
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
            encode_id(&mut sched, s.previous);
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

        let sections = [
            SectionRef::new(SEC_META, meta.as_bytes()),
            SectionRef::new(SEC_SCHED, sched.as_bytes()),
            SectionRef::new(SEC_DISH, dish.as_bytes()),
            SectionRef::with_checksum(SEC_OBS, log.bytes.as_bytes(), log.fnv),
        ];
        Ok(write_snapshot_rotating(&opts.checkpoint_path, &sections)?)
    }

    // ---- Decode ---------------------------------------------------------

    /// Loads and validates the newest snapshot, if any, with its
    /// observation log, and replays the observations of its done slots
    /// (`mids` holds every slot of the window). `Ok(None)` means "start
    /// fresh" (no file, or only corrupt files — the corrupt count is
    /// reported either way). A snapshot whose fingerprint or window
    /// disagrees with this campaign is a hard error.
    fn load_state(
        &self,
        opts: &ResumeConfig,
        fingerprint: u64,
        sites: &[SiteGeometry],
        mids: &[JulianDate],
        threads: usize,
        report: &mut ResumeReport,
    ) -> Result<Option<(EngineState, ObsLog)>, CampaignError> {
        let total_slots = mids.len();
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
            let previous = decode_id(&mut r, "sched previous flag", "sched previous id")?;
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
        let n_dishes = if self.identified { n_terminals } else { 0 };
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
        // above, so the capacity is bounded by its own window. Every
        // record decodes before the replay starts.
        let log_bytes = snap.require_section(SEC_OBS)?;
        let mut r = ByteReader::new(log_bytes);
        let count = done * n_terminals;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            records.push(decode_record(&mut r)?);
        }
        r.expect_exhausted("observation section")?;
        let obs = self.replay(records, sites, &mids[..done], opts.checkpoint_every, threads)?;
        let log = ObsLog {
            bytes: ByteWriter::from_bytes(log_bytes.to_vec()),
            fnv: snap
                .section_checksum(SEC_OBS)
                .ok_or(CheckpointError::MissingSection { id: SEC_OBS })?,
        };

        report.resumed_at_slot = Some(done);
        report.loaded_from = Some(origin);
        Ok(Some((EngineState { sched, dish, prev, obs, done }, log)))
    }

    /// Rebuilds the observations of the slots at `mids` from their
    /// `records` (slot-major, terminal-minor). Each slot's skies come from
    /// [`Campaign::fields_of_view`] over a propagation table prepared as
    /// a segment prepares its own, `every` slots (at most the window) at
    /// a time, so no more than one segment's table is alive at once.
    fn replay(
        &self,
        records: Vec<ObsRecord>,
        sites: &[SiteGeometry],
        mids: &[JulianDate],
        every: usize,
        threads: usize,
    ) -> Result<Vec<SlotObservation>, CampaignError> {
        let mut obs = Vec::with_capacity(records.len());
        let mut records = records.into_iter();
        for chunk in mids.chunks(every.min(SEGMENT_WINDOW)) {
            let cache = self.propagation_cache();
            let starts: Vec<JulianDate> = chunk.iter().map(|&at| slot_start(at)).collect();
            cache.prepare(&starts, &[], threads);
            // One unit per slot, over every site: fields of view do not
            // depend on how the sites are split.
            let skies = parallel_units(chunk.to_vec(), threads, &|_, at| {
                self.fields_of_view(sites, &cache, at)
            });
            for (&at, slot_skies) in chunk.iter().zip(&skies) {
                for (tid, (sky, record)) in slot_skies.iter().zip(records.by_ref()).enumerate() {
                    let absent = CheckpointError::Malformed {
                        context: "chosen satellite absent from its rebuilt sky",
                    };
                    let chosen = record
                        .chosen
                        .map(|id| sky.iter().find(|v| v.norad_id == id).map(SatObs::from))
                        .map(|found| found.ok_or(absent))
                        .transpose()?;
                    obs.push(self.slot_observation(
                        tid,
                        slot_index(at),
                        slot_start(at),
                        sky,
                        record.truth_id,
                        (chosen, record.outcome),
                    ));
                }
            }
        }
        Ok(obs)
    }
}

/// Fans `run` over `items` with the campaign's interleaved-chunk worker
/// pattern, handing each item to its unit by value; results are returned
/// in item order. Inline when `threads <= 1`. A panicking unit's own
/// payload is re-raised on the calling thread.
fn parallel_units<I: Send, T: Send>(
    items: Vec<I>,
    threads: usize,
    run: &(impl Fn(usize, I) -> T + Sync),
) -> Vec<T> {
    let count = items.len();
    let threads = threads.min(count.max(1));
    if threads <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| run(i, item)).collect();
    }
    let mut work: Vec<Option<I>> = items.into_iter().map(Some).collect();
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(count);
    std::thread::scope(|scope| {
        let handles: Vec<_> = crate::campaign::chunk_interleaved(&mut work, threads)
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    chunk.into_iter().map(|(i, item)| (i, run(i, item))).collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            let part = handle.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            indexed.extend(part);
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

fn encode_id(w: &mut ByteWriter, id: Option<u32>) {
    match id {
        Some(id) => {
            w.put_bool(true);
            w.put_u32(id);
        }
        None => w.put_bool(false),
    }
}

fn decode_id(
    r: &mut ByteReader<'_>,
    flag: &'static str,
    id: &'static str,
) -> Result<Option<u32>, CampaignError> {
    Ok(if r.get_bool(flag)? { Some(r.get_u32(id)?) } else { None })
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

const OUTCOME_OBSERVED: u8 = 0;
const OUTCOME_AMBIGUOUS: u8 = 1;
const OUTCOME_NO_DATA: u8 = 2;

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
        _ => return Err(CheckpointError::Malformed { context: "degrade reason tag" }.into()),
    })
}

fn encode_outcome(w: &mut ByteWriter, outcome: SlotOutcome) {
    match outcome {
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
    }
}

fn decode_outcome(r: &mut ByteReader<'_>) -> Result<SlotOutcome, CampaignError> {
    Ok(match r.get_u8("obs outcome tag")? {
        OUTCOME_OBSERVED => SlotOutcome::Observed { confidence: r.get_f64_bits("obs confidence")? },
        OUTCOME_AMBIGUOUS => SlotOutcome::Ambiguous { margin: r.get_f64_bits("obs margin")? },
        OUTCOME_NO_DATA => SlotOutcome::NoData(decode_reason(r)?),
        _ => return Err(CheckpointError::Malformed { context: "obs outcome tag" }.into()),
    })
}

/// The [`SEC_OBS`] record of `o`.
fn encode_record(w: &mut ByteWriter, o: &SlotObservation) {
    encode_id(w, o.chosen.as_ref().map(|s| s.norad_id));
    encode_id(w, o.truth_id);
    encode_outcome(w, o.outcome);
}

fn decode_record(r: &mut ByteReader<'_>) -> Result<ObsRecord, CampaignError> {
    Ok(ObsRecord {
        chosen: decode_id(r, "obs chosen flag", "obs chosen id")?,
        truth_id: decode_id(r, "obs truth flag", "obs truth id")?,
        outcome: decode_outcome(r)?,
    })
}

/// The full observation, sky included, that [`fingerprint_observations`]
/// hashes.
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
    encode_id(w, o.truth_id);
    encode_outcome(w, o.outcome);
}

#[cfg(test)]
mod tests {
    use super::parallel_units;
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::vantage::paper_terminals;
    use starsense_astro::time::JulianDate;
    use starsense_constellation::ConstellationBuilder;
    use starsense_ident::{
        slot_boundary_epochs, verdict_slot_tracked, DishSimulator, TrackCache,
        CANDIDATE_SAMPLES_PER_SLOT, MIN_CANDIDATE_ELEVATION_DEG,
    };
    use starsense_obstruction::ObstructionMap;
    use starsense_scheduler::slots::{slot_start, SLOT_PERIOD_SECONDS};

    #[test]
    fn identified_paper_segments_propagate_a_small_share_of_the_catalog() {
        // The engine's own segment cache, prepared as `run_segment`
        // prepares it, over 40 slots of the paper's four terminals on gen1.
        // A cache that silently fell back to full width would keep every
        // satellite-row. Per-satellite orbit envelopes keep 18.2% (31.9%
        // with the catalog-wide bounds they replaced), and Iowa's track
        // cache propagates 23,282 interior samples (27,188 before).
        let c = ConstellationBuilder::starlink_gen1().seed(1).build();
        let campaign = Campaign::identified(&c, paper_terminals(), CampaignConfig::default(), 1);
        let from = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0));
        let starts: Vec<JulianDate> =
            (0..40).map(|k| from.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS)).collect();
        let boundaries: Vec<JulianDate> = starts
            .iter()
            .flat_map(|&s| slot_boundary_epochs(s, CANDIDATE_SAMPLES_PER_SLOT))
            .collect();
        let cache = campaign.propagation_cache();
        assert!(cache.prepare(&starts, &boundaries, 2));
        let stats = cache.stats();
        let satellite_rows = (stats.truth_entries + stats.published_entries) * c.len();
        let kept = satellite_rows - stats.culled;
        assert!(
            kept as f64 <= 0.20 * satellite_rows as f64,
            "kept {kept} of {satellite_rows} satellite-rows: {stats:?}"
        );
        let iowa = campaign.terminals[0].location;
        let mut tracks =
            TrackCache::new(&cache, iowa, MIN_CANDIDATE_ELEVATION_DEG, CANDIDATE_SAMPLES_PER_SLOT);
        for &s in &starts {
            let _ = tracks.candidate_tracks(s);
        }
        let interior = tracks.stats().interior_propagations;
        assert!(interior <= 23_500, "{interior} interior propagations: {:?}", tracks.stats());
    }

    #[test]
    fn identified_paper_verdicts_propagate_deferred_tracks_only_when_measured() {
        // The production verdict through the engine's own segment cache
        // over 40 slots of the paper's four terminals on gen1, each dish
        // replaying the scheduler's picks. Deferred tracks propagate their
        // interior epochs only when the DTW search measures them: 335
        // interior propagations per served slot when written (154 slots),
        // 682 with every track built at once.
        let c = ConstellationBuilder::starlink_gen1().seed(1).build();
        let campaign = Campaign::identified(&c, paper_terminals(), CampaignConfig::default(), 1);
        let from = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0));
        let obs =
            Campaign::oracle(&c, paper_terminals(), CampaignConfig::default(), 1).run(from, 40);
        let starts: Vec<JulianDate> =
            obs.iter().filter(|o| o.terminal_id == 0).map(|o| o.slot_start).collect();
        let boundaries: Vec<JulianDate> = starts
            .iter()
            .flat_map(|&s| slot_boundary_epochs(s, CANDIDATE_SAMPLES_PER_SLOT))
            .collect();
        let cache = campaign.propagation_cache();
        assert!(cache.prepare(&starts, &boundaries, 2));
        let (mut served, mut interior, mut eager) = (0, 0, 0);
        for (tid, terminal) in campaign.terminals.iter().enumerate() {
            let loc = terminal.location;
            let mut dish = DishSimulator::new(loc);
            let mut tracks = TrackCache::new(
                &cache,
                loc,
                MIN_CANDIDATE_ELEVATION_DEG,
                CANDIDATE_SAMPLES_PER_SLOT,
            );
            let mut prev: Option<ObstructionMap> = None;
            for o in obs.iter().filter(|o| o.terminal_id == tid) {
                let capture = dish.play_slot(&c, o.slot, o.slot_start, o.truth_id);
                if let Some(p) = prev.filter(|_| !capture.after_reset) {
                    let _ = verdict_slot_tracked(&mut tracks, &p, &capture.map, o.slot_start, 0.0);
                }
                prev = Some(capture.map);
            }
            let s = tracks.stats();
            served += s.slots;
            interior += s.interior_propagations;
            eager += s.surviving * (CANDIDATE_SAMPLES_PER_SLOT as usize - 2);
        }
        assert!(served >= 120, "{served} slots served");
        let per_slot = interior as f64 / served as f64;
        let eager_per_slot = eager as f64 / served as f64;
        assert!(
            per_slot <= 360.0,
            "{per_slot} interior propagations per slot ({eager_per_slot} eager)"
        );
    }

    #[test]
    fn parallel_units_reraise_a_units_own_panic_payload() {
        // Inline (`threads = 1`) and through a scoped join (`threads = 2`),
        // the caller sees the failing unit's own payload, not a wrapper.
        for threads in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                parallel_units((0..4u32).collect(), threads, &|_, item: u32| {
                    if item == 3 {
                        panic!("unit {item} failed");
                    }
                    item
                })
            });
            let payload = caught.expect_err("a unit panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("unit 3 failed"),
                "threads {threads}"
            );
        }
    }
}
