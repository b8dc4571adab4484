//! Measurement campaigns against the hidden scheduler.
//!
//! A campaign replays the global scheduler over a span of 15-second slots
//! for the study's terminals and records, per slot and terminal, the
//! *available* satellites and the *chosen* one — the exact data §5 and §6
//! of the paper are built on.
//!
//! Two observation modes mirror what the paper could and could not see:
//!
//! * **Oracle** — the chosen satellite is read straight from the hidden
//!   scheduler (the reproduction's privilege; the fast path for large
//!   campaigns).
//! * **Identified** — the chosen satellite is recovered through the §4
//!   obstruction-map pipeline (XOR → DTW), complete with its occasional
//!   misidentifications and skipped slots. This is what the authors
//!   actually had, so experiments that quote the paper's numbers run in
//!   this mode.
//!
//! # Execution model
//!
//! There is one engine, [`Campaign::run_resumable`]; [`Campaign::run`] is
//! that engine with checkpointing off. Each segment of the slot window
//! (the whole window when checkpointing is off) runs in three phases
//! around a shared [`PropagationCache`]:
//!
//! 1. **Prepare** (parallel) — every epoch the segment will touch at full
//!    catalog width (each slot's truth snapshot, plus — in identified
//!    mode — each slot's two published-TLE boundary rows) is batch-
//!    propagated once into the cache's immutable epoch table. Every later
//!    read of those epochs is a lock-free binary search;
//! 2. **Schedule** (sharded, parallel) — the terminals are split into
//!    contiguous shards (see [`CampaignConfig::shards`]) and each worker
//!    replays the hidden scheduler over just its shard's terminals,
//!    deriving fields of view through the terminal-cohort path
//!    ([`GlobalScheduler::fields_of_view_cohort`]), applying the fault
//!    mask, and allocating slot by slot. Per-terminal RNG streams and
//!    hysteresis keys make a terminal's allocation a function of
//!    `(seed, terminal id, sky)` alone, so the merged shard outputs are
//!    bit-identical to one monolithic scheduler walking all terminals;
//! 3. **Observe** (parallel) — each terminal independently replays its
//!    allocations: dish painting, XOR isolation, and DTW identification,
//!    with boundary rows read from the prepared table and interior
//!    candidate-track epochs propagated per satellite — no locks on the
//!    hot path.
//!
//! Observations are byte-identical for any worker-thread count and any
//! shard count (see [`CampaignConfig::threads`]), and the determinism
//! tests hold multi-threaded, multi-shard runs to the single-threaded
//! stream field by field.

use crate::degrade::{DegradeReason, SlotOutcome};
use crate::resume::ResumeConfig;
use crate::vantage;
use starsense_astro::time::JulianDate;
use starsense_constellation::{Constellation, PropagationCache, VisibleSat};
use starsense_faults::{FaultPlan, PropagationSchedule};
use starsense_ident::{
    verdict_slot_tracked, DishSimulator, FrameStatus, IdentVerdict, NoDataReason, SlotCapture,
    TrackCache, CANDIDATE_SAMPLES_PER_SLOT, MIN_CANDIDATE_ELEVATION_DEG,
};
use starsense_scheduler::slots::slot_start;
use starsense_scheduler::{Allocation, GlobalScheduler, SchedulerPolicy, Terminal};

/// How one supervised work-unit attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFailure {
    /// The worker panicked; the payload is carried as text.
    Panicked {
        /// Stringified panic payload.
        payload: String,
    },
    /// The worker exceeded its (virtual) deadline budget. No wall clock
    /// is involved: overruns are reported by the deterministic fault
    /// plan, so chaos campaigns stay bit-reproducible.
    DeadlineOverrun,
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFailure::Panicked { payload } => write!(f, "panicked: {payload}"),
            ShardFailure::DeadlineOverrun => write!(f, "deadline overrun"),
        }
    }
}

/// Typed campaign failure — what [`Campaign::run_resumable`] reports
/// instead of propagating worker panics. [`Campaign::run`] turns it back
/// into a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// A supervised work unit exhausted its retry budget while quarantine
    /// was disabled (`worker_quarantine_after == 0`, as in
    /// [`Campaign::run`]), so the engine failed fast instead of degrading
    /// the unit's slots. A worker panic surfaces here with
    /// [`ShardFailure::Panicked`].
    WorkerExhausted {
        /// Failing work-unit id (scheduling shards count from 0;
        /// observation terminals are offset by `2^32` — see
        /// `resume::observe_unit_id`).
        unit: u64,
        /// Attempts made, first try included.
        attempts: u32,
        /// The final attempt's failure.
        failure: ShardFailure,
    },
    /// Writing or reading a checkpoint snapshot failed.
    Checkpoint(starsense_checkpoint::CheckpointError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::WorkerExhausted { unit, attempts, failure } => {
                write!(f, "work unit {unit} failed {attempts} attempts; last: {failure}")
            }
            CampaignError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<starsense_checkpoint::CheckpointError> for CampaignError {
    fn from(e: starsense_checkpoint::CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

/// Renders a panic payload as text for [`CampaignError`] /
/// [`ShardFailure`]. `&str` and `String` payloads (everything `panic!`
/// and `panic_any` produce in this workspace) pass through verbatim.
pub(crate) fn payload_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A satellite as observed during one slot from one terminal.
#[derive(Debug, Clone, PartialEq)]
pub struct SatObs {
    /// Catalog number.
    pub norad_id: u32,
    /// Angle of elevation, degrees.
    pub elevation_deg: f64,
    /// Azimuth, degrees clockwise from north.
    pub azimuth_deg: f64,
    /// Days since launch.
    pub age_days: f64,
    /// Sunlit status.
    pub sunlit: bool,
    /// Launch year (for §5.2 binning).
    pub launch_year: i32,
    /// Launch month.
    pub launch_month: u32,
}

impl From<&VisibleSat> for SatObs {
    fn from(v: &VisibleSat) -> SatObs {
        SatObs {
            norad_id: v.norad_id,
            elevation_deg: v.look.elevation_deg,
            azimuth_deg: v.look.azimuth_deg,
            age_days: v.age_days,
            sunlit: v.sunlit,
            launch_year: v.launch.year,
            launch_month: v.launch.month,
        }
    }
}

/// One slot's observation from one terminal.
#[derive(Debug, Clone)]
pub struct SlotObservation {
    /// Terminal id (index into [`vantage::paper_terminals`]-style lists).
    pub terminal_id: usize,
    /// Global slot index.
    pub slot: i64,
    /// Slot start.
    pub slot_start: JulianDate,
    /// Local mean solar hour at the terminal (the §6 `local_hour` feature).
    pub local_hour: f64,
    /// Satellites above the minimum elevation.
    pub available: Vec<SatObs>,
    /// The satellite believed to serve this slot (mode-dependent).
    pub chosen: Option<SatObs>,
    /// Ground truth (always the scheduler's real pick; equals `chosen` in
    /// oracle mode).
    pub truth_id: Option<u32>,
    /// How the observation resolved — identification, ambiguity, or the
    /// degradation cause. `chosen.is_some()` exactly when this is
    /// [`SlotOutcome::Observed`].
    pub outcome: SlotOutcome,
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The hidden scheduler's policy.
    pub policy: SchedulerPolicy,
    /// Observe through the §4 identification pipeline instead of reading
    /// the scheduler directly.
    pub identified: bool,
    /// Worker threads for the parallel phases (epoch preparation, sharded
    /// scheduling, and per-terminal observation). `0` means auto-detect
    /// from the host; `1` runs everything inline with no threads spawned.
    /// Results are byte-identical for every value.
    pub threads: usize,
    /// Terminal shards for the scheduling phase. Each shard owns a
    /// contiguous run of terminals and replays the hidden scheduler over
    /// just those; per-terminal RNG streams and hysteresis keys make the
    /// merged output bit-identical for every shard count. `0` derives the
    /// shard count from the worker-thread count.
    pub shards: usize,
    /// Deterministic fault-injection plan. The default
    /// ([`FaultPlan::none`]) keeps every output bit-identical to a
    /// fault-unaware campaign: fault decisions are counter-based hashes
    /// and never touch the scheduler's or dish's randomness.
    pub faults: FaultPlan,
    /// Minimum DTW margin for a match to count as identified rather than
    /// [`SlotOutcome::Ambiguous`]. The default `0.0` reproduces the
    /// legacy always-report-the-best behaviour bit for bit; chaos runs
    /// use [`starsense_ident::DEFAULT_MIN_MARGIN`].
    pub min_margin: f64,
    /// Obstruction-frame fetch retries after a dropped frame (identified
    /// mode only).
    pub frame_retries: u32,
    /// Quarantine a satellite for the rest of the campaign once this many
    /// of its slot propagations have failed. `0` disables quarantine.
    pub quarantine_after: u32,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            policy: SchedulerPolicy::default(),
            identified: false,
            threads: 0,
            shards: 0,
            faults: FaultPlan::none(),
            min_margin: 0.0,
            frame_retries: 2,
            quarantine_after: 0,
        }
    }
}

/// A runnable campaign.
pub struct Campaign<'a> {
    pub(crate) constellation: &'a Constellation,
    pub(crate) terminals: Vec<Terminal>,
    pub(crate) config: CampaignConfig,
    pub(crate) seed: u64,
}

impl<'a> Campaign<'a> {
    /// Oracle-mode campaign.
    pub fn oracle(
        constellation: &'a Constellation,
        terminals: Vec<Terminal>,
        config: CampaignConfig,
        seed: u64,
    ) -> Campaign<'a> {
        Campaign {
            constellation,
            terminals,
            config: CampaignConfig { identified: false, ..config },
            seed,
        }
    }

    /// Identified-mode campaign (through the obstruction-map pipeline).
    pub fn identified(
        constellation: &'a Constellation,
        terminals: Vec<Terminal>,
        config: CampaignConfig,
        seed: u64,
    ) -> Campaign<'a> {
        Campaign {
            constellation,
            terminals,
            config: CampaignConfig { identified: true, ..config },
            seed,
        }
    }

    /// The terminals under measurement.
    pub fn terminals(&self) -> &[Terminal] {
        &self.terminals
    }

    /// Worker count for the parallel phases, resolved from the config.
    /// When this resolves to 1 — an explicit `threads: 1` or a single-CPU
    /// host under auto-detect — both parallel phases take their inline
    /// branch and no scoped thread (or any thread machinery at all) is
    /// ever set up, so the parallel entry point can never underperform
    /// the serial engine.
    pub(crate) fn worker_threads(&self) -> usize {
        match self.config.threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
    }

    /// Shard count for the scheduling phase, resolved from the config:
    /// explicit counts are clamped to the terminal count, and the `0`
    /// default gives each worker thread one shard.
    pub(crate) fn shard_count(&self) -> usize {
        let terminals = self.terminals.len().max(1);
        match self.config.shards {
            0 => self.worker_threads().min(terminals),
            n => n.min(terminals),
        }
    }

    /// Runs `slots` consecutive slots starting at the slot containing
    /// `from`. Returns observations slot-major, terminal-minor.
    ///
    /// This is [`Campaign::run_resumable`] with [`ResumeConfig::default`]:
    /// no checkpoints and no retry or quarantine budget. Observations are
    /// byte-identical for any [`CampaignConfig::threads`] and
    /// [`CampaignConfig::shards`] value.
    ///
    /// # Panics
    ///
    /// A worker panic propagates as a panic carrying the original payload
    /// text; any other engine failure (including an injected worker fault
    /// from [`FaultPlan::worker_fault`]) panics with its message. Use
    /// `run_resumable` with a supervision budget to ride such faults out.
    pub fn run(&self, from: JulianDate, slots: usize) -> Vec<SlotObservation> {
        match self.run_resumable(from, slots, &ResumeConfig::default()) {
            Ok((obs, _, _)) => obs,
            Err(CampaignError::WorkerExhausted {
                failure: ShardFailure::Panicked { payload },
                ..
            }) => std::panic::resume_unwind(Box::new(payload)),
            Err(other) => std::panic::resume_unwind(Box::new(other.to_string())),
        }
    }

    /// The scheduling inner loop of one shard: replays `scheduler` (owning
    /// exactly `terminals`) over `mids`, whose first slot sits `k0` slots
    /// after the start of the fault schedule's campaign window. Returns
    /// per-terminal allocation columns in `terminals` order.
    pub(crate) fn schedule_slots(
        &self,
        scheduler: &mut GlobalScheduler,
        terminals: &[Terminal],
        cache: &PropagationCache<'_>,
        mids: &[JulianDate],
        k0: usize,
        schedule: Option<&(PropagationSchedule, Vec<u32>)>,
    ) -> Vec<Vec<Allocation>> {
        // Keyed lookup only (never iterated), so the map is exempt
        // from the hash-order determinism rules.
        let column_of: std::collections::HashMap<usize, usize> =
            terminals.iter().enumerate().map(|(j, t)| (t.id, j)).collect();
        let mut columns: Vec<Vec<Allocation>> =
            terminals.iter().map(|_| Vec::with_capacity(mids.len())).collect();
        for (k, &at) in mids.iter().enumerate() {
            let snapshot = cache.snapshot(slot_start(at));
            // Cohort sharing is per shard: terminals that land in the
            // same grid cell within this shard pool their candidate
            // fetch. The partition only changes how candidates are
            // gathered, never which satellites pass the exact elevation
            // test, so every shard split produces the same fields of view
            // bit for bit.
            let mut fov = scheduler.fields_of_view_cohort(self.constellation, &snapshot);
            // A satellite whose propagation failed this slot (or that
            // is quarantined) is invisible to the whole pipeline: the
            // bitset is pure data, so filtering here is invariant to
            // thread and shard scheduling. The mask is indexed by the
            // campaign-global slot offset, so segmented replays see the
            // same fault pattern as one uninterrupted pass.
            if let Some((schedule, ids)) = schedule {
                for list in &mut fov {
                    list.retain(|v| match ids.binary_search(&v.norad_id) {
                        Ok(sat) => !schedule.masked(sat, k0 + k),
                        Err(_) => true,
                    });
                }
            }
            for alloc in scheduler.allocate_from_available(at, fov) {
                columns[column_of[&alloc.terminal_id]].push(alloc);
            }
        }
        columns
    }

    /// One *segment* of a terminal's observation stream. In identified
    /// mode `dish` carries the caller-owned dish state machine and the
    /// differencing baseline, which the segment continues from and
    /// advances; oracle mode passes `None` and keeps no dish state. The
    /// track cache is recreated per call — it is a pure cache whose output
    /// is bit-identical to the uncached path, so segmentation cannot move
    /// a bit.
    pub(crate) fn observe_terminal_segment(
        &self,
        cache: &PropagationCache<'_>,
        tid: usize,
        dish: Option<(&mut DishSimulator, &mut Option<SlotCapture>)>,
        allocs: &[Allocation],
    ) -> Vec<SlotObservation> {
        let location = self.terminals[tid].location;
        // The terminal replays its slots in order, which is exactly the
        // access pattern the track cache's boundary reuse and elevation
        // prefilter are built for; its output is bit-identical to the
        // uncached `identify_slot_through` path.
        let mut ident = dish.map(|(dish, prev_cap)| {
            let tracks = TrackCache::new(
                cache,
                location,
                MIN_CANDIDATE_ELEVATION_DEG,
                CANDIDATE_SAMPLES_PER_SLOT,
            );
            (tracks, dish, prev_cap)
        });
        let mut out = Vec::with_capacity(allocs.len());
        for alloc in allocs {
            let truth_id = alloc.chosen_id();
            let (chosen, outcome) = match ident.as_mut() {
                Some((tracks, dish, prev_cap)) => {
                    self.identify_alloc(tracks, dish, prev_cap, tid, alloc)
                }
                None => match alloc.chosen.as_ref() {
                    Some(chosen) => {
                        (Some(SatObs::from(chosen)), SlotOutcome::Observed { confidence: 1.0 })
                    }
                    None => (None, SlotOutcome::NoData(DegradeReason::Outage)),
                },
            };

            out.push(SlotObservation {
                terminal_id: tid,
                slot: alloc.slot,
                slot_start: alloc.slot_start,
                local_hour: alloc.slot_start.local_solar_hour(location.lon_deg),
                available: alloc.available.iter().map(SatObs::from).collect(),
                chosen,
                truth_id,
                outcome,
            });
        }
        out
    }

    /// Identified mode for one slot: fetches the dish's frame (with
    /// retries under the fault plan), differences it against the
    /// baseline capture, and resolves the §4 verdict.
    fn identify_alloc(
        &self,
        tracks: &mut TrackCache<'_, '_>,
        dish: &mut DishSimulator,
        prev_cap: &mut Option<SlotCapture>,
        tid: usize,
        alloc: &Allocation,
    ) -> (Option<SatObs>, SlotOutcome) {
        let truth_id = alloc.chosen_id();
        let fetch = dish.play_slot_faulted(
            self.constellation,
            alloc.slot,
            alloc.slot_start,
            truth_id,
            &self.config.faults,
            tid as u64,
            self.config.frame_retries,
        );
        let Some(capture) = fetch.capture else {
            // Every attempt failed: nothing to difference, and the next
            // successful frame has no baseline either.
            *prev_cap = None;
            let reason = DegradeReason::FrameDropped { attempts: fetch.attempts };
            return (None, SlotOutcome::NoData(reason));
        };
        let usable_prev = if capture.after_reset { None } else { prev_cap.as_ref() };
        let resolved = match usable_prev {
            None => {
                let reason = if capture.after_reset {
                    DegradeReason::AfterReset
                } else {
                    DegradeReason::MissingBaseline
                };
                (None, SlotOutcome::NoData(reason))
            }
            Some(prev) => {
                self.resolve_verdict(tracks, &prev.map, &capture.map, alloc, fetch.status, truth_id)
            }
        };
        *prev_cap = Some(capture);
        resolved
    }

    /// Runs the §4 identification on one differenced frame pair and folds
    /// the verdict into the observation's `(chosen, outcome)` pair,
    /// attributing empty trails to their upstream cause (stale frame,
    /// scheduler outage) when one is known.
    fn resolve_verdict(
        &self,
        tracks: &mut TrackCache<'_, '_>,
        prev: &starsense_obstruction::ObstructionMap,
        curr: &starsense_obstruction::ObstructionMap,
        alloc: &Allocation,
        status: FrameStatus,
        truth_id: Option<u32>,
    ) -> (Option<SatObs>, SlotOutcome) {
        match verdict_slot_tracked(tracks, prev, curr, alloc.slot_start, self.config.min_margin) {
            IdentVerdict::Identified { sat, confidence } => {
                // Report the identified satellite's observed state, taken
                // from the available list (all satellites in view, so a
                // correct match is always present).
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
                    NoDataReason::EmptyTrail if truth_id.is_none() => DegradeReason::Outage,
                    NoDataReason::EmptyTrail => DegradeReason::EmptyTrail,
                    NoDataReason::TinyTrail => DegradeReason::TinyTrail,
                    NoDataReason::NoCandidates => DegradeReason::NoCandidates,
                };
                (None, SlotOutcome::NoData(reason))
            }
        }
    }
}

/// Splits `0..len` into `shards` contiguous ranges whose lengths differ
/// by at most one (the first `len % shards` ranges take the extra
/// element). Contiguity keeps the concatenation of shard outputs in
/// global terminal order with no re-sorting.
pub(crate) fn shard_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.clamp(1, len.max(1));
    let base = len / shards;
    let extra = len % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let size = base + usize::from(s < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Splits `work` into `threads` interleaved (index, item) chunks, taking
/// the items out of their slots. Interleaving balances load when cost
/// varies smoothly across indices.
pub(crate) fn chunk_interleaved<T>(work: &mut [Option<T>], threads: usize) -> Vec<Vec<(usize, T)>> {
    let mut chunks: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, slot) in work.iter_mut().enumerate() {
        if let Some(item) = slot.take() {
            chunks[i % threads].push((i, item));
        }
    }
    chunks
}

/// Convenience: observations of one terminal only.
pub fn for_terminal(obs: &[SlotObservation], terminal_id: usize) -> Vec<&SlotObservation> {
    obs.iter().filter(|o| o.terminal_id == terminal_id).collect()
}

/// Convenience: the standard four-terminal oracle campaign of the paper.
pub fn paper_campaign(constellation: &Constellation, seed: u64) -> Campaign<'_> {
    Campaign::oracle(constellation, vantage::paper_terminals(), CampaignConfig::default(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use starsense_astro::frames::Geodetic;
    use starsense_constellation::ConstellationBuilder;

    fn small_run(identified: bool) -> Vec<SlotObservation> {
        let c = ConstellationBuilder::starlink_gen1().seed(33).build();
        let terminals = vec![Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2))];
        let config = CampaignConfig::default();
        let campaign = if identified {
            Campaign::identified(&c, terminals, config, 33)
        } else {
            Campaign::oracle(&c, terminals, config, 33)
        };
        campaign.run(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0), 25)
    }

    #[test]
    fn oracle_campaign_records_every_slot() {
        let obs = small_run(false);
        assert_eq!(obs.len(), 25);
        for o in &obs {
            assert!(!o.available.is_empty());
            assert_eq!(o.chosen.as_ref().map(|c| c.norad_id), o.truth_id);
            assert!((0.0..24.0).contains(&o.local_hour));
        }
        // Slots are consecutive.
        for w in obs.windows(2) {
            assert_eq!(w[1].slot, w[0].slot + 1);
        }
    }

    #[test]
    fn oracle_chosen_is_among_available() {
        let obs = small_run(false);
        for o in &obs {
            if let Some(ch) = &o.chosen {
                assert!(o.available.iter().any(|a| a.norad_id == ch.norad_id));
            }
        }
    }

    #[test]
    fn identified_campaign_mostly_matches_truth() {
        let obs = small_run(true);
        let attempted: Vec<&SlotObservation> =
            obs.iter().filter(|o| o.chosen.is_some() && o.truth_id.is_some()).collect();
        assert!(attempted.len() >= 15, "attempted {}", attempted.len());
        let correct = attempted
            .iter()
            .filter(|o| o.chosen.as_ref().map(|c| c.norad_id) == o.truth_id)
            .count();
        assert!(
            correct * 10 >= attempted.len() * 8,
            "identified accuracy {correct}/{}",
            attempted.len()
        );
    }

    /// Field-by-field equality of two observation streams, with float
    /// fields compared by bit pattern: "byte-identical" is the contract,
    /// not "approximately equal".
    fn assert_streams_identical(a: &[SlotObservation], b: &[SlotObservation]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.terminal_id, y.terminal_id);
            assert_eq!(x.slot, y.slot);
            assert_eq!(x.slot_start.0.to_bits(), y.slot_start.0.to_bits());
            assert_eq!(x.local_hour.to_bits(), y.local_hour.to_bits());
            assert_eq!(x.truth_id, y.truth_id);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.chosen.as_ref().map(sat_bits), y.chosen.as_ref().map(sat_bits));
            assert_eq!(x.available.len(), y.available.len());
            for (sa, sb) in x.available.iter().zip(&y.available) {
                assert_eq!(sat_bits(sa), sat_bits(sb));
            }
        }
    }

    fn sat_bits(s: &SatObs) -> (u32, u64, u64, u64, bool, i32, u32) {
        (
            s.norad_id,
            s.elevation_deg.to_bits(),
            s.azimuth_deg.to_bits(),
            s.age_days.to_bits(),
            s.sunlit,
            s.launch_year,
            s.launch_month,
        )
    }

    fn threaded_run(identified: bool, threads: usize, shards: usize) -> Vec<SlotObservation> {
        let c = ConstellationBuilder::starlink_gen1().seed(33).build();
        // Iowa and Cedar Rapids are ~30 km apart and land in the same
        // visibility-index cell, so the cohort path genuinely shares
        // candidates in this fixture instead of degenerating to singletons.
        let terminals = vec![
            Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2)),
            Terminal::new(1, "Seattle", Geodetic::new(47.61, -122.33, 0.1)),
            Terminal::new(2, "Austin", Geodetic::new(30.27, -97.74, 0.15)),
            Terminal::new(3, "Cedar Rapids", Geodetic::new(41.98, -91.67, 0.25)),
        ];
        let config = CampaignConfig { threads, shards, ..CampaignConfig::default() };
        let campaign = if identified {
            Campaign::identified(&c, terminals, config, 33)
        } else {
            Campaign::oracle(&c, terminals, config, 33)
        };
        campaign.run(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0), 20)
    }

    #[test]
    fn oracle_campaign_is_thread_count_invariant() {
        let serial = threaded_run(false, 1, 1);
        assert_streams_identical(&serial, &threaded_run(false, 4, 1));
        assert_streams_identical(&serial, &threaded_run(false, 0, 1));
    }

    #[test]
    fn identified_campaign_is_thread_count_invariant() {
        let serial = threaded_run(true, 1, 1);
        assert_streams_identical(&serial, &threaded_run(true, 4, 1));
        assert_streams_identical(&serial, &threaded_run(true, 0, 1));
    }

    #[test]
    fn oracle_campaign_is_shard_count_invariant() {
        // The full matrix: every (threads, shards) combination — including
        // auto-detect on both axes and shard counts past the terminal
        // count — must reproduce the single-thread single-shard stream
        // bit for bit.
        let serial = threaded_run(false, 1, 1);
        for threads in [1, 2, 4, 0] {
            for shards in [1, 2, 3, 5, 0] {
                assert_streams_identical(&serial, &threaded_run(false, threads, shards));
            }
        }
    }

    #[test]
    fn identified_campaign_is_shard_count_invariant() {
        let serial = threaded_run(true, 1, 1);
        for (threads, shards) in [(1, 2), (2, 3), (4, 5), (0, 0), (2, 1)] {
            assert_streams_identical(&serial, &threaded_run(true, threads, shards));
        }
    }

    #[test]
    fn faulted_campaign_is_shard_count_invariant() {
        // The fault mask is applied inside each shard worker; the bitset
        // is pure data, so degradation patterns must not move with the
        // partition either.
        use starsense_faults::FaultRates;
        let rates = FaultRates { frame_drop: 0.15, propagation_fail: 0.2, ..FaultRates::none() };
        let run = |threads: usize, shards: usize| {
            let c = ConstellationBuilder::starlink_mini().seed(33).build();
            let terminals = vec![
                Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2)),
                Terminal::new(1, "Seattle", Geodetic::new(47.61, -122.33, 0.1)),
            ];
            let config = CampaignConfig {
                threads,
                shards,
                faults: FaultPlan::new(5, rates),
                quarantine_after: 2,
                ..CampaignConfig::default()
            };
            Campaign::identified(&c, terminals, config, 33)
                .run(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0), 25)
        };
        let serial = run(1, 1);
        assert_streams_identical(&serial, &run(2, 2));
        assert_streams_identical(&serial, &run(4, 0));
        assert_streams_identical(&serial, &run(2, 1));
    }

    #[test]
    fn worker_panic_propagates_through_run_with_its_payload() {
        // `run` has no retry budget: the first panicking work unit fails
        // the run, and the caller sees the worker's own panic text.
        use starsense_faults::FaultRates;
        let c = ConstellationBuilder::starlink_mini().seed(33).build();
        let terminals = vec![Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2))];
        let rates = FaultRates { worker_panic: 1.0, ..FaultRates::none() };
        let config =
            CampaignConfig { faults: FaultPlan::new(5, rates), ..CampaignConfig::default() };
        let campaign = Campaign::oracle(&c, terminals, config, 33);
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            campaign.run(from, 3);
        }));
        let payload = caught.expect_err("run must panic");
        let text = payload_message(payload.as_ref());
        assert!(text.starts_with("injected worker panic"), "payload text lost: {text:?}");
    }

    #[test]
    fn shard_ranges_partition_contiguously() {
        for len in [0usize, 1, 2, 3, 7, 10, 64] {
            for shards in [0usize, 1, 2, 3, 5, 64, 100] {
                let ranges = shard_ranges(len, shards);
                assert!(!ranges.is_empty());
                // Contiguous cover of 0..len with near-equal sizes.
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let sizes: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "len {len} shards {shards}: sizes {sizes:?}");
            }
        }
    }

    #[test]
    fn chunk_interleaved_empty_work_yields_empty_chunks() {
        let mut work: Vec<Option<u32>> = Vec::new();
        let chunks = chunk_interleaved(&mut work, 4);
        assert_eq!(chunks.len(), 4);
        assert!(chunks.iter().all(Vec::is_empty));
    }

    #[test]
    fn chunk_interleaved_with_more_threads_than_items() {
        let mut work: Vec<Option<&str>> = vec![Some("a"), Some("b")];
        let chunks = chunk_interleaved(&mut work, 5);
        assert_eq!(chunks.len(), 5);
        assert_eq!(chunks[0], vec![(0, "a")]);
        assert_eq!(chunks[1], vec![(1, "b")]);
        assert!(chunks[2..].iter().all(Vec::is_empty));
        assert!(work.iter().all(Option::is_none), "items must be moved out");
    }

    #[test]
    fn chunk_interleaved_skips_empty_slots() {
        let mut work = vec![Some(10), None, Some(30), None, Some(50)];
        let chunks = chunk_interleaved(&mut work, 2);
        // Chunk membership follows the original index, not a compacted one.
        assert_eq!(chunks[0], vec![(0, 10), (2, 30), (4, 50)]);
        assert!(chunks[1].is_empty());
    }

    proptest::proptest! {
        #[test]
        fn chunk_interleaved_partitions_every_index_exactly_once(
            len in 0usize..80,
            threads in 1usize..12,
        ) {
            let mut work: Vec<Option<usize>> = (0..len).map(Some).collect();
            let chunks = chunk_interleaved(&mut work, threads);
            proptest::prop_assert_eq!(chunks.len(), threads);
            let mut seen: Vec<(usize, usize)> =
                chunks.into_iter().flatten().collect();
            seen.sort_by_key(|(i, _)| *i);
            // Every index appears exactly once, paired with its own item.
            proptest::prop_assert_eq!(seen.len(), len);
            for (k, (i, item)) in seen.iter().enumerate() {
                proptest::prop_assert_eq!(k, *i);
                proptest::prop_assert_eq!(i, item);
            }
        }
    }

    #[test]
    fn worker_threads_resolves_zero_to_at_least_one() {
        let c = ConstellationBuilder::starlink_mini().seed(1).build();
        let terminals = vec![Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2))];
        let auto = Campaign::oracle(&c, terminals.clone(), CampaignConfig::default(), 1);
        // Auto-detect can never resolve to zero workers, even on a
        // single-CPU host where available_parallelism() returns 1.
        assert!(auto.worker_threads() >= 1);
        let config = CampaignConfig { threads: 7, ..CampaignConfig::default() };
        let explicit = Campaign::oracle(&c, terminals, config, 1);
        assert_eq!(explicit.worker_threads(), 7);
    }

    #[test]
    fn shard_count_clamps_to_terminals() {
        let c = ConstellationBuilder::starlink_mini().seed(1).build();
        let terminals = vec![
            Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2)),
            Terminal::new(1, "Seattle", Geodetic::new(47.61, -122.33, 0.1)),
        ];
        let config = CampaignConfig { shards: 100, ..CampaignConfig::default() };
        let campaign = Campaign::oracle(&c, terminals.clone(), config, 1);
        assert_eq!(campaign.shard_count(), 2);
        let config = CampaignConfig { threads: 3, shards: 0, ..CampaignConfig::default() };
        let auto = Campaign::oracle(&c, terminals, config, 1);
        assert_eq!(auto.shard_count(), 2, "auto shards follow threads, clamped to terminals");
    }

    #[test]
    fn outcomes_partition_every_slot() {
        // Oracle: every slot is Observed (confidence 1) or an Outage.
        for obs in &small_run(false) {
            match obs.outcome {
                SlotOutcome::Observed { confidence } => {
                    assert_eq!(confidence, 1.0);
                    assert!(obs.chosen.is_some());
                }
                SlotOutcome::NoData(DegradeReason::Outage) => assert!(obs.chosen.is_none()),
                other => panic!("oracle slot resolved as {other:?}"),
            }
        }
        // Identified: chosen is Some exactly on Observed outcomes.
        let obs = small_run(true);
        for o in &obs {
            assert_eq!(o.chosen.is_some(), o.outcome.is_observed(), "slot {}", o.slot);
        }
        assert!(obs.iter().filter(|o| o.outcome.is_observed()).count() >= 15);
    }

    fn faulted_run(rates: starsense_faults::FaultRates, seed: u64) -> Vec<SlotObservation> {
        let c = ConstellationBuilder::starlink_mini().seed(33).build();
        let terminals = vec![Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2))];
        let config = CampaignConfig {
            faults: FaultPlan::new(seed, rates),
            min_margin: starsense_ident::DEFAULT_MIN_MARGIN,
            quarantine_after: 2,
            ..CampaignConfig::default()
        };
        Campaign::identified(&c, terminals, config, 33)
            .run(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0), 25)
    }

    #[test]
    fn faulted_campaign_degrades_gracefully_and_deterministically() {
        use starsense_faults::FaultRates;
        let rates = FaultRates {
            frame_drop: 0.15,
            frame_stale: 0.1,
            frame_corrupt: 0.1,
            propagation_fail: 0.1,
            ..FaultRates::none()
        };
        let obs = faulted_run(rates, 5);
        assert_eq!(obs.len(), 25, "faults must never lose slots");
        let stats = crate::degrade::DegradationStats::collect(&obs);
        assert_eq!(stats.observed + stats.ambiguous + stats.no_data, 25);
        assert!(stats.no_data > 0, "15% frame drops over 25 slots should surface");
        for o in &obs {
            assert_eq!(o.chosen.is_some(), o.outcome.is_observed());
            // Slot times stay monotone even across dropped frames.
        }
        for w in obs.windows(2) {
            assert!(w[1].slot == w[0].slot + 1);
        }
        // Bit-for-bit reproducible under the same plan.
        assert_streams_identical(&obs, &faulted_run(rates, 5));
        // A different fault seed gives a different degradation pattern.
        let other = faulted_run(rates, 6);
        let outcomes = |os: &[SlotObservation]| -> Vec<bool> {
            os.iter().map(|o| o.outcome.is_observed()).collect::<Vec<_>>()
        };
        assert_ne!(outcomes(&obs), outcomes(&other), "fault seed had no effect");
    }

    #[test]
    fn fault_free_plan_is_bit_identical_to_default_config() {
        let c = ConstellationBuilder::starlink_gen1().seed(33).build();
        let terminals = vec![Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2))];
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0);
        let plain = Campaign::identified(&c, terminals.clone(), CampaignConfig::default(), 33)
            .run(from, 20);
        // A seeded all-zero plan (plus retry/quarantine knobs that only
        // matter under faults) must not move a single bit.
        let config = CampaignConfig {
            faults: FaultPlan::new(987, starsense_faults::FaultRates::none()),
            frame_retries: 5,
            quarantine_after: 3,
            ..CampaignConfig::default()
        };
        let faulted = Campaign::identified(&c, terminals, config, 33).run(from, 20);
        assert_streams_identical(&plain, &faulted);
    }

    #[test]
    fn propagation_faults_quarantine_and_shrink_visibility() {
        use starsense_faults::FaultRates;
        let c = ConstellationBuilder::starlink_mini().seed(33).build();
        let terminals = vec![Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2))];
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0);
        let run = |rate: f64, quarantine_after: u32| {
            let config = CampaignConfig {
                faults: FaultPlan::new(
                    11,
                    FaultRates { propagation_fail: rate, ..FaultRates::none() },
                ),
                quarantine_after,
                ..CampaignConfig::default()
            };
            let (obs, stats, _) = Campaign::oracle(&c, terminals.clone(), config, 33)
                .run_resumable(from, 25, &ResumeConfig::default())
                .expect("fault-masked campaign completes");
            (obs, stats)
        };
        let (clean_obs, clean_stats) = run(0.0, 2);
        assert_eq!(clean_stats.quarantined_sats, 0);
        assert_eq!(clean_stats.masked_propagations, 0);

        let (faulty_obs, faulty_stats) = run(0.4, 2);
        assert!(faulty_stats.quarantined_sats > 0, "40% failure rate must quarantine");
        assert!(faulty_stats.masked_propagations > 0);
        let visible =
            |os: &[SlotObservation]| -> usize { os.iter().map(|o| o.available.len()).sum() };
        assert!(
            visible(&faulty_obs) < visible(&clean_obs),
            "masked propagations should shrink the available lists"
        );
        // Every satellite the campaign still reports was actually usable.
        for o in &faulty_obs {
            if let Some(ch) = &o.chosen {
                assert!(o.available.iter().any(|a| a.norad_id == ch.norad_id));
            }
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = small_run(false);
        let b = small_run(false);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.truth_id, y.truth_id);
        }
    }

    #[test]
    fn for_terminal_filters() {
        let c = ConstellationBuilder::starlink_gen1().seed(33).build();
        let campaign = paper_campaign(&c, 7);
        let obs = campaign.run(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0), 3);
        assert_eq!(obs.len(), 12);
        assert_eq!(for_terminal(&obs, 2).len(), 3);
        assert!(for_terminal(&obs, 2).iter().all(|o| o.terminal_id == 2));
    }
}
