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
//! that engine with checkpointing off. Each call first builds every
//! terminal's immutable [`SiteGeometry`] (GSO zone, ECEF direction and
//! radius) once, in parallel over the shard ranges. Each segment of the
//! slot window (at most 96 slots, whether or not checkpointing is on; see
//! [`crate::resume`]) then runs in two phases, three in identified mode,
//! around a segment's own [`PropagationCache`]:
//!
//! 1. **Prepare** (parallel) — every epoch the segment will touch (each
//!    slot's truth snapshot, plus — in identified mode — each slot's two
//!    published-TLE boundary rows) is propagated once into the cache's
//!    immutable epoch table. The cache is culled to the terminals' skies
//!    at the lowest consumer cutoff: key rows are full width, and every
//!    other row propagates only the satellites its key row cannot prove
//!    below that cutoff (see [`PropagationCache`]). Every later read of
//!    those epochs is a lock-free binary search;
//! 2. **Schedule** (sharded, parallel) — the terminals are split into
//!    contiguous shards (see [`CampaignConfig::shards`]) and each worker
//!    steps its slice of sites over a copy of its slice of
//!    [`TerminalSchedState`]s, slot by slot: fields of view through the
//!    terminal-cohort path ([`cohort_fields_of_view`]), then scoring
//!    and the softmax pick ([`allocate_slot`]). Each slot's allocations
//!    become [`SlotObservation`]s at once, with the oracle's verdict (the
//!    chosen satellite, or an outage), and are dropped with their
//!    `VisibleSat` skies, so no segment holds every terminal's
//!    allocations. Per-terminal RNG streams and hysteresis keys make a
//!    terminal's allocation a function of `(seed, terminal id, sky)`
//!    alone, so the merged shard outputs are bit-identical to one step
//!    over all terminals. In oracle mode this is the last phase;
//! 3. **Identify** (identified mode only, parallel) — each terminal
//!    independently refines its observation column in place: dish
//!    painting, XOR isolation, and DTW identification replace `chosen`
//!    and `outcome`, and every other field stays as the schedule phase
//!    recorded it. Boundary rows are read from the prepared table and
//!    interior candidate-track epochs propagated per satellite — no locks
//!    on the hot path.
//!
//! Observations are byte-identical for any worker-thread count and any
//! shard count (see [`CampaignConfig::threads`]), and the determinism
//! tests hold multi-threaded, multi-shard runs to the single-threaded
//! stream field by field.

use crate::degrade::{DegradeReason, SlotOutcome};
use crate::resume::ResumeConfig;
use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_constellation::{Constellation, PropagationCache, VisibleSat};
use starsense_faults::FaultPlan;
use starsense_ident::{
    verdict_slot_tracked, DishSimulator, FrameStatus, IdentVerdict, NoDataReason, SlotCapture,
    TrackCache, CANDIDATE_SAMPLES_PER_SLOT, MIN_CANDIDATE_ELEVATION_DEG,
};
use starsense_scheduler::slots::slot_start;
use starsense_scheduler::{
    allocate_slot, cohort_fields_of_view, AllocScratch, LoadModel, SchedulerPolicy, SiteGeometry,
    Terminal, TerminalSchedState,
};

/// Typed campaign failure — what [`Campaign::run_resumable`] reports
/// when its configuration cannot be run or it cannot read or write a
/// checkpoint. A worker panic is not an error value: it propagates with
/// its own payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The configuration cannot be run; nothing was done. Today this is a
    /// policy `min_elevation_deg` that is non-finite or outside [0, 90).
    InvalidConfig(String),
    /// Writing or reading a checkpoint snapshot failed.
    Checkpoint(starsense_checkpoint::CheckpointError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::InvalidConfig(why) => write!(f, "invalid campaign config: {why}"),
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
    /// Terminal id (index into [`crate::vantage::paper_terminals`]-style lists).
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
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            policy: SchedulerPolicy::default(),
            threads: 0,
            shards: 0,
            faults: FaultPlan::none(),
            min_margin: 0.0,
            frame_retries: 2,
        }
    }
}

/// A runnable campaign.
pub struct Campaign<'a> {
    pub(crate) constellation: &'a Constellation,
    pub(crate) terminals: Vec<Terminal>,
    pub(crate) config: CampaignConfig,
    /// Observe through the §4 identification pipeline instead of reading
    /// the scheduler directly; fixed by the constructor.
    pub(crate) identified: bool,
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
        Campaign { constellation, terminals, config, identified: false, seed }
    }

    /// Identified-mode campaign (through the obstruction-map pipeline).
    pub fn identified(
        constellation: &'a Constellation,
        terminals: Vec<Terminal>,
        config: CampaignConfig,
        seed: u64,
    ) -> Campaign<'a> {
        Campaign { constellation, terminals, config, identified: true, seed }
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
    /// no checkpoints. Observations are byte-identical for any
    /// [`CampaignConfig::threads`] and [`CampaignConfig::shards`] value.
    ///
    /// # Panics
    ///
    /// Panics with the [`CampaignError::InvalidConfig`] message, before
    /// any work, when the configuration cannot be run (a policy
    /// `min_elevation_deg` that is non-finite or outside [0, 90)). A
    /// worker panic propagates with the worker's own payload.
    #[expect(
        clippy::panic,
        reason = "an invalid configuration is a caller bug; `run` is infallible"
    )]
    pub fn run(&self, from: JulianDate, slots: usize) -> Vec<SlotObservation> {
        match self.run_resumable(from, slots, &ResumeConfig::default()) {
            Ok((obs, _, _)) => obs,
            // Checkpointing is off: no snapshot is read or written, so the
            // only error left is an invalid configuration.
            Err(e) => panic!("{e}"),
        }
    }

    /// Checks what the engine needs of the configuration before any work.
    pub(crate) fn validate_config(&self) -> Result<(), CampaignError> {
        let min_el = self.config.policy.min_elevation_deg;
        if !(0.0..90.0).contains(&min_el) {
            let why = format!("policy min_elevation_deg {min_el} is not in [0, 90)");
            return Err(CampaignError::InvalidConfig(why));
        }
        Ok(())
    }

    /// The propagation table a segment prepares: culled to the
    /// terminals' skies at the lowest cutoff any consumer applies — the
    /// scheduler's field of view and, in identified mode, the candidate
    /// tracks.
    pub(crate) fn propagation_cache(&self) -> PropagationCache<'a> {
        let observers: Vec<Geodetic> = self.terminals.iter().map(|t| t.location).collect();
        let mut cutoff = self.config.policy.min_elevation_deg;
        if self.identified {
            cutoff = cutoff.min(MIN_CANDIDATE_ELEVATION_DEG);
        }
        PropagationCache::for_observers(self.constellation, &observers, cutoff)
    }

    /// The scheduling inner loop of one shard: steps `sites` — terminals
    /// `first..first + sites.len()` — and their `states` (advanced in
    /// place) over `mids`. Each slot's allocations become observations as
    /// soon as they are drawn, with the oracle's verdict, and are dropped
    /// with their skies. Returns per-site observation columns in `sites`
    /// order.
    pub(crate) fn schedule_slots(
        &self,
        first: usize,
        sites: &[SiteGeometry],
        states: &mut [TerminalSchedState],
        cache: &PropagationCache<'_>,
        mids: &[JulianDate],
    ) -> Vec<Vec<SlotObservation>> {
        let policy = &self.config.policy;
        let load = LoadModel::for_scheduler(self.seed);
        let mut scratch = AllocScratch::default();
        let mut columns: Vec<Vec<SlotObservation>> =
            sites.iter().map(|_| Vec::with_capacity(mids.len())).collect();
        for &at in mids {
            let fov = self.fields_of_view(sites, cache, at);
            let allocs = allocate_slot(policy, &load, sites, states, &mut scratch, at, fov);
            // A column's terminal index is the site's global position, not
            // `Allocation::terminal_id`: two terminals may share an id.
            for (tid, (column, alloc)) in (first..).zip(columns.iter_mut().zip(allocs)) {
                let verdict = match alloc.chosen.as_ref() {
                    Some(chosen) => {
                        (Some(SatObs::from(chosen)), SlotOutcome::Observed { confidence: 1.0 })
                    }
                    None => (None, SlotOutcome::NoData(DegradeReason::Outage)),
                };
                column.push(self.slot_observation(
                    tid,
                    alloc.slot,
                    alloc.slot_start,
                    &alloc.available,
                    alloc.chosen_id(),
                    verdict,
                ));
            }
        }
        columns
    }

    /// The scheduler's sky at the slot containing `at`: the field of view
    /// of every site in `sites`, from the prepared `cache`. The schedule
    /// phase allocates over it, and a resume rebuilds the skies of the
    /// observations it restores from it.
    pub(crate) fn fields_of_view(
        &self,
        sites: &[SiteGeometry],
        cache: &PropagationCache<'_>,
        at: JulianDate,
    ) -> Vec<Vec<VisibleSat>> {
        let snapshot = cache.snapshot(slot_start(at));
        // Cohort sharing is per call: terminals that land in the same grid
        // cell among `sites` pool their candidate fetch. The partition only
        // changes how candidates are gathered, never which satellites pass
        // the exact elevation test, so every shard split produces the same
        // fields of view bit for bit.
        cohort_fields_of_view(
            sites,
            self.config.policy.min_elevation_deg,
            self.constellation,
            &snapshot,
        )
    }

    /// One slot observation of terminal `tid`, assembled from the sky its
    /// scheduler saw at `slot` and what the slot measured: the truth id,
    /// and the chosen satellite (an element of `sky`) with the outcome.
    /// The schedule phase and a resume's replay both build observations
    /// here, so a restored stream equals the live one field for field.
    pub(crate) fn slot_observation(
        &self,
        tid: usize,
        slot: i64,
        slot_start: JulianDate,
        sky: &[VisibleSat],
        truth_id: Option<u32>,
        (chosen, outcome): (Option<SatObs>, SlotOutcome),
    ) -> SlotObservation {
        SlotObservation {
            terminal_id: tid,
            slot,
            slot_start,
            local_hour: slot_start.local_solar_hour(self.terminals[tid].location.lon_deg),
            available: sky.iter().map(SatObs::from).collect(),
            chosen,
            truth_id,
            outcome,
        }
    }

    /// Identified mode over one *segment* of terminal `tid`'s observation
    /// column: replaces each observation's oracle verdict (`chosen` and
    /// `outcome`) with what the §4 pipeline recovers, and leaves every
    /// other field as the schedule phase recorded it. `dish` and
    /// `prev_cap` are the caller-owned dish state machine and differencing
    /// baseline, which the segment continues from and advances. The track
    /// cache is recreated per call — it is a pure cache whose output is
    /// bit-identical to the uncached path, so segmentation cannot move a
    /// bit.
    pub(crate) fn identify_terminal_segment(
        &self,
        cache: &PropagationCache<'_>,
        tid: usize,
        dish: &mut DishSimulator,
        prev_cap: &mut Option<SlotCapture>,
        column: &mut [SlotObservation],
    ) {
        // The terminal replays its slots in order, which is exactly the
        // access pattern the track cache's boundary reuse and elevation
        // prefilter are built for; its output is bit-identical to the
        // direct `candidate_tracks` generator's.
        let mut tracks = TrackCache::new(
            cache,
            self.terminals[tid].location,
            MIN_CANDIDATE_ELEVATION_DEG,
            CANDIDATE_SAMPLES_PER_SLOT,
        );
        for obs in column {
            (obs.chosen, obs.outcome) = self.identify_slot(&mut tracks, dish, prev_cap, tid, obs);
        }
    }

    /// Identified mode for one slot: fetches the dish's frame (with
    /// retries under the fault plan), differences it against the
    /// baseline capture, and resolves the §4 verdict.
    fn identify_slot(
        &self,
        tracks: &mut TrackCache<'_, '_>,
        dish: &mut DishSimulator,
        prev_cap: &mut Option<SlotCapture>,
        tid: usize,
        obs: &SlotObservation,
    ) -> (Option<SatObs>, SlotOutcome) {
        let fetch = dish.play_slot_faulted(
            self.constellation,
            obs.slot,
            obs.slot_start,
            obs.truth_id,
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
            Some(prev) => self.resolve_verdict(tracks, &prev.map, &capture.map, obs, fetch.status),
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
        obs: &SlotObservation,
        status: FrameStatus,
    ) -> (Option<SatObs>, SlotOutcome) {
        match verdict_slot_tracked(tracks, prev, curr, obs.slot_start, self.config.min_margin) {
            IdentVerdict::Identified { sat, confidence } => {
                // Report the identified satellite's observed state, taken
                // from the available list (all satellites in view, so a
                // correct match is always present).
                match obs.available.iter().find(|s| s.norad_id == sat.norad_id) {
                    Some(s) => (Some(s.clone()), SlotOutcome::Observed { confidence }),
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
                    NoDataReason::EmptyTrail if obs.truth_id.is_none() => DegradeReason::Outage,
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

#[cfg(test)]
mod tests {
    use super::*;
    use starsense_astro::frames::Geodetic;
    use starsense_constellation::ConstellationBuilder;
    use starsense_scheduler::slots::SLOT_PERIOD_SECONDS;

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
    fn identification_refines_only_chosen_and_outcome() {
        // Identified mode schedules exactly as oracle mode does and then
        // overwrites each observation's `chosen` and `outcome`: with the
        // oracle's verdict put back, the stream is the oracle stream bit
        // for bit, for every layout.
        for threads in [1, 2] {
            for shards in [1, 2] {
                let oracle = threaded_run(false, threads, shards);
                let identified = threaded_run(true, threads, shards);
                assert!(
                    identified.iter().zip(&oracle).any(|(i, o)| i.outcome != o.outcome),
                    "identification left every oracle verdict in place"
                );
                let verdicts_restored: Vec<SlotObservation> = identified
                    .iter()
                    .zip(&oracle)
                    .map(|(i, o)| SlotObservation {
                        chosen: o.chosen.clone(),
                        outcome: o.outcome,
                        ..i.clone()
                    })
                    .collect();
                assert_streams_identical(&oracle, &verdicts_restored);
            }
        }
    }

    #[test]
    fn faulted_campaign_is_shard_count_invariant() {
        // Fault decisions are pure functions of (seed, terminal, slot),
        // so degradation patterns must not move with the partition.
        use starsense_faults::FaultRates;
        let rates = FaultRates { frame_drop: 0.15, ..FaultRates::none() };
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
        // A seeded all-zero plan (plus a retry knob that only matters
        // under faults) must not move a single bit.
        let config = CampaignConfig {
            faults: FaultPlan::new(987, starsense_faults::FaultRates::none()),
            frame_retries: 5,
            ..CampaignConfig::default()
        };
        let faulted = Campaign::identified(&c, terminals, config, 33).run(from, 20);
        assert_streams_identical(&plain, &faulted);
    }

    /// Slots of [`decaying_satellite_campaign`]'s window.
    const DECAY_SLOTS: usize = 60;

    /// The mini catalog with its first satellite under absurd drag
    /// (`B*` = 0.1, truth and published TLE alike), a campaign start ten
    /// minutes before its catalog position starts reading `None` at every
    /// epoch, the window slot `decay` from which it does, and a terminal
    /// right under it at the last slot before `decay`. The window starts
    /// from the first slot of a two-hour run of `None`s.
    fn decaying_satellite_campaign() -> (Constellation, JulianDate, usize, Terminal) {
        let mut sats = ConstellationBuilder::starlink_mini().seed(33).build().sats().to_vec();
        let s = &sats[0];
        let (mut elements, mut published) = (s.elements, s.published.clone());
        elements.bstar = 0.1;
        published.bstar = 0.1;
        sats[0] =
            starsense_constellation::Satellite::new(s.name.clone(), s.launch, elements, published)
                .expect("heavy drag still initializes");
        let c = Constellation::new(sats);
        let sat = &c.sats()[0];
        // Hour steps to the first failure, then slot steps to the start
        // of a two-hour run of failures.
        let mut at = sat.elements.epoch;
        while sat.true_position(at).is_some() {
            at = at.plus_seconds(3_600.0);
        }
        let (mut run_start, mut failures) = (at, 0);
        while failures < 480 {
            if sat.true_position(at).is_some() {
                (run_start, failures) = (at.plus_seconds(SLOT_PERIOD_SECONDS), 0);
            } else {
                failures += 1;
            }
            at = at.plus_seconds(SLOT_PERIOD_SECONDS);
        }
        // The engine's slot instants over the window.
        let from = slot_start(run_start.plus_seconds(-600.0));
        let first_mid = from.plus_seconds(SLOT_PERIOD_SECONDS / 2.0);
        let instants: Vec<JulianDate> = (0..DECAY_SLOTS)
            .map(|k| slot_start(first_mid.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS)))
            .collect();
        let snapshots: Vec<_> = instants.iter().map(|&at| c.snapshot(at)).collect();
        let decay = 1 + snapshots.iter().rposition(|s| s.entries()[0].is_some()).unwrap();
        assert!((30..50).contains(&decay), "decay at window slot {decay}");
        let ground = snapshots[..decay]
            .iter()
            .rev()
            .find_map(|s| s.entries()[0])
            .map(|e| starsense_astro::frames::ecef_to_geodetic(e.ecef))
            .expect("flies before it decays");
        let under =
            Terminal::new(0, "Under the track", Geodetic::new(ground.lat_deg, ground.lon_deg, 0.1));
        (c, from, decay, under)
    }

    #[test]
    fn decaying_satellite_leaves_the_campaign_for_good() {
        // A real decay: SGP4 alone keeps flying the satellite a few km up
        // past `decay`, but the catalog reads it as decayed below the
        // altitude floor at every later epoch, so it is in no later
        // available list, no available entry lies below the floor, and the
        // stream stays a pure function of the inputs.
        let (c, from, decay, under) = decaying_satellite_campaign();
        let id = c.sats()[0].norad_id;
        let raw = starsense_sgp4::Sgp4::new(&c.sats()[0].elements).expect("heavy drag initializes");
        let floor_km =
            starsense_sgp4::wgs72::EARTH_RADIUS_KM + starsense_constellation::DECAY_ALTITUDE_KM;
        let radius = |at: JulianDate| raw.position(at).ok().map(|p| p.norm());
        let terminals = vec![under, Terminal::new(1, "Iowa", Geodetic::new(41.66, -91.53, 0.2))];
        for identified in [false, true] {
            let campaign = |threads: usize| {
                let config = CampaignConfig { threads, ..CampaignConfig::default() };
                if identified {
                    Campaign::identified(&c, terminals.clone(), config, 33)
                } else {
                    Campaign::oracle(&c, terminals.clone(), config, 33)
                }
            };
            let obs = campaign(1).run(from, DECAY_SLOTS);
            assert_eq!(obs.len(), DECAY_SLOTS * terminals.len());
            let seen = |o: &SlotObservation| o.available.iter().any(|a| a.norad_id == id);
            let slots: Vec<&[SlotObservation]> = obs.chunks(terminals.len()).collect();
            assert!(
                slots[..decay].iter().any(|slot| seen(&slot[0])),
                "identified {identified}: the terminal under the track must see it first"
            );
            for o in slots[decay..].iter().copied().flatten() {
                assert!(!seen(o), "identified {identified}: decayed satellite at slot {}", o.slot);
                assert_ne!(o.truth_id, Some(id));
            }
            assert!(
                slots[decay..]
                    .iter()
                    .any(|slot| radius(slot[0].slot_start).is_some_and(|r| r < floor_km)),
                "SGP4 alone must still fly it below the floor after the decay"
            );
            for o in obs.iter().filter(|o| seen(o)) {
                let r = radius(o.slot_start);
                assert!(r >= Some(floor_km), "available at radius {r:?} km, slot {}", o.slot);
            }
            assert_streams_identical(&obs, &campaign(2).run(from, DECAY_SLOTS));
            let dir = std::env::temp_dir()
                .join(format!("starsense-decay-{}-{identified}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create scratch dir");
            let opts = ResumeConfig { checkpoint_every: 3, ..ResumeConfig::new(dir.join("c")) };
            let segmented = campaign(1).run_resumable(from, DECAY_SLOTS, &opts);
            let _ = std::fs::remove_dir_all(&dir);
            assert_streams_identical(&obs, &segmented.expect("segmented run completes").0);
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
}
