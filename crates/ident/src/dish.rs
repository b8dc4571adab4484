//! The simulated dish: obstruction-map painting and snapshotting.
//!
//! The real dish paints the trajectory of whichever satellite currently
//! serves it. Our simulator does the same from the hidden scheduler's
//! ground-truth allocations — this module is part of the *system under
//! measurement*, not of the inference pipeline, which only ever sees the
//! snapshots.

use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_constellation::Constellation;
use starsense_faults::{FaultPlan, FaultRng, FrameFault};
use starsense_obstruction::{paint, ObstructionMap, MAP_SIZE};
use starsense_scheduler::slots::SLOT_PERIOD_SECONDS;

/// An obstruction-map snapshot taken at the end of a slot, as
/// `starlink-grpc-tools` would fetch it every 15 seconds.
#[derive(Debug, Clone)]
pub struct SlotCapture {
    /// Global slot index the snapshot closes.
    pub slot: i64,
    /// Slot start time.
    pub slot_start: JulianDate,
    /// The map state after the slot's trajectory was painted.
    pub map: ObstructionMap,
    /// Whether the dish was reset (blank map) immediately before this slot.
    pub after_reset: bool,
}

/// How one obstruction-frame *fetch* resolved (the fault channel of
/// [`DishSimulator::play_slot_faulted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStatus {
    /// A clean, current bitmap.
    Fresh,
    /// The bitmap as it stood before this slot's trail was painted — a
    /// late gRPC response serving the previous state.
    Stale,
    /// A current bitmap with a burst of flipped pixels.
    Corrupted,
    /// Every fetch attempt (including retries) returned nothing.
    Dropped,
}

/// Result of a fault-aware frame fetch: the capture (absent when every
/// attempt dropped), how the fetch resolved, and how many attempts it
/// took. The dish's own state machine (reset policy, painting) always
/// advances regardless — faults model the telemetry channel, not the
/// dish.
#[derive(Debug, Clone)]
pub struct FrameFetch {
    /// The fetched capture; `None` only when `status` is
    /// [`FrameStatus::Dropped`].
    pub capture: Option<SlotCapture>,
    /// How the fetch resolved.
    pub status: FrameStatus,
    /// Fetch attempts made (1 = first attempt succeeded).
    pub attempts: u32,
}

/// The mutable cross-slot state of a [`DishSimulator`], exported at a
/// slot boundary for checkpointing. The rest of a simulator — location,
/// reset cadence, samples per slot — is configuration the restoring side
/// reconstructs; this triple is everything that evolves as slots play.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DishState {
    /// The accumulated obstruction map.
    pub map: ObstructionMap,
    /// Slots played since the map was last blanked.
    pub slots_since_reset: u32,
    /// Whether a reset is still pending disclosure to the next
    /// successful fetch.
    pub reset_since_fetch: bool,
}

/// Simulates the dish's obstruction-map behaviour for one terminal.
#[derive(Debug, Clone)]
pub struct DishSimulator {
    location: Geodetic,
    map: ObstructionMap,
    /// Reset cadence in slots (paper: every 10 minutes = 40 slots).
    reset_every_slots: u32,
    slots_since_reset: u32,
    /// Samples painted per slot (the dish tracks continuously; ~1 Hz
    /// sampling keeps the Bresenham trail identical to a continuous one).
    samples_per_slot: u32,
    /// Whether the map was blanked since the last *successful* fetch —
    /// dropped frames can hide a reset from the client, and the next
    /// capture it does get must still carry `after_reset` so XOR chains
    /// across the blank are discarded.
    reset_since_fetch: bool,
}

impl DishSimulator {
    /// Creates a dish at `location` with the paper's 10-minute reset policy.
    pub fn new(location: Geodetic) -> DishSimulator {
        DishSimulator {
            location,
            map: ObstructionMap::new(),
            reset_every_slots: 40,
            slots_since_reset: 0,
            samples_per_slot: 16,
            reset_since_fetch: false,
        }
    }

    /// Overrides the reset cadence (0 = never reset, for the 2-day
    /// saturation run of §4.1).
    ///
    /// The cadence counts *played* slots, and the check runs at the
    /// **start** of a slot, before painting: with a cadence of `n`, slots
    /// `0..n` paint onto one accumulating map, and the slot that would be
    /// the `n`-th since the last blank first wipes the map and then
    /// paints — its capture is flagged [`SlotCapture::after_reset`] and
    /// shows only that slot's own trail. The counter restarts at every
    /// blank, whether it came from this policy or from an explicit
    /// [`DishSimulator::reset`] call.
    pub fn with_reset_every_slots(mut self, slots: u32) -> DishSimulator {
        self.reset_every_slots = slots;
        self
    }

    /// The dish's location.
    pub fn location(&self) -> Geodetic {
        self.location
    }

    /// Current map state (what a gRPC fetch would return right now).
    pub fn map(&self) -> &ObstructionMap {
        &self.map
    }

    /// Exports the mutable cross-slot state — the dish half of a campaign
    /// checkpoint.
    pub fn export_state(&self) -> DishState {
        DishState {
            map: self.map.clone(),
            slots_since_reset: self.slots_since_reset,
            reset_since_fetch: self.reset_since_fetch,
        }
    }

    /// Restores state exported by [`DishSimulator::export_state`]: the
    /// restored dish plays subsequent slots bit-identically to the
    /// exporting dish continuing (given the same configuration).
    pub fn restore_state(&mut self, state: DishState) {
        self.map = state.map;
        self.slots_since_reset = state.slots_since_reset;
        self.reset_since_fetch = state.reset_since_fetch;
    }

    /// Forces a terminal reset: blanks the map and restarts the reset
    /// cadence counter, exactly as the periodic policy does. The *next*
    /// capture a client receives after this call carries
    /// [`SlotCapture::after_reset`] `= true` (even if intervening
    /// fetches were dropped), telling the identification pipeline that
    /// an XOR against any earlier capture is meaningless.
    pub fn reset(&mut self) {
        self.map = ObstructionMap::new();
        self.slots_since_reset = 0;
        self.reset_since_fetch = true;
    }

    /// Advances the dish state machine by one slot: applies the reset
    /// policy and paints the serving satellite's true sky track.
    fn advance_slot(
        &mut self,
        constellation: &Constellation,
        slot_start: JulianDate,
        serving: Option<u32>,
    ) {
        if self.reset_every_slots > 0 && self.slots_since_reset >= self.reset_every_slots {
            self.reset();
        }
        self.slots_since_reset += 1;

        if let Some(id) = serving {
            if let Some(sat) = constellation.get(id) {
                let samples = sky_track(sat, self.location, slot_start, self.samples_per_slot);
                paint(&mut self.map, &samples);
            }
        }
    }

    /// Plays one slot: applies the reset policy, paints the serving
    /// satellite's true sky track across the slot, and returns the
    /// end-of-slot snapshot.
    ///
    /// `serving` is the ground-truth allocation for this slot (`None` =
    /// outage, nothing painted).
    pub fn play_slot(
        &mut self,
        constellation: &Constellation,
        slot: i64,
        slot_start: JulianDate,
        serving: Option<u32>,
    ) -> SlotCapture {
        self.advance_slot(constellation, slot_start, serving);
        let after_reset = self.reset_since_fetch;
        self.reset_since_fetch = false;
        SlotCapture { slot, slot_start, map: self.map.clone(), after_reset }
    }

    /// [`DishSimulator::play_slot`] with a fault-injected fetch channel.
    ///
    /// The dish state machine advances exactly as in `play_slot` — resets
    /// and painting are unaffected by telemetry faults — but the
    /// *snapshot fetch* consults `plan` (keyed by `terminal`, `slot`, and
    /// the attempt number, so the schedule is reproducible and
    /// thread-order independent):
    ///
    /// - **Dropped** attempts are retried up to `max_retries` times; if
    ///   all attempts drop, the result carries no capture and any reset
    ///   stays pending for the next successful fetch.
    /// - A **stale** fetch returns the map as it stood before this slot's
    ///   trail was painted (a late response).
    /// - A **corrupted** fetch returns the current map with a burst of
    ///   deterministically flipped pixels; the dish's own map is *not*
    ///   modified.
    ///
    /// With a fault-free plan this is bit-identical to `play_slot` (one
    /// attempt, `Fresh`, same capture).
    #[expect(
        clippy::too_many_arguments,
        reason = "`play_slot`'s arguments plus the fault plan and its two keys"
    )]
    pub fn play_slot_faulted(
        &mut self,
        constellation: &Constellation,
        slot: i64,
        slot_start: JulianDate,
        serving: Option<u32>,
        plan: &FaultPlan,
        terminal: u64,
        max_retries: u32,
    ) -> FrameFetch {
        // Resolve the fetch outcome first (pure in (plan, keys)): the
        // attempt loop stops at the first non-dropped attempt.
        let mut status = FrameStatus::Dropped;
        let mut salt = 0u64;
        let mut attempts = max_retries + 1;
        for attempt in 0..=max_retries {
            match plan.frame_fault(terminal, slot, attempt) {
                FrameFault::Dropped => continue,
                FrameFault::None => status = FrameStatus::Fresh,
                FrameFault::Stale => status = FrameStatus::Stale,
                FrameFault::Corrupt { salt: s } => {
                    status = FrameStatus::Corrupted;
                    salt = s;
                }
            }
            attempts = attempt + 1;
            break;
        }

        // The state machine always advances; a stale fetch needs the
        // post-reset, pre-paint map.
        let will_reset =
            self.reset_every_slots > 0 && self.slots_since_reset >= self.reset_every_slots;
        let pre_paint = if status == FrameStatus::Stale {
            Some(if will_reset { ObstructionMap::new() } else { self.map.clone() })
        } else {
            None
        };
        self.advance_slot(constellation, slot_start, serving);

        let map = match (status, pre_paint) {
            (FrameStatus::Dropped, _) => {
                return FrameFetch { capture: None, status, attempts };
            }
            (FrameStatus::Stale, Some(m)) => m,
            (FrameStatus::Corrupted, _) => {
                let mut m = self.map.clone();
                let mut rng = FaultRng::from_salt(salt);
                let flips = 1 + rng.below(24);
                for _ in 0..flips {
                    let x = rng.below(MAP_SIZE as u64) as usize;
                    let y = rng.below(MAP_SIZE as u64) as usize;
                    m.set(x, y, !m.get(x, y));
                }
                m
            }
            (_, _) => self.map.clone(),
        };
        let after_reset = self.reset_since_fetch;
        self.reset_since_fetch = false;
        FrameFetch {
            capture: Some(SlotCapture { slot, slot_start, map, after_reset }),
            status,
            attempts,
        }
    }
}

/// The true sky track of a satellite over one slot, as (elevation°,
/// azimuth°) samples.
pub fn sky_track(
    sat: &starsense_constellation::Satellite,
    observer: Geodetic,
    slot_start: JulianDate,
    samples: u32,
) -> Vec<(f64, f64)> {
    (0..samples)
        .filter_map(|k| {
            let t = slot_start
                .plus_seconds(k as f64 * SLOT_PERIOD_SECONDS / (samples.max(2) - 1) as f64);
            let teme = sat.true_position(t)?;
            let look = starsense_astro::frames::look_angles_teme(observer, teme, t);
            Some((look.elevation_deg, look.azimuth_deg))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use starsense_constellation::ConstellationBuilder;
    use starsense_scheduler::slots::{slot_index, slot_start};

    fn setup() -> (Constellation, Geodetic, JulianDate) {
        let c = ConstellationBuilder::starlink_gen1().seed(5).build();
        let loc = Geodetic::new(41.66, -91.53, 0.2);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0);
        (c, loc, at)
    }

    fn a_visible_sat(c: &Constellation, loc: Geodetic, at: JulianDate) -> u32 {
        c.field_of_view(loc, at, 40.0).first().expect("some satellite above 40°").norad_id
    }

    #[test]
    fn playing_a_slot_paints_a_trail() {
        let (c, loc, at) = setup();
        let start = slot_start(at);
        let id = a_visible_sat(&c, loc, start);
        let mut dish = DishSimulator::new(loc);
        let cap = dish.play_slot(&c, slot_index(at), start, Some(id));
        assert!(cap.map.count_set() >= 3, "trail has {} pixels", cap.map.count_set());
        assert!(!cap.after_reset);
    }

    #[test]
    fn outage_slot_paints_nothing() {
        let (c, loc, at) = setup();
        let mut dish = DishSimulator::new(loc);
        let cap = dish.play_slot(&c, slot_index(at), slot_start(at), None);
        assert_eq!(cap.map.count_set(), 0);
    }

    #[test]
    fn map_accumulates_across_slots() {
        let (c, loc, at) = setup();
        let start = slot_start(at);
        let mut dish = DishSimulator::new(loc);
        let fov = c.field_of_view(loc, start, 40.0);
        let cap1 = dish.play_slot(&c, 0, start, Some(fov[0].norad_id));
        let n1 = cap1.map.count_set();
        let cap2 =
            dish.play_slot(&c, 1, start.plus_seconds(15.0), Some(fov[1 % fov.len()].norad_id));
        assert!(cap2.map.count_set() >= n1, "map must be cumulative");
    }

    #[test]
    fn reset_policy_blanks_the_map() {
        let (c, loc, at) = setup();
        let start = slot_start(at);
        let id = a_visible_sat(&c, loc, start);
        let mut dish = DishSimulator::new(loc).with_reset_every_slots(2);
        dish.play_slot(&c, 0, start, Some(id));
        dish.play_slot(&c, 1, start.plus_seconds(15.0), Some(id));
        // Third slot triggers the reset.
        let cap = dish.play_slot(&c, 2, start.plus_seconds(30.0), Some(id));
        assert!(cap.after_reset);
    }

    #[test]
    fn zero_reset_cadence_never_resets() {
        let (c, loc, at) = setup();
        let start = slot_start(at);
        let id = a_visible_sat(&c, loc, start);
        let mut dish = DishSimulator::new(loc).with_reset_every_slots(0);
        for k in 0..100 {
            let cap = dish.play_slot(&c, k, start.plus_seconds(15.0 * k as f64), Some(id));
            assert!(!cap.after_reset);
        }
    }

    use starsense_faults::FaultRates;

    fn frame_plan(drop: f64, stale: f64, corrupt: f64) -> FaultPlan {
        FaultPlan::new(
            7,
            FaultRates {
                frame_drop: drop,
                frame_stale: stale,
                frame_corrupt: corrupt,
                ..FaultRates::none()
            },
        )
    }

    #[test]
    fn fault_free_faulted_play_matches_play_slot_exactly() {
        let (c, loc, at) = setup();
        let start = slot_start(at);
        let id = a_visible_sat(&c, loc, start);
        let mut plain = DishSimulator::new(loc).with_reset_every_slots(3);
        let mut faulted = DishSimulator::new(loc).with_reset_every_slots(3);
        let plan = FaultPlan::none();
        for k in 0..8 {
            let t = start.plus_seconds(15.0 * k as f64);
            let serving = if k % 4 == 3 { None } else { Some(id) };
            let a = plain.play_slot(&c, k, t, serving);
            let b = faulted.play_slot_faulted(&c, k, t, serving, &plan, 0, 2);
            assert_eq!(b.status, FrameStatus::Fresh);
            assert_eq!(b.attempts, 1);
            let cap = b.capture.expect("fresh fetch has a capture");
            assert_eq!(a.map, cap.map);
            assert_eq!(a.after_reset, cap.after_reset);
            assert_eq!(a.slot, cap.slot);
        }
    }

    #[test]
    fn dropped_frames_exhaust_retries_and_return_no_capture() {
        let (c, loc, at) = setup();
        let start = slot_start(at);
        let id = a_visible_sat(&c, loc, start);
        let mut dish = DishSimulator::new(loc);
        let fetch =
            dish.play_slot_faulted(&c, 0, start, Some(id), &frame_plan(1.0, 0.0, 0.0), 0, 2);
        assert_eq!(fetch.status, FrameStatus::Dropped);
        assert_eq!(fetch.attempts, 3);
        assert!(fetch.capture.is_none());
        // The dish still painted: a later clean fetch shows the trail.
        let next =
            dish.play_slot_faulted(&c, 1, start.plus_seconds(15.0), None, &FaultPlan::none(), 0, 0);
        let cap = next.capture.expect("clean fetch");
        assert!(cap.map.count_set() >= 3, "dropped-slot trail must persist in the map");
    }

    #[test]
    fn stale_frames_return_the_pre_paint_map() {
        let (c, loc, at) = setup();
        let start = slot_start(at);
        let id = a_visible_sat(&c, loc, start);
        let mut dish = DishSimulator::new(loc);
        let first = dish
            .play_slot_faulted(&c, 0, start, Some(id), &FaultPlan::none(), 0, 0)
            .capture
            .expect("clean fetch");
        // Slot 1 serves again but the fetch is stale: the capture must
        // equal slot 0's end-of-slot map, not include slot 1's trail.
        let stale = dish.play_slot_faulted(
            &c,
            1,
            start.plus_seconds(15.0),
            Some(id),
            &frame_plan(0.0, 1.0, 0.0),
            0,
            0,
        );
        assert_eq!(stale.status, FrameStatus::Stale);
        let cap = stale.capture.expect("stale fetch still returns a bitmap");
        assert_eq!(cap.map, first.map);
        assert!(dish.map().count_set() >= cap.map.count_set());
    }

    #[test]
    fn corrupted_frames_flip_pixels_without_touching_the_dish() {
        let (c, loc, at) = setup();
        let start = slot_start(at);
        let id = a_visible_sat(&c, loc, start);
        let mut dish = DishSimulator::new(loc);
        let fetch =
            dish.play_slot_faulted(&c, 0, start, Some(id), &frame_plan(0.0, 0.0, 1.0), 3, 0);
        assert_eq!(fetch.status, FrameStatus::Corrupted);
        let cap = fetch.capture.expect("corrupted fetch returns a bitmap");
        assert_ne!(&cap.map, dish.map(), "corruption must alter the returned copy");
        // Corruption is deterministic: replaying the same dish and plan
        // reproduces the identical corrupted bitmap.
        let mut dish2 = DishSimulator::new(loc);
        let fetch2 =
            dish2.play_slot_faulted(&c, 0, start, Some(id), &frame_plan(0.0, 0.0, 1.0), 3, 0);
        assert_eq!(cap.map, fetch2.capture.expect("same plan").map);
    }

    #[test]
    fn reset_during_dropped_frames_reaches_the_next_successful_fetch() {
        let (c, loc, at) = setup();
        let start = slot_start(at);
        let id = a_visible_sat(&c, loc, start);
        // Reset cadence 2: slot 2 blanks the map. Drop exactly that
        // slot's fetch; the *next* successful capture must still carry
        // `after_reset` so XOR chains across the blank are discarded.
        let mut dish = DishSimulator::new(loc).with_reset_every_slots(2);
        let none = FaultPlan::none();
        let drop_all = frame_plan(1.0, 0.0, 0.0);
        for k in 0..2 {
            let f = dish.play_slot_faulted(
                &c,
                k,
                start.plus_seconds(15.0 * k as f64),
                Some(id),
                &none,
                0,
                0,
            );
            assert!(!f.capture.expect("clean").after_reset);
        }
        let dropped =
            dish.play_slot_faulted(&c, 2, start.plus_seconds(30.0), Some(id), &drop_all, 0, 0);
        assert_eq!(dropped.status, FrameStatus::Dropped);
        let after = dish.play_slot_faulted(&c, 3, start.plus_seconds(45.0), Some(id), &none, 0, 0);
        let cap = after.capture.expect("clean fetch after the blackout");
        assert!(
            cap.after_reset,
            "the reset hidden behind the dropped frame must surface in the next capture"
        );
        // And an explicit reset behaves the same way.
        dish.reset();
        let next = dish.play_slot_faulted(&c, 4, start.plus_seconds(60.0), Some(id), &none, 0, 0);
        assert!(next.capture.expect("clean").after_reset);
    }

    #[test]
    fn exported_state_resumes_dish_bit_identically() {
        // Play 5 slots (crossing a reset), export, restore into a fresh
        // dish, and play 6 more on both: captures must match exactly,
        // including the pending-reset disclosure bit.
        let (c, loc, at) = setup();
        let start = slot_start(at);
        let id = a_visible_sat(&c, loc, start);
        let mut live = DishSimulator::new(loc).with_reset_every_slots(3);
        for k in 0..5 {
            live.play_slot(&c, k, start.plus_seconds(15.0 * k as f64), Some(id));
        }
        live.reset(); // leave a reset pending across the checkpoint
        let state = live.export_state();

        let mut resumed = DishSimulator::new(loc).with_reset_every_slots(3);
        resumed.restore_state(state.clone());
        assert_eq!(resumed.export_state(), state);
        for k in 5..11 {
            let t = start.plus_seconds(15.0 * k as f64);
            let serving = if k % 4 == 3 { None } else { Some(id) };
            let a = live.play_slot(&c, k, t, serving);
            let b = resumed.play_slot(&c, k, t, serving);
            assert_eq!(a.map, b.map, "slot {k}");
            assert_eq!(a.after_reset, b.after_reset, "slot {k}");
            assert_eq!(a.slot, b.slot);
        }
        assert_eq!(live.export_state(), resumed.export_state());
    }

    #[test]
    fn sky_track_stays_in_valid_ranges() {
        let (c, loc, at) = setup();
        let start = slot_start(at);
        let id = a_visible_sat(&c, loc, start);
        let sat = c.get(id).unwrap();
        let track = sky_track(sat, loc, start, 16);
        assert_eq!(track.len(), 16);
        for (el, az) in track {
            assert!((-90.0..=90.0).contains(&el));
            assert!((0.0..360.0).contains(&az));
        }
    }
}
