//! End-to-end validation of the identification pipeline.
//!
//! The paper validated its DTW matcher with "a manual (visual) pilot test
//! study of 500 sets of isolated trajectories and polar plots of available
//! satellite trajectories; the DTW similarity method and our manual tests
//! overlapped on over 99% of all outcomes." Against the real network the
//! authors had no ground truth beyond that manual inspection; the
//! reproduction *does* have the hidden scheduler's assignments, so the
//! harness here scores the matcher exactly.

use crate::candidates::slot_boundary_epochs;
use crate::dish::{DishSimulator, SlotCapture};
use crate::pipeline::{
    verdict_slot_tracked, CANDIDATE_SAMPLES_PER_SLOT, MIN_CANDIDATE_ELEVATION_DEG,
};
use crate::track_cache::TrackCache;
use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_constellation::{Constellation, PropagationCache};
use starsense_scheduler::slots::{slot_start, SLOT_PERIOD_SECONDS};
use starsense_scheduler::GlobalScheduler;

/// Outcome of a validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Slots played against the scheduler.
    pub slots_played: usize,
    /// Slots where identification was attempted (a usable XOR existed and
    /// ground truth had a serving satellite).
    pub attempted: usize,
    /// Attempts where the matched satellite equals the ground truth.
    pub correct: usize,
    /// Attempts where the pipeline returned a match but ground truth says
    /// a *different* satellite served the slot.
    pub wrong: usize,
    /// Slots skipped (outage, post-reset, or empty XOR).
    pub skipped: usize,
    /// Mean decision margin over attempts.
    pub mean_margin: f64,
    /// Each attempt's decision margin and whether it was correct, in slot
    /// order.
    pub outcomes: Vec<(f64, bool)>,
}

impl ValidationReport {
    /// Identification accuracy over attempted slots.
    pub fn accuracy(&self) -> f64 {
        if self.attempted == 0 {
            return f64::NAN;
        }
        self.correct as f64 / self.attempted as f64
    }
}

/// Replays `slots` consecutive scheduler slots for terminal
/// `terminal_id`, painting the dish map from ground truth and identifying
/// each slot's satellite from the map snapshots alone, through the same
/// observer-culled propagation table and [`verdict_slot_tracked`] the
/// campaign engine uses (always reporting the best match).
pub fn run_validation(
    constellation: &Constellation,
    scheduler: &mut GlobalScheduler,
    terminal_id: usize,
    from: JulianDate,
    slots: usize,
) -> ValidationReport {
    let location = scheduler.terminals()[terminal_id].location;
    let mut dish = DishSimulator::new(location);

    // Mid-slot queries: float rounding can never straddle a boundary.
    let first_mid = slot_start(from).plus_seconds(SLOT_PERIOD_SECONDS / 2.0);
    let mids: Vec<JulianDate> =
        (0..slots).map(|k| first_mid.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS)).collect();
    // One table for both sides, culled to the scheduler's terminals at
    // the lower of the two cutoffs.
    let observers: Vec<Geodetic> = scheduler.terminals().iter().map(|t| t.location).collect();
    let cutoff = scheduler.policy().min_elevation_deg.min(MIN_CANDIDATE_ELEVATION_DEG);
    let cache = PropagationCache::for_observers(constellation, &observers, cutoff);
    let starts: Vec<JulianDate> = mids.iter().map(|&at| slot_start(at)).collect();
    let boundaries: Vec<JulianDate> = starts
        .iter()
        .flat_map(|&start| slot_boundary_epochs(start, CANDIDATE_SAMPLES_PER_SLOT))
        .collect();
    cache.prepare(&starts, &boundaries, 1);
    let mut tracks =
        TrackCache::new(&cache, location, MIN_CANDIDATE_ELEVATION_DEG, CANDIDATE_SAMPLES_PER_SLOT);

    let mut outcomes = Vec::new();
    let mut skipped = 0;
    let mut prev_capture: Option<SlotCapture> = None;
    for &at in &mids {
        // `GlobalScheduler::allocate`, with the snapshot read from the
        // prepared table.
        let snapshot = cache.snapshot(slot_start(at));
        let available = scheduler.fields_of_view_cohort(constellation, &snapshot);
        let allocs = scheduler.allocate_from_available(at, available);
        let truth = allocs[terminal_id].chosen_id();
        let slot = allocs[terminal_id].slot;
        let start = allocs[terminal_id].slot_start;

        let capture = dish.play_slot(constellation, slot, start, truth);

        // A capture straight after a reset has no valid predecessor.
        let usable_prev = if capture.after_reset { None } else { prev_capture.as_ref() };

        let identified = match (usable_prev, truth) {
            (Some(prev), Some(truth_id)) => {
                let verdict =
                    verdict_slot_tracked(&mut tracks, &prev.map, &capture.map, start, 0.0);
                verdict.best().map(|id| (id.margin(), id.norad_id == truth_id))
            }
            _ => None,
        };
        match identified {
            Some(outcome) => outcomes.push(outcome),
            None => skipped += 1,
        }

        prev_capture = Some(capture);
    }

    let attempted = outcomes.len();
    let correct = outcomes.iter().filter(|&&(_, ok)| ok).count();
    let margin_sum = outcomes.iter().fold(0.0, |sum, &(margin, _)| sum + margin);
    ValidationReport {
        slots_played: slots,
        attempted,
        correct,
        wrong: attempted - correct,
        skipped,
        mean_margin: if attempted > 0 { margin_sum / attempted as f64 } else { f64::NAN },
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starsense_constellation::ConstellationBuilder;
    use starsense_scheduler::{SchedulerPolicy, Terminal};

    #[test]
    fn validation_accuracy_is_high() {
        let c = ConstellationBuilder::starlink_gen1().seed(21).build();
        let terminals = vec![Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2))];
        let mut sched = GlobalScheduler::new(SchedulerPolicy::default(), terminals, 21);
        let from = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 0.0);
        let report = run_validation(&c, &mut sched, 0, from, 60);

        assert_eq!(report.slots_played, 60);
        assert!(report.attempted >= 40, "attempted only {}", report.attempted);
        assert!(
            report.accuracy() >= 0.9,
            "accuracy {:.3} ({} correct / {} attempted, {} wrong)",
            report.accuracy(),
            report.correct,
            report.attempted,
            report.wrong
        );
        assert!(report.mean_margin > 0.2, "mean margin {}", report.mean_margin);

        // Golden, recorded on the uncached reference identifier: the
        // production path must reproduce every count and the margin bits.
        let counts =
            (report.slots_played, report.attempted, report.correct, report.wrong, report.skipped);
        assert_eq!(counts, (60, 56, 54, 2, 4));
        assert_eq!(report.mean_margin.to_bits(), 0x3fe7_4d94_bb1c_4980);
    }

    #[test]
    fn accuracy_of_empty_report_is_nan() {
        let r = ValidationReport {
            slots_played: 0,
            attempted: 0,
            correct: 0,
            wrong: 0,
            skipped: 0,
            mean_margin: f64::NAN,
            outcomes: Vec::new(),
        };
        assert!(r.accuracy().is_nan());
    }
}
