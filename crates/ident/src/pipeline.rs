//! The identification pipeline: XOR → extract → DTW match.
//!
//! The DTW matching stage is [`starsense_dtw::best_match`] with both
//! orientations of every candidate track as one group: candidates are
//! visited in ascending order of their O(1) lower bound, the scan stops at
//! the first bound above the running runner-up, and the rest are measured
//! with early abandoning against it. The search is exact — the winner, its
//! distance, and the runner-up are bit-identical to the exhaustive scan
//! (see [`starsense_dtw::best_match`] for the argument) — so identification
//! accuracy is untouched while most matrix cells are never evaluated.

use crate::candidates::{candidate_tracks, CandidateTrack};
use starsense_astro::frames::Geodetic;
use starsense_astro::time::JulianDate;
use starsense_constellation::Constellation;
use starsense_dtw::{best_match, PruneStats};
use starsense_obstruction::{extract_trajectory, isolate, ObstructionMap, PolarSample};

/// Elevation cutoff (deg) for candidate generation: the obstruction plot's
/// rim, below which nothing is ever painted.
pub const MIN_CANDIDATE_ELEVATION_DEG: f64 = 25.0;

/// Sample epochs per 15-second slot for candidate tracks (1 Hz, endpoints
/// included).
pub const CANDIDATE_SAMPLES_PER_SLOT: u32 = 16;

/// A successful identification for one slot.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentifiedSat {
    /// The matched satellite.
    pub norad_id: u32,
    /// Its DTW distance to the isolated trajectory.
    pub distance: f64,
    /// The runner-up's distance (∞ with a single candidate). A small gap
    /// between `distance` and `runner_up` marks an ambiguous match.
    pub runner_up: f64,
    /// Number of candidates considered.
    pub n_candidates: usize,
    /// Number of pixels in the isolated trajectory.
    pub trail_pixels: usize,
}

impl IdentifiedSat {
    /// A crude confidence signal in `[0, 1]`: how decisively the winner
    /// beat the runner-up.
    pub fn margin(&self) -> f64 {
        // DTW distances are non-negative, so `<=` covers the exact-zero
        // runner-up without an exact float `==`.
        if !self.runner_up.is_finite() || self.runner_up <= 0.0 {
            return 1.0;
        }
        (1.0 - self.distance / self.runner_up).clamp(0.0, 1.0)
    }
}

/// Why a slot produced no identification at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoDataReason {
    /// The XOR of consecutive captures left no trail (outage slot, or
    /// the serving satellite's trail fully overlapped an earlier one).
    EmptyTrail,
    /// The trail has fewer than 3 pixels — XOR noise, not a trajectory.
    TinyTrail,
    /// No published-TLE candidate was in view of the terminal.
    NoCandidates,
}

/// A sensible default confidence cutoff for [`IdentVerdict`]: matches
/// whose winner beat the runner-up by less than 5% are ambiguous. The
/// validation harness uses 0.0 (always report the best match).
pub const DEFAULT_MIN_MARGIN: f64 = 0.05;

/// Identification outcome for one slot — the graceful-degradation
/// counterpart of `Option<IdentifiedSat>`: instead of forcing the best
/// match, low-confidence matches and empty slots are reported as what
/// they are.
#[derive(Debug, Clone, PartialEq)]
pub enum IdentVerdict {
    /// A match that cleared the confidence threshold.
    Identified {
        /// The winning satellite.
        sat: IdentifiedSat,
        /// The winner's [`IdentifiedSat::margin`], in `[0, 1]`.
        confidence: f64,
    },
    /// A best match exists but its margin fell below the threshold — the
    /// runner-up is close enough that reporting the winner as fact would
    /// be a guess.
    Ambiguous {
        /// The sub-threshold best match (its margin is the evidence).
        best: IdentifiedSat,
    },
    /// There was nothing to match.
    NoData(NoDataReason),
}

impl IdentVerdict {
    /// The best match regardless of confidence, when one exists.
    pub fn best(&self) -> Option<&IdentifiedSat> {
        match self {
            IdentVerdict::Identified { sat, .. } => Some(sat),
            IdentVerdict::Ambiguous { best } => Some(best),
            IdentVerdict::NoData(_) => None,
        }
    }

    /// The match, only if it cleared the threshold.
    pub fn identified(&self) -> Option<&IdentifiedSat> {
        match self {
            IdentVerdict::Identified { sat, .. } => Some(sat),
            _ => None,
        }
    }
}

/// Applies the confidence threshold to a raw match: margins strictly
/// below `min_margin` become [`IdentVerdict::Ambiguous`]. A
/// `min_margin` of 0.0 never rejects (margins are non-negative), so
/// [`verdict_slot_tracked`] then always reports the best match.
pub fn classify_identification(sat: IdentifiedSat, min_margin: f64) -> IdentVerdict {
    let confidence = sat.margin();
    if confidence < min_margin {
        IdentVerdict::Ambiguous { best: sat }
    } else {
        IdentVerdict::Identified { sat, confidence }
    }
}

/// Pruned, exact 1-NN over both orientations of every candidate — a track
/// is tried in both directions because a bitmap has no arrow of time, and
/// the smaller of the two alignments counts. Each candidate goes to
/// [`best_match`] as the group `[forward, reversed]`; the result is
/// bit-identical to the exhaustive scan (full DTW in both orientations per
/// candidate, strict `<` update in index order; the tests keep that scan as
/// the oracle).
fn match_candidates(
    trajectory: &[PolarSample],
    candidates: &[CandidateTrack],
) -> Option<(IdentifiedSat, PruneStats)> {
    let isolated: Vec<[f64; 2]> = trajectory.iter().map(|s| s.to_cartesian()).collect();
    let orientations: Vec<[Vec<[f64; 2]>; 2]> = candidates
        .iter()
        .map(|cand| {
            let fwd = cand.cartesian();
            let mut rev = fwd.clone();
            rev.reverse();
            [fwd, rev]
        })
        .collect();
    let (m, stats) = best_match(&isolated, &orientations)?;
    Some((
        IdentifiedSat {
            norad_id: candidates[m.index].norad_id,
            distance: m.distance,
            runner_up: m.runner_up,
            n_candidates: candidates.len(),
            trail_pixels: trajectory.len(),
        },
        stats,
    ))
}

/// Identifies the satellite that served the terminal during the slot whose
/// maps are `prev` (end of slot t−1) and `curr` (end of slot t) — the one
/// production identifier. Candidate generation goes through a
/// per-terminal [`crate::TrackCache`], which discards never-visible
/// satellites from boundary elevations alone and shares boundary work
/// between consecutive slots; its prefilter is exact (see
/// [`crate::track_cache`] for the argument and the property tests). The
/// result distinguishes *why* nothing was identified (empty vs. tiny
/// trail, no candidates) and demotes matches whose margin falls below
/// `min_margin` to [`IdentVerdict::Ambiguous`] instead of forcing the best
/// match. With `min_margin = 0.0` the best match is always reported,
/// bit-identical to [`identify_from_trajectory_counted`] on the isolated
/// trajectory.
pub fn verdict_slot_tracked(
    tracks: &mut crate::TrackCache<'_, '_>,
    prev: &ObstructionMap,
    curr: &ObstructionMap,
    slot_start: JulianDate,
    min_margin: f64,
) -> IdentVerdict {
    let isolated_map = isolate(prev, curr);
    let trajectory = extract_trajectory(&isolated_map);
    if trajectory.is_empty() {
        return IdentVerdict::NoData(NoDataReason::EmptyTrail);
    }
    if trajectory.len() < 3 {
        return IdentVerdict::NoData(NoDataReason::TinyTrail);
    }
    let candidates = tracks.candidate_tracks(slot_start);
    match match_candidates(&trajectory, &candidates) {
        None => IdentVerdict::NoData(NoDataReason::NoCandidates),
        Some((sat, _)) => classify_identification(sat, min_margin),
    }
}

/// The uncached reference identifier: matches an already-extracted
/// trajectory against candidates from the direct [`candidate_tracks`]
/// generator, and returns the pruning work counters — how many DTW cells
/// the pruned matcher evaluated versus what an exhaustive scan would have
/// cost. Returns `None` for a trail under 3 pixels or an empty candidate
/// set. The benches and the tests use it as the reference for
/// [`verdict_slot_tracked`].
pub fn identify_from_trajectory_counted(
    trajectory: &[PolarSample],
    constellation: &Constellation,
    observer: Geodetic,
    slot_start: JulianDate,
) -> Option<(IdentifiedSat, PruneStats)> {
    // A couple of pixels carry no directional information; the paper's
    // protocol guarantees fresh trails, so tiny residues are XOR noise.
    if trajectory.len() < 3 {
        return None;
    }
    let candidates = candidate_tracks(
        constellation,
        observer,
        slot_start,
        MIN_CANDIDATE_ELEVATION_DEG,
        CANDIDATE_SAMPLES_PER_SLOT,
    );
    match_candidates(trajectory, &candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dish::DishSimulator;
    use starsense_constellation::ConstellationBuilder;
    use starsense_scheduler::slots::{slot_index, slot_start};

    /// The uncached reference identification of the slot between `prev`
    /// and `curr`: direct candidate tracks, no track cache.
    fn reference(
        prev: &ObstructionMap,
        curr: &ObstructionMap,
        c: &Constellation,
        loc: Geodetic,
        start: JulianDate,
    ) -> Option<IdentifiedSat> {
        let trajectory = extract_trajectory(&isolate(prev, curr));
        identify_from_trajectory_counted(&trajectory, c, loc, start).map(|(id, _)| id)
    }

    fn setup() -> (Constellation, Geodetic, JulianDate) {
        let c = ConstellationBuilder::starlink_gen1().seed(5).build();
        let loc = Geodetic::new(41.66, -91.53, 0.2);
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0);
        (c, loc, slot_start(at))
    }

    #[test]
    fn identifies_the_painted_satellite() {
        let (c, loc, start) = setup();
        // Serve a high-elevation satellite for one slot after an empty map.
        let truth = c.field_of_view(loc, start, 45.0);
        let serving = truth.first().expect("a high satellite").norad_id;

        let mut dish = DishSimulator::new(loc);
        let prev = dish.map().clone();
        let cap = dish.play_slot(&c, slot_index(start), start, Some(serving));

        let id = reference(&prev, &cap.map, &c, loc, start).expect("identification");
        assert_eq!(id.norad_id, serving, "margin {}", id.margin());
        assert!(id.n_candidates > 10);
        assert!(id.distance < id.runner_up);
    }

    #[test]
    fn blank_xor_gives_none() {
        let (c, loc, start) = setup();
        let blank = ObstructionMap::new();
        assert!(reference(&blank, &blank, &c, loc, start).is_none());
    }

    #[test]
    fn identification_works_across_consecutive_slots() {
        let (c, loc, start) = setup();
        let mut dish = DishSimulator::new(loc);

        // Slot 1: one satellite; slot 2: a different one. Identify slot 2
        // from the XOR of the two captures.
        let fov = c.field_of_view(loc, start, 40.0);
        assert!(fov.len() >= 2);
        let cap1 = dish.play_slot(&c, 0, start, Some(fov[0].norad_id));
        let next_start = start.plus_seconds(15.0);
        let cap2 = dish.play_slot(&c, 1, next_start, Some(fov[1].norad_id));

        let id = reference(&cap1.map, &cap2.map, &c, loc, next_start).expect("match");
        assert_eq!(id.norad_id, fov[1].norad_id);
    }

    /// DTW distance of one candidate, both orientations, full matrices —
    /// the pre-pruning per-candidate evaluation, kept as the test oracle.
    fn track_distance(isolated: &[[f64; 2]], candidate: &CandidateTrack) -> f64 {
        let cand = candidate.cartesian();
        let forward = starsense_dtw::dtw_distance(isolated, &cand);
        let mut rev = cand;
        rev.reverse();
        let backward = starsense_dtw::dtw_distance(isolated, &rev);
        forward.min(backward)
    }

    /// Exhaustive reference matcher: the pre-pruning forward scan.
    fn exhaustive_match(
        trajectory: &[PolarSample],
        candidates: &[CandidateTrack],
    ) -> Option<(usize, f64, f64)> {
        let isolated: Vec<[f64; 2]> = trajectory.iter().map(|s| s.to_cartesian()).collect();
        let mut best: Option<(usize, f64)> = None;
        let mut runner_up = f64::INFINITY;
        for (i, cand) in candidates.iter().enumerate() {
            let d = track_distance(&isolated, cand);
            match best {
                None => best = Some((i, d)),
                Some((_, bd)) if d < bd => {
                    runner_up = bd;
                    best = Some((i, d));
                }
                Some(_) => {
                    if d < runner_up {
                        runner_up = d;
                    }
                }
            }
        }
        best.map(|(i, d)| (i, d, runner_up))
    }

    #[test]
    fn pruned_matching_is_bit_identical_to_exhaustive_scan() {
        let (c, loc, start) = setup();
        let truth = c.field_of_view(loc, start, 45.0);
        let serving = truth.first().expect("a high satellite").norad_id;
        let mut dish = DishSimulator::new(loc);
        let prev = dish.map().clone();
        let cap = dish.play_slot(&c, slot_index(start), start, Some(serving));

        let isolated_map = starsense_obstruction::isolate(&prev, &cap.map);
        let trajectory = starsense_obstruction::extract_trajectory(&isolated_map);
        let candidates = candidate_tracks(&c, loc, start, 25.0, 16);
        let (pruned, stats) = match_candidates(&trajectory, &candidates).expect("match");
        let (bi, bd, ru) = exhaustive_match(&trajectory, &candidates).expect("match");

        assert_eq!(pruned.norad_id, candidates[bi].norad_id);
        assert_eq!(pruned.distance.to_bits(), bd.to_bits());
        assert_eq!(pruned.runner_up.to_bits(), ru.to_bits());
        assert!(
            stats.cells_evaluated < stats.cells_full,
            "pruning should skip cells on a real slot: {} of {}",
            stats.cells_evaluated,
            stats.cells_full
        );
    }

    #[test]
    fn tracked_verdict_matches_direct_identification() {
        let (c, loc, start) = setup();
        let truth = c.field_of_view(loc, start, 45.0);
        let serving = truth.first().expect("a high satellite").norad_id;
        let mut dish = DishSimulator::new(loc);
        let prev = dish.map().clone();
        let cap = dish.play_slot(&c, slot_index(start), start, Some(serving));

        let direct = reference(&prev, &cap.map, &c, loc, start).expect("direct");
        let cache = starsense_constellation::PropagationCache::new(&c);
        let mut tracks = crate::TrackCache::new(&cache, loc, 25.0, 16);
        let verdict = verdict_slot_tracked(&mut tracks, &prev, &cap.map, start, 0.0);
        assert_eq!(verdict.best(), Some(&direct));
        assert_eq!(cache.stats().misses, 2, "boundary rows must go through the cache");
    }

    #[test]
    fn tracked_verdicts_match_direct_across_consecutive_slots() {
        let (c, loc, start) = setup();
        let mut dish = DishSimulator::new(loc);
        let fov = c.field_of_view(loc, start, 40.0);
        assert!(fov.len() >= 2);

        // Two consecutive identified slots, as the campaign engine replays
        // them; the tracked path must agree slot by slot, field by field.
        let cache = starsense_constellation::PropagationCache::new(&c);
        let mut tracks = crate::TrackCache::new(&cache, loc, 25.0, 16);
        let prev = dish.map().clone();
        let cap1 = dish.play_slot(&c, 0, start, Some(fov[0].norad_id));
        let next = start.plus_seconds(15.0);
        let cap2 = dish.play_slot(&c, 1, next, Some(fov[1].norad_id));

        for (p, m, at) in [(&prev, &cap1.map, start), (&cap1.map, &cap2.map, next)] {
            let direct = reference(p, m, &c, loc, at);
            let tracked = verdict_slot_tracked(&mut tracks, p, m, at, 0.0);
            assert_eq!(tracked.best(), direct.as_ref());
        }
        assert!(tracks.stats().prefiltered > 0, "prefilter should do work on real slots");
    }

    #[test]
    fn margin_is_unit_interval() {
        let a = IdentifiedSat {
            norad_id: 1,
            distance: 5.0,
            runner_up: 20.0,
            n_candidates: 4,
            trail_pixels: 9,
        };
        assert!((a.margin() - 0.75).abs() < 1e-12);
        let b = IdentifiedSat { runner_up: f64::INFINITY, ..a.clone() };
        assert_eq!(b.margin(), 1.0);
        let c = IdentifiedSat { distance: 30.0, runner_up: 20.0, ..a };
        assert_eq!(c.margin(), 0.0);
    }

    #[test]
    fn verdict_distinguishes_nodata_reasons_and_thresholds() {
        let (c, loc, start) = setup();
        let truth = c.field_of_view(loc, start, 45.0);
        let serving = truth.first().expect("a high satellite").norad_id;
        let mut dish = DishSimulator::new(loc);
        let prev = dish.map().clone();
        let cap = dish.play_slot(&c, slot_index(start), start, Some(serving));

        let cache = starsense_constellation::PropagationCache::new(&c);
        let mut tracks = crate::TrackCache::new(&cache, loc, 25.0, 16);

        // Blank XOR → EmptyTrail.
        let blank = ObstructionMap::new();
        assert_eq!(
            verdict_slot_tracked(&mut tracks, &blank, &blank, start, 0.0),
            IdentVerdict::NoData(NoDataReason::EmptyTrail)
        );

        // A 2-pixel residue → TinyTrail.
        let mut two = ObstructionMap::new();
        two.set(60, 60, true);
        two.set(61, 60, true);
        assert_eq!(
            verdict_slot_tracked(&mut tracks, &blank, &two, start, 0.0),
            IdentVerdict::NoData(NoDataReason::TinyTrail)
        );

        // min_margin 0.0 reproduces the reference best match...
        let expected =
            reference(&prev, &cap.map, &c, loc, start).expect("reference identification");
        let v = verdict_slot_tracked(&mut tracks, &prev, &cap.map, start, 0.0);
        match &v {
            IdentVerdict::Identified { sat, confidence } => {
                assert_eq!(sat, &expected);
                assert_eq!(confidence.to_bits(), expected.margin().to_bits());
            }
            other => panic!("expected Identified, got {other:?}"),
        }
        // ...and an impossible threshold demotes the same match to
        // Ambiguous instead of inventing a different answer.
        let strict = verdict_slot_tracked(&mut tracks, &prev, &cap.map, start, 1.1);
        match strict {
            IdentVerdict::Ambiguous { best } => assert_eq!(best, expected),
            other => panic!("expected Ambiguous at min_margin 1.1, got {other:?}"),
        }
        assert!(v.best().is_some());
        assert!(v.identified().is_some());
        assert!(IdentVerdict::NoData(NoDataReason::EmptyTrail).best().is_none());
    }

    #[test]
    fn classify_identification_respects_threshold_boundaries() {
        let sat = IdentifiedSat {
            norad_id: 9,
            distance: 5.0,
            runner_up: 20.0, // margin 0.75
            n_candidates: 3,
            trail_pixels: 12,
        };
        assert!(matches!(
            classify_identification(sat.clone(), 0.75),
            IdentVerdict::Identified { .. } // not strictly below threshold
        ));
        assert!(matches!(
            classify_identification(sat.clone(), 0.76),
            IdentVerdict::Ambiguous { .. }
        ));
        assert!(matches!(classify_identification(sat, 0.0), IdentVerdict::Identified { .. }));
    }

    #[test]
    fn tiny_trails_are_rejected() {
        let (c, loc, start) = setup();
        let samples = vec![
            PolarSample { elevation_deg: 50.0, azimuth_deg: 10.0 },
            PolarSample { elevation_deg: 51.0, azimuth_deg: 11.0 },
        ];
        assert!(identify_from_trajectory_counted(&samples, &c, loc, start).is_none());
    }
}
