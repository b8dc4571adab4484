//! Candidate sky tracks from published TLEs.
//!
//! §4: "we compare the AOEs and Azimuths calculated above to those of all
//! satellites in our terminal's field-of-view – calculated using TLE files
//! ... for the given 15-second slot." The inference side may only touch
//! each satellite's *published* TLE — never the truth elements — exactly
//! like the paper could only touch CelesTrak.

use starsense_astro::frames::{look_angles_teme, Geodetic};
use starsense_astro::time::JulianDate;
use starsense_constellation::{Constellation, PropagationCache};
use starsense_obstruction::map::RIM_ELEVATION_DEG;
use starsense_obstruction::PolarSample;
use starsense_scheduler::slots::SLOT_PERIOD_SECONDS;

/// One candidate satellite's predicted sky track over a slot.
#[derive(Debug, Clone)]
pub struct CandidateTrack {
    /// Catalog number.
    pub norad_id: u32,
    /// Predicted (elevation, azimuth) samples across the slot, time order.
    pub samples: Vec<PolarSample>,
}

impl CandidateTrack {
    /// The track projected to Cartesian for DTW, in time order.
    pub fn cartesian(&self) -> Vec<[f64; 2]> {
        self.samples.iter().map(|s| s.to_cartesian()).collect()
    }
}

/// Generates the candidate set for one slot: every satellite whose
/// *published* TLE places it above `min_elevation_deg` at any point during
/// the slot, with its predicted track.
///
/// The paper reports ~40 candidates per slot for the real constellation.
pub fn candidate_tracks(
    constellation: &Constellation,
    observer: Geodetic,
    slot_start: JulianDate,
    min_elevation_deg: f64,
    samples_per_slot: u32,
) -> Vec<CandidateTrack> {
    let n = samples_per_slot.max(2);
    let epochs = sample_epochs(slot_start, n);
    let mut out = Vec::new();
    for sat in constellation.sats() {
        let mut samples = Vec::with_capacity(n as usize);
        let mut any_above = false;
        for &t in &epochs {
            let Some(teme) = sat.published_position(t) else { continue };
            let look = look_angles_teme(observer, teme, t);
            if look.elevation_deg >= min_elevation_deg {
                any_above = true;
            }
            samples.push(PolarSample {
                elevation_deg: look.elevation_deg,
                azimuth_deg: look.azimuth_deg,
            });
        }
        if let Some(track) = finish_track(sat.norad_id, any_above, samples) {
            out.push(track);
        }
    }
    out
}

/// [`candidate_tracks`] reading published-TLE positions through a shared
/// [`PropagationCache`], so the per-epoch propagation of the whole catalog
/// is done once per slot instead of once per terminal. Produces exactly the
/// same candidate set as [`candidate_tracks`] (same epochs, same skip-on-
/// propagation-failure semantics, same in-plot filtering).
pub fn candidate_tracks_through(
    cache: &PropagationCache<'_>,
    observer: Geodetic,
    slot_start: JulianDate,
    min_elevation_deg: f64,
    samples_per_slot: u32,
) -> Vec<CandidateTrack> {
    let n = samples_per_slot.max(2);
    let epochs = sample_epochs(slot_start, n);
    // One catalog-wide lookup per sample epoch; every satellite — and every
    // terminal and worker thread sharing the cache — reads these vectors.
    let per_epoch: Vec<_> = epochs.iter().map(|&t| cache.published_positions(t)).collect();
    let mut out = Vec::new();
    for (si, sat) in cache.constellation().sats().iter().enumerate() {
        let mut samples = Vec::with_capacity(n as usize);
        let mut any_above = false;
        for (positions, &t) in per_epoch.iter().zip(&epochs) {
            let Some(teme) = positions[si] else { continue };
            let look = look_angles_teme(observer, teme, t);
            if look.elevation_deg >= min_elevation_deg {
                any_above = true;
            }
            samples.push(PolarSample {
                elevation_deg: look.elevation_deg,
                azimuth_deg: look.azimuth_deg,
            });
        }
        if let Some(track) = finish_track(sat.norad_id, any_above, samples) {
            out.push(track);
        }
    }
    out
}

/// The two boundary instants of a slot's sample grid — bit-identical to
/// the first and last entries of the slot's sample epochs, which are the only
/// epochs [`crate::TrackCache`] reads as full catalog rows. Campaign
/// engines prepare exactly these into the propagation cache's immutable
/// epoch table so the observation phase never takes a lock for a boundary
/// row.
pub fn slot_boundary_epochs(slot_start: JulianDate, samples_per_slot: u32) -> [JulianDate; 2] {
    let n = samples_per_slot.max(2);
    let epochs = sample_epochs(slot_start, n);
    [epochs[0], epochs[n as usize - 1]]
}

/// The sample instants inside a slot: `n` points spanning the slot period,
/// endpoints included. Every candidate generator (including the
/// [`crate::TrackCache`]) uses this exact expression, so their epochs are
/// bit-identical — a requirement for cache sharing.
pub(crate) fn sample_epochs(slot_start: JulianDate, n: u32) -> Vec<JulianDate> {
    (0..n)
        .map(|k| slot_start.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS / (n - 1) as f64))
        .collect()
}

/// Applies the visibility and in-plot filters shared by all generators.
pub(crate) fn finish_track(
    norad_id: u32,
    any_above: bool,
    samples: Vec<PolarSample>,
) -> Option<CandidateTrack> {
    if !any_above || samples.is_empty() {
        return None;
    }
    // Keep only in-plot samples: the obstruction map never shows anything
    // below the rim, so the comparison track shouldn't include it either.
    let in_plot: Vec<PolarSample> =
        samples.into_iter().filter(|s| s.elevation_deg >= RIM_ELEVATION_DEG).collect();
    if in_plot.is_empty() {
        return None;
    }
    Some(CandidateTrack { norad_id, samples: in_plot })
}

#[cfg(test)]
mod tests {
    use super::*;
    use starsense_constellation::ConstellationBuilder;
    use starsense_scheduler::slots::slot_start;

    #[test]
    fn full_constellation_yields_tens_of_candidates() {
        let c = ConstellationBuilder::starlink_gen1().seed(5).build();
        let loc = Geodetic::new(41.66, -91.53, 0.2);
        let start = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0));
        let cands = candidate_tracks(&c, loc, start, 25.0, 16);
        assert!(
            (15..=90).contains(&cands.len()),
            "expected tens of candidates, got {}",
            cands.len()
        );
        for cand in &cands {
            assert!(!cand.samples.is_empty());
            assert!(cand.samples.iter().all(|s| s.elevation_deg >= 25.0));
            assert_eq!(cand.cartesian().len(), cand.samples.len());
        }
    }

    #[test]
    fn candidate_set_contains_the_truth_fov() {
        // Published TLEs are stale but close: the true field of view should
        // be (almost) a subset of the candidate set.
        let c = ConstellationBuilder::starlink_gen1().seed(5).build();
        let loc = Geodetic::new(41.66, -91.53, 0.2);
        let start = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0));
        let cands: std::collections::HashSet<u32> =
            candidate_tracks(&c, loc, start, 25.0, 8).iter().map(|t| t.norad_id).collect();
        let fov = c.field_of_view(loc, start, 30.0); // margin above the 25° cutoff
        let missing = fov.iter().filter(|v| !cands.contains(&v.norad_id)).count();
        assert!(
            missing * 10 <= fov.len(),
            "{missing}/{} true-FOV satellites missing from candidates",
            fov.len()
        );
    }

    #[test]
    fn cached_candidate_tracks_match_direct_generation() {
        let c = ConstellationBuilder::starlink_gen1().seed(5).build();
        let loc = Geodetic::new(41.66, -91.53, 0.2);
        let start = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0));
        let direct = candidate_tracks(&c, loc, start, 25.0, 16);
        let cache = starsense_constellation::PropagationCache::new(&c);
        let cached = candidate_tracks_through(&cache, loc, start, 25.0, 16);
        assert_eq!(direct.len(), cached.len());
        for (a, b) in direct.iter().zip(&cached) {
            assert_eq!(a.norad_id, b.norad_id);
            assert_eq!(a.samples.len(), b.samples.len());
            for (sa, sb) in a.samples.iter().zip(&b.samples) {
                assert_eq!(sa.elevation_deg.to_bits(), sb.elevation_deg.to_bits());
                assert_eq!(sa.azimuth_deg.to_bits(), sb.azimuth_deg.to_bits());
            }
        }
        // A second terminal at a different site reuses the warm epochs.
        let misses_before = cache.stats().misses;
        let _ = candidate_tracks_through(&cache, Geodetic::new(47.6, -122.3, 0.1), start, 25.0, 16);
        assert_eq!(cache.stats().misses, misses_before, "all epochs should be warm");
    }

    #[test]
    fn raising_the_cutoff_shrinks_the_candidate_set() {
        let c = ConstellationBuilder::starlink_gen1().seed(5).build();
        let loc = Geodetic::new(41.66, -91.53, 0.2);
        let start = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0));
        let low = candidate_tracks(&c, loc, start, 25.0, 8).len();
        let high = candidate_tracks(&c, loc, start, 55.0, 8).len();
        assert!(high < low, "low {low} vs high {high}");
    }
}
