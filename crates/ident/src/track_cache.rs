//! Cross-slot candidate-track generation with an exact elevation prefilter.
//!
//! [`crate::candidate_tracks_through`] pays for the whole catalog at every
//! one of a slot's 16 sample epochs — propagation plus look angles — even
//! though the overwhelming majority of satellites are below the horizon
//! the entire slot. [`TrackCache`] removes that waste in three ways, without
//! changing a single bit of the produced candidate set:
//!
//! 1. **Elevation prefilter.** Before any per-epoch work, each satellite's
//!    elevation is checked at just the slot's two boundary epochs. A bound
//!    on how fast a line of sight can swing (§ *Soundness* below) gives a
//!    margin such that a satellite below `min_elevation − margin` at both
//!    boundaries provably stays below `min_elevation` for the whole slot —
//!    so it would fail [`crate::candidates`]' `any_above` filter anyway and
//!    can be discarded with zero interior work. Survivors (about 140 of
//!    the 4,236 gen1 satellites) get their full tracks built as before,
//!    propagating their published TLE directly at each interior epoch
//!    instead of reading full catalog rows (the batch propagator behind
//!    those rows is bit-identical to the scalar one).
//!
//! 2. **Boundary-row reuse.** Consecutive 15-second slots share a boundary
//!    instant: slot *t*'s last sample epoch is slot *t+1*'s first. The
//!    cache keeps the previous slot's end-boundary row (keyed by the
//!    epoch's exact bit pattern, so reuse can never be approximate) and
//!    hands it to the next slot's prefilter and track heads for free.
//!
//! 3. **Exact looks only near the sky.** The observer's topocentric frame
//!    is built once per cache and the TEME→ECEF rotation once per sample
//!    epoch — bit-identical by definition, since `look_angles_teme(o, p, t)`
//!    is `Topocentric::new(o).look_angles(Mat3::rot_z(t.gmst_rad()) * p)`.
//!    A boundary row keeps every satellite's TEME position and
//!    radius but takes the `asin`/`atan2` of its look only when the zenith
//!    component cannot certify it below the prefilter's discard line
//!    (§ *Soundness*). A survivor whose look was skipped at a boundary gets
//!    it computed later from the stored position and the row's rotation —
//!    the same arithmetic as the direct path, so the same bits.
//!
//! # Soundness
//!
//! Let `d(el)` be the smallest possible observer–satellite distance at
//! elevation `el` for a satellite of orbital radius ≥ [`R_FLOOR_KM`]:
//! `d(el) = sqrt(R_s² − R_o² cos²el) − R_o sin el`, which decreases as
//! `el` grows. A unit line-of-sight vector rotates at most `v_rel / d`
//! radians per second, and elevation changes no faster than the line of
//! sight rotates, so while a satellite sits above `min_elevation − margin`
//! its elevation rate is at most `v_max / d(min_elevation − margin)`...
//! but more simply: any sample epoch is within [`HORIZON_S`] seconds of a
//! boundary epoch, and on that interval elevation can change by at most
//! `ω_max × HORIZON_S` where `ω_max = v_max / d_min` uses the smallest
//! distance attainable anywhere at elevations up to the cutoff — which is
//! `d(min_elevation)`, since `d` decreases with elevation. Here `v_max`
//! bounds the relative TEME speed: satellite speed ≤ `sqrt(2μ/r)` for any
//! bound orbit of radius `r ≥ R_FLOOR_KM`, plus the observer's Earth-
//! rotation speed. The radius premise is itself guarded: a satellite is
//! only discarded when its propagated radius at both boundaries is at
//! least [`R_GUARD_KM`], which exceeds the floor by more than the largest
//! radial drift a bound orbit can manage in [`HORIZON_S`] seconds. An
//! extra [`SLACK_DEG`] absorbs the small geodetic-vs-geocentric zenith
//! difference in the look-angle model. Satellites that fail propagation at
//! a boundary are never discarded — they take the exact path. The distance
//! bound needs the observer inside the floor sphere (`d_min > 0`); for an
//! observer above it [`prefilter_margin_deg`] is NaN and nothing is
//! discarded.
//!
//! **Certified looks.** The exact elevation is `asin(z / range)` in
//! degrees, with `z` the zenith component of the line of sight. For a
//! discard line `D` in (−90°, 90°), a satellite with
//! `z < (sin D − CERTIFY_GUARD) · range` has `z / range` below `sin D` by
//! about 10⁻⁹, and since `asin` has slope ≥ 1 its exact elevation would
//! land below `D` by more than the few ulps the sine, the division and the
//! `asin` can round. The prefilter only asks whether an elevation is below
//! `D`, so such a satellite's look is skipped and treated as −∞ there —
//! the discard decision is the one the exact elevation gives. A NaN line,
//! or one outside (−90°, 90°) where `asin(sin D) ≠ D`, certifies nothing:
//! every look is computed.

use crate::candidates::{finish_track, sample_epochs, CandidateTrack};
use starsense_astro::frames::{geodetic_to_ecef, Geodetic, LookAngles, Topocentric};
use starsense_astro::mat3::Mat3;
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;
use starsense_constellation::PropagationCache;
use starsense_obstruction::PolarSample;
use starsense_sgp4::wgs72;

/// Orbital-radius floor (km) used by the velocity and distance bounds:
/// ~120 km altitude, far below anything that completes an orbit.
pub const R_FLOOR_KM: f64 = 6500.0;

/// Minimum propagated boundary radius (km) for the prefilter to apply —
/// the floor plus the largest radial drift (`sqrt(2μ/R_FLOOR) × HORIZON_S`
/// ≈ 85 km) a bound orbit can manage between a boundary and any sample.
pub const R_GUARD_KM: f64 = 6585.0;

/// Maximum time (s) from any sample epoch to the nearer slot boundary:
/// half a 15-second slot, plus slack for float epoch rounding.
pub const HORIZON_S: f64 = 7.6;

/// Extra margin (deg) absorbing the geodetic-vs-geocentric zenith
/// difference (≤ 0.2°) and every other small-model generosity.
pub const SLACK_DEG: f64 = 1.0;

/// Earth rotation rate (rad/s), bounding the observer's TEME speed.
const OMEGA_EARTH_RAD_S: f64 = 7.292_115_9e-5;

/// Guard (in sine units) below the discard line's sine that a zenith
/// component must clear to certify a satellite below the line; it dwarfs
/// the rounding of the sine, the division and the `asin`.
const CERTIFY_GUARD: f64 = 1e-9;

/// Work counters for the prefilter, reported by the benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrackCacheStats {
    /// Slots served.
    pub slots: usize,
    /// Satellites discarded by the boundary elevation check, summed over
    /// slots — each saved all of its interior propagation and look work.
    pub prefiltered: usize,
    /// Satellites that took the exact full-track path, summed over slots.
    pub surviving: usize,
    /// Slots whose start-boundary looks were reused from the previous
    /// slot's end boundary (bit-identical epoch).
    pub boundary_rows_reused: usize,
    /// Interior single-satellite propagations (survivors × interior
    /// epochs).
    pub interior_propagations: usize,
}

/// One satellite at a boundary epoch.
#[derive(Debug, Clone, Copy)]
struct BoundarySat {
    teme: Vec3,
    radius_km: f64,
    /// The exact look, or `None` where the zenith test certified the
    /// satellite below the discard line and the look was skipped.
    look: Option<PolarSample>,
}

impl BoundarySat {
    /// The elevation the prefilter compares with the discard line: exact,
    /// or −∞ for a certified satellite (whose exact elevation is below the
    /// line, so every comparison with the line comes out the same).
    fn prefilter_elevation_deg(&self) -> f64 {
        self.look.map_or(f64::NEG_INFINITY, |look| look.elevation_deg)
    }
}

/// The catalog at one boundary epoch.
#[derive(Debug)]
struct BoundaryRow {
    /// The epoch's exact bit pattern, the key for cross-slot reuse.
    epoch_bits: u64,
    /// TEME→ECEF rotation at the epoch.
    rotation: Mat3,
    /// Indexed like the catalog; `None` where the published TLE failed to
    /// propagate.
    sats: Vec<Option<BoundarySat>>,
}

impl BoundaryRow {
    /// The satellite's exact look at this epoch, computing a skipped one.
    fn look(&self, sat: &BoundarySat, topo: &Topocentric) -> PolarSample {
        sat.look.unwrap_or_else(|| polar(topo.look_angles(self.rotation * sat.teme)))
    }
}

fn polar(look: LookAngles) -> PolarSample {
    PolarSample { elevation_deg: look.elevation_deg, azimuth_deg: look.azimuth_deg }
}

/// Per-observer candidate-track generator that reuses boundary work across
/// consecutive slots and prefilters never-visible satellites. Produces
/// candidate sets bit-identical to [`crate::candidate_tracks_through`] on
/// the same [`PropagationCache`] (property-tested in this module).
#[derive(Debug)]
pub struct TrackCache<'a, 'c> {
    cache: &'c PropagationCache<'a>,
    /// The observer's frame, built once.
    topo: Topocentric,
    min_elevation_deg: f64,
    samples_per_slot: u32,
    /// Keep every satellite whose boundary elevation reaches this; below
    /// it (at both boundaries, radius guard passing) is provably invisible
    /// all slot.
    discard_below_deg: f64,
    /// `sin(discard_below_deg) − CERTIFY_GUARD`: a zenith component below
    /// this times the range certifies a look below the discard line.
    /// `None` when the line is NaN or outside (−90°, 90°).
    certify_sine: Option<f64>,
    /// The previous slot's end-boundary row.
    last_end: Option<BoundaryRow>,
    stats: TrackCacheStats,
}

/// The prefilter margin (deg) for an observer and elevation cutoff: how
/// much elevation a satellite could possibly gain between a boundary and a
/// sample epoch, per the module-level soundness argument. NaN — which
/// disables the prefilter — when the observer is not inside the
/// [`R_FLOOR_KM`] sphere, where no positive distance bound exists.
pub fn prefilter_margin_deg(observer: Geodetic, min_elevation_deg: f64) -> f64 {
    let r_o = geodetic_to_ecef(observer).norm();
    let el = min_elevation_deg.to_radians();
    // Nearest a guarded satellite can be while at the cutoff elevation —
    // the minimum over all elevations up to the cutoff, since distance
    // shrinks as elevation grows.
    let d_min = (R_FLOOR_KM * R_FLOOR_KM - r_o * r_o * el.cos() * el.cos()).sqrt() - r_o * el.sin();
    if d_min.is_nan() || d_min <= 0.0 {
        return f64::NAN;
    }
    let v_max = (2.0 * wgs72::MU / R_FLOOR_KM).sqrt() + OMEGA_EARTH_RAD_S * r_o;
    (v_max / d_min * HORIZON_S).to_degrees() + SLACK_DEG
}

impl<'a, 'c> TrackCache<'a, 'c> {
    /// Creates a track cache for one observer over `cache`'s catalog,
    /// matching [`crate::candidate_tracks_through`]'s `min_elevation_deg`
    /// and `samples_per_slot` parameters.
    pub fn new(
        cache: &'c PropagationCache<'a>,
        observer: Geodetic,
        min_elevation_deg: f64,
        samples_per_slot: u32,
    ) -> TrackCache<'a, 'c> {
        let discard_below_deg =
            min_elevation_deg - prefilter_margin_deg(observer, min_elevation_deg);
        let certify_sine = (discard_below_deg > -90.0 && discard_below_deg < 90.0)
            .then(|| discard_below_deg.to_radians().sin() - CERTIFY_GUARD);
        TrackCache {
            cache,
            topo: Topocentric::new(observer),
            min_elevation_deg,
            samples_per_slot,
            discard_below_deg,
            certify_sine,
            last_end: None,
            stats: TrackCacheStats::default(),
        }
    }

    /// The shared propagation cache this generator reads through.
    pub fn propagation_cache(&self) -> &'c PropagationCache<'a> {
        self.cache
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> TrackCacheStats {
        self.stats
    }

    /// Candidate set for the slot starting at `slot_start` — bit-identical
    /// to `candidate_tracks_through(cache, observer, slot_start, ...)`.
    pub fn candidate_tracks(&mut self, slot_start: JulianDate) -> Vec<CandidateTrack> {
        let n = self.samples_per_slot.max(2) as usize;
        let epochs = sample_epochs(slot_start, n as u32);
        let first = epochs[0];
        let interior = &epochs[1..n - 1];

        let row0 = match self.last_end.take() {
            Some(row) if row.epoch_bits == first.0.to_bits() => {
                self.stats.boundary_rows_reused += 1;
                row
            }
            _ => self.boundary_row(first),
        };
        let row1 = self.boundary_row(epochs[n - 1]);
        let rotations: Vec<Mat3> = interior.iter().map(|t| Mat3::rot_z(t.gmst_rad())).collect();

        let sats = self.cache.constellation().sats();
        let mut out = Vec::new();
        for (si, sat) in sats.iter().enumerate() {
            let (head, tail) = (&row0.sats[si], &row1.sats[si]);
            if let (Some(a), Some(b)) = (head, tail) {
                if a.radius_km >= R_GUARD_KM
                    && b.radius_km >= R_GUARD_KM
                    && a.prefilter_elevation_deg().max(b.prefilter_elevation_deg())
                        < self.discard_below_deg
                {
                    // Provably below `min_elevation_deg` at every sample
                    // epoch: `any_above` would be false, the track `None`.
                    self.stats.prefiltered += 1;
                    continue;
                }
            }
            self.stats.surviving += 1;
            self.stats.interior_propagations += interior.len();
            // Same epochs, same skip-on-failure, same look arithmetic as
            // the direct path; interior epochs propagate this satellite
            // alone.
            let mut samples = Vec::with_capacity(n);
            samples.extend(head.map(|b| row0.look(&b, &self.topo)));
            samples.extend(interior.iter().zip(&rotations).filter_map(|(&t, &rotation)| {
                let teme = sat.published_position(t)?;
                Some(polar(self.topo.look_angles(rotation * teme)))
            }));
            samples.extend(tail.map(|b| row1.look(&b, &self.topo)));
            let any_above = samples.iter().any(|s| s.elevation_deg >= self.min_elevation_deg);
            if let Some(track) = finish_track(sat.norad_id, any_above, samples) {
                out.push(track);
            }
        }

        self.stats.slots += 1;
        self.last_end = Some(row1);
        out
    }

    /// The catalog at a boundary epoch, read through the shared full-row
    /// position cache (boundary epochs are sample epochs, so the rows are
    /// shared with every other consumer). Looks the zenith test certifies
    /// below the discard line are skipped.
    fn boundary_row(&self, at: JulianDate) -> BoundaryRow {
        let rotation = Mat3::rot_z(at.gmst_rad());
        let sats = self
            .cache
            .published_positions(at)
            .iter()
            .map(|pos| {
                pos.map(|teme| {
                    let sez = self.topo.sez(rotation * teme);
                    let certified =
                        self.certify_sine.is_some_and(|k| sez.zenith < k * sez.range_km);
                    BoundarySat {
                        teme,
                        radius_km: teme.norm(),
                        look: (!certified).then(|| polar(sez.look_angles())),
                    }
                })
            })
            .collect();
        BoundaryRow { epoch_bits: at.0.to_bits(), rotation, sats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::candidate_tracks_through;
    use starsense_astro::frames::look_angles_teme;
    use starsense_constellation::ConstellationBuilder;
    use starsense_scheduler::slots::{slot_start, SLOT_PERIOD_SECONDS};

    fn assert_same_tracks(direct: &[CandidateTrack], tracked: &[CandidateTrack]) {
        assert_eq!(direct.len(), tracked.len());
        for (a, b) in direct.iter().zip(tracked) {
            assert_eq!(a.norad_id, b.norad_id);
            assert_eq!(a.samples.len(), b.samples.len());
            for (sa, sb) in a.samples.iter().zip(&b.samples) {
                assert_eq!(sa.elevation_deg.to_bits(), sb.elevation_deg.to_bits());
                assert_eq!(sa.azimuth_deg.to_bits(), sb.azimuth_deg.to_bits());
            }
        }
    }

    #[test]
    fn margin_is_positive_and_sane() {
        let m = prefilter_margin_deg(Geodetic::new(41.66, -91.53, 0.2), 25.0);
        assert!(m > SLACK_DEG, "margin {m} should exceed the slack alone");
        assert!(m < 45.0, "margin {m} should leave the filter useful");
    }

    #[test]
    fn tracked_candidates_match_direct_over_consecutive_slots() {
        let c = ConstellationBuilder::starlink_gen1().seed(5).build();
        let cache = PropagationCache::new(&c);
        let loc = Geodetic::new(41.66, -91.53, 0.2);
        let mut tracks = TrackCache::new(&cache, loc, 25.0, 16);
        let first = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0));
        for k in 0..8 {
            let start = slot_start(first.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS + 1.0));
            let direct = candidate_tracks_through(&cache, loc, start, 25.0, 16);
            let tracked = tracks.candidate_tracks(start);
            assert_same_tracks(&direct, &tracked);
        }
        let s = tracks.stats();
        assert_eq!(s.slots, 8);
        assert!(s.prefiltered > s.surviving, "prefilter should discard most of the catalog: {s:?}");
        assert!(s.boundary_rows_reused > 0, "consecutive slots should share boundaries: {s:?}");
    }

    #[test]
    fn misaligned_slot_starts_are_still_exact() {
        // The soundness argument only uses the slot's own first/last sample
        // epochs, so a start that is not on the global :12 grid must still
        // reproduce the direct generator bit for bit.
        let c = ConstellationBuilder::starlink_mini().seed(42).build();
        let cache = PropagationCache::new(&c);
        let loc = Geodetic::new(47.6, -122.3, 0.1);
        let mut tracks = TrackCache::new(&cache, loc, 25.0, 16);
        let first = JulianDate::from_ymd_hms(2023, 6, 1, 9, 0, 3.7);
        for k in 0..6 {
            let start = first.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS);
            let direct = candidate_tracks_through(&cache, loc, start, 25.0, 16);
            let tracked = tracks.candidate_tracks(start);
            assert_same_tracks(&direct, &tracked);
        }
    }

    #[test]
    fn sweeping_observers_and_cutoffs_stays_exact() {
        // A small property sweep: several sites and elevation cutoffs, a
        // couple of slots each, all bit-identical to the direct path. A 0°
        // cutoff puts the discard line below the horizon (negative sine).
        // The 200-km observer sits outside the distance bound's floor
        // sphere, so its margin is NaN and nothing is discarded or
        // certified; the 120-km one sits just inside it, where the margin
        // is finite but puts the discard line below −90°, so the zenith
        // test must certify nothing there either.
        let first = slot_start(JulianDate::from_ymd_hms(2023, 6, 2, 3, 0, 13.0));
        let start = |k: usize| slot_start(first.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS + 1.0));
        // Candidates the direct path found over `slots` slots, after
        // checking the track cache against it slot by slot.
        let compare = |cache: &PropagationCache<'_>, site: Geodetic, cutoff: f64, slots: usize| {
            let mut tracks = TrackCache::new(cache, site, cutoff, 16);
            let mut found = 0;
            for k in 0..slots {
                let direct = candidate_tracks_through(cache, site, start(k), cutoff, 16);
                assert_same_tracks(&direct, &tracks.candidate_tracks(start(k)));
                found += direct.len();
            }
            found
        };
        let mini = ConstellationBuilder::starlink_mini().seed(7).build();
        let sites = [
            Geodetic::new(41.66, -91.53, 0.2),
            Geodetic::new(-33.9, 18.4, 0.05),
            Geodetic::new(64.1, -21.9, 0.1),
            Geodetic::new(-17.8, 180.0, 0.02),
            Geodetic::new(30.0, 100.0, 200.0),
            Geodetic::new(30.0, 100.0, 120.0),
        ];
        for &site in &sites {
            let mut found = 0;
            for &cutoff in &[0.0, 25.0, 40.0, 60.0] {
                found += compare(&PropagationCache::new(&mini), site, cutoff, 3);
            }
            assert!(found > 0 || site.alt_km > 100.0, "{site:?} saw no candidates");
        }

        // The mini catalog rarely passes near the high observers; the full
        // one does, and a discard decision from a bound that does not hold
        // there would drop visible satellites.
        let gen1 = ConstellationBuilder::starlink_gen1().seed(1).build();
        let cache = PropagationCache::new(&gen1);
        for &high in &sites[4..] {
            assert!(compare(&cache, high, 25.0, 3) > 0, "{high:?} saw no candidates");
        }
        assert!(prefilter_margin_deg(sites[4], 25.0).is_nan());
        assert!(25.0 - prefilter_margin_deg(sites[5], 25.0) < -90.0);

        // A long run on the full catalog: satellites rise and set across
        // the discard line, so survivors whose look at one boundary was
        // certified and skipped get it computed from the stored position.
        // Such a look can never reach the output (a satellite cannot climb
        // the margin within a slot), so every skipped look is checked
        // against the direct arithmetic here instead.
        let site = sites[0];
        let mut tracks = TrackCache::new(&cache, site, 25.0, 16);
        let line = tracks.discard_below_deg;
        let (mut rising, mut setting) = (0, 0);
        for k in 0..40 {
            let head = tracks.last_end.as_ref().map(|row| row.sats.clone());
            let direct = candidate_tracks_through(&cache, site, start(k), 25.0, 16);
            assert_same_tracks(&direct, &tracks.candidate_tracks(start(k)));
            let tail = tracks.last_end.as_ref().expect("a served slot keeps its end row");
            let at = JulianDate(f64::from_bits(tail.epoch_bits));
            for b in tail.sats.iter().flatten().filter(|b| b.look.is_none()) {
                let exact = look_angles_teme(site, b.teme, at);
                assert!(exact.elevation_deg < line, "certified {exact:?} above {line}");
                let deferred = tail.look(b, &tracks.topo);
                assert_eq!(deferred.elevation_deg.to_bits(), exact.elevation_deg.to_bits());
                assert_eq!(deferred.azimuth_deg.to_bits(), exact.azimuth_deg.to_bits());
            }
            for (a, b) in head.iter().flatten().zip(&tail.sats) {
                if let (Some(a), Some(b)) = (a, b) {
                    match (a.look, b.look) {
                        (None, Some(look)) if look.elevation_deg >= line => rising += 1,
                        (Some(look), None) if look.elevation_deg >= line => setting += 1,
                        _ => {}
                    }
                }
            }
        }
        assert!(rising > 0 && setting > 0, "rising {rising}, setting {setting}");
    }

    #[test]
    fn prepared_boundaries_keep_the_hot_path_lock_free() {
        // With every slot's boundary epochs prepared, boundary rows come
        // from the immutable table and interior epochs propagate survivors
        // directly: no full row is propagated and the fallback map stays
        // empty.
        let c = ConstellationBuilder::starlink_mini().seed(42).build();
        let cache = PropagationCache::new(&c);
        let loc = Geodetic::new(41.66, -91.53, 0.2);
        let first = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0));
        let starts: Vec<JulianDate> = (0..12)
            .map(|k| slot_start(first.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS + 1.0)))
            .collect();
        let boundaries: Vec<JulianDate> =
            starts.iter().flat_map(|&s| crate::slot_boundary_epochs(s, 16)).collect();
        assert!(cache.prepare(&[], &boundaries, 1));
        let prepared = cache.stats().published_entries;
        let mut tracks = TrackCache::new(&cache, loc, 25.0, 16);
        for &start in &starts {
            let _ = tracks.candidate_tracks(start);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 0, "{s:?}");
        assert_eq!(s.published_entries, prepared, "{s:?}");
        assert!(tracks.stats().interior_propagations > 0);
    }

    #[test]
    fn prefilter_avoids_interior_propagation_for_discarded_sats() {
        let c = ConstellationBuilder::starlink_gen1().seed(5).build();
        let cache = PropagationCache::new(&c);
        let loc = Geodetic::new(41.66, -91.53, 0.2);
        let mut tracks = TrackCache::new(&cache, loc, 25.0, 16);
        let start = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0));
        let _ = tracks.candidate_tracks(start);
        // Only the two boundary epochs took full catalog rows; interior
        // epochs propagated survivors alone.
        assert_eq!(cache.stats().published_entries, 2);
        let s = tracks.stats();
        assert!(
            s.interior_propagations < c.len() * 14,
            "interior propagation should cover survivors only: {} of {}",
            s.interior_propagations,
            c.len() * 14
        );
    }
}
