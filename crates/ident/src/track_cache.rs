//! Cross-slot candidate-track generation with an exact elevation prefilter.
//!
//! [`crate::candidate_tracks`] pays for the whole catalog at every one of
//! a slot's 16 sample epochs — propagation plus look angles — even though
//! the overwhelming majority of satellites are below the horizon the
//! entire slot. [`TrackCache`] removes that waste in three ways, without
//! changing a single bit of the produced candidate set:
//!
//! 1. **Elevation prefilter.** Before any per-epoch work, each satellite's
//!    elevation is checked at just the slot's two boundary epochs. A bound
//!    on how fast a line of sight can swing (§ *Soundness* below) gives a
//!    margin such that a satellite below `min_elevation − margin` at both
//!    boundaries provably stays below `min_elevation` for the whole slot —
//!    so it would fail [`crate::candidates`]' `any_above` filter anyway and
//!    can be discarded with zero interior work. The margin is the
//!    satellite's own, taken from its boundary radii: a LEO satellite can
//!    come no nearer the observer than its orbit allows, so its line sits
//!    well above a line drawn for the lowest possible orbit. Survivors
//!    (about 50 of the 4,236 gen1 satellites, against ~140 with one
//!    catalog-wide margin) get their full tracks built as before,
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
//! 4. **Culled rows.** A [`PropagationCache`] built for the campaign's
//!    observers culls satellites from its published rows
//!    (`starsense_constellation`'s *Observer culling*). A row names the
//!    satellites its key dismissed and where they are proven below the
//!    cache's cutoff. When the cache speaks for this observer and cutoff
//!    ([`PropagationCache::culls_for`]) and the proofs of the slot's two
//!    rows cover every sample epoch, a satellite dismissed at both
//!    boundaries is counted as prefiltered with no work at all: it is
//!    below the cutoff at every sample, so `any_above` would be false.
//!    Any other culled boundary entry is propagated directly — the call
//!    the full row would have made, so the same bits — and kept in the
//!    row for the next slot. A failed propagation stays what it was: a
//!    missing sample on the exact path.
//!
//! # Soundness
//!
//! Every sample epoch `t` lies within [`HORIZON_S`] seconds of the nearer
//! of the slot's two boundary epochs `b`. A satellite is only discarded
//! when its published TLE propagated at both boundaries, both boundary
//! radii are at least [`R_GUARD_KM`], and its elevation at both is below
//! its own discard line. The line comes from the satellite's floor
//! `F = min(r_head, r_tail) − 85 km`, so `F ≥ R_FLOOR_KM`.
//!
//! 1. **The radius stays ≥ `F` all slot.** While a bound orbit's radius is
//!    at least `R_FLOOR_KM`, its speed is below `sqrt(2μ/R_FLOOR_KM)`, so
//!    over at most `HORIZON_S` seconds its radius moves by less than
//!    `sqrt(2μ/R_FLOOR_KM) × HORIZON_S` ≈ 84.2 km < 85 km. Starting from
//!    `r_b ≥ F + 85 km` at `b`, it cannot reach `F` before `t`.
//! 2. **Speed.** On that interval the satellite's speed is below
//!    `sqrt(2μ/F)`, and the observer's TEME speed is at most `ω⊕ · r_o`,
//!    so the relative speed is below `v_max(F) = sqrt(2μ/F) + ω⊕ · r_o`.
//! 3. **Distance.** A point of radius ≥ `F` seen at elevation `el` is at
//!    least `d(el) = sqrt(F² − r_o² cos²el) − r_o sin el` from the
//!    observer, and `d` shrinks as `el` grows. So while the satellite is at
//!    or below the cutoff it is at least `d_min(F) = d(min_elevation)`
//!    away.
//! 4. **Elevation.** Elevation changes no faster than the line of sight
//!    turns, which is at most `v_max(F) / d_min(F)` radians per second
//!    while the satellite is at or below the cutoff. Climbing from below
//!    `min_elevation − margin(F)` at `b` to the cutoff would take longer
//!    than `HORIZON_S`, with `margin(F) = v_max(F) / d_min(F) × HORIZON_S`
//!    in degrees plus [`SLACK_DEG`]. The slack absorbs the small
//!    geodetic-vs-geocentric zenith difference in the look-angle model. So
//!    the satellite is below the cutoff at every sample epoch, and
//!    `any_above` is false.
//!
//! Because `F ≥ R_FLOOR_KM`, and `d_min` grows and `v_max` shrinks with
//! `F` (each step of the float arithmetic is monotone), no satellite's
//! line is below the catalog-wide line drawn for `F = R_FLOOR_KM`. That
//! line costs nothing per satellite, so it is tested first: most of the
//! catalog falls below it, and only the rest compute their own line.
//! Satellites that fail propagation at a boundary are never discarded —
//! they take the exact path. The distance bound needs the observer inside
//! the floor sphere (`r_o < F`, which also makes `d_min > 0`); otherwise
//! the margin is NaN and nothing is discarded by that line.
//!
//! **Certified looks.** The exact elevation is `asin(z / range)` in
//! degrees, with `z` the zenith component of the line of sight. Boundary
//! rows certify against the catalog-wide line `D`, which no satellite's
//! own line is below. For `D` in (−90°, 90°), a satellite with
//! `z < (sin D − CERTIFY_GUARD) · range` has `z / range` below `sin D` by
//! about 10⁻⁹, and since `asin` has slope ≥ 1 its exact elevation would
//! land below `D` by more than the few ulps the sine, the division and the
//! `asin` can round. The prefilter only asks whether an elevation is below
//! `D` or a higher line, so such a satellite's look is skipped and treated
//! as −∞ there — the discard decision is the one the exact elevation
//! gives. A NaN line, or one outside (−90°, 90°) where `asin(sin D) ≠ D`,
//! certifies nothing: every look is computed.

use crate::candidates::{finish_track, sample_epochs, CandidateTrack};
use starsense_astro::frames::{geodetic_to_ecef, Geodetic, LookAngles, Topocentric};
use starsense_astro::mat3::Mat3;
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;
use starsense_constellation::{PropagationCache, PublishedRow, OMEGA_EARTH_RAD_S};
use starsense_obstruction::PolarSample;
use starsense_sgp4::wgs72;
use std::sync::Arc;

/// Lowest orbital-radius floor (km) the velocity and distance bounds are
/// drawn for — the propagation cache's, ~120 km altitude. The
/// catalog-wide discard line uses it.
pub use starsense_constellation::R_FLOOR_KM;

/// Minimum propagated boundary radius (km) for the prefilter to apply —
/// the floor plus an 85-km radial drift allowance.
pub const R_GUARD_KM: f64 = R_FLOOR_KM + DRIFT_KM;

/// Radial drift allowance (km): more than the
/// `sqrt(2μ/R_FLOOR_KM) × HORIZON_S` ≈ 84.2 km a bound orbit can move
/// between a boundary and any sample. A satellite's floor is its smaller
/// boundary radius less this.
const DRIFT_KM: f64 = 85.0;

/// Maximum time (s) from any sample epoch to the nearer slot boundary:
/// half a 15-second slot, plus slack for float epoch rounding.
pub const HORIZON_S: f64 = 7.6;

/// Extra margin (deg) absorbing the geodetic-vs-geocentric zenith
/// difference (≤ 0.2°) and every other small-model generosity.
pub const SLACK_DEG: f64 = 1.0;

/// Guard (in sine units) below the discard line's sine that a zenith
/// component must clear to certify a satellite below the line; it dwarfs
/// the rounding of the sine, the division and the `asin`.
const CERTIFY_GUARD: f64 = 1e-9;

/// Work counters for the prefilter, read through [`TrackCache::stats`].
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
    /// Satellites the shared rows' keys dismissed at both boundaries,
    /// proving them below the cutoff at every sample epoch, summed over
    /// slots; they are counted in `prefiltered` too.
    pub culled: usize,
    /// Culled boundary entries propagated directly, because the satellite
    /// was not dismissed at both boundaries or the rows' proofs did not
    /// cover every sample epoch.
    pub culled_resolved: usize,
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
    /// propagate or the shared row culled the satellite.
    sats: Vec<Option<BoundarySat>>,
    /// Culled entries this row has since propagated directly into `sats`.
    resolved: Vec<bool>,
    /// The shared row, which knows which satellites its key dismissed and
    /// where they are proven below the cutoff.
    source: Arc<PublishedRow>,
}

impl BoundaryRow {
    /// Whether `sats[si]` still lacks a culled satellite's state.
    fn unresolved(&self, si: usize) -> bool {
        self.source.is_culled(si) && !self.resolved[si]
    }

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
/// candidate sets bit-identical to [`crate::candidate_tracks`] on the
/// cache's catalog (property-tested in this module).
#[derive(Debug)]
pub struct TrackCache<'a, 'c> {
    cache: &'c PropagationCache<'a>,
    /// The observer's frame, built once.
    topo: Topocentric,
    /// The observer's geocentric radius, km.
    observer_radius_km: f64,
    min_elevation_deg: f64,
    samples_per_slot: u32,
    /// The catalog-wide discard line: the lowest any satellite's own line
    /// can be. Below it at both boundaries (radius guard passing) is
    /// provably invisible all slot.
    discard_below_deg: f64,
    /// `sin(discard_below_deg) − CERTIFY_GUARD`: a zenith component below
    /// this times the range certifies a look below the discard line.
    /// `None` when the line is NaN or outside (−90°, 90°).
    certify_sine: Option<f64>,
    /// Whether the cache's culled entries are proven below this cache's
    /// cutoff from its observer.
    culls_for_observer: bool,
    /// The previous slot's end-boundary row.
    last_end: Option<BoundaryRow>,
    stats: TrackCacheStats,
}

/// The prefilter margin (deg) for an observer at geocentric radius
/// `observer_radius_km`, an elevation cutoff and a satellite whose radius
/// stays at least `floor_km` all slot: how much elevation it could
/// possibly gain between a boundary and a sample epoch, per the
/// module-level soundness argument. Never larger for a higher floor. NaN —
/// which disables the prefilter — when the observer is not inside the
/// floor sphere, where no positive distance bound exists.
fn prefilter_margin_deg(observer_radius_km: f64, min_elevation_deg: f64, floor_km: f64) -> f64 {
    let r_o = observer_radius_km;
    if r_o >= floor_km {
        // Outside the floor sphere a satellite can be arbitrarily near.
        return f64::NAN;
    }
    let el = min_elevation_deg.to_radians();
    // Nearest a satellite at or above the floor can be while at the cutoff
    // elevation — the minimum over all elevations up to the cutoff, since
    // distance shrinks as elevation grows.
    let d_min = (floor_km * floor_km - r_o * r_o * el.cos() * el.cos()).sqrt() - r_o * el.sin();
    if d_min.is_nan() || d_min <= 0.0 {
        return f64::NAN;
    }
    let v_max = (2.0 * wgs72::MU / floor_km).sqrt() + OMEGA_EARTH_RAD_S * r_o;
    (v_max / d_min * HORIZON_S).to_degrees() + SLACK_DEG
}

/// A guarded satellite's radius floor for the slot (§ *Soundness*): its
/// smaller boundary radius less the drift allowance.
fn satellite_floor_km(head: &BoundarySat, tail: &BoundarySat) -> f64 {
    head.radius_km.min(tail.radius_km) - DRIFT_KM
}

impl<'a, 'c> TrackCache<'a, 'c> {
    /// Creates a track cache for one observer over `cache`'s catalog,
    /// matching [`crate::candidate_tracks`]' `min_elevation_deg` and
    /// `samples_per_slot` parameters.
    pub fn new(
        cache: &'c PropagationCache<'a>,
        observer: Geodetic,
        min_elevation_deg: f64,
        samples_per_slot: u32,
    ) -> TrackCache<'a, 'c> {
        let observer_radius_km = geodetic_to_ecef(observer).norm();
        let discard_below_deg = min_elevation_deg
            - prefilter_margin_deg(observer_radius_km, min_elevation_deg, R_FLOOR_KM);
        let certify_sine = (discard_below_deg > -90.0 && discard_below_deg < 90.0)
            .then(|| discard_below_deg.to_radians().sin() - CERTIFY_GUARD);
        TrackCache {
            cache,
            culls_for_observer: cache.culls_for(observer, min_elevation_deg),
            topo: Topocentric::new(observer),
            observer_radius_km,
            min_elevation_deg,
            samples_per_slot,
            discard_below_deg,
            certify_sine,
            last_end: None,
            stats: TrackCacheStats::default(),
        }
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> TrackCacheStats {
        self.stats
    }

    /// Candidate set for the slot starting at `slot_start` — bit-identical
    /// to `candidate_tracks(catalog, observer, slot_start, ...)`.
    pub fn candidate_tracks(&mut self, slot_start: JulianDate) -> Vec<CandidateTrack> {
        let n = self.samples_per_slot.max(2) as usize;
        let epochs = sample_epochs(slot_start, n as u32);
        let first = epochs[0];
        let interior = &epochs[1..n - 1];

        let mut row0 = match self.last_end.take() {
            Some(row) if row.epoch_bits == first.0.to_bits() => {
                self.stats.boundary_rows_reused += 1;
                row
            }
            _ => self.boundary_row(first),
        };
        let mut row1 = self.boundary_row(epochs[n - 1]);
        let rotations: Vec<Mat3> = interior.iter().map(|t| Mat3::rot_z(t.gmst_rad())).collect();
        // A satellite both rows' keys dismissed is below the cutoff at
        // every sample epoch their proofs cover; if they cover them all,
        // `any_above` would be false.
        let dismissed_through = self.culls_for_observer
            && epochs
                .iter()
                .all(|&t| row0.source.dismissed_below_at(t) || row1.source.dismissed_below_at(t));

        let sats = self.cache.constellation().sats();
        let mut out = Vec::new();
        for (si, sat) in sats.iter().enumerate() {
            if dismissed_through && row0.source.is_dismissed(si) && row1.source.is_dismissed(si) {
                self.stats.prefiltered += 1;
                self.stats.culled += 1;
                continue;
            }
            if row0.unresolved(si) {
                self.resolve_culled(&mut row0, si);
            }
            if row1.unresolved(si) {
                self.resolve_culled(&mut row1, si);
            }
            let (head, tail) = (&row0.sats[si], &row1.sats[si]);
            if let (Some(a), Some(b)) = (head, tail) {
                if self.stays_below_cutoff(a, b) {
                    // `any_above` would be false, the track `None`.
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

    /// Whether a satellite with these boundary states is provably below
    /// `min_elevation_deg` at every sample epoch (§ *Soundness*): its radius
    /// guard passes and its boundary elevations are below the catalog-wide
    /// line or, failing that, below its own.
    fn stays_below_cutoff(&self, head: &BoundarySat, tail: &BoundarySat) -> bool {
        if !(head.radius_km >= R_GUARD_KM && tail.radius_km >= R_GUARD_KM) {
            return false;
        }
        let el = head.prefilter_elevation_deg().max(tail.prefilter_elevation_deg());
        el < self.discard_below_deg || el < self.own_discard_line_deg(head, tail)
    }

    /// A guarded satellite's own discard line, from its radius floor.
    fn own_discard_line_deg(&self, head: &BoundarySat, tail: &BoundarySat) -> f64 {
        let floor_km = satellite_floor_km(head, tail);
        self.min_elevation_deg
            - prefilter_margin_deg(self.observer_radius_km, self.min_elevation_deg, floor_km)
    }

    /// The catalog at a boundary epoch, read through the shared position
    /// cache (boundary epochs are sample epochs, so the rows are shared
    /// with every other consumer); culled satellites read `None` until
    /// resolved. Looks the zenith test certifies below the discard line
    /// are skipped.
    fn boundary_row(&self, at: JulianDate) -> BoundaryRow {
        let rotation = Mat3::rot_z(at.gmst_rad());
        let source = self.cache.published_positions(at);
        let sats = source
            .positions()
            .iter()
            .map(|pos| pos.map(|teme| self.boundary_sat(teme, rotation)))
            .collect();
        let culls = source.cull_key().is_some();
        let resolved = vec![false; if culls { source.positions().len() } else { 0 }];
        BoundaryRow { epoch_bits: at.0.to_bits(), rotation, sats, resolved, source }
    }

    /// One satellite at a boundary epoch: its look is skipped when the
    /// zenith test certifies it below the discard line.
    fn boundary_sat(&self, teme: Vec3, rotation: Mat3) -> BoundarySat {
        let sez = self.topo.sez(rotation * teme);
        let certified = self.certify_sine.is_some_and(|k| sez.zenith < k * sez.range_km);
        BoundarySat {
            teme,
            radius_km: teme.norm(),
            look: (!certified).then(|| polar(sez.look_angles())),
        }
    }

    /// Propagates a culled entry of `row` directly — the same scalar call
    /// the shared row would have made, so the same bits — and keeps it in
    /// the row for a later slot that reuses the row.
    fn resolve_culled(&mut self, row: &mut BoundaryRow, si: usize) {
        let sat = &self.cache.constellation().sats()[si];
        let at = JulianDate(f64::from_bits(row.epoch_bits));
        row.sats[si] = sat.published_position(at).map(|teme| self.boundary_sat(teme, row.rotation));
        row.resolved[si] = true;
        self.stats.culled_resolved += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::candidate_tracks;
    use starsense_astro::frames::look_angles_teme;
    use starsense_constellation::{Constellation, ConstellationBuilder, LaunchBatch, Satellite};
    use starsense_scheduler::slots::{slot_start, SLOT_PERIOD_SECONDS};
    use starsense_sgp4::Tle;

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

    fn radius(site: Geodetic) -> f64 {
        geodetic_to_ecef(site).norm()
    }

    #[test]
    fn margin_is_positive_and_sane() {
        let r_o = radius(Geodetic::new(41.66, -91.53, 0.2));
        let m = prefilter_margin_deg(r_o, 25.0, R_FLOOR_KM);
        assert!(m > SLACK_DEG, "margin {m} should exceed the slack alone");
        assert!(m < 45.0, "margin {m} should leave the filter useful");
        // A gen1 shell's floor gives a narrower margin, and no floor above
        // the lowest gives a wider one.
        let shell = prefilter_margin_deg(r_o, 25.0, 6378.135 + 540.0 - DRIFT_KM);
        assert!(shell > SLACK_DEG && shell < m - 1.0, "shell margin {shell} against {m}");
        let mut last = m;
        for k in 0..2000 {
            let next = prefilter_margin_deg(r_o, 25.0, R_FLOOR_KM + k as f64 * 0.37);
            assert!(next <= last, "margin rose from {last} to {next} at step {k}");
            last = next;
        }
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
            let direct = candidate_tracks(&c, loc, start, 25.0, 16);
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
            let direct = candidate_tracks(&c, loc, start, 25.0, 16);
            let tracked = tracks.candidate_tracks(start);
            assert_same_tracks(&direct, &tracked);
        }
    }

    #[test]
    fn sweeping_observers_and_cutoffs_stays_exact() {
        // A small property sweep: several sites and elevation cutoffs, a
        // couple of slots each, all bit-identical to the direct path. A 0°
        // cutoff puts the discard line below the horizon (negative sine).
        // The 200-km observer sits outside the lowest floor sphere, so its
        // catalog-wide margin is NaN and nothing is certified; only
        // satellites whose own floor lies above the observer can be
        // discarded. The 120-km one sits just inside it, where the
        // catalog-wide margin is finite but puts the line below −90°, so
        // the zenith test must certify nothing there either.
        let first = slot_start(JulianDate::from_ymd_hms(2023, 6, 2, 3, 0, 13.0));
        let start = |k: usize| slot_start(first.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS + 1.0));
        // Candidates the direct path found over `slots` slots, after
        // checking the track cache against it slot by slot.
        let compare = |cache: &PropagationCache<'_>, site: Geodetic, cutoff: f64, slots: usize| {
            let mut tracks = TrackCache::new(cache, site, cutoff, 16);
            let mut found = 0;
            for k in 0..slots {
                let direct = candidate_tracks(cache.constellation(), site, start(k), cutoff, 16);
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
        assert!(prefilter_margin_deg(radius(sites[4]), 25.0, R_FLOOR_KM).is_nan());
        assert!(25.0 - prefilter_margin_deg(radius(sites[5]), 25.0, R_FLOOR_KM) < -90.0);

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
            let direct = candidate_tracks(&gen1, site, start(k), 25.0, 16);
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

    /// A satellite whose published TLE is its truth, on an orbit of
    /// semi-major axis `a_km` that crosses `site`'s latitude northbound at
    /// `pass`, `dlon_deg` east of the site, at mean anomaly `m_deg`. The
    /// inclination is 53°, or 5° more than the site's |latitude| when that
    /// is higher.
    fn aimed(
        id: u32,
        site: Geodetic,
        pass: JulianDate,
        (a_km, ecc, m_deg): (f64, f64, f64),
        dlon_deg: f64,
    ) -> Satellite {
        let inc_deg = 53.0_f64.max(site.lat_deg.abs() + 5.0);
        let inc = inc_deg.to_radians();
        // Argument of latitude at the crossing, and how far east of the
        // node (inertially) the crossing lies.
        let u = (site.lat_deg.to_radians().sin() / inc.sin()).asin();
        let east_of_node = (inc.cos() * u.sin()).atan2(u.cos());
        let raan =
            site.lon_deg.to_radians() + dlon_deg.to_radians() + pass.gmst_rad() - east_of_node;
        // True anomaly at `m_deg`, so the argument of perigee puts the
        // satellite at `u` then.
        let m = m_deg.to_radians();
        let mut e_anom = m;
        for _ in 0..20 {
            e_anom -= (e_anom - ecc * e_anom.sin() - m) / (1.0 - ecc * e_anom.cos());
        }
        let nu = 2.0
            * ((1.0 + ecc).sqrt() * (e_anom / 2.0).sin())
                .atan2((1.0 - ecc).sqrt() * (e_anom / 2.0).cos());
        let rev_per_day = (wgs72::MU / a_km.powi(3)).sqrt() * 86_400.0 / std::f64::consts::TAU;
        let tle = Tle {
            name: None,
            norad_id: id,
            classification: 'U',
            intl_designator: "20001A".into(),
            epoch: pass,
            ndot: 0.0,
            nddot: 0.0,
            bstar: 0.0,
            element_set_no: 999,
            inclination_deg: inc_deg,
            raan_deg: raan.to_degrees().rem_euclid(360.0),
            eccentricity: ecc,
            arg_perigee_deg: (u - nu).to_degrees().rem_euclid(360.0),
            mean_anomaly_deg: m_deg,
            mean_motion_rev_day: rev_per_day,
            rev_number: 1,
        };
        let launch = LaunchBatch {
            index: 0,
            date: JulianDate::from_ymd_hms(2020, 1, 1, 0, 0, 0.0),
            year: 2020,
            month: 1,
        };
        Satellite::new(format!("AIMED-{id}"), launch, tle.elements(), tle)
            .expect("hand-built elements initialize SGP4")
    }

    #[test]
    fn per_satellite_lines_stay_exact_on_a_mixed_altitude_catalog() {
        // Passes at ~300, 550 and 1,200 km, from overhead to far off to
        // the side, spread over a 20-minute run of contiguous slots; an
        // eccentric orbit whose radius climbs through `R_GUARD_KM` while
        // it passes; and a 550-km orbit whose perigee falls mid-run. Each
        // slot is compared bit for bit with the direct path, and the
        // soundness argument's premises are checked against the
        // production floor: every sample is within `HORIZON_S` of its
        // nearer boundary, a guarded satellite's floor sits the drift
        // allowance below both boundary radii, and its radius stays at or
        // above the floor at every sample.
        let site = Geodetic::new(41.66, -91.53, 0.2);
        let first = slot_start(JulianDate::from_ymd_hms(2023, 6, 2, 3, 0, 13.0));
        let start = |k: usize| slot_start(first.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS + 1.0));
        let minute = |m: f64| first.plus_seconds(60.0 * m);
        let slots = 80;
        let earth = wgs72::EARTH_RADIUS_KM;
        let mut sats = Vec::new();
        for (i, alt) in [300.0, 550.0, 1200.0].into_iter().enumerate() {
            for (j, dlon) in [-25.0, -12.0, -6.0, -2.0, 0.0, 3.0, 9.0, 18.0].into_iter().enumerate()
            {
                let pass = minute(1.0 + 2.3 * j as f64 + 0.7 * i as f64);
                let orbit = (earth + alt, 0.0005, 0.0);
                sats.push(aimed(sats.len() as u32 + 1, site, pass, orbit, dlon));
            }
        }
        // Perigee 182 km, apogee 422 km: at mean anomaly ~37° the radius
        // passes ~6,585 km on its way up.
        let eccentric = (6680.0, 0.018, 37.2);
        sats.push(aimed(sats.len() as u32 + 1, site, minute(10.0), eccentric, 1.0));
        let perigee_mid_run = (earth + 550.0, 0.003, 0.0);
        sats.push(aimed(sats.len() as u32 + 1, site, minute(9.0), perigee_mid_run, 40.0));
        let catalog = Constellation::new(sats);
        let cache = PropagationCache::new(&catalog);

        let (mut found, mut straddles, mut dips, mut own_only) = (0, 0, 0, 0);
        let (mut lowest, mut highest) = (f64::INFINITY, f64::NEG_INFINITY);
        for cutoff in [25.0, 0.0, 60.0] {
            let mut tracks = TrackCache::new(&cache, site, cutoff, 16);
            for k in 0..slots {
                let direct = candidate_tracks(&catalog, site, start(k), cutoff, 16);
                let head = tracks.last_end.as_ref().map(|row| (row.epoch_bits, row.sats.clone()));
                assert_same_tracks(&direct, &tracks.candidate_tracks(start(k)));
                found += direct.len();
                let epochs = sample_epochs(start(k), 16);
                let (t0, t1) = (epochs[0], epochs[15]);
                for &t in &epochs {
                    let nearer = t.seconds_since(t0).abs().min(t1.seconds_since(t).abs());
                    assert!(nearer <= HORIZON_S, "sample {nearer} s from its nearer boundary");
                }
                // The premises below read the slot's own head row: the previous
                // end row, when this slot reused it.
                let Some((bits, head)) = head else { continue };
                if bits != t0.0.to_bits() {
                    continue;
                }
                let tail = &tracks.last_end.as_ref().expect("a served slot keeps its end row").sats;
                for ((sat, a), b) in catalog.sats().iter().zip(&head).zip(tail) {
                    let (Some(a), Some(b)) = (a, b) else { continue };
                    if (a.radius_km >= R_GUARD_KM) != (b.radius_km >= R_GUARD_KM) {
                        straddles += 1;
                    }
                    if !(a.radius_km >= R_GUARD_KM && b.radius_km >= R_GUARD_KM) {
                        continue;
                    }
                    // Step 1 starts from either boundary, whichever is
                    // nearer, so each must clear the floor by the drift.
                    let floor = satellite_floor_km(a, b);
                    assert!(floor + DRIFT_KM <= a.radius_km && floor + DRIFT_KM <= b.radius_km);
                    for &t in &epochs[1..15] {
                        let r = sat.published_position(t).expect("propagates").norm();
                        assert!(
                            r >= floor,
                            "sat {} at radius {r} below its floor {floor}",
                            sat.norad_id
                        );
                        if r < a.radius_km.min(b.radius_km) {
                            dips += 1;
                        }
                    }
                    let own = tracks.own_discard_line_deg(a, b);
                    assert!(own >= tracks.discard_below_deg || tracks.discard_below_deg.is_nan());
                    if cutoff == 25.0 {
                        lowest = lowest.min(own);
                        highest = highest.max(own);
                    }
                    let el = a.prefilter_elevation_deg().max(b.prefilter_elevation_deg());
                    if el >= tracks.discard_below_deg && el < own {
                        own_only += 1;
                    }
                }
            }
        }
        assert!(found > 0, "the aimed passes should yield candidates");
        assert!(straddles > 0, "the eccentric orbit should straddle the guard in some slot");
        assert!(dips > 0, "some guarded radius should dip below both boundaries");
        assert!(own_only > 0, "own lines should discard what the catalog-wide line keeps");
        assert!(highest - lowest > 3.0, "own lines {lowest}..{highest} should really differ");
    }

    #[test]
    fn observer_culled_rows_change_no_field_of_view_and_no_candidate() {
        // A mixed-altitude catalog aimed at four observers — equator,
        // mid-latitude, 80°N and 200 km up: passes at ~300, 550 and
        // 1,200 km, an eccentric orbit with a 182-km perigee and a
        // satellite launched mid-run. For each cutoff and observer set,
        // an observer-culled cache must give the same fields of view and
        // candidate sets as a full-width one over 80 contiguous slots, and
        // the soundness premises must hold against direct propagation at
        // every sample epoch within a key's reach. Every dismissed entry
        // is checked against the documented keep test too: the bound is
        // loose enough that a weakened one would still change no output.
        let sites = [
            Geodetic::new(0.0, 30.0, 0.05),
            Geodetic::new(41.66, -91.53, 0.2),
            Geodetic::new(80.0, 20.0, 0.1),
            Geodetic::new(30.0, 100.0, 200.0),
        ];
        let first = slot_start(JulianDate::from_ymd_hms(2023, 6, 2, 3, 0, 13.0));
        let start = |k: usize| slot_start(first.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS + 1.0));
        let minute = |m: f64| first.plus_seconds(60.0 * m);
        let slots = 80;
        let earth = wgs72::EARTH_RADIUS_KM;
        let mut sats = Vec::new();
        for (s, &site) in sites.iter().enumerate() {
            for (i, alt) in [300.0, 550.0, 1200.0].into_iter().enumerate() {
                for (j, dlon) in [-20.0, -8.0, 0.0, 6.0, 15.0].into_iter().enumerate() {
                    let pass = minute(1.0 + 3.7 * j as f64 + 0.9 * i as f64 + 0.4 * s as f64);
                    let orbit = (earth + alt, 0.0005, 0.0);
                    sats.push(aimed(sats.len() as u32 + 1, site, pass, orbit, dlon));
                }
            }
        }
        let eccentric = (6680.0, 0.018, 37.2);
        sats.push(aimed(sats.len() as u32 + 1, sites[1], minute(10.0), eccentric, 1.0));
        let mut late =
            aimed(sats.len() as u32 + 1, sites[0], minute(11.0), (earth + 550.0, 0.0005, 0.0), 2.0);
        late.launch.date = minute(10.5);
        sats.push(late);
        let catalog = Constellation::new(sats);
        let starts: Vec<JulianDate> = (0..slots).map(start).collect();
        let boundaries: Vec<JulianDate> =
            starts.iter().flat_map(|&s| crate::slot_boundary_epochs(s, 16)).collect();
        let full = PropagationCache::new(&catalog);
        assert!(full.prepare(&starts, &boundaries, 1));
        let all: Vec<u32> = (0..catalog.len() as u32).collect();
        let speed = (2.0 * wgs72::MU / R_FLOOR_KM).sqrt();
        let rate = speed / R_FLOOR_KM + OMEGA_EARTH_RAD_S;
        let reach = starsense_constellation::KEY_REACH_S;

        let (mut culled, mut resolved, mut visible, mut premises, mut dismissed) = (0, 0, 0, 0, 0);
        let observer_sets: Vec<Vec<Geodetic>> =
            std::iter::once(sites.to_vec()).chain(sites.iter().map(|&s| vec![s])).collect();
        for cutoff in [0.0, 25.0, 60.0] {
            for observers in &observer_sets {
                let cache = PropagationCache::for_observers(&catalog, observers, cutoff);
                assert!(cache.prepare(&starts, &boundaries, 2));
                for &site in observers {
                    let mut direct = TrackCache::new(&full, site, cutoff, 16);
                    let mut tracks = TrackCache::new(&cache, site, cutoff, 16);
                    for &s in &starts {
                        let a = catalog.field_of_view(&full.snapshot(s), site, cutoff, &all);
                        let b = catalog.field_of_view(&cache.snapshot(s), site, cutoff, &all);
                        assert_eq!(a.len(), b.len(), "{site:?} at {cutoff}°");
                        for (a, b) in a.iter().zip(&b) {
                            assert_eq!(a.norad_id, b.norad_id);
                            assert_eq!(
                                a.look.elevation_deg.to_bits(),
                                b.look.elevation_deg.to_bits()
                            );
                        }
                        visible += a.len();
                        assert_same_tracks(
                            &direct.candidate_tracks(s),
                            &tracks.candidate_tracks(s),
                        );
                    }
                    culled += tracks.stats().culled;
                    resolved += tracks.stats().culled_resolved;
                }
                // Every dismissed satellite meets the documented keep test
                // at its key, written out here from the module docs.
                for &b in &boundaries {
                    let row = cache.published_positions(b);
                    let Some(key) = row.cull_key() else { continue };
                    assert!(b.seconds_since(key).abs() <= reach);
                    let rotation = Mat3::rot_z(key.gmst_rad());
                    let key_row: Vec<Option<Vec3>> = full
                        .published_positions(key)
                        .positions()
                        .iter()
                        .map(|p| p.map(|p| rotation * p))
                        .collect();
                    let r_top = key_row.iter().flatten().map(|p| p.norm()).fold(0.0, f64::max)
                        + speed * reach;
                    for (si, p_k) in
                        key_row.iter().enumerate().filter(|&(si, _)| row.is_dismissed(si))
                    {
                        let p_k = p_k.expect("a dismissed satellite had a key-row position");
                        let r_low = p_k.norm() - speed * reach;
                        for &o in observers {
                            let o = geodetic_to_ecef(o);
                            let e = (cutoff - 0.25).to_radians();
                            let psi =
                                ((o.norm() / r_top) * e.cos()).acos() - e + 0.02f64.to_radians();
                            let angle = p_k.cross(o).norm().atan2(p_k.dot(o));
                            assert!(
                                r_low >= R_FLOOR_KM && r_low > o.norm(),
                                "sat {si} at {r_low} km"
                            );
                            assert!(angle > psi + rate * reach, "sat {si}: {angle} rad from {o:?}");
                        }
                        dismissed += 1;
                    }
                }
                // Premises: every satellite the key row could cull stays
                // at or above the floor and turns no faster than the bound
                // at every sample epoch within the key's reach.
                let mut keys: Vec<JulianDate> = boundaries
                    .iter()
                    .filter_map(|&b| cache.published_positions(b).cull_key())
                    .collect();
                keys.dedup_by_key(|k| k.0.to_bits());
                for &key in &keys {
                    let rotation = Mat3::rot_z(key.gmst_rad());
                    let samples = starts.iter().flat_map(|&s| sample_epochs(s, 16));
                    let near: Vec<JulianDate> =
                        samples.filter(|t| t.seconds_since(key).abs() <= reach).collect();
                    for sat in catalog.sats() {
                        let Some(p_k) = sat.published_position(key).map(|p| rotation * p) else {
                            continue;
                        };
                        if p_k.norm() - speed * reach < R_FLOOR_KM {
                            continue;
                        }
                        for &t in &near {
                            let p = Mat3::rot_z(t.gmst_rad())
                                * sat.published_position(t).expect("propagates");
                            let dt = t.seconds_since(key).abs();
                            assert!(
                                p.norm() >= R_FLOOR_KM,
                                "sat {} at {} km",
                                sat.norad_id,
                                p.norm()
                            );
                            let turned = p.cross(p_k).norm().atan2(p.dot(p_k));
                            assert!(
                                turned <= rate * dt,
                                "sat {} turned {turned} in {dt} s",
                                sat.norad_id
                            );
                            premises += 1;
                        }
                    }
                }
            }
        }
        assert!(visible > 0, "the aimed passes should be seen");
        assert!(culled > 0, "both-culled satellites should be prefiltered");
        assert!(resolved > 0, "some culled boundary entries should be resolved");
        assert!(premises > 1000, "{premises} premise samples");
        assert!(dismissed > 1000, "{dismissed} dismissed entries checked");
    }

    #[test]
    fn per_satellite_lines_keep_gen1_survivors_near_the_candidates() {
        // With one catalog-wide line drawn for a 6,500-km orbit, about 140
        // gen1 satellites survive the prefilter per Iowa slot; each
        // satellite's own line keeps about 55 against ~34 candidates.
        let gen1 = ConstellationBuilder::starlink_gen1().seed(1).build();
        let cache = PropagationCache::new(&gen1);
        let site = Geodetic::new(41.66, -91.53, 0.2);
        let mut tracks = TrackCache::new(&cache, site, 25.0, 16);
        let first = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0));
        let slots = 40;
        let mut found = 0;
        for k in 0..slots {
            let start = slot_start(first.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS + 1.0));
            found += tracks.candidate_tracks(start).len();
        }
        let s = tracks.stats();
        assert_eq!(s.slots, slots);
        let per_slot = s.surviving as f64 / slots as f64;
        assert!(per_slot <= 70.0, "{per_slot} survivors per slot: {s:?}");
        assert!(s.surviving >= found, "{found} candidates from {} survivors", s.surviving);
    }

    #[test]
    fn prepared_boundaries_keep_the_hot_path_lock_free() {
        // With every slot's boundary epochs prepared, every boundary row
        // not reused from the previous slot comes from the immutable table
        // and interior epochs propagate survivors directly: no full row is
        // propagated.
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
        let mut tracks = TrackCache::new(&cache, loc, 25.0, 16);
        for &start in &starts {
            let _ = tracks.candidate_tracks(start);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 0, "{s:?}");
        assert_eq!(s.hits + tracks.stats().boundary_rows_reused, 2 * starts.len(), "{s:?}");
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
        assert_eq!(cache.stats().misses, 2);
        let s = tracks.stats();
        assert!(
            s.interior_propagations < c.len() * 14,
            "interior propagation should cover survivors only: {} of {}",
            s.interior_propagations,
            c.len() * 14
        );
    }
}
