//! Cross-slot candidate-track generation with an exact elevation prefilter.
//!
//! [`crate::candidate_tracks`] propagates and looks at the whole catalog at
//! each of a slot's 16 sample epochs, though nearly all of it stays below
//! the horizon. [`TrackCache`] produces the same candidate set, bit for
//! bit, with far less work:
//!
//! 1. **Prefilter.** Each satellite's elevation is checked at the slot's
//!    two boundary epochs first. Every sample lies within [`HORIZON_S`] of
//!    the nearer boundary, so a satellite below its own discard line at
//!    both would fail `any_above` anyway (`starsense_constellation`'s
//!    *Soundness*, *Prefilter*, with `h` = [`HORIZON_S`]). Its line comes
//!    from its published-orbit envelope: the propagation cache's prepared
//!    envelopes when they cover the slot, else the track cache's own over
//!    the next hour; no bounded envelope, or a floor not above the
//!    observer, gives a NaN line that discards nothing. Survivors
//!    propagate their published TLE directly at each interior epoch.
//! 2. **Boundary-row reuse.** Slot *t*'s last sample epoch is slot *t+1*'s
//!    first, so the previous end row (keyed by the epoch's bits) serves the
//!    next slot's head.
//! 3. **Exact looks only near the sky.** The observer frame is built once
//!    and each epoch's TEME→ECEF rotation once (what `look_angles_teme`
//!    does, so the same bits). A boundary row takes `asin`/`atan2` only
//!    where the zenith component cannot certify a look below the lowest
//!    line `D`: `z < (sin D − CERTIFY_GUARD)·range` puts the exact
//!    elevation below `D` by far more than the sine, division and `asin`
//!    can round, so the look counts as −∞ against any line ≥ `D`, and a
//!    survivor's skipped look is computed later by the direct arithmetic.
//!    A NaN `D`, or one outside (−90°, 90°), certifies nothing.
//! 4. **Culled rows.** When a culling [`PropagationCache`] speaks for this
//!    observer and cutoff ([`PropagationCache::culls_for`]) and its rows'
//!    proofs cover every sample epoch, a satellite both boundary rows'
//!    keys dismissed is prefiltered with no work. A boundary row computes
//!    nothing for a dismissed satellite until a slot needs it; it then
//!    reads the key row's position or, where the row culled it,
//!    propagates it directly — the full row's own call, so the same bits.
//! 5. **Deferred tracks.** A survivor whose head and tail looks are both
//!    in the plot (at or above the rim), one of them at or above the
//!    cutoff, is a candidate whatever its interior holds, and those two
//!    looks are its first and last in-plot samples. [`TrackCache`] keeps
//!    it *deferred*: its 14 interior epochs propagate — the same
//!    `published_position` and look arithmetic, so the same bits — only
//!    when the DTW search first measures it. Until then the search orders
//!    and prunes it by [`starsense_dtw::ellipse_lower_bound`], which needs
//!    only the two ends and the satellite's path bound (below). Every
//!    other survivor is built at once, as is every track when
//!    [`TrackCache::candidate_tracks`] is asked for the whole set.
//!
//! # Soundness of the path bound
//!
//! The prefilter rests on `starsense_constellation`'s *Soundness*; the
//! deferred tracks add one premise, *the ellipse*: every in-plot sample
//! `c` of a candidate lies in the ellipse `|c − c_first| + |c − c_last| ≤
//! L` about its first and last in-plot samples, with `L` its path bound
//! (`path_bound_deg`). From an observer at radius `r_o < r_min` the
//! satellite is at least `r_min − r_o` away anywhere in the sky, so its
//! line of sight turns in the Earth-fixed frame no faster than `Ω =
//! (v_max + ω⊕·r_o)/(r_min − r_o) + ω⊕` (the prefilter's rate with that
//! range, plus the frame's own turn). Every instant between the first and
//! last in-plot samples lies within [`HORIZON_S`] of one of them, so the
//! zenith angle stays below `z_max = 90° − rim + Ω·HORIZON_S`; the
//! obstruction plot is azimuthal-equidistant about the zenith, which
//! stretches sky arcs at zenith angle `z` by at most `z/sin z`, growing
//! with `z`. The two samples are at most `2·HORIZON_S` apart, so the plot
//! path between them is at most `L = 2·HORIZON_S · Ω · z_max/sin z_max`,
//! and the sum of any in-plot sample's distances to the two is at most
//! that path. No bounded envelope, an observer at or above
//! the floor, or `z_max ≥ 180°` gives `L = ∞`, which bounds nothing. Gen1
//! seen from the paper's sites gets `L ≈ 17°`; the premise is
//! property-tested in this module.

use crate::candidates::{finish_track, in_plot, sample_epochs, CandidateTrack};
use starsense_astro::frames::{geodetic_to_ecef, Geodetic, LookAngles, Topocentric};
use starsense_astro::mat3::Mat3;
use starsense_astro::time::JulianDate;
use starsense_astro::vec3::Vec3;
use starsense_constellation::{
    Envelopes, PropagationCache, PublishedRow, Satellite, OMEGA_EARTH_RAD_S,
};
use starsense_obstruction::map::RIM_ELEVATION_DEG;
use starsense_obstruction::PolarSample;
use std::sync::Arc;

/// Maximum time (s) from any sample epoch to the nearer slot boundary:
/// half a 15-second slot, plus slack for float epoch rounding.
pub const HORIZON_S: f64 = 7.6;

/// Extra margin (deg) absorbing the geodetic-vs-geocentric zenith
/// difference (≤ 0.2°) and every other small-model generosity.
pub const SLACK_DEG: f64 = 1.0;

/// Guard (sine units) a zenith component must clear below the line's sine
/// to certify a look below it.
const CERTIFY_GUARD: f64 = 1e-9;

/// Span (s) of the envelopes a track cache computes itself when none
/// prepared cover a slot.
const OWN_ENVELOPE_S: f64 = 3600.0;

/// Work counters for the prefilter, read through [`TrackCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrackCacheStats {
    /// Slots served.
    pub slots: usize,
    /// Satellites the boundary check discarded, summed over slots.
    pub prefiltered: usize,
    /// Satellites the boundary check kept, built at once or deferred,
    /// summed over slots.
    pub surviving: usize,
    /// Slots whose start row was the previous slot's end row.
    pub boundary_rows_reused: usize,
    /// Interior single-satellite propagations actually made: the
    /// survivors built at once and the deferred candidates materialized,
    /// times the interior epochs.
    pub interior_propagations: usize,
    /// Deferred candidates never materialized, their interior epochs
    /// never propagated (module docs, *Deferred tracks*).
    pub deferred_unmaterialized: usize,
    /// Satellites both rows' keys dismissed, proven below the cutoff all
    /// slot, summed over slots; counted in `prefiltered` too.
    pub culled: usize,
    /// Dismissed boundary entries a slot needed after all (not dismissed
    /// at both boundaries, or proofs not covering every sample epoch).
    pub culled_resolved: usize,
}

/// One satellite at a boundary epoch.
#[derive(Debug, Clone, Copy)]
struct BoundarySat {
    teme: Vec3,
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
    /// propagate or the shared row's key dismissed the satellite.
    sats: Vec<Option<BoundarySat>>,
    /// Dismissed entries this row has since resolved into `sats`.
    resolved: Vec<bool>,
    /// The shared row, which knows which satellites its key dismissed and
    /// where they are proven below the cutoff.
    source: Arc<PublishedRow>,
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
    /// The published-orbit envelopes the discard lines come from.
    envelopes: Option<Arc<Envelopes>>,
    /// Each satellite's discard line, from its envelope (NaN: none).
    lines: Vec<f64>,
    /// Each satellite's path bound `L` (deg), from the same envelope.
    path_bounds: Vec<f64>,
    /// The lowest finite discard line, which certified looks are below.
    discard_below_deg: f64,
    /// `sin(discard_below_deg) − CERTIFY_GUARD`, if the line is in
    /// (−90°, 90°): a zenith component below it times the range
    /// certifies a look below the line.
    certify_sine: Option<f64>,
    /// Whether the cache's culling speaks for this observer and cutoff.
    culls_for_observer: bool,
    /// The previous slot's end-boundary row.
    last_end: Option<BoundaryRow>,
    stats: TrackCacheStats,
}

/// The most elevation (deg) a satellite whose radius stays at least
/// `floor_km` and speed below `speed_km_s` can gain within [`HORIZON_S`]
/// near a cutoff (`starsense_constellation`'s *Soundness*); NaN, which
/// discards nothing, unless the observer is inside the floor sphere.
fn prefilter_margin_deg(
    observer_radius_km: f64,
    min_elevation_deg: f64,
    floor_km: f64,
    speed_km_s: f64,
) -> f64 {
    let r_o = observer_radius_km;
    let el = min_elevation_deg.to_radians();
    // Nearest it can be at or below the cutoff.
    let d_min = (floor_km * floor_km - r_o * r_o * el.cos() * el.cos()).sqrt() - r_o * el.sin();
    if r_o < floor_km && d_min > 0.0 {
        let v_max = speed_km_s + OMEGA_EARTH_RAD_S * r_o;
        (v_max / d_min * HORIZON_S).to_degrees() + SLACK_DEG
    } else {
        f64::NAN
    }
}

/// The path bound `L` (deg of the obstruction plot) of a satellite whose
/// radius stays at least `floor_km` and speed below `speed_km_s`, seen
/// from `observer_radius_km`: the longest its plot track can run between
/// two in-plot samples of one slot (module docs, *Soundness of the path
/// bound*). Infinite, which bounds nothing, unless the observer is inside
/// the floor sphere.
pub(crate) fn path_bound_deg(observer_radius_km: f64, floor_km: f64, speed_km_s: f64) -> f64 {
    let r_o = observer_radius_km;
    if r_o >= floor_km {
        return f64::INFINITY;
    }
    let turn = (speed_km_s + OMEGA_EARTH_RAD_S * r_o) / (floor_km - r_o) + OMEGA_EARTH_RAD_S;
    let z_max = (90.0 - RIM_ELEVATION_DEG).to_radians() + turn * HORIZON_S;
    if z_max >= std::f64::consts::PI {
        return f64::INFINITY;
    }
    (z_max / z_max.sin() * turn * 2.0 * HORIZON_S).to_degrees()
}

/// A slot's interior sample epochs with their TEME→ECEF rotations.
#[derive(Debug)]
struct Interior {
    epochs: Vec<JulianDate>,
    rotations: Vec<Mat3>,
}

impl Interior {
    /// A survivor's samples: `head`, then the interior epochs propagating
    /// this satellite alone (skipping failures), then `tail` — the direct
    /// path's epochs and look arithmetic.
    fn samples(
        &self,
        sat: &Satellite,
        topo: &Topocentric,
        head: Option<PolarSample>,
        tail: Option<PolarSample>,
    ) -> Vec<PolarSample> {
        let mut samples = Vec::with_capacity(self.epochs.len() + 2);
        samples.extend(head);
        samples.extend(self.epochs.iter().zip(&self.rotations).filter_map(|(&t, &rotation)| {
            let teme = sat.published_position(t)?;
            Some(polar(topo.look_angles(rotation * teme)))
        }));
        samples.extend(tail);
        samples
    }
}

/// One candidate of a slot.
#[derive(Debug)]
struct Candidate {
    /// Catalog index.
    sat: usize,
    norad_id: u32,
    /// First and last in-plot samples.
    ends: (PolarSample, PolarSample),
    /// The satellite's path bound `L`, deg.
    path_bound_deg: f64,
    /// In-plot samples, or `None` while deferred.
    samples: Option<Vec<PolarSample>>,
}

/// One slot's candidate set, in catalog order, with deferred candidates'
/// interior epochs propagated on first use (module docs, *Deferred
/// tracks*). Holds its track cache, whose counters it keeps.
#[derive(Debug)]
pub(crate) struct SlotCandidates<'t, 'a, 'c> {
    tracks: &'t mut TrackCache<'a, 'c>,
    interior: Interior,
    candidates: Vec<Candidate>,
}

impl SlotCandidates<'_, '_, '_> {
    /// Number of candidates.
    pub(crate) fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Candidate `i`'s catalog number.
    pub(crate) fn norad_id(&self, i: usize) -> u32 {
        self.candidates[i].norad_id
    }

    /// Candidate `i`'s first and last in-plot samples and path bound, all
    /// known before its track is.
    pub(crate) fn ends(&self, i: usize) -> (PolarSample, PolarSample, f64) {
        let c = &self.candidates[i];
        (c.ends.0, c.ends.1, c.path_bound_deg)
    }

    /// Candidate `i`'s in-plot samples, propagating its interior epochs if
    /// it was deferred.
    pub(crate) fn samples(&mut self, i: usize) -> &[PolarSample] {
        let (tracks, interior) = (&mut *self.tracks, &self.interior);
        let c = &mut self.candidates[i];
        c.samples.get_or_insert_with(|| {
            let sat = &tracks.cache.constellation().sats()[c.sat];
            tracks.stats.interior_propagations += interior.epochs.len();
            tracks.stats.deferred_unmaterialized -= 1;
            in_plot(interior.samples(sat, &tracks.topo, Some(c.ends.0), Some(c.ends.1)))
        })
    }

    /// Every candidate's track, materializing the deferred ones.
    pub(crate) fn into_tracks(mut self) -> Vec<CandidateTrack> {
        (0..self.len())
            .map(|i| CandidateTrack {
                norad_id: self.norad_id(i),
                samples: self.samples(i).to_vec(),
            })
            .collect()
    }
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
        TrackCache {
            cache,
            culls_for_observer: cache.culls_for(observer, min_elevation_deg),
            topo: Topocentric::new(observer),
            observer_radius_km: geodetic_to_ecef(observer).norm(),
            min_elevation_deg,
            samples_per_slot,
            envelopes: None,
            lines: Vec::new(),
            path_bounds: Vec::new(),
            discard_below_deg: f64::NAN,
            certify_sine: None,
            last_end: None,
            stats: TrackCacheStats::default(),
        }
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> TrackCacheStats {
        self.stats
    }

    /// Candidate set for the slot starting at `slot_start` — bit-identical
    /// to `candidate_tracks(catalog, observer, slot_start, ...)`: the
    /// slot's candidates with every deferred one materialized.
    pub fn candidate_tracks(&mut self, slot_start: JulianDate) -> Vec<CandidateTrack> {
        self.slot_candidates(slot_start).into_tracks()
    }

    /// The slot's candidates — the set [`TrackCache::candidate_tracks`]
    /// returns, same order, same bits once materialized — with the
    /// deferrable ones' interiors not yet propagated.
    pub(crate) fn slot_candidates(&mut self, slot_start: JulianDate) -> SlotCandidates<'_, 'a, 'c> {
        let n = self.samples_per_slot.max(2) as usize;
        let epochs = sample_epochs(slot_start, n as u32);
        let (first, last) = (epochs[0], epochs[n - 1]);
        self.cover(first, last);

        let mut row0 = match self.last_end.take() {
            Some(row) if row.epoch_bits == first.0.to_bits() => {
                self.stats.boundary_rows_reused += 1;
                row
            }
            _ => self.boundary_row(first),
        };
        let mut row1 = self.boundary_row(last);
        let interior_epochs = epochs[1..n - 1].to_vec();
        let rotations = interior_epochs.iter().map(|t| Mat3::rot_z(t.gmst_rad())).collect();
        let interior = Interior { epochs: interior_epochs, rotations };
        // A satellite both rows' keys dismissed is below the cutoff at
        // every sample epoch their proofs cover; if they cover them all,
        // `any_above` would be false.
        let dismissed_through = self.culls_for_observer
            && epochs
                .iter()
                .all(|&t| row0.source.dismissed_below_at(t) || row1.source.dismissed_below_at(t));

        let sats = self.cache.constellation().sats();
        let mut candidates = Vec::new();
        for (si, sat) in sats.iter().enumerate() {
            if dismissed_through && row0.source.is_dismissed(si) && row1.source.is_dismissed(si) {
                self.stats.prefiltered += 1;
                self.stats.culled += 1;
                continue;
            }
            for row in [&mut row0, &mut row1] {
                if row.source.is_dismissed(si) && !row.resolved[si] {
                    self.resolve_dismissed(row, si);
                }
            }
            let (head, tail) = (&row0.sats[si], &row1.sats[si]);
            if let (Some(a), Some(b)) = (head, tail) {
                // Below its own line at both boundaries: `any_above` would
                // be false, the track `None`.
                if a.prefilter_elevation_deg().max(b.prefilter_elevation_deg()) < self.lines[si] {
                    self.stats.prefiltered += 1;
                    continue;
                }
            }
            self.stats.surviving += 1;
            let head = head.map(|b| row0.look(&b, &self.topo));
            let tail = tail.map(|b| row1.look(&b, &self.topo));
            let path_bound_deg = self.path_bounds[si];
            let norad_id = sat.norad_id;
            if let (Some(h), Some(t)) = (head, tail) {
                if self.defers(h, t) {
                    self.stats.deferred_unmaterialized += 1;
                    let (ends, samples) = ((h, t), None);
                    candidates.push(Candidate { sat: si, norad_id, ends, path_bound_deg, samples });
                    continue;
                }
            }
            self.stats.interior_propagations += interior.epochs.len();
            let samples = interior.samples(sat, &self.topo, head, tail);
            let any_above = samples.iter().any(|s| s.elevation_deg >= self.min_elevation_deg);
            let Some(CandidateTrack { samples, .. }) = finish_track(norad_id, any_above, samples)
            else {
                continue;
            };
            let (Some(&first), Some(&last)) = (samples.first(), samples.last()) else { continue };
            let (ends, samples) = ((first, last), Some(samples));
            candidates.push(Candidate { sat: si, norad_id, ends, path_bound_deg, samples });
        }

        self.stats.slots += 1;
        self.last_end = Some(row1);
        SlotCandidates { tracks: self, interior, candidates }
    }

    /// Whether a survivor with both boundary looks can be deferred: both
    /// in the plot, so they are its first and last in-plot samples, and
    /// one at or above the cutoff, so it is a candidate whatever its
    /// interior holds.
    fn defers(&self, head: PolarSample, tail: PolarSample) -> bool {
        head.elevation_deg >= RIM_ELEVATION_DEG
            && tail.elevation_deg >= RIM_ELEVATION_DEG
            && head.elevation_deg.max(tail.elevation_deg) >= self.min_elevation_deg
    }

    /// Makes the discard lines speak for `[first, last]` (module docs).
    /// New lines drop the kept end row, certified against the old ones.
    fn cover(&mut self, first: JulianDate, last: JulianDate) {
        if self.envelopes.as_ref().is_some_and(|e| e.covers(first, last)) {
            return;
        }
        let envelopes = match self.cache.published_envelopes() {
            Some(prepared) if prepared.covers(first, last) => Arc::clone(prepared),
            _ => {
                let to = first.plus_seconds(OWN_ENVELOPE_S);
                Arc::new(self.cache.constellation().published_envelopes(first, to))
            }
        };
        let (r_o, cutoff) = (self.observer_radius_km, self.min_elevation_deg);
        self.lines = envelopes
            .sats()
            .iter()
            .map(|e| match e {
                Some(e) => cutoff - prefilter_margin_deg(r_o, cutoff, e.r_min_km, e.speed_max_km_s),
                None => f64::NAN,
            })
            .collect();
        self.path_bounds = envelopes
            .sats()
            .iter()
            .map(|e| e.map_or(f64::INFINITY, |e| path_bound_deg(r_o, e.r_min_km, e.speed_max_km_s)))
            .collect();
        self.discard_below_deg = self.lines.iter().copied().fold(f64::NAN, f64::min);
        let line = self.discard_below_deg;
        self.certify_sine =
            (line > -90.0 && line < 90.0).then(|| line.to_radians().sin() - CERTIFY_GUARD);
        self.envelopes = Some(envelopes);
        self.last_end = None;
    }

    /// The catalog at a boundary epoch from the shared cache; dismissed
    /// satellites read `None` until resolved, certified looks are skipped.
    fn boundary_row(&self, at: JulianDate) -> BoundaryRow {
        let rotation = Mat3::rot_z(at.gmst_rad());
        let source = self.cache.published_positions(at);
        let sats = source
            .positions()
            .iter()
            .enumerate()
            .map(|(si, pos)| match pos {
                Some(teme) if !source.is_dismissed(si) => Some(self.boundary_sat(*teme, rotation)),
                _ => None,
            })
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
        BoundarySat { teme, look: (!certified).then(|| polar(sez.look_angles())) }
    }

    /// Resolves a dismissed entry of `row` from the key row's position or
    /// the full row's own call (the same bits), kept for reuse.
    fn resolve_dismissed(&mut self, row: &mut BoundaryRow, si: usize) {
        let sat = &self.cache.constellation().sats()[si];
        let at = JulianDate(f64::from_bits(row.epoch_bits));
        let teme = row.source.positions()[si].or_else(|| sat.published_position(at));
        row.sats[si] = teme.map(|teme| self.boundary_sat(teme, row.rotation));
        row.resolved[si] = true;
        self.stats.culled_resolved += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::candidate_tracks;
    use starsense_astro::frames::look_angles_teme;
    use starsense_constellation::{
        Constellation, ConstellationBuilder, Envelope, LaunchBatch, Satellite,
    };
    use starsense_scheduler::slots::{slot_start, SLOT_PERIOD_SECONDS};
    use starsense_sgp4::wgs72;
    use starsense_sgp4::Sgp4;
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
        // A 550-km shell's envelope against the old catalog-wide bound: a
        // 6,500-km floor at escape speed.
        let shell = prefilter_margin_deg(r_o, 25.0, 6900.0, 7.65);
        let worst = prefilter_margin_deg(r_o, 25.0, 6500.0, (2.0 * wgs72::MU / 6500.0).sqrt());
        assert!(shell > SLACK_DEG && shell < worst - 2.0, "shell margin {shell} against {worst}");
        assert!(worst < 45.0, "margin {worst} should leave the filter useful");
        // Never wider for a higher floor or a lower speed.
        let mut last = worst;
        for k in 0..2000 {
            let next = prefilter_margin_deg(r_o, 25.0, 6500.0 + k as f64 * 0.37, 7.65);
            assert!(next <= last, "margin rose from {last} to {next} at step {k}");
            last = next;
        }
        let mut last = 0.0;
        for k in 0..2000 {
            let next = prefilter_margin_deg(r_o, 25.0, 6900.0, 7.0 + k as f64 * 0.002);
            assert!(next >= last, "margin fell from {last} to {next} at step {k}");
            last = next;
        }
        // An observer at or above the floor gets no line; one just below
        // it gets a line below −90°, which certifies nothing.
        assert!(prefilter_margin_deg(6600.0, 25.0, 6600.0, 7.7).is_nan());
        assert!(25.0 - prefilter_margin_deg(6599.0, 25.0, 6600.0, 7.7) < -90.0);
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

    /// Ground sites from Iowa to Iceland and the antimeridian, then two
    /// observers 200 km and 120 km up, a few hundred km under the shells,
    /// where the margins and path bounds are widest.
    const SWEEP_SITES: [Geodetic; 6] = [
        Geodetic::new(41.66, -91.53, 0.2),
        Geodetic::new(-33.9, 18.4, 0.05),
        Geodetic::new(64.1, -21.9, 0.1),
        Geodetic::new(-17.8, 180.0, 0.02),
        Geodetic::new(30.0, 100.0, 200.0),
        Geodetic::new(30.0, 100.0, 120.0),
    ];

    #[test]
    fn sweeping_observers_and_cutoffs_stays_exact() {
        // A small property sweep: several sites and elevation cutoffs, a
        // couple of slots each, all bit-identical to the direct path. A 0°
        // cutoff puts the discard line below the horizon (negative sine).
        // The 200-km and 120-km observers sit a few hundred km under the
        // shells, where the margins are widest.
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
        let sites = SWEEP_SITES;
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

        // A long run on the full catalog: satellites rise and set across
        // the discard line, so survivors whose look at one boundary was
        // certified and skipped get it computed from the stored position.
        // Such a look can never reach the output (a satellite cannot climb
        // the margin within a slot), so every skipped look is checked
        // against the direct arithmetic here instead.
        let site = sites[0];
        let mut tracks = TrackCache::new(&cache, site, 25.0, 16);
        let (mut rising, mut setting) = (0, 0);
        for k in 0..40 {
            let head = tracks.last_end.as_ref().map(|row| row.sats.clone());
            let direct = candidate_tracks(&gen1, site, start(k), 25.0, 16);
            assert_same_tracks(&direct, &tracks.candidate_tracks(start(k)));
            let line = tracks.discard_below_deg;
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

    /// Checks the ellipse premise (module docs) on every candidate of a
    /// slot: its first and last in-plot samples are the ends it was
    /// judged by, and every in-plot sample lies in the ellipse about them
    /// whose major axis is its path bound. Returns the samples checked
    /// against a finite bound.
    fn assert_in_ellipses(slot: &mut SlotCandidates<'_, '_, '_>) -> usize {
        let mut checked = 0;
        for i in 0..slot.len() {
            let (first, last, axis) = slot.ends(i);
            let samples = slot.samples(i).to_vec();
            assert_same_tracks(
                &[CandidateTrack { norad_id: 0, samples: vec![first, last] }],
                &[CandidateTrack {
                    norad_id: 0,
                    samples: vec![samples[0], samples[samples.len() - 1]],
                }],
            );
            let (f, l) = (first.to_cartesian(), last.to_cartesian());
            for sample in &samples {
                let p = sample.to_cartesian();
                let sum = starsense_dtw::euclidean(&p, &f) + starsense_dtw::euclidean(&p, &l);
                assert!(
                    sum <= axis,
                    "{}: {sample:?} sums {sum}° against L = {axis}°",
                    slot.norad_id(i)
                );
                checked += usize::from(axis.is_finite());
            }
        }
        checked
    }

    #[test]
    fn every_in_plot_sample_lies_in_its_path_ellipse() {
        // The sweep's sites and cutoffs on the mini catalog, then gen1 from
        // the two high observers and 40 slots over Iowa.
        let first = slot_start(JulianDate::from_ymd_hms(2023, 6, 2, 3, 0, 13.0));
        let start = |k: usize| slot_start(first.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS + 1.0));
        let run = |cache: &PropagationCache<'_>, site: Geodetic, cutoff: f64, slots: usize| {
            let mut tracks = TrackCache::new(cache, site, cutoff, 16);
            (0..slots)
                .map(|k| assert_in_ellipses(&mut tracks.slot_candidates(start(k))))
                .sum::<usize>()
        };
        let mini = ConstellationBuilder::starlink_mini().seed(7).build();
        let mut checked: usize = 0;
        for &site in &SWEEP_SITES {
            for cutoff in [0.0, 25.0, 40.0, 60.0] {
                checked += run(&PropagationCache::new(&mini), site, cutoff, 3);
            }
        }
        let gen1 = ConstellationBuilder::starlink_gen1().seed(1).build();
        let cache = PropagationCache::new(&gen1);
        for &high in &SWEEP_SITES[4..] {
            checked += run(&cache, high, 25.0, 3);
        }
        let iowa = SWEEP_SITES[0];
        checked += run(&cache, iowa, 25.0, 40);
        assert!(checked > 10_000, "{checked} samples checked");

        // Gen1's bounds from Iowa sit near 17°: well inside the plot's
        // 130° span, loose against the ~12° an overhead pass runs.
        let mut tracks = TrackCache::new(&cache, iowa, 25.0, 16);
        let _ = tracks.slot_candidates(start(0));
        let finite: Vec<f64> =
            tracks.path_bounds.iter().copied().filter(|l| l.is_finite()).collect();
        assert!(finite.len() > gen1.len() / 2);
        assert!(
            finite.iter().all(|l| (15.0..20.0).contains(l)),
            "{:?}",
            finite.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &l| (lo.min(l), hi.max(l)))
        );
    }

    #[test]
    fn deferred_candidates_propagate_only_when_asked() {
        // Left alone, a deferred candidate costs no interior propagation;
        // materialized, it costs the eager path's and gives its bits.
        let c = ConstellationBuilder::starlink_gen1().seed(5).build();
        let cache = PropagationCache::new(&c);
        let loc = Geodetic::new(41.66, -91.53, 0.2);
        let start = slot_start(JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 13.0));
        let mut tracks = TrackCache::new(&cache, loc, 25.0, 16);
        let slot = tracks.slot_candidates(start);
        let n = slot.len();
        let deferred = slot.candidates.iter().filter(|c| c.samples.is_none()).count();
        drop(slot);
        let s = tracks.stats();
        assert!(deferred > n / 2, "{deferred} of {n} candidates deferred");
        assert_eq!(s.deferred_unmaterialized, deferred);
        assert_eq!(s.interior_propagations, (s.surviving - deferred) * 14);

        let mut again = TrackCache::new(&cache, loc, 25.0, 16);
        let direct = candidate_tracks(&c, loc, start, 25.0, 16);
        assert_same_tracks(&direct, &again.candidate_tracks(start));
        let s = again.stats();
        assert_eq!((s.deferred_unmaterialized, s.interior_propagations), (0, s.surviving * 14));
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

    /// The first slot of the mixed-altitude runs, and the start of slot `k`.
    fn mixed_run() -> (JulianDate, impl Fn(usize) -> JulianDate) {
        let first = slot_start(JulianDate::from_ymd_hms(2023, 6, 2, 3, 0, 13.0));
        (first, move |k| slot_start(first.plus_seconds(k as f64 * SLOT_PERIOD_SECONDS + 1.0)))
    }

    /// Passes at ~300, 550 and 1,200 km over `site`, from overhead to far
    /// off to the side, spread over the run's first 20 minutes; an
    /// eccentric orbit (perigee 182 km, apogee 422 km) whose radius climbs
    /// while it passes; and a 550-km orbit whose perigee falls mid-run.
    fn mixed_altitude_catalog(site: Geodetic) -> Constellation {
        let (first, _) = mixed_run();
        let minute = |m: f64| first.plus_seconds(60.0 * m);
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
        let eccentric = (6680.0, 0.018, 37.2);
        sats.push(aimed(sats.len() as u32 + 1, site, minute(10.0), eccentric, 1.0));
        let perigee_mid_run = (earth + 550.0, 0.003, 0.0);
        sats.push(aimed(sats.len() as u32 + 1, site, minute(9.0), perigee_mid_run, 40.0));
        Constellation::new(sats)
    }

    /// Four observers — equator, mid-latitude, 80°N and 200 km up — and a
    /// catalog aimed at them: passes at ~300, 550 and 1,200 km, an
    /// eccentric orbit with a 182-km perigee and a satellite launched
    /// mid-run.
    fn four_site_catalog() -> ([Geodetic; 4], Constellation) {
        let sites = [
            Geodetic::new(0.0, 30.0, 0.05),
            Geodetic::new(41.66, -91.53, 0.2),
            Geodetic::new(80.0, 20.0, 0.1),
            Geodetic::new(30.0, 100.0, 200.0),
        ];
        let (first, _) = mixed_run();
        let minute = |m: f64| first.plus_seconds(60.0 * m);
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
        (sites, Constellation::new(sats))
    }

    /// The discard line of the documented prefilter, written out from
    /// `starsense_constellation`'s *Soundness* independently of the cache.
    fn documented_line(observer_radius_km: f64, cutoff: f64, env: Option<Envelope>) -> f64 {
        let Some(env) = env else { return f64::NAN };
        let (r_o, r) = (observer_radius_km, env.r_min_km);
        let el = cutoff.to_radians();
        let d = (r * r - (r_o * el.cos()).powi(2)).sqrt() - r_o * el.sin();
        if r_o >= r || d <= 0.0 {
            return f64::NAN;
        }
        let swing = (env.speed_max_km_s + 7.292_115_9e-5 * r_o) / d * 7.6;
        cutoff - swing.to_degrees() - 1.0
    }

    #[test]
    fn mixed_altitude_orbits_stay_inside_their_envelopes() {
        // Every orbit of both mixed-altitude catalogs, every 10 s over the
        // 80-slot runs, with the full propagator for the speed.
        let (first, _) = mixed_run();
        let (from, to) = (first, first.plus_seconds(80.0 * SLOT_PERIOD_SECONDS));
        let catalogs =
            [mixed_altitude_catalog(Geodetic::new(41.66, -91.53, 0.2)), four_site_catalog().1];
        let mut samples = 0;
        for catalog in &catalogs {
            let envelopes = catalog.published_envelopes(from, to);
            for (sat, env) in catalog.sats().iter().zip(envelopes.sats()) {
                let env = env.expect("every aimed orbit is bounded");
                let orbit = Sgp4::new(&sat.published.elements()).expect("initializes");
                for k in 0..=120 {
                    let at = from.plus_seconds(10.0 * k as f64);
                    let Ok(state) = orbit.propagate(at) else { continue };
                    let r = state.position_km.norm();
                    assert!(
                        r >= env.r_min_km && r <= env.r_max_km,
                        "{}: {r} km, {env:?}",
                        sat.norad_id
                    );
                    assert!(state.velocity_km_s.norm() <= env.speed_max_km_s, "{}", sat.norad_id);
                    samples += 1;
                }
            }
        }
        assert!(samples > 10_000, "{samples} samples");
    }

    #[test]
    fn per_satellite_lines_stay_exact_on_a_mixed_altitude_catalog() {
        // Each slot of an 80-slot run over the mixed-altitude catalog is
        // compared bit for bit with the direct path, and the premises of
        // the prefilter are checked against direct propagation: every
        // sample is within `HORIZON_S` of its nearer boundary, every
        // satellite's line is the documented one for its envelope, and its
        // radius stays inside the envelope at every sample.
        let site = Geodetic::new(41.66, -91.53, 0.2);
        let (_, start) = mixed_run();
        let slots = 80;
        let catalog = mixed_altitude_catalog(site);
        let cache = PropagationCache::new(&catalog);
        let r_o = radius(site);

        let (mut found, mut wide, mut dips, mut own_only) = (0, 0, 0, 0);
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
                let envelopes = tracks.envelopes.clone().expect("a served slot has envelopes");
                assert!(envelopes.covers(t0, t1));
                // The premises below read the slot's own head row: the previous
                // end row, when this slot reused it.
                let Some((bits, head)) = head else { continue };
                if bits != t0.0.to_bits() {
                    continue;
                }
                let tail = &tracks.last_end.as_ref().expect("a served slot keeps its end row").sats;
                for (si, ((sat, a), b)) in catalog.sats().iter().zip(&head).zip(tail).enumerate() {
                    let env = envelopes.sats()[si];
                    let own = tracks.lines[si];
                    let documented = documented_line(r_o, cutoff, env);
                    assert!(
                        (own - documented).abs() < 1e-9 || (own.is_nan() && documented.is_nan()),
                        "sat {si}: line {own} against the documented {documented}"
                    );
                    let (Some(a), Some(b), Some(env)) = (a, b, env) else { continue };
                    if env.r_max_km - env.r_min_km > 100.0 && own.is_finite() {
                        wide += 1;
                    }
                    let boundary = a.teme.norm().min(b.teme.norm());
                    for &t in &epochs[1..15] {
                        let r = sat.published_position(t).expect("propagates").norm();
                        assert!(
                            r >= env.r_min_km && r <= env.r_max_km,
                            "sat {} at radius {r} outside {env:?}",
                            sat.norad_id
                        );
                        if r < boundary {
                            dips += 1;
                        }
                    }
                    assert!(own >= tracks.discard_below_deg || own.is_nan());
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
        assert!(wide > 0, "the eccentric orbit's wide envelope should draw a line");
        assert!(dips > 0, "some radius should dip below both boundaries");
        assert!(own_only > 0, "own lines should discard what the lowest line keeps");
        assert!(highest - lowest > 3.0, "own lines {lowest}..{highest} should really differ");
    }

    #[test]
    fn observer_culled_rows_change_no_field_of_view_and_no_candidate() {
        // For each cutoff and observer set, an observer-culled cache must
        // give the same fields of view and candidate sets as a full-width
        // one over 80 contiguous slots of the four-site catalog, and the
        // soundness premises must hold against direct propagation at every
        // sample epoch within a key's reach. Every dismissed entry is
        // checked against the documented keep test too: the bound is loose
        // enough that a weakened one would still change no output.
        let (sites, catalog) = four_site_catalog();
        let (_, start) = mixed_run();
        let slots = 80;
        let starts: Vec<JulianDate> = (0..slots).map(start).collect();
        let boundaries: Vec<JulianDate> =
            starts.iter().flat_map(|&s| crate::slot_boundary_epochs(s, 16)).collect();
        let full = PropagationCache::new(&catalog);
        assert!(full.prepare(&starts, &boundaries, 1));
        let all: Vec<u32> = (0..catalog.len() as u32).collect();
        let reach = starsense_constellation::KEY_REACH_S;
        // The envelopes `prepare` draws the caps from: each kind's epochs
        // widened by the reach.
        let window = |epochs: &[JulianDate]| {
            let lo = epochs.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
            let hi = epochs.iter().map(|t| t.0).fold(f64::NEG_INFINITY, f64::max);
            (JulianDate(lo).plus_seconds(-reach), JulianDate(hi).plus_seconds(reach))
        };
        let (tf, tt) = window(&starts);
        let (pf, pt) = window(&boundaries);
        let kinds = [catalog.true_envelopes(tf, tt), catalog.published_envelopes(pf, pt)];
        let bounded = kinds.iter().flat_map(|e| e.sats()).flatten();
        let r_top = bounded.clone().map(|e| e.r_max_km).fold(0.0, f64::max);
        let rate = bounded.map(|e| e.speed_max_km_s / e.r_min_km).fold(0.0, f64::max);
        let published = &kinds[1];

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
                    let key_row = full.published_positions(key);
                    for si in (0..catalog.len()).filter(|&si| row.is_dismissed(si)) {
                        let p_k = rotation
                            * key_row.positions()[si]
                                .expect("a dismissed satellite had a position");
                        let env = published.sats()[si].expect("a dismissed satellite is bounded");
                        for &o in observers {
                            let o = geodetic_to_ecef(o);
                            let e = (cutoff - 0.25).to_radians();
                            let psi =
                                ((o.norm() / r_top) * e.cos()).acos() - e + 0.02f64.to_radians();
                            let angle = p_k.cross(o).norm().atan2(p_k.dot(o));
                            assert!(env.r_min_km > o.norm(), "sat {si} at {env:?}");
                            let turn = (rate + 7.292_115_9e-5) * reach;
                            assert!(angle > psi + turn, "sat {si}: {angle} rad from {o:?}");
                        }
                        dismissed += 1;
                    }
                }
                // Premises: every bounded satellite stays inside its
                // envelope and turns no faster than `v_max/r_min + ω⊕` at
                // every sample epoch within each key's reach.
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
                    for (sat, env) in catalog.sats().iter().zip(published.sats()) {
                        let (Some(env), Some(p_k)) = (env, sat.published_position(key)) else {
                            continue;
                        };
                        let p_k = rotation * p_k;
                        let turn_rate = env.speed_max_km_s / env.r_min_km + 7.292_115_9e-5;
                        for &t in &near {
                            let p = Mat3::rot_z(t.gmst_rad())
                                * sat.published_position(t).expect("propagates");
                            let dt = t.seconds_since(key).abs();
                            let r = p.norm();
                            assert!(r >= env.r_min_km && r <= env.r_max_km, "sat {}", sat.norad_id);
                            let turned = p.cross(p_k).norm().atan2(p.dot(p_k));
                            assert!(
                                turned <= turn_rate * dt,
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
        assert!(resolved > 0, "some dismissed boundary entries should be resolved");
        assert!(premises > 1000, "{premises} premise samples");
        assert!(dismissed > 1000, "{dismissed} dismissed entries checked");
    }

    #[test]
    fn per_satellite_lines_keep_gen1_survivors_near_the_candidates() {
        // With one catalog-wide line drawn for a 6,500-km orbit, about 140
        // gen1 satellites survive the prefilter per Iowa slot; each
        // satellite's own line, from its orbit envelope, keeps about 42
        // against ~34 candidates (~55 with a line from its boundary radii
        // and escape speed).
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
        assert!(per_slot <= 45.0, "{per_slot} survivors per slot: {s:?}");
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
