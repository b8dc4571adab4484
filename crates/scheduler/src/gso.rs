//! The geostationary-orbit exclusion zone.
//!
//! §5.1's rationale for the northward azimuth skew: "The International
//! Telecommunication Union has imposed a mandatory geo-stationary orbit
//! exclusion zone, which prohibits LEO satellites from transmitting to or
//! receiving from a ground station while being in the protected part of
//! the sky" (47 CFR §25.289). For a terminal in the northern mid-latitudes
//! the GSO belt arcs across the southern sky at moderate elevation, so
//! avoiding it removes much of the southern field of view — the scheduler
//! crate implements the zone as a hard constraint and the azimuth
//! preference of Figure 5 *emerges* from the geometry rather than being
//! baked in as a weight.

use starsense_astro::frames::{Geodetic, LookAngles, Topocentric};
use starsense_astro::vec3::Vec3;
use std::sync::OnceLock;

/// Radius of the geostationary belt, km.
pub const GSO_RADIUS_KM: f64 = 42_164.0;

/// Belt samples per site: one every half degree of longitude.
const BELT_SAMPLES: usize = 720;

/// Elevation (degrees) above which a belt sample joins the arc. The
/// floor sits below the horizon so the arc's ends cover satellites at low
/// elevation on either side of the belt.
const ARC_FLOOR_DEG: f64 = -5.0;

/// Slack under `sin(ARC_FLOOR_DEG)` for the trig-free screen in
/// [`GsoExclusion::for_site`]. `asin` is monotone with slope ≥ 1, so a
/// sample screened out sits at least this far (in radians) below the
/// floor — ~7 orders of magnitude above the rounding of the division,
/// `asin` and the degree conversion — and the exact test would drop it
/// too.
const SCREEN_GUARD: f64 = 1e-9;

/// The GSO belt in ECEF, sampled every half degree of longitude from 0°.
/// Built once per process: the belt points do not depend on the site.
fn belt() -> &'static [Vec3; BELT_SAMPLES] {
    static BELT: OnceLock<[Vec3; BELT_SAMPLES]> = OnceLock::new();
    BELT.get_or_init(|| {
        std::array::from_fn(|k| {
            let lon = k as f64 * 0.5;
            Vec3::new(
                GSO_RADIUS_KM * lon.to_radians().cos(),
                GSO_RADIUS_KM * lon.to_radians().sin(),
                0.0,
            )
        })
    })
}

/// The exclusion test for one terminal location.
///
/// Construction samples the GSO arc as seen from the terminal once;
/// per-satellite tests are then a handful of dot products. (The arc is
/// fixed in the terminal's sky — GSO satellites do not move in ECEF.)
#[derive(Debug, Clone)]
pub struct GsoExclusion {
    /// Unit vectors (ENU-style local frame) toward the sampled GSO arc
    /// points above [`ARC_FLOOR_DEG`], in belt-longitude order starting
    /// at the first sample after the invisible part of the belt, so
    /// consecutive entries are neighbours on the arc.
    arc_dirs: Vec<Vec3>,
    /// Bounding caps over consecutive runs of `arc_dirs`, for the
    /// segment-pruned scan behind [`GsoExclusion::separation_if_clear`].
    segments: Vec<ArcSegment>,
    /// Protection half-angle, degrees: a satellite within this angular
    /// separation of the arc is excluded.
    pub half_angle_deg: f64,
    /// `cos(half_angle)` — the exclusion threshold, hoisted out of the
    /// per-satellite test.
    cos_half: f64,
}

/// Arc samples per bounding segment: small enough that a segment's cap is
/// tight (8 samples span ≤ 4° of belt longitude, so the sqrt-free
/// Lipschitz pre-filter in the scan kills all but the near-arc segments),
/// large enough that the two-level scan replaces ~480 dot products per
/// query with ~90 cheap segment bounds plus the few surviving runs.
const SEGMENT_LEN: usize = 8;

/// Padding (radians) added to a segment's measured angular radius,
/// dominating the rounding error of `angle_to` so the stored cap provably
/// contains every member.
const SEGMENT_RHO_PAD: f64 = 1e-9;

/// Slack added to the algebraic dot upper bound, dominating the rounding
/// of its three-term evaluation. Together with [`SEGMENT_RHO_PAD`] it
/// keeps the bound rigorous: a pruned segment's members can never hold
/// the true maximum, which is what makes the pruned folds bit-identical
/// to the exhaustive ones.
const SEGMENT_UB_GUARD: f64 = 1e-12;

/// A bounding cap over one run of consecutive arc samples: all members lie
/// within angle `rho` of `center` (with `cos_rho`/`sin_rho` stored for the
/// closed-form dot bound).
#[derive(Debug, Clone, Copy)]
struct ArcSegment {
    /// Member range `arc_dirs[start..end]`.
    start: usize,
    end: usize,
    /// Unit center of the cap.
    center: Vec3,
    /// Angular radius of the cap, radians (with its cosine and sine
    /// stored for the closed-form dot bound).
    rho: f64,
    cos_rho: f64,
    sin_rho: f64,
}

impl ArcSegment {
    /// Upper bound on `dot(q, a)` over every member `a`, given
    /// `d = dot(q, center)` for a unit query `q`: the maximum of the dot
    /// product over a spherical cap of radius ρ is `cos(θ − ρ)` for query
    /// angle θ ≥ ρ (expanded via `d` and `sqrt(1 − d²)`) and 1 inside the
    /// cap.
    fn dot_upper_bound(&self, d: f64) -> f64 {
        if d >= self.cos_rho {
            1.0
        } else {
            d * self.cos_rho + (1.0 - d * d).max(0.0).sqrt() * self.sin_rho + SEGMENT_UB_GUARD
        }
    }
}

/// Builds the bounding segments over the sampled arc.
///
/// A member's angle to the center falls as its dot product rises, so only
/// members tied (within [`DOT_TIE_GUARD`]) with the chunk's smallest dot
/// can hold the widest angle; `angle_to` runs on those alone and the
/// `max` fold yields the same ρ as over every member.
fn build_segments(arc_dirs: &[Vec3]) -> Vec<ArcSegment> {
    arc_dirs
        .chunks(SEGMENT_LEN)
        .enumerate()
        .map(|(k, chunk)| {
            let start = k * SEGMENT_LEN;
            let sum = chunk.iter().fold(Vec3::new(0.0, 0.0, 0.0), |acc, a| acc + *a);
            let (center, rho) = if sum.norm() > 1e-9 {
                let center = sum.unit();
                let min_dot = chunk.iter().map(|a| a.dot(center)).fold(f64::INFINITY, f64::min);
                let rho = chunk
                    .iter()
                    .filter(|a| a.dot(center) <= min_dot + DOT_TIE_GUARD)
                    .map(|a| a.angle_to(center))
                    .fold(0.0, f64::max)
                    + SEGMENT_RHO_PAD;
                (center, rho)
            } else {
                // Degenerate (members cancel): a whole-sphere cap that
                // never prunes, keeping the bound trivially valid.
                (chunk[0], std::f64::consts::PI)
            };
            ArcSegment {
                start,
                end: start + chunk.len(),
                center,
                rho,
                cos_rho: rho.cos(),
                sin_rho: rho.sin(),
            }
        })
        .collect()
}

/// Dot-product slack under which two arc points count as tied for closest
/// (see [`GsoExclusion::separation_deg`]). An arc point whose dot product
/// with the query trails the winner by more than this is separated by a
/// strictly larger angle — the guard is ~6 orders of magnitude above the
/// combined rounding error of the dot products and `angle_to`, and ties
/// merely add a redundant term to a `min` fold.
const DOT_TIE_GUARD: f64 = 1e-9;

/// Converts look angles to a local unit direction vector (east, north, up).
fn look_to_unit(look: &LookAngles) -> Vec3 {
    let el = look.elevation_deg.to_radians();
    let az = look.azimuth_deg.to_radians();
    Vec3::new(el.cos() * az.sin(), el.cos() * az.cos(), el.sin())
}

impl GsoExclusion {
    /// Builds the exclusion tester for a terminal at `site` with a given
    /// protection half-angle (degrees).
    ///
    /// Samples the whole belt through one observer frame and keeps the
    /// points above −5° elevation, slightly below the horizon. (A point at
    /// the exact zenith can round to a sine above 1; its elevation is
    /// then NaN and it drops out.) A sample whose zenith sine sits clearly
    /// under the floor is dropped without trigonometry; every other
    /// sample takes the exact elevation test, so the kept directions are
    /// exactly those of evaluating `look_angles` at every belt point. The
    /// kept run is then rotated to start where the belt rises out of its
    /// invisible part: the visible arc is one run of belt longitudes, and
    /// when it spans 0° the plain sample order would split it and join its
    /// two horizon ends in one segment whose cap never prunes.
    pub fn for_site(site: Geodetic, half_angle_deg: f64) -> GsoExclusion {
        let topo = Topocentric::new(site);
        let screen = ARC_FLOOR_DEG.to_radians().sin() - SCREEN_GUARD;
        let mut samples = [None; BELT_SAMPLES];
        for (sample, &point) in samples.iter_mut().zip(belt()) {
            let sez = topo.sez(point);
            if sez.zenith / sez.range_km < screen {
                continue;
            }
            let look = sez.look_angles();
            if look.elevation_deg > ARC_FLOOR_DEG {
                *sample = Some(look_to_unit(&look));
            }
        }
        // The belt point opposite the site is always behind the Earth, so
        // the first kept sample after it starts the visible run.
        let antipode = ((site.lon_deg + 180.0).rem_euclid(360.0) * 2.0) as usize;
        let start = (antipode..antipode + BELT_SAMPLES)
            .map(|k| k % BELT_SAMPLES)
            .find(|&k| samples[k].is_some())
            .unwrap_or(0);
        let (wrapped, leading) = samples.split_at(start);
        let mut arc_dirs = Vec::with_capacity(samples.iter().flatten().count());
        arc_dirs.extend(leading.iter().chain(wrapped).flatten());
        let segments = build_segments(&arc_dirs);
        GsoExclusion {
            arc_dirs,
            segments,
            half_angle_deg,
            cos_half: half_angle_deg.to_radians().cos(),
        }
    }

    /// A disabled zone (never excludes) — the ablation configuration.
    pub fn disabled() -> GsoExclusion {
        GsoExclusion {
            arc_dirs: Vec::new(),
            segments: Vec::new(),
            half_angle_deg: 0.0,
            cos_half: 1.0,
        }
    }

    /// True when a satellite seen at `look` falls inside the protected zone.
    pub fn excludes(&self, look: &LookAngles) -> bool {
        if self.arc_dirs.is_empty() {
            return false;
        }
        let dir = look_to_unit(look);
        self.arc_dirs.iter().any(|a| a.dot(dir) > self.cos_half)
    }

    /// Minimum angular separation (degrees) between `look` and the visible
    /// GSO arc; `f64::INFINITY` when the arc is below the horizon entirely.
    ///
    /// The historical implementation evaluated `angle_to` (a cross
    /// product, a square root and an `atan2`) against every arc point.
    /// The angle is monotone in the dot product, so this version finds the
    /// winning arc point with dot products alone and evaluates the exact
    /// historical formula only for points tied with it (within
    /// `DOT_TIE_GUARD`, conservatively). The fold over the survivors
    /// yields the same minimum, bit for bit: every skipped point is
    /// separated by a strictly larger angle, and `min` ignores it either
    /// way.
    pub fn separation_deg(&self, look: &LookAngles) -> f64 {
        let dir = look_to_unit(look);
        let mut best_dot = f64::NEG_INFINITY;
        for a in &self.arc_dirs {
            best_dot = best_dot.max(a.dot(dir));
        }
        let mut min_deg = f64::INFINITY;
        for a in &self.arc_dirs {
            if a.dot(dir) >= best_dot - DOT_TIE_GUARD {
                min_deg = min_deg.min(a.angle_to(dir).to_degrees());
            }
        }
        min_deg
    }

    /// Fused exclusion + separation query — the one GSO call the
    /// scheduler's scoring loop makes per candidate. Returns `None` when
    /// `look` falls inside the protected zone (exactly when
    /// [`GsoExclusion::excludes`] returns true) and
    /// `Some(separation_deg)` (bit-identical to
    /// [`GsoExclusion::separation_deg`]) otherwise.
    ///
    /// The fusion is exact, not approximate: `excludes` asks whether *any*
    /// arc sample's dot product beats `cos_half`, which is the same
    /// question as whether the *maximum* dot product does — and pass 1 of
    /// the pruned scan computes that maximum exactly. One query therefore
    /// answers both tests with a single direction conversion and segment
    /// sweep, where separate calls would redo each.
    pub fn separation_if_clear(&self, look: &LookAngles) -> Option<f64> {
        self.pruned_scan(look_to_unit(look), self.cos_half)
    }

    /// Two-pass segment-pruned scan behind
    /// [`GsoExclusion::separation_if_clear`].
    ///
    /// Pass 1 folds the exact maximum dot product against `dir`, visiting
    /// the segment whose *center* is closest first: the true argmax sample
    /// almost always lives there, so the seed is tight and the remaining
    /// segments' upper bounds fail on the spot. (Visit order only changes
    /// *which* segments get scanned exactly, never the fold's value —
    /// every skipped segment provably holds no sample above the running
    /// best.) The scan returns `None` at the first sample whose dot
    /// exceeds `bail_above`: the direction is then inside the exclusion
    /// zone, and since the maximum is among the scanned samples, that is
    /// exactly "maximum > `bail_above`". Pass 2 re-runs the historical
    /// tie-guarded `min` fold over the segments whose bound — their own
    /// maximum, for those pass 1 scanned — clears the tie threshold;
    /// every other segment's members fail the `≥ threshold` test either
    /// way.
    fn pruned_scan(&self, dir: Vec3, bail_above: f64) -> Option<f64> {
        // ceil(BELT_SAMPLES / SEGMENT_LEN) — the belt sampling in
        // `for_site` caps the segment count, so the per-query scratch
        // lives on the stack.
        const MAX_SEGMENTS: usize = BELT_SAMPLES / SEGMENT_LEN + 1;
        debug_assert!(self.segments.len() <= MAX_SEGMENTS);
        let n = self.segments.len();

        // Center dot products, then the argmax — two tight array passes
        // pipeline better than one fused compare-and-branch chain.
        let mut center_d = [f64::NEG_INFINITY; MAX_SEGMENTS];
        for (k, seg) in self.segments.iter().enumerate() {
            center_d[k] = seg.center.dot(dir);
        }
        let mut seed = 0usize;
        for k in 1..n {
            if center_d[k] > center_d[seed] {
                seed = k;
            }
        }

        // Exact scan of the seed segment, keeping its member dots so the
        // tie fold below does not recompute them.
        let mut best_dot = f64::NEG_INFINITY;
        let mut seed_dots = [f64::NEG_INFINITY; SEGMENT_LEN];
        let mut seed_start = 0usize;
        let mut seed_len = 0usize;
        if let Some(seg) = self.segments.get(seed) {
            seed_start = seg.start;
            seed_len = seg.end - seg.start;
            for (j, a) in self.arc_dirs[seg.start..seg.end].iter().enumerate() {
                let d = a.dot(dir);
                if d > bail_above {
                    return None;
                }
                seed_dots[j] = d;
                best_dot = best_dot.max(d);
            }
        }

        // One sweep decides every other segment's fate for BOTH folds. A
        // segment whose member-dot upper bound sits strictly below
        // `best_dot − DOT_TIE_GUARD` can neither raise the maximum (pass
        // 1) nor hold a tie-fold survivor (pass 2: the running best only
        // grows, so the final threshold is at least this one, and every
        // member fails the `≥ threshold` sample test). The sqrt-free
        // over-bound `cosθ + ρ` (cosine is 1-Lipschitz) fails far
        // segments on one add; only near-arc segments pay the sqrt of
        // the exact cap bound, and only the handful within the tie guard
        // land on the survivor list the tie fold revisits. A survivor
        // keeps the tightest bound the sweep learned: its own maximum
        // when it was rescanned, its cap bound otherwise.
        let mut survivors = [(0usize, 0.0f64); MAX_SEGMENTS];
        let mut n_survivors = 0usize;
        for (k, seg) in self.segments.iter().enumerate() {
            if k == seed {
                continue;
            }
            let cheap = center_d[k] + seg.rho + SEGMENT_UB_GUARD;
            if cheap < best_dot - DOT_TIE_GUARD {
                continue;
            }
            let mut bound = seg.dot_upper_bound(center_d[k]);
            if bound < best_dot - DOT_TIE_GUARD {
                continue;
            }
            if bound > best_dot {
                bound = f64::NEG_INFINITY;
                for a in &self.arc_dirs[seg.start..seg.end] {
                    let d = a.dot(dir);
                    if d > bail_above {
                        return None;
                    }
                    bound = bound.max(d);
                }
                best_dot = best_dot.max(bound);
            }
            survivors[n_survivors] = (k, bound);
            n_survivors += 1;
        }

        // The historical tie-guarded min fold, over the seed's stored
        // dots plus the surviving segments that can still reach the
        // threshold — the same survivor samples the exhaustive fold
        // admits, so the same minimum, bit for bit.
        let threshold = best_dot - DOT_TIE_GUARD;
        let mut min_deg = f64::INFINITY;
        for (j, &d) in seed_dots[..seed_len].iter().enumerate() {
            if d >= threshold {
                min_deg = min_deg.min(self.arc_dirs[seed_start + j].angle_to(dir).to_degrees());
            }
        }
        for &(k, bound) in &survivors[..n_survivors] {
            if bound < threshold {
                continue;
            }
            let seg = &self.segments[k];
            for a in &self.arc_dirs[seg.start..seg.end] {
                if a.dot(dir) >= threshold {
                    min_deg = min_deg.min(a.angle_to(dir).to_degrees());
                }
            }
        }
        Some(min_deg)
    }

    /// Whether any part of the belt is visible from the site at all.
    pub fn arc_visible(&self) -> bool {
        !self.arc_dirs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starsense_astro::frames::look_angles;

    fn iowa() -> Geodetic {
        Geodetic::new(41.66, -91.53, 0.2)
    }

    fn look(el: f64, az: f64) -> LookAngles {
        LookAngles { elevation_deg: el, azimuth_deg: az, range_km: 1000.0 }
    }

    /// The historical belt sampling, kept as the oracle for `for_site`:
    /// the free `look_angles` at each of the 720 belt points, keeping
    /// those above −5°, tagged with their sample index.
    fn historical_arc_samples(site: Geodetic) -> Vec<(usize, Vec3)> {
        let mut samples = Vec::new();
        for k in 0..720 {
            let lon = k as f64 * 0.5;
            let gso = Vec3::new(
                GSO_RADIUS_KM * lon.to_radians().cos(),
                GSO_RADIUS_KM * lon.to_radians().sin(),
                0.0,
            );
            let look = look_angles(site, gso);
            if look.elevation_deg > -5.0 {
                samples.push((k, look_to_unit(&look)));
            }
        }
        samples
    }

    /// The oracle's directions rotated to the belt gap: the arc starts
    /// just after the widest step in sample index (counted around the
    /// belt), which is the step over the part hidden by the Earth.
    fn oracle_arc(site: Geodetic) -> Vec<Vec3> {
        let samples = historical_arc_samples(site);
        let n = samples.len();
        let step = |i: usize| (samples[(i + 1) % n].0 + 720 - samples[i].0) % 720;
        let split = (0..n).max_by_key(|&i| step(i)).map_or(0, |i| (i + 1) % n);
        let mut dirs: Vec<Vec3> = samples.into_iter().map(|(_, d)| d).collect();
        dirs.rotate_left(split);
        dirs
    }

    fn bits(dirs: &[Vec3]) -> Vec<[u64; 3]> {
        dirs.iter().map(|d| [d.x.to_bits(), d.y.to_bits(), d.z.to_bits()]).collect()
    }

    /// Sites on a latitude/longitude/altitude grid: both poles and the
    /// latitudes past the arc's cutoff (empty arcs), the equator, the
    /// longitudes within ±81° of 0° where the visible arc straddles the
    /// first belt sample, and 0–4 km altitude.
    fn grid_sites() -> Vec<Geodetic> {
        let mut lats: Vec<f64> = (-18..=18).map(|k| k as f64 * 5.0).collect();
        lats.extend([-88.0, -86.3, -83.0, -81.5, -0.2, 0.2, 81.5, 83.0, 86.3, 88.0]);
        let mut lons: Vec<f64> = (-18..18).map(|k| k as f64 * 10.0).collect();
        lons.extend([-81.0, -40.5, -0.3, 0.3, 1.7, 40.5, 81.0]);
        let mut sites = Vec::new();
        for &lat in &lats {
            for &lon in &lons {
                for alt in [0.0, 0.7, 4.0] {
                    sites.push(Geodetic::new(lat, lon, alt));
                }
            }
        }
        sites
    }

    /// The campaign benchmark's seed-1 terminal lattice: 10 000 sites on
    /// a Fibonacci lattice over ±55° latitude, rotated in longitude by
    /// the seed's phase, at 0.1 km altitude.
    fn lattice_sites() -> Vec<Geodetic> {
        let seed = 1u64;
        let phase = 360.0 * ((seed as f64 * 0.381_966_011_250_105).fract());
        (0..10_000)
            .map(|i| {
                let lat = -55.0 + 110.0 * ((i as f64 * 0.618_033_988_749_895).fract());
                let lon =
                    (phase + 360.0 * ((i as f64 * 0.754_877_666_246_693).fract())) % 360.0 - 180.0;
                Geodetic::new(lat, lon, 0.1)
            })
            .collect()
    }

    fn assert_arc_matches_oracle(sites: &[Geodetic]) -> (usize, usize) {
        let (mut empty, mut wrapped) = (0, 0);
        for &site in sites {
            let z = GsoExclusion::for_site(site, 12.0);
            let samples = historical_arc_samples(site);
            empty += usize::from(samples.is_empty());
            wrapped += usize::from(
                samples.first().is_some_and(|s| s.0 == 0)
                    && samples.last().is_some_and(|s| s.0 == 719),
            );
            assert_eq!(bits(&z.arc_dirs), bits(&oracle_arc(site)), "{site:?}");
            assert_eq!(z.arc_dirs.capacity(), z.arc_dirs.len(), "{site:?}");
        }
        (empty, wrapped)
    }

    #[test]
    fn arc_samples_match_the_historical_sampling_on_a_site_grid() {
        let (empty, wrapped) = assert_arc_matches_oracle(&grid_sites());
        // The grid reaches both the empty-arc and the wrapped-arc cases.
        assert!(empty > 0 && wrapped > 0, "empty {empty} wrapped {wrapped}");
    }

    #[test]
    fn arc_samples_match_the_historical_sampling_on_the_seed_one_lattice() {
        let (_, wrapped) = assert_arc_matches_oracle(&lattice_sites());
        assert!(wrapped > 0);
    }

    #[test]
    fn arc_segments_cover_contiguous_runs_of_the_belt() {
        // Consecutive samples are ~0.6° apart in the sky, so a segment of
        // eight neighbours has a cap of ~2°. A segment that joined the
        // arc's two horizon ends would span most of the sky.
        for site in grid_sites().into_iter().chain(lattice_sites()) {
            let z = GsoExclusion::for_site(site, 12.0);
            for seg in &z.segments {
                assert!(seg.rho <= 3f64.to_radians(), "{site:?}: rho {}", seg.rho.to_degrees());
            }
        }
    }

    #[test]
    fn segment_radius_matches_the_exhaustive_fold() {
        for site in grid_sites() {
            let z = GsoExclusion::for_site(site, 12.0);
            for seg in &z.segments {
                let members = &z.arc_dirs[seg.start..seg.end];
                let exhaustive = members.iter().map(|a| a.angle_to(seg.center)).fold(0.0, f64::max)
                    + SEGMENT_RHO_PAD;
                assert_eq!(seg.rho.to_bits(), exhaustive.to_bits(), "{site:?}");
            }
        }
    }

    #[test]
    fn gso_arc_peaks_due_south_at_midlatitude() {
        let z = GsoExclusion::for_site(iowa(), 12.0);
        assert!(z.arc_visible());
        // The arc's highest point from 41.66°N is due south at elevation
        // ~41-43° (geometry of the belt). A satellite there must be excluded.
        assert!(z.excludes(&look(42.0, 180.0)));
        // Straight north at the same elevation: far from the belt.
        assert!(!z.excludes(&look(42.0, 0.0)));
    }

    #[test]
    fn zenith_is_outside_the_zone_at_midlatitude() {
        let z = GsoExclusion::for_site(iowa(), 15.0);
        assert!(!z.excludes(&look(90.0, 0.0)));
        assert!(z.separation_deg(&look(90.0, 0.0)) > 30.0);
    }

    #[test]
    fn southern_low_sky_is_excluded_northern_low_sky_is_not() {
        let z = GsoExclusion::for_site(iowa(), 15.0);
        // Low southern sky hugs the belt for a wide azimuth span.
        assert!(z.excludes(&look(35.0, 160.0)));
        assert!(z.excludes(&look(35.0, 200.0)));
        assert!(!z.excludes(&look(35.0, 330.0)));
        assert!(!z.excludes(&look(35.0, 30.0)));
    }

    #[test]
    fn separation_shrinks_toward_the_belt() {
        let z = GsoExclusion::for_site(iowa(), 15.0);
        let near = z.separation_deg(&look(45.0, 180.0));
        let far = z.separation_deg(&look(80.0, 0.0));
        assert!(near < far, "near {near} vs far {far}");
    }

    #[test]
    fn pruned_separation_matches_the_exhaustive_fold_bit_for_bit() {
        let zones = [
            GsoExclusion::for_site(iowa(), 12.0),
            GsoExclusion::for_site(Geodetic::new(0.0, 17.2, 0.0), 12.0),
            GsoExclusion::for_site(Geodetic::new(-41.66, 130.0, 0.2), 15.0),
            GsoExclusion::for_site(Geodetic::new(67.0, -20.0, 0.1), 12.0),
        ];
        for z in &zones {
            for el10 in (250..=900).step_by(23) {
                for az in (0..360).step_by(7) {
                    let l = look(el10 as f64 / 10.0, az as f64);
                    let dir = look_to_unit(&l);
                    let exhaustive = z
                        .arc_dirs
                        .iter()
                        .map(|a| a.angle_to(dir).to_degrees())
                        .fold(f64::INFINITY, f64::min);
                    assert_eq!(
                        z.separation_deg(&l).to_bits(),
                        exhaustive.to_bits(),
                        "el {} az {az}",
                        el10 as f64 / 10.0
                    );
                }
            }
        }
    }

    #[test]
    fn fused_query_matches_the_reference_bit_for_bit() {
        // `separation_if_clear` is what the scheduler's hot path calls; it
        // must agree with the frozen reference on every output bit across
        // sites on both hemispheres, the equator, a site whose arc wraps
        // past belt longitude 0° and near the poles.
        let zones = [
            GsoExclusion::for_site(iowa(), 12.0),
            GsoExclusion::for_site(Geodetic::new(0.0, 17.2, 0.0), 12.0),
            GsoExclusion::for_site(Geodetic::new(40.0, 10.0, 0.1), 12.0),
            GsoExclusion::for_site(Geodetic::new(-41.66, 130.0, 0.2), 15.0),
            GsoExclusion::for_site(Geodetic::new(67.0, -20.0, 0.1), 12.0),
            GsoExclusion::for_site(Geodetic::new(-88.0, 5.0, 0.0), 12.0),
        ];
        for z in &zones {
            // The same zone with exclusion out of reach: the scan then
            // always reaches its separation fold, inside the zone too.
            let open = GsoExclusion { cos_half: 2.0, ..z.clone() };
            for el10 in (250..=900).step_by(13) {
                for az in (0..360).step_by(5) {
                    let l = look(el10 as f64 / 10.0, az as f64);
                    // `None` exactly on exclusion, the reference
                    // separation bits otherwise.
                    assert_eq!(
                        z.separation_if_clear(&l).map(f64::to_bits),
                        (!z.excludes(&l)).then(|| z.separation_deg(&l).to_bits()),
                        "fused el {} az {az}",
                        el10 as f64 / 10.0
                    );
                    assert_eq!(
                        open.separation_if_clear(&l).map(f64::to_bits),
                        Some(z.separation_deg(&l).to_bits()),
                        "separation el {} az {az}",
                        el10 as f64 / 10.0
                    );
                }
            }
        }
    }

    #[test]
    fn fused_query_handles_the_disabled_zone() {
        let z = GsoExclusion::disabled();
        assert_eq!(z.separation_if_clear(&look(42.0, 180.0)), Some(f64::INFINITY));
    }

    #[test]
    fn disabled_zone_never_excludes() {
        let z = GsoExclusion::disabled();
        assert!(!z.excludes(&look(42.0, 180.0)));
        assert!(!z.arc_visible());
        assert_eq!(z.separation_deg(&look(42.0, 180.0)), f64::INFINITY);
    }

    #[test]
    fn equatorial_site_has_belt_overhead() {
        let z = GsoExclusion::for_site(Geodetic::new(0.0, 0.0, 0.0), 12.0);
        // From the equator the belt passes through zenith.
        assert!(z.excludes(&look(89.0, 90.0)) || z.excludes(&look(89.0, 270.0)));
    }

    #[test]
    fn southern_hemisphere_mirror_image() {
        // From 41°S the belt is in the *northern* sky: the exclusion flips,
        // which is exactly the generalization limitation §8 of the paper
        // calls out.
        let z = GsoExclusion::for_site(Geodetic::new(-41.66, -91.53, 0.2), 12.0);
        assert!(z.excludes(&look(42.0, 0.0)));
        assert!(!z.excludes(&look(42.0, 180.0)));
    }

    #[test]
    fn wider_half_angle_excludes_more() {
        let narrow = GsoExclusion::for_site(iowa(), 5.0);
        let wide = GsoExclusion::for_site(iowa(), 25.0);
        let probe = look(55.0, 180.0);
        if narrow.excludes(&probe) {
            assert!(wide.excludes(&probe));
        }
        // A direction excluded by the wide zone but not the narrow one
        // must exist somewhere along the southern sky.
        let mut found = false;
        for el in 25..80 {
            let l = look(el as f64, 180.0);
            if wide.excludes(&l) && !narrow.excludes(&l) {
                found = true;
                break;
            }
        }
        assert!(found);
    }
}
