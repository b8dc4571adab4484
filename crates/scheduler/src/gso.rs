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

use starsense_astro::frames::{look_angles, Geodetic, LookAngles};
use starsense_astro::vec3::Vec3;

/// Radius of the geostationary belt, km.
pub const GSO_RADIUS_KM: f64 = 42_164.0;

/// The exclusion test for one terminal location.
///
/// Construction samples the GSO arc as seen from the terminal once;
/// per-satellite tests are then a handful of dot products. (The arc is
/// fixed in the terminal's sky — GSO satellites do not move in ECEF.)
#[derive(Debug, Clone)]
pub struct GsoExclusion {
    /// Unit vectors (ENU-style local frame) toward sampled GSO arc points
    /// that are above the horizon.
    arc_dirs: Vec<Vec3>,
    /// Bounding caps over consecutive runs of `arc_dirs`, for the
    /// segment-pruned fast tests ([`GsoExclusion::excludes_fast`],
    /// [`GsoExclusion::separation_deg_fast`]).
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
/// the true maximum, which is what makes the fast folds bit-identical to
/// the exhaustive ones.
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
fn build_segments(arc_dirs: &[Vec3]) -> Vec<ArcSegment> {
    arc_dirs
        .chunks(SEGMENT_LEN)
        .enumerate()
        .map(|(k, chunk)| {
            let start = k * SEGMENT_LEN;
            let sum = chunk.iter().fold(Vec3::new(0.0, 0.0, 0.0), |acc, a| acc + *a);
            let (center, rho) = if sum.norm() > 1e-9 {
                let center = sum.unit();
                let rho =
                    chunk.iter().map(|a| a.angle_to(center)).fold(0.0, f64::max) + SEGMENT_RHO_PAD;
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
    pub fn for_site(site: Geodetic, half_angle_deg: f64) -> GsoExclusion {
        let mut arc_dirs = Vec::new();
        // Sample the whole belt; only points above the horizon matter.
        for k in 0..720 {
            let lon = k as f64 * 0.5;
            let gso = Vec3::new(
                GSO_RADIUS_KM * lon.to_radians().cos(),
                GSO_RADIUS_KM * lon.to_radians().sin(),
                0.0,
            );
            let look = look_angles(site, gso);
            if look.elevation_deg > -5.0 {
                arc_dirs.push(look_to_unit(&look));
            }
        }
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

    /// Segment-pruned variant of [`GsoExclusion::excludes`], bit-identical
    /// by construction: a segment whose dot upper bound does not clear
    /// `cos_half` cannot contain an excluding sample, so skipping it
    /// cannot change the answer. This is the variant the scheduler's fast
    /// scoring path calls; [`GsoExclusion::excludes`] stays as the frozen
    /// reference (and the equality is tested below).
    pub fn excludes_fast(&self, look: &LookAngles) -> bool {
        if self.arc_dirs.is_empty() {
            return false;
        }
        let dir = look_to_unit(look);
        for seg in &self.segments {
            if seg.dot_upper_bound(seg.center.dot(dir)) > self.cos_half
                && self.arc_dirs[seg.start..seg.end].iter().any(|a| a.dot(dir) > self.cos_half)
            {
                return true;
            }
        }
        false
    }

    /// Segment-pruned variant of [`GsoExclusion::separation_deg`],
    /// bit-identical by construction. Pass 1 folds the exact maximum dot
    /// product, skipping segments whose upper bound cannot beat the
    /// running best (`max` over a subset containing the argmax is the
    /// same value, bit for bit). Pass 2 re-runs the historical tie-guarded
    /// `min` fold, skipping segments whose bound falls below the tie
    /// threshold — their members fail the `≥ threshold` test either way.
    ///
    /// Pass 1 visits the segment whose *center* is closest to the query
    /// first: the true argmax sample almost always lives there, so the
    /// seed is tight and the remaining segments' upper bounds fail on the
    /// spot. (Visit order only changes *which* segments get scanned
    /// exactly, never the fold's value — every skipped segment provably
    /// holds no sample above the running best.)
    pub fn separation_deg_fast(&self, look: &LookAngles) -> f64 {
        match self.pruned_scan(look_to_unit(look), 2.0) {
            Some(deg) => deg,
            // `best_dot` never exceeds 1 (+ rounding), so a bail threshold
            // of 2 can never trip.
            None => unreachable!("bail threshold of 2.0 is above any dot product"),
        }
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

    /// Two-pass segment-pruned scan shared by the fast GSO queries.
    ///
    /// Pass 1 folds the exact maximum dot product against `dir`, visiting
    /// the segment whose *center* is closest first: the true argmax sample
    /// almost always lives there, so the seed is tight and the remaining
    /// segments' upper bounds fail on the spot. (Visit order only changes
    /// *which* segments get scanned exactly, never the fold's value —
    /// every skipped segment provably holds no sample above the running
    /// best.) If the maximum exceeds `bail_above` the direction is inside
    /// the exclusion zone and the scan returns `None`. Pass 2 re-runs the
    /// historical tie-guarded `min` fold over the segments whose bound
    /// clears the tie threshold — their members fail the `≥ threshold`
    /// test either way.
    fn pruned_scan(&self, dir: Vec3, bail_above: f64) -> Option<f64> {
        // ceil(720 / SEGMENT_LEN) — the belt sampling in `for_site` caps
        // the segment count, so the per-query scratch lives on the stack.
        const MAX_SEGMENTS: usize = 720 / SEGMENT_LEN + 1;
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
        // land on the survivor list the tie fold revisits.
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
            let ub = seg.dot_upper_bound(center_d[k]);
            if ub < best_dot - DOT_TIE_GUARD {
                continue;
            }
            if ub > best_dot {
                for a in &self.arc_dirs[seg.start..seg.end] {
                    best_dot = best_dot.max(a.dot(dir));
                }
            }
            survivors[n_survivors] = (k, ub);
            n_survivors += 1;
        }
        if best_dot > bail_above {
            return None;
        }

        // The historical tie-guarded min fold, over the seed's stored
        // dots plus the surviving segments — the same survivor samples
        // the exhaustive fold admits, so the same minimum, bit for bit.
        let threshold = best_dot - DOT_TIE_GUARD;
        let mut min_deg = f64::INFINITY;
        for (j, &d) in seed_dots[..seed_len].iter().enumerate() {
            if d >= threshold {
                min_deg = min_deg.min(self.arc_dirs[seed_start + j].angle_to(dir).to_degrees());
            }
        }
        for &(k, ub) in &survivors[..n_survivors] {
            if ub < threshold {
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

    fn iowa() -> Geodetic {
        Geodetic::new(41.66, -91.53, 0.2)
    }

    fn look(el: f64, az: f64) -> LookAngles {
        LookAngles { elevation_deg: el, azimuth_deg: az, range_km: 1000.0 }
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
    fn segment_pruned_fast_paths_match_the_reference_bit_for_bit() {
        // The fast tests are what the scheduler's hot path calls; they
        // must agree with the frozen reference on every output bit across
        // sites on both hemispheres, the equator and near the poles.
        let zones = [
            GsoExclusion::for_site(iowa(), 12.0),
            GsoExclusion::for_site(Geodetic::new(0.0, 17.2, 0.0), 12.0),
            GsoExclusion::for_site(Geodetic::new(-41.66, 130.0, 0.2), 15.0),
            GsoExclusion::for_site(Geodetic::new(67.0, -20.0, 0.1), 12.0),
            GsoExclusion::for_site(Geodetic::new(-88.0, 5.0, 0.0), 12.0),
        ];
        for z in &zones {
            for el10 in (250..=900).step_by(13) {
                for az in (0..360).step_by(5) {
                    let l = look(el10 as f64 / 10.0, az as f64);
                    assert_eq!(
                        z.separation_deg_fast(&l).to_bits(),
                        z.separation_deg(&l).to_bits(),
                        "separation el {} az {az}",
                        el10 as f64 / 10.0
                    );
                    assert_eq!(
                        z.excludes_fast(&l),
                        z.excludes(&l),
                        "excludes el {} az {az}",
                        el10 as f64 / 10.0
                    );
                    // The fused query answers both questions at once:
                    // `None` exactly on exclusion, the reference
                    // separation bits otherwise.
                    assert_eq!(
                        z.separation_if_clear(&l).map(f64::to_bits),
                        (!z.excludes(&l)).then(|| z.separation_deg(&l).to_bits()),
                        "fused el {} az {az}",
                        el10 as f64 / 10.0
                    );
                }
            }
        }
    }

    #[test]
    fn fast_paths_handle_the_disabled_zone() {
        let z = GsoExclusion::disabled();
        assert!(!z.excludes_fast(&look(42.0, 180.0)));
        assert_eq!(z.separation_deg_fast(&look(42.0, 180.0)), f64::INFINITY);
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
