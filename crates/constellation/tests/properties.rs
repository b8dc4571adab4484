//! Property tests for the constellation crate's spatial visibility index.
//!
//! The contract under test is the repo's standing invariant for every
//! optimization: the field-of-view query over the index's candidates must
//! be **bit-identical** to the same query over every catalog index — same
//! satellites, same order, same look-angle bit patterns — for arbitrary
//! epochs, elevation cutoffs, and observer locations, and the candidate set
//! must be a superset of the true field of view.

use proptest::prelude::*;
use starsense_astro::frames::{geodetic_to_ecef, Geodetic};
use starsense_astro::time::JulianDate;
use starsense_constellation::{Constellation, ConstellationBuilder, Snapshot, VisibleSat};
use std::sync::OnceLock;

/// One shared catalog for every case: building it is the expensive part,
/// and the properties quantify over (epoch, observer, cutoff), not seeds.
fn catalog() -> &'static Constellation {
    static CATALOG: OnceLock<Constellation> = OnceLock::new();
    CATALOG.get_or_init(|| ConstellationBuilder::starlink_mini().seed(42).build())
}

/// The full-catalog scan: the query over every catalog index.
fn linear(c: &Constellation, snap: &Snapshot, obs: Geodetic, min_el: f64) -> Vec<VisibleSat> {
    let all: Vec<u32> = (0..c.len() as u32).collect();
    c.field_of_view(snap, obs, min_el, &all)
}

/// The indexed query: the same call over the index's candidate superset.
fn indexed(c: &Constellation, snap: &Snapshot, obs: Geodetic, min_el: f64) -> Vec<VisibleSat> {
    c.field_of_view(snap, obs, min_el, &snap.visibility_index().candidates(obs, min_el))
}

fn assert_fov_bit_identical(linear: &[VisibleSat], indexed: &[VisibleSat]) {
    assert_eq!(linear.len(), indexed.len(), "field-of-view size");
    for (a, b) in linear.iter().zip(indexed) {
        assert_eq!(a.norad_id, b.norad_id);
        assert_eq!(a.look.elevation_deg.to_bits(), b.look.elevation_deg.to_bits());
        assert_eq!(a.look.azimuth_deg.to_bits(), b.look.azimuth_deg.to_bits());
        assert_eq!(a.look.range_km.to_bits(), b.look.range_km.to_bits());
        assert_eq!(a.teme, b.teme);
        assert_eq!(a.sunlit, b.sunlit);
        assert_eq!(a.age_days.to_bits(), b.age_days.to_bits());
        assert_eq!(a.launch, b.launch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_fov_is_bit_identical_to_linear_scan(
        hours in 0.0f64..240.0,
        lat in -84.0f64..84.0,
        lon in -180.0f64..180.0,
        alt in 0.0f64..3.0,
        min_el in 5.0f64..70.0,
    ) {
        let c = catalog();
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0).plus_seconds(hours * 3600.0);
        let obs = Geodetic::new(lat, lon, alt);
        let snap = c.snapshot(at);
        assert_fov_bit_identical(&linear(c, &snap, obs, min_el), &indexed(c, &snap, obs, min_el));
    }

    #[test]
    fn candidate_set_is_a_sorted_superset_of_the_fov(
        hours in 0.0f64..240.0,
        lat in -89.0f64..89.0,
        lon in -180.0f64..180.0,
        min_el in 0.0f64..80.0,
    ) {
        let c = catalog();
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0).plus_seconds(hours * 3600.0);
        let obs = Geodetic::new(lat, lon, 0.1);
        let snap = c.snapshot(at);
        let cand = snap.visibility_index().candidates(obs, min_el);
        prop_assert!(cand.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
        for v in linear(c, &snap, obs, min_el) {
            let si = c.sats().iter().position(|s| s.norad_id == v.norad_id).unwrap() as u32;
            prop_assert!(
                cand.binary_search(&si).is_ok(),
                "satellite {} at elevation {:.2} missing from candidates \
                 (obs ({lat:.2},{lon:.2}) cutoff {min_el:.2})",
                v.norad_id,
                v.look.elevation_deg
            );
        }
    }

    #[test]
    fn scratch_reuse_does_not_change_results(
        hours in 0.0f64..48.0,
        lat in -60.0f64..60.0,
        lon in -180.0f64..180.0,
    ) {
        // The same candidate buffer survives across unrelated cohort
        // gathers, as in the scheduler's cohort loop; stale contents must
        // never leak into a later result.
        let c = catalog();
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0).plus_seconds(hours * 3600.0);
        let snap = c.snapshot(at);
        let index = snap.visibility_index();
        let mut scratch = vec![3, 1, 4, 1, 5];
        for (obs, min_el) in [
            (Geodetic::new(lat, lon, 0.1), 25.0),
            (Geodetic::new(lat, lon, 0.1), 25.0),
            (Geodetic::new(-lat, lon, 0.1), 40.0),
        ] {
            let e = geodetic_to_ecef(obs);
            index.cohort_candidates_into(e, e.norm(), 0.0, min_el, &mut scratch);
            assert_fov_bit_identical(
                &linear(c, &snap, obs, min_el),
                &c.field_of_view(&snap, obs, min_el, &scratch),
            );
        }
    }

    #[test]
    fn cohort_candidate_superset_covers_every_member_fov(
        hours in 0.0f64..240.0,
        lat in -85.0f64..85.0,
        lon in -179.0f64..179.0,
        spread in 0.0f64..1.5,
        min_el in 5.0f64..70.0,
    ) {
        // The cohort contract: the shared candidate set gathered once for
        // the anchor — cap at the smallest member radius, widened by the
        // largest member-to-anchor angle — is a superset of every member's
        // own field of view. This is the exact construction the scheduler's
        // cohort fast path relies on for bit-identity.
        let c = catalog();
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0).plus_seconds(hours * 3600.0);
        let snap = c.snapshot(at);
        let index = snap.visibility_index();

        let members: Vec<Geodetic> = (0..5)
            .map(|i| {
                let t = i as f64;
                Geodetic::new(
                    (lat + spread * ((t * 0.61).sin() * 0.5)).clamp(-89.9, 89.9),
                    lon + spread * ((t * 0.83).cos() * 0.5),
                    0.1 + 0.05 * t,
                )
            })
            .collect();

        let anchor_ecef = geodetic_to_ecef(members[0]);
        let anchor_unit = anchor_ecef.unit();
        let mut min_radius = f64::INFINITY;
        let mut widen_deg: f64 = 0.0;
        for m in &members {
            let e = geodetic_to_ecef(*m);
            min_radius = min_radius.min(e.norm());
            widen_deg = widen_deg
                .max(anchor_unit.dot(e.unit()).clamp(-1.0, 1.0).acos().to_degrees());
        }

        let mut cand = Vec::new();
        index.cohort_candidates_into(anchor_ecef, min_radius, widen_deg + 1e-7, min_el, &mut cand);
        prop_assert!(cand.windows(2).all(|w| w[0] < w[1]), "sorted and unique");

        for m in &members {
            for v in linear(c, &snap, *m, min_el) {
                let position = c.sats().iter().position(|s| s.norad_id == v.norad_id);
                prop_assert!(
                    position.is_some_and(|p| cand.binary_search(&(p as u32)).is_ok()),
                    "satellite {} at elevation {:.2} visible from member ({:.3},{:.3}) \
                     missing from cohort candidates (anchor ({lat:.2},{lon:.2}), \
                     spread {spread:.2}, cutoff {min_el:.2})",
                    v.norad_id,
                    v.look.elevation_deg,
                    m.lat_deg,
                    m.lon_deg,
                );
            }
        }
    }
}

#[test]
fn deep_cutoff_degenerates_to_a_full_scan_and_stays_bit_identical() {
    // A cutoff of -40° pushes the cap radius past FULL_SCAN_CAP_DEG, so
    // the grid walk is abandoned for a full catalog scan — and the indexed
    // path must still match the linear scan bit for bit.
    let c = catalog();
    let snap = c.snapshot(JulianDate::from_ymd_hms(2023, 6, 1, 9, 30, 0.0));
    let obs = Geodetic::new(41.66, -91.53, 0.2);
    let cand = snap.visibility_index().candidates(obs, -40.0);
    assert_eq!(
        cand,
        (0..c.len() as u32).collect::<Vec<u32>>(),
        "degenerate cap must fall back to the whole catalog"
    );
    assert_fov_bit_identical(&linear(c, &snap, obs, -40.0), &indexed(c, &snap, obs, -40.0));
}

#[test]
fn polar_observers_straddling_the_lon_wrap_stay_bit_identical() {
    // Near the poles a cap spans every longitude column, and at ±180° the
    // column walk wraps; both paths of the wrap must agree with the linear
    // scan exactly.
    let c = catalog();
    let base = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
    for hours in [0.0, 37.5, 111.0] {
        let snap = c.snapshot(base.plus_seconds(hours * 3600.0));
        for &(lat, lon) in
            &[(87.3, 179.9), (87.3, -179.9), (89.5, 0.0), (-88.7, 179.2), (-89.9, -179.8)]
        {
            let obs = Geodetic::new(lat, lon, 0.1);
            for min_el in [5.0, 25.0, 45.0] {
                let cand = snap.visibility_index().candidates(obs, min_el);
                assert!(cand.windows(2).all(|w| w[0] < w[1]), "sorted unique at ({lat},{lon})");
                assert_fov_bit_identical(
                    &linear(c, &snap, obs, min_el),
                    &indexed(c, &snap, obs, min_el),
                );
            }
        }
    }
}

#[test]
fn antimeridian_seam_sweep_stays_bit_identical() {
    // Observers on both sides of ±180° over many epochs: each snapshot's
    // largest radius sizes its own grid, so the sweep meets many cell
    // sizes, and the indexed field of view must match the linear scan at
    // every one of them.
    let c = catalog();
    let base = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
    for epoch in 0..200 {
        let snap = c.snapshot(base.plus_seconds(epoch as f64 * 1_297.0));
        for lat in [-52.0, -23.0, 0.0, 31.0, 49.0] {
            for lon in [-179.9, -179.0, -178.0, -177.0, -176.0, -175.0, 179.0] {
                let obs = Geodetic::new(lat, lon, 0.1);
                assert_fov_bit_identical(
                    &linear(c, &snap, obs, 25.0),
                    &indexed(c, &snap, obs, 25.0),
                );
            }
        }
    }
}

#[test]
fn empty_snapshot_yields_empty_fov_through_every_path() {
    // Before the first launch the snapshot holds no live entries: the
    // degenerate index falls back to full-scan candidate sets (rejected by
    // the exact test) and both cohort and per-terminal paths return
    // nothing.
    let c = catalog();
    let earliest = c.sats().iter().map(|s| s.launch.date.0).fold(f64::INFINITY, f64::min);
    let snap = c.snapshot(JulianDate(earliest - 10.0));
    let obs = Geodetic::new(41.66, -91.53, 0.2);

    let mut cand = Vec::new();
    snap.visibility_index().cohort_candidates_into(
        geodetic_to_ecef(obs),
        geodetic_to_ecef(obs).norm(),
        0.5,
        25.0,
        &mut cand,
    );
    assert_eq!(cand.len(), c.len(), "degenerate bound falls back to the whole catalog");

    assert!(linear(c, &snap, obs, 25.0).is_empty());
    assert!(indexed(c, &snap, obs, 25.0).is_empty());
    assert!(c.field_of_view(&snap, obs, 25.0, &cand).is_empty());
}

#[test]
fn singleton_cohort_with_zero_widen_matches_per_terminal_candidates() {
    // The per-terminal query is a cohort of one at the observer's own
    // radius, unwidened: the two calls must gather the same candidate set.
    let c = catalog();
    let snap = c.snapshot(JulianDate::from_ymd_hms(2023, 6, 1, 9, 30, 0.0));
    for &(lat, lon) in &[(41.66, -91.53), (-33.86, 151.21), (78.0, 15.0), (0.0, -179.99)] {
        let obs = Geodetic::new(lat, lon, 0.2);
        let obs_ecef = geodetic_to_ecef(obs);
        let mut cohort = Vec::new();
        snap.visibility_index().cohort_candidates_into(
            obs_ecef,
            obs_ecef.norm(),
            0.0,
            25.0,
            &mut cohort,
        );
        assert_eq!(cohort, snap.visibility_index().candidates(obs, 25.0), "at ({lat},{lon})");
    }
}

#[test]
fn snapshot_clone_preserves_a_built_index() {
    let c = catalog();
    let at = JulianDate::from_ymd_hms(2023, 6, 1, 9, 30, 0.0);
    let snap = c.snapshot(at);
    let before_clone = snap.visibility_index().candidates(Geodetic::new(41.66, -91.53, 0.2), 25.0);
    let cloned = snap.clone();
    let after_clone = cloned.visibility_index().candidates(Geodetic::new(41.66, -91.53, 0.2), 25.0);
    assert_eq!(before_clone, after_clone);
}
