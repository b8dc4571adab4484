//! Property-based tests for the astrodynamics primitives.

use proptest::prelude::*;
use starsense_astro::angles::{angular_separation_deg, wrap_deg, wrap_pi, wrap_tau};
use starsense_astro::frames::{
    ecef_to_geodetic, geodetic_to_ecef, look_angles, teme_to_ecef, Geodetic,
};
use starsense_astro::time::{CivilTime, JulianDate};
use starsense_astro::vec3::Vec3;

proptest! {
    #[test]
    fn wrap_tau_lands_in_range(a in -1e6f64..1e6) {
        let w = wrap_tau(a);
        prop_assert!((0.0..std::f64::consts::TAU).contains(&w));
        // Wrapping preserves the angle modulo 2π.
        prop_assert!(((a - w) / std::f64::consts::TAU).rem_euclid(1.0) < 1e-6
            || ((a - w) / std::f64::consts::TAU).rem_euclid(1.0) > 1.0 - 1e-6);
    }

    #[test]
    fn wrap_pi_lands_in_range(a in -1e6f64..1e6) {
        let w = wrap_pi(a);
        prop_assert!(w > -std::f64::consts::PI - 1e-12);
        prop_assert!(w <= std::f64::consts::PI + 1e-12);
    }

    #[test]
    fn wrap_deg_lands_in_range(a in -1e7f64..1e7) {
        let w = wrap_deg(a);
        prop_assert!((0.0..360.0).contains(&w));
    }

    #[test]
    fn angular_separation_is_symmetric_and_bounded(a in 0.0f64..720.0, b in -360.0f64..360.0) {
        let s1 = angular_separation_deg(a, b);
        let s2 = angular_separation_deg(b, a);
        prop_assert!((s1 - s2).abs() < 1e-9);
        prop_assert!((0.0..=180.0).contains(&s1));
    }

    #[test]
    fn geodetic_ecef_round_trip(
        lat in -89.0f64..89.0,
        lon in -179.9f64..179.9,
        alt in 0.0f64..2000.0,
    ) {
        let geo = Geodetic::new(lat, lon, alt);
        let back = ecef_to_geodetic(geodetic_to_ecef(geo));
        prop_assert!((back.lat_deg - lat).abs() < 1e-6, "lat {} vs {}", back.lat_deg, lat);
        prop_assert!((back.lon_deg - lon).abs() < 1e-6, "lon {} vs {}", back.lon_deg, lon);
        prop_assert!((back.alt_km - alt).abs() < 1e-5, "alt {} vs {}", back.alt_km, alt);
    }

    #[test]
    fn look_angles_are_always_in_valid_ranges(
        lat in -80.0f64..80.0,
        lon in -180.0f64..180.0,
        tx in -8000.0f64..8000.0,
        ty in -8000.0f64..8000.0,
        tz in -8000.0f64..8000.0,
    ) {
        // Keep the target off the observer itself.
        let target = Vec3::new(tx, ty, tz + 9000.0);
        let la = look_angles(Geodetic::new(lat, lon, 0.0), target);
        prop_assert!((-90.0..=90.0).contains(&la.elevation_deg));
        prop_assert!((0.0..360.0).contains(&la.azimuth_deg));
        prop_assert!(la.range_km > 0.0);
    }

    #[test]
    fn teme_to_ecef_is_an_isometry(
        x in -8000.0f64..8000.0,
        y in -8000.0f64..8000.0,
        z in -8000.0f64..8000.0,
        minutes in 0.0f64..525_600.0,
    ) {
        let at = JulianDate::from_ymd_hms(2022, 1, 1, 0, 0, 0.0).plus_minutes(minutes);
        let v = Vec3::new(x, y, z);
        let e = teme_to_ecef(v, at);
        prop_assert!((e.norm() - v.norm()).abs() < 1e-6);
        prop_assert!((e.z - v.z).abs() < 1e-9, "pole axis is invariant");
    }

    #[test]
    fn civil_round_trip(
        year in 1990i32..2050,
        month in 1u32..=12,
        day in 1u32..=28,
        hour in 0u32..24,
        minute in 0u32..60,
        second in 0.0f64..59.9,
    ) {
        let c = CivilTime { year, month, day, hour, minute, second };
        let back = c.to_julian().to_civil();
        prop_assert_eq!((back.year, back.month, back.day), (year, month, day));
        prop_assert_eq!((back.hour, back.minute), (hour, minute));
        prop_assert!((back.second - second).abs() < 1e-3);
    }

    #[test]
    fn julian_ordering_matches_civil_ordering(
        s1 in 0.0f64..86_400.0,
        s2 in 0.0f64..86_400.0,
    ) {
        let base = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
        let a = base.plus_seconds(s1);
        let b = base.plus_seconds(s2);
        prop_assert_eq!(a.0 < b.0, s1 < s2);
    }

    #[test]
    fn cross_product_is_orthogonal(
        ax in -10.0f64..10.0, ay in -10.0f64..10.0, az in -10.0f64..10.0,
        bx in -10.0f64..10.0, by in -10.0f64..10.0, bz in -10.0f64..10.0,
    ) {
        let a = Vec3::new(ax, ay, az);
        let b = Vec3::new(bx, by, bz);
        let c = a.cross(b);
        prop_assert!(c.dot(a).abs() < 1e-9 * (1.0 + a.norm() * b.norm()));
        prop_assert!(c.dot(b).abs() < 1e-9 * (1.0 + a.norm() * b.norm()));
    }
}
