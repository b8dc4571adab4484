//! Property-based tests: TLE wire-format round trips, propagator
//! physical invariants over randomized LEO element sets, and the
//! position-only entry against the full propagation.

use proptest::prelude::*;
use starsense_astro::time::JulianDate;
use starsense_sgp4::{checksum, Elements, Sgp4, Tle};
use std::mem::discriminant;

fn leo_elements() -> impl Strategy<Value = Elements> {
    (
        14.0f64..15.8,     // rev/day: LEO band
        1.0e-4f64..2.0e-3, // eccentricity: near-circular
        30.0f64..98.0,     // inclination
        0.0f64..360.0,     // raan
        0.0f64..360.0,     // argp
        0.0f64..360.0,     // mean anomaly
        1.0e-5f64..3.0e-4, // bstar
        1u32..99_999,      // catalog number
    )
        .prop_map(|(n, e, i, raan, argp, ma, bstar, id)| {
            Elements::from_catalog_units(
                id,
                JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0),
                n,
                e,
                i,
                raan,
                argp,
                ma,
                bstar,
            )
        })
}

fn tle_of(e: &Elements) -> Tle {
    Tle {
        name: None,
        norad_id: e.norad_id,
        classification: 'U',
        intl_designator: "23001A".to_string(),
        epoch: e.epoch,
        ndot: 1.0e-6,
        nddot: 0.0,
        bstar: e.bstar,
        element_set_no: 999,
        inclination_deg: e.inclo.to_degrees(),
        raan_deg: e.nodeo.to_degrees(),
        eccentricity: e.ecco,
        arg_perigee_deg: e.argpo.to_degrees(),
        mean_anomaly_deg: e.mo.to_degrees(),
        mean_motion_rev_day: e.mean_motion_rev_per_day(),
        rev_number: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn formatted_tles_have_valid_layout_and_checksums(e in leo_elements()) {
        let (l1, l2) = tle_of(&e).format_lines();
        prop_assert_eq!(l1.len(), 69);
        prop_assert_eq!(l2.len(), 69);
        prop_assert_eq!(checksum(&l1), l1.chars().last().unwrap().to_digit(10).unwrap());
        prop_assert_eq!(checksum(&l2), l2.chars().last().unwrap().to_digit(10).unwrap());
    }

    #[test]
    fn tle_round_trip_preserves_fields_to_wire_precision(e in leo_elements()) {
        let tle = tle_of(&e);
        let (l1, l2) = tle.format_lines();
        let back = Tle::parse_lines(&l1, &l2).unwrap();
        prop_assert_eq!(back.norad_id, tle.norad_id);
        prop_assert!((back.inclination_deg - tle.inclination_deg).abs() < 1e-4);
        prop_assert!((back.raan_deg - tle.raan_deg).abs() < 1e-4);
        prop_assert!((back.eccentricity - tle.eccentricity).abs() < 1e-7);
        prop_assert!((back.arg_perigee_deg - tle.arg_perigee_deg).abs() < 1e-4);
        prop_assert!((back.mean_anomaly_deg - tle.mean_anomaly_deg).abs() < 1e-4);
        prop_assert!((back.mean_motion_rev_day - tle.mean_motion_rev_day).abs() < 1e-8);
        prop_assert!((back.bstar - tle.bstar).abs() < tle.bstar.abs() * 1e-4 + 1e-12);
        prop_assert!((back.epoch.0 - tle.epoch.0).abs() < 1e-7);
    }

    #[test]
    fn leo_orbits_stay_physical_for_a_day(e in leo_elements()) {
        let sgp4 = Sgp4::new(&e).unwrap();
        for k in 0..24 {
            let s = sgp4.propagate_minutes(k as f64 * 60.0).unwrap();
            let r = s.position_km.norm();
            // Radius stays within the LEO shell band.
            prop_assert!((6500.0..7500.0).contains(&r), "t={k}h r={r}");
            // Vis-viva: speed matches the orbit energy to a few percent.
            let v = s.velocity_km_s.norm();
            let a = e.semi_major_axis_km();
            let vis_viva = (398_600.8 * (2.0 / r - 1.0 / a)).sqrt();
            prop_assert!((v - vis_viva).abs() < 0.25, "v={v} vs vis-viva {vis_viva}");
        }
    }

    #[test]
    fn angular_momentum_direction_is_stable_over_one_orbit(e in leo_elements()) {
        let sgp4 = Sgp4::new(&e).unwrap();
        let s0 = sgp4.propagate_minutes(0.0).unwrap();
        let h0 = s0.position_km.cross(s0.velocity_km_s).unit();
        let s1 = sgp4.propagate_minutes(e.period_minutes() / 2.0).unwrap();
        let h1 = s1.position_km.cross(s1.velocity_km_s).unit();
        // J2 precesses the node slowly; within half an orbit the plane
        // moves by well under a degree.
        prop_assert!(h0.angle_to(h1).to_degrees() < 1.0);
    }

    #[test]
    fn latitude_stays_below_inclination(e in leo_elements()) {
        let sgp4 = Sgp4::new(&e).unwrap();
        let incl_deg = e.inclo.to_degrees();
        for k in 0..50 {
            let s = sgp4.propagate_minutes(k as f64 * 3.7).unwrap();
            let lat = (s.position_km.z / s.position_km.norm()).asin().to_degrees();
            prop_assert!(lat.abs() <= incl_deg + 0.5, "lat {lat} vs incl {incl_deg}");
        }
    }
}

proptest! {
    /// `position` is `propagate(..).position_km`, bit for bit, and fails
    /// exactly when `propagate` does, with the same error variant — for
    /// arbitrary near-earth element sets (including heavy drag) and
    /// offsets on both sides of the epoch.
    #[test]
    fn position_equals_propagate_position(
        revs in 11.3f64..16.4,
        ecc in 0.0f64..0.05,
        incl in 0.0f64..98.0,
        raan in 0.0f64..360.0,
        argp in 0.0f64..360.0,
        ma in 0.0f64..360.0,
        bstar in -0.001f64..0.01,
        minutes in -3000.0f64..3000.0,
    ) {
        let epoch = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
        let e = Elements::from_catalog_units(7, epoch, revs, ecc, incl, raan, argp, ma, bstar);
        if let Ok(p) = Sgp4::new(&e) {
            let at = epoch.plus_minutes(minutes);
            match (p.position(at), p.propagate(at)) {
                (Ok(r), Ok(s)) => {
                    prop_assert_eq!(r.x.to_bits(), s.position_km.x.to_bits());
                    prop_assert_eq!(r.y.to_bits(), s.position_km.y.to_bits());
                    prop_assert_eq!(r.z.to_bits(), s.position_km.z.to_bits());
                }
                (Err(a), Err(b)) => prop_assert_eq!(discriminant(&a), discriminant(&b)),
                (a, b) => prop_assert!(false, "position {:?} vs propagate {:?}", a, b),
            }
        }
    }
}
