//! Mean orbital elements in the form SGP4 consumes.

use starsense_astro::time::{JulianDate, MINUTES_PER_DAY};
use std::f64::consts::TAU;

/// SGP4 mean elements at an epoch.
///
/// Angles are radians; the mean motion is the *Kozai* mean motion in radians
/// per minute, exactly as read from a TLE (SGP4 internally un-Kozais it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Elements {
    /// NORAD catalog number of the object.
    pub norad_id: u32,
    /// Element-set epoch (UTC).
    pub epoch: JulianDate,
    /// Kozai mean motion, rad/min.
    pub no_kozai: f64,
    /// Eccentricity, dimensionless, `[0, 1)`.
    pub ecco: f64,
    /// Inclination, rad.
    pub inclo: f64,
    /// Right ascension of the ascending node, rad.
    pub nodeo: f64,
    /// Argument of perigee, rad.
    pub argpo: f64,
    /// Mean anomaly at epoch, rad.
    pub mo: f64,
    /// B* drag term, 1/earth-radii.
    pub bstar: f64,
}

impl Elements {
    /// Builds elements from "catalog-style" units: mean motion in revolutions
    /// per day and angles in degrees — the units a TLE displays.
    #[expect(clippy::too_many_arguments, reason = "one argument per TLE element field")]
    pub fn from_catalog_units(
        norad_id: u32,
        epoch: JulianDate,
        mean_motion_rev_per_day: f64,
        eccentricity: f64,
        inclination_deg: f64,
        raan_deg: f64,
        arg_perigee_deg: f64,
        mean_anomaly_deg: f64,
        bstar: f64,
    ) -> Elements {
        Elements {
            norad_id,
            epoch,
            no_kozai: mean_motion_rev_per_day * TAU / MINUTES_PER_DAY,
            ecco: eccentricity,
            inclo: inclination_deg.to_radians(),
            nodeo: raan_deg.to_radians(),
            argpo: arg_perigee_deg.to_radians(),
            mo: mean_anomaly_deg.to_radians(),
            bstar,
        }
    }

    /// Orbital period implied by the (Kozai) mean motion, minutes.
    pub fn period_minutes(&self) -> f64 {
        TAU / self.no_kozai
    }

    /// Mean motion in revolutions per day.
    pub fn mean_motion_rev_per_day(&self) -> f64 {
        self.no_kozai * MINUTES_PER_DAY / TAU
    }

    /// Semi-major axis implied by Kepler's third law (km), ignoring the
    /// Kozai correction — good to a few km, used for sanity checks only.
    pub fn semi_major_axis_km(&self) -> f64 {
        let n_rad_per_sec = self.no_kozai / 60.0;
        (crate::wgs72::MU / (n_rad_per_sec * n_rad_per_sec)).cbrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn starlink_like() -> Elements {
        Elements::from_catalog_units(
            44714,
            JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0),
            15.06,
            0.0001,
            53.0,
            120.0,
            90.0,
            0.0,
            0.0001,
        )
    }

    #[test]
    fn period_of_starlink_shell_is_about_95_minutes() {
        let e = starlink_like();
        assert!((e.period_minutes() - 95.6).abs() < 0.5, "{}", e.period_minutes());
    }

    #[test]
    fn semi_major_axis_is_near_550km_altitude() {
        let a = starlink_like().semi_major_axis_km();
        let alt = a - crate::wgs72::EARTH_RADIUS_KM;
        assert!((alt - 550.0).abs() < 30.0, "altitude {alt}");
    }

    #[test]
    fn catalog_units_round_trip() {
        let e = starlink_like();
        assert!((e.mean_motion_rev_per_day() - 15.06).abs() < 1e-12);
        assert!((e.inclo.to_degrees() - 53.0).abs() < 1e-12);
    }
}
