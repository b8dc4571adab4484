//! Low-precision solar ephemeris and the Earth-shadow ("sunlit") test.
//!
//! §5.3 of the paper shows the global scheduler prefers *sunlit* satellites.
//! The authors computed sunlit status with the SkyField library; we implement
//! the standard low-precision solar position (Meeus, *Astronomical
//! Algorithms*, ch. 25 — accurate to ~0.01°) and a conical Earth-shadow
//! model. For a yes/no sunlit decision on a LEO satellite, both are far more
//! accurate than required: the penumbra transit of a Starlink satellite lasts
//! only a few seconds.

use crate::time::JulianDate;
use crate::vec3::Vec3;
use crate::{AU_KM, EARTH_RADIUS_KM, SUN_RADIUS_KM};

/// Apparent position of the Sun in the TEME frame (km), at UTC instant `at`.
///
/// Mean-of-date and TEME differ by well under 0.01° across the years the
/// reproduction simulates, so the mean-equinox position is used directly.
pub fn sun_position_teme(at: JulianDate) -> Vec3 {
    let t = at.centuries_since_j2000();

    // Geometric mean longitude and mean anomaly of the Sun (degrees).
    let l0 = 280.460_46 + 36_000.770_05 * t;
    let m = (357.529_11 + 35_999.050_29 * t).to_radians();

    // Equation of centre.
    let c = (1.914_602 - 0.004_817 * t) * m.sin()
        + (0.019_993 - 0.000_101 * t) * (2.0 * m).sin()
        + 0.000_289 * (3.0 * m).sin();

    let ecliptic_lon = (l0 + c).to_radians();
    let obliquity = (23.439_291 - 0.013_004_2 * t).to_radians();

    // Distance in AU.
    let e = 0.016_708_617 - 0.000_042_037 * t;
    let nu = m + c.to_radians();
    let r_au = 1.000_140_612 * (1.0 - e * e) / (1.0 + e * nu.cos());

    let r = r_au * AU_KM;
    Vec3::new(
        r * ecliptic_lon.cos(),
        r * ecliptic_lon.sin() * obliquity.cos(),
        r * ecliptic_lon.sin() * obliquity.sin(),
    )
}

/// Whether a satellite at TEME position `sat` (km) is illuminated by the Sun
/// at instant `at`.
///
/// Uses the umbral cone of a spherical Earth: the satellite is dark only if
/// it is behind the terminator plane *and* inside the shadow cone. Penumbra
/// is treated as sunlit (a satellite in penumbra still receives most solar
/// flux, and the transit lasts seconds at LEO).
pub fn is_sunlit(sat: Vec3, at: JulianDate) -> bool {
    EarthShadow::at(at).is_sunlit(sat)
}

/// The Earth's umbral cone at one instant: the sun geometry [`is_sunlit`]
/// needs, computed once for callers that test many satellites at that
/// instant. [`EarthShadow::is_sunlit`] is the same arithmetic as
/// [`is_sunlit`], so the two agree bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct EarthShadow {
    sun_dir: Vec3,
    /// How much the cone's radius shrinks per km behind the terminator:
    /// tan α_u = (R_sun − R_earth) / d_sun.
    shrink: f64,
}

impl EarthShadow {
    /// The shadow cone at instant `at`.
    pub fn at(at: JulianDate) -> EarthShadow {
        let sun = sun_position_teme(at);
        EarthShadow { sun_dir: sun.unit(), shrink: (SUN_RADIUS_KM - EARTH_RADIUS_KM) / sun.norm() }
    }

    /// Whether a satellite at TEME position `sat` (km) is outside the cone.
    pub fn is_sunlit(&self, sat: Vec3) -> bool {
        // Component of the satellite position along the Sun direction.
        // Positive means the satellite is on the day side: always lit.
        let along = sat.dot(self.sun_dir);
        if along >= 0.0 {
            return true;
        }

        // Perpendicular distance from the Earth-Sun axis.
        let perp = (sat - self.sun_dir * along).norm();

        // Umbra cone: its radius at |along| behind the terminator shrinks
        // linearly from R_earth.
        let umbra_radius = EARTH_RADIUS_KM + along * self.shrink; // along < 0 shrinks it
        perp > umbra_radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sun_distance_is_about_one_au() {
        for month in 1..=12 {
            let at = JulianDate::from_ymd_hms(2023, month, 15, 0, 0, 0.0);
            let d = sun_position_teme(at).norm();
            assert!((0.983 * AU_KM..1.017 * AU_KM).contains(&d), "month {month}: {} AU", d / AU_KM);
        }
    }

    #[test]
    fn sun_declination_matches_seasons() {
        // June solstice: sun well north of the equator (decl ≈ +23.4°).
        let summer = sun_position_teme(JulianDate::from_ymd_hms(2023, 6, 21, 12, 0, 0.0));
        let decl_summer = (summer.z / summer.norm()).asin().to_degrees();
        assert!((decl_summer - 23.4).abs() < 0.5, "summer decl {decl_summer}");

        // December solstice: decl ≈ −23.4°.
        let winter = sun_position_teme(JulianDate::from_ymd_hms(2023, 12, 21, 12, 0, 0.0));
        let decl_winter = (winter.z / winter.norm()).asin().to_degrees();
        assert!((decl_winter + 23.4).abs() < 0.5, "winter decl {decl_winter}");

        // Equinox: decl ≈ 0°.
        let spring = sun_position_teme(JulianDate::from_ymd_hms(2023, 3, 20, 12, 0, 0.0));
        let decl_spring = (spring.z / spring.norm()).asin().to_degrees();
        assert!(decl_spring.abs() < 0.6, "equinox decl {decl_spring}");
    }

    #[test]
    fn satellite_between_earth_and_sun_is_lit() {
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
        let sun_dir = sun_position_teme(at).unit();
        let sat = sun_dir * (EARTH_RADIUS_KM + 550.0);
        assert!(is_sunlit(sat, at));
    }

    #[test]
    fn satellite_directly_behind_earth_is_dark() {
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
        let sun_dir = sun_position_teme(at).unit();
        let sat = -sun_dir * (EARTH_RADIUS_KM + 550.0);
        assert!(!is_sunlit(sat, at));
    }

    #[test]
    fn satellite_behind_but_offset_above_shadow_is_lit() {
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
        let sun = sun_position_teme(at);
        let sun_dir = sun.unit();
        // Perpendicular direction.
        let perp = sun_dir.cross(Vec3::Z).unit();
        // Behind the Earth but 8000 km off-axis: outside the ~6378 km cone.
        let sat = -sun_dir * 2000.0 + perp * 8000.0;
        assert!(is_sunlit(sat, at));
    }

    #[test]
    fn umbra_cone_narrows_behind_earth() {
        let at = JulianDate::from_ymd_hms(2023, 6, 1, 0, 0, 0.0);
        let sun = sun_position_teme(at);
        let sun_dir = sun.unit();
        let perp = sun_dir.cross(Vec3::Z).unit();
        // Just inside the Earth radius right at the terminator plane → dark;
        // the same perpendicular offset far behind the Earth → lit, because
        // the cone has narrowed.
        let near = -sun_dir * 10.0 + perp * (EARTH_RADIUS_KM - 50.0);
        assert!(!is_sunlit(near, at));
        let far = -sun_dir * 1_000_000.0 + perp * (EARTH_RADIUS_KM - 50.0);
        assert!(is_sunlit(far, at));
    }
}
