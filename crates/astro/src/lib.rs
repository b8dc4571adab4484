//! Astrodynamics primitives for the `starsense` workspace.
//!
//! This crate provides the low-level building blocks every other crate in the
//! reproduction relies on:
//!
//! * [`Vec3`] / [`Mat3`] — small fixed-size linear algebra,
//! * [`JulianDate`] and civil-time conversions, Greenwich sidereal time,
//! * reference-frame transforms (TEME ↔ ECEF, geodetic ↔ ECEF, topocentric
//!   look angles),
//! * a low-precision solar ephemeris and an Earth-shadow ("sunlit") test.
//!
//! The paper ("Making Sense of Constellations", CoNEXT Companion '23) relies
//! on SGP4-propagated satellite positions expressed as angle-of-elevation and
//! azimuth relative to a user terminal, and on whether satellites are sunlit.
//! Everything needed for those computations, except SGP4 itself (see the
//! `starsense-sgp4` crate), lives here.
//!
//! # Conventions
//!
//! * Distances are kilometres, angles are radians unless a name says
//!   otherwise (`*_deg`), times are UTC.
//! * Earth-fixed coordinates are ECEF (IAU-76/WGS-84 ellipsoid for geodesy).
//! * Inertial satellite states are TEME (the frame SGP4 natively produces).

pub mod angles;
pub mod frames;
pub mod mat3;
pub mod sun;
pub mod time;
pub mod vec3;

pub use frames::{ecef_to_geodetic, geodetic_to_ecef, teme_to_ecef, Geodetic, LookAngles};
pub use mat3::Mat3;
pub use sun::{is_sunlit, sun_position_teme};
pub use time::{CivilTime, JulianDate};
pub use vec3::Vec3;

/// Mean equatorial Earth radius in kilometres (WGS-84).
pub const EARTH_RADIUS_KM: f64 = 6378.137;

/// WGS-84 flattening factor of the Earth ellipsoid.
pub const EARTH_FLATTENING: f64 = 1.0 / 298.257223563;

/// Astronomical unit in kilometres.
pub const AU_KM: f64 = 149_597_870.7;

/// Mean solar radius in kilometres.
pub const SUN_RADIUS_KM: f64 = 695_700.0;
