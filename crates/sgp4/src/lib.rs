//! TLE handling and SGP4 propagation.
//!
//! The paper identifies the satellite serving a terminal by propagating
//! CelesTrak two-line-element sets with SGP4 and matching the resulting sky
//! tracks against obstruction-map trajectories (§4). This crate provides both
//! halves of that substrate:
//!
//! * [`Tle`] — parse and format standard two-line element sets, including the
//!   "implied decimal" fields and modulo-10 checksums,
//! * [`Sgp4`] — the near-earth SGP4 propagator (Vallado's reference
//!   algorithm, WGS-72 constants), producing TEME position/velocity
//!   ([`Sgp4::propagate`]) or position alone ([`Sgp4::position`], the
//!   entry catalog rows and probe positions use). Both run one body of
//!   code, so the position bits are the same either way.
//!
//! Only the near-earth branch is implemented: every satellite in a Starlink
//! shell has an orbital period around 95 minutes, far below the 225-minute
//! deep-space threshold. Constructing a propagator for a deep-space object
//! returns [`Sgp4Error::DeepSpace`] rather than silently wrong values.
//!
//! # Example
//!
//! ```
//! use starsense_sgp4::{Tle, Sgp4};
//!
//! let tle = Tle::parse_lines(
//!     "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753",
//!     "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667",
//! ).unwrap();
//! let sgp4 = Sgp4::new(&tle.elements()).unwrap();
//! let state = sgp4.propagate_minutes(0.0).unwrap();
//! assert!((state.position_km.x - 7022.46529).abs() < 1e-3);
//! ```

mod elements;
mod error;
mod propagator;
mod tle;

pub use elements::Elements;
pub use error::Sgp4Error;
pub use propagator::{Sgp4, Sgp4Terms, State};
pub use tle::{checksum, CatalogDefect, Tle, TleError};

/// WGS-72 gravitational and geometric constants used by SGP4.
///
/// SGP4 is defined against WGS-72; mixing in WGS-84 constants degrades
/// agreement with the distributed element sets, so these are kept separate
/// from the WGS-84 constants in `starsense-astro`.
pub mod wgs72 {
    /// Earth gravitational parameter, km³/s².
    pub const MU: f64 = 398_600.8;
    /// Earth equatorial radius, km.
    pub const EARTH_RADIUS_KM: f64 = 6378.135;
    /// Square root of GM in (earth radii)^1.5 per minute: the `ke` constant.
    pub const XKE: f64 = 0.074_366_916_133_173_42; // 60.0 / sqrt(R³/µ)
    /// Second zonal harmonic.
    pub const J2: f64 = 0.001_082_616;
    /// Third zonal harmonic.
    pub const J3: f64 = -0.000_002_538_81;
    /// Fourth zonal harmonic.
    pub const J4: f64 = -0.000_001_655_97;
    /// J3 / J2.
    pub const J3OJ2: f64 = J3 / J2;

    #[cfg(test)]
    mod tests {
        #[test]
        fn xke_matches_definition() {
            let computed = 60.0 / (super::EARTH_RADIUS_KM.powi(3) / super::MU).sqrt();
            assert!((computed - super::XKE).abs() < 1e-15);
        }
    }
}
