//! Angle helpers: wrapping, conversion, and azimuth quadrants.

use std::f64::consts::TAU;

/// Wraps an angle in radians to `[0, 2π)`.
pub fn wrap_tau(angle: f64) -> f64 {
    let a = angle % TAU;
    if a < 0.0 {
        a + TAU
    } else {
        a
    }
}

/// Wraps an angle in degrees to `[0, 360)`.
pub fn wrap_deg(angle: f64) -> f64 {
    let a = angle % 360.0;
    if a < 0.0 {
        a + 360.0
    } else {
        a
    }
}

/// Compass quadrant of an azimuth, using the paper's Figure 5 convention:
/// azimuth is measured clockwise from north, and each quadrant spans 90°.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quadrant {
    /// Azimuth in `[0°, 90°)`.
    NorthEast,
    /// Azimuth in `[90°, 180°)`.
    SouthEast,
    /// Azimuth in `[180°, 270°)`.
    SouthWest,
    /// Azimuth in `[270°, 360°)`.
    NorthWest,
}

impl Quadrant {
    /// All four quadrants in Figure 5 order (left to right on the x-axis).
    pub const ALL: [Quadrant; 4] =
        [Quadrant::NorthEast, Quadrant::SouthEast, Quadrant::SouthWest, Quadrant::NorthWest];

    /// This quadrant's position in [`Quadrant::ALL`] (declaration order
    /// matches the discriminant, so this is total and never searches).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Classifies an azimuth given in degrees.
    pub fn of_azimuth_deg(az: f64) -> Quadrant {
        match wrap_deg(az) {
            a if a < 90.0 => Quadrant::NorthEast,
            a if a < 180.0 => Quadrant::SouthEast,
            a if a < 270.0 => Quadrant::SouthWest,
            _ => Quadrant::NorthWest,
        }
    }

    /// Human-readable label matching the paper's figure annotations.
    pub fn label(self) -> &'static str {
        match self {
            Quadrant::NorthEast => "North East",
            Quadrant::SouthEast => "South East",
            Quadrant::SouthWest => "South West",
            Quadrant::NorthWest => "North West",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn wrap_tau_handles_negative_angles() {
        assert!((wrap_tau(-PI / 2.0) - 3.0 * PI / 2.0).abs() < 1e-12);
        assert!((wrap_tau(5.0 * TAU + 0.25) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn wrap_deg_examples() {
        assert_eq!(wrap_deg(-90.0), 270.0);
        assert_eq!(wrap_deg(720.0), 0.0);
        assert_eq!(wrap_deg(359.0), 359.0);
    }

    #[test]
    fn quadrant_boundaries_follow_figure_five() {
        assert_eq!(Quadrant::of_azimuth_deg(0.0), Quadrant::NorthEast);
        assert_eq!(Quadrant::of_azimuth_deg(89.9), Quadrant::NorthEast);
        assert_eq!(Quadrant::of_azimuth_deg(90.0), Quadrant::SouthEast);
        assert_eq!(Quadrant::of_azimuth_deg(180.0), Quadrant::SouthWest);
        assert_eq!(Quadrant::of_azimuth_deg(270.0), Quadrant::NorthWest);
        assert_eq!(Quadrant::of_azimuth_deg(359.9), Quadrant::NorthWest);
    }
}
