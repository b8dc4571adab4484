//! Three-dimensional vectors.
//!
//! A deliberately small, dependency-free vector type. Operations are the
//! handful the astrodynamics code actually needs; anything exotic belongs in
//! the caller.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-vector of `f64` components.
///
/// Used for positions (km), velocities (km/s) and unit direction vectors in
/// whatever frame the caller is working in. The type itself is frame-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Unit vector along +X.
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };

    /// Unit vector along +Y.
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };

    /// Unit vector along +Z.
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * rhs.z - self.z * rhs.y,
            y: self.z * rhs.x - self.x * rhs.z,
            z: self.x * rhs.y - self.y * rhs.x,
        }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Returns the unit vector in this direction.
    ///
    /// # Panics
    ///
    /// Panics if the vector is (numerically) zero; callers normalize only
    /// vectors with physical magnitude.
    pub fn unit(self) -> Vec3 {
        let n = self.norm();
        assert!(n > 0.0, "cannot normalize the zero vector");
        self / n
    }

    /// Angle between two vectors in radians, in `[0, π]`.
    ///
    /// Numerically robust near 0 and π (uses `atan2` of the cross/dot pair
    /// rather than `acos`).
    pub fn angle_to(self, rhs: Vec3) -> f64 {
        self.cross(rhs).norm().atan2(self.dot(rhs))
    }

    /// Euclidean distance between two points.
    pub fn distance(self, rhs: Vec3) -> f64 {
        (self - rhs).norm()
    }

    /// True when every component is finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn dot_of_orthogonal_axes_is_zero() {
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
        assert_eq!(Vec3::Y.dot(Vec3::Z), 0.0);
    }

    #[test]
    fn cross_follows_right_hand_rule() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn norm_of_pythagorean_triple() {
        assert!((Vec3::new(3.0, 4.0, 0.0).norm() - 5.0).abs() < EPS);
    }

    #[test]
    fn unit_vector_has_norm_one() {
        let v = Vec3::new(1.0, -2.0, 3.0).unit();
        assert!((v.norm() - 1.0).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn unit_of_zero_panics() {
        let _ = Vec3::ZERO.unit();
    }

    #[test]
    fn angle_between_axes_is_right_angle() {
        assert!((Vec3::X.angle_to(Vec3::Y) - std::f64::consts::FRAC_PI_2).abs() < EPS);
    }

    #[test]
    fn angle_to_is_robust_for_antiparallel() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(-1.0, 1e-14, 0.0);
        assert!((a.angle_to(b) - std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_ops_compose() {
        let v = (Vec3::X + Vec3::Y * 2.0 - Vec3::Z) / 2.0;
        assert_eq!(v, Vec3::new(0.5, 1.0, -0.5));
        assert_eq!(-v, Vec3::new(-0.5, -1.0, 0.5));
    }
}
