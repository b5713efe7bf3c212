//! Planar points and the vector operations RIPQ needs on them.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A point (or displacement vector) in the plane, in meters.
///
/// `Point2` doubles as a 2-D vector: subtraction of two points yields the
/// displacement between them, and scalar multiplication scales a
/// displacement. This mirrors common computational-geometry practice and
/// avoids a second, nearly identical type.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// Horizontal coordinate (meters).
    pub x: f64,
    /// Vertical coordinate (meters).
    pub y: f64,
}

impl Point2 {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: Point2) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (cheaper when only comparisons
    /// are needed, e.g. nearest-anchor search).
    #[inline]
    pub fn distance_sq(&self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Length of this point interpreted as a vector from the origin.
    #[inline]
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Dot product with `other` (both interpreted as vectors).
    #[inline]
    pub fn dot(&self, other: Point2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Midpoint of the segment between `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: Point2) -> Point2 {
        Point2::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Linear interpolation from `self` to `other` by parameter `t`.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`; values outside `[0,1]`
    /// extrapolate.
    #[inline]
    pub fn lerp(&self, other: Point2, t: f64) -> Point2 {
        Point2::new(
            crate::lerp(self.x, other.x, t),
            crate::lerp(self.y, other.y, t),
        )
    }

    /// Returns `true` when both coordinates are finite (not NaN/∞).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Approximate equality within [`crate::EPSILON`] per coordinate.
    #[inline]
    pub fn approx_eq(&self, other: Point2) -> bool {
        crate::approx_eq(self.x, other.x) && crate::approx_eq(self.y, other.y)
    }
}

impl Add for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn mul(self, s: f64) -> Point2 {
        Point2::new(self.x * s, self.y * s)
    }
}

impl Div<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn div(self, s: f64) -> Point2 {
        Point2::new(self.x / s, self.y / s)
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point2::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq(b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn vector_arithmetic() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, -1.0);
        assert_eq!(a + b, Point2::new(4.0, 1.0));
        assert_eq!(b - a, Point2::new(2.0, -3.0));
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point2::new(1.5, -0.5));
    }

    #[test]
    fn midpoint_and_lerp_agree() {
        let a = Point2::new(0.0, 10.0);
        let b = Point2::new(10.0, 0.0);
        assert!(a.midpoint(b).approx_eq(a.lerp(b, 0.5)));
    }

    #[test]
    fn dot_product_orthogonal() {
        assert_eq!(Point2::new(1.0, 0.0).dot(Point2::new(0.0, 3.0)), 0.0);
    }

    #[test]
    fn display_formats_to_centimeters() {
        assert_eq!(Point2::new(8.5, 6.25).to_string(), "(8.50, 6.25)");
    }

    fn coord() -> impl Strategy<Value = f64> {
        -1e4..1e4
    }

    proptest! {
        #[test]
        fn distance_symmetry(ax in coord(), ay in coord(), bx in coord(), by in coord()) {
            let a = Point2::new(ax, ay);
            let b = Point2::new(bx, by);
            prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9);
        }

        #[test]
        fn triangle_inequality(
            ax in coord(), ay in coord(),
            bx in coord(), by in coord(),
            cx in coord(), cy in coord(),
        ) {
            let a = Point2::new(ax, ay);
            let b = Point2::new(bx, by);
            let c = Point2::new(cx, cy);
            prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-6);
        }

        #[test]
        fn lerp_stays_on_segment(ax in coord(), ay in coord(), bx in coord(), by in coord(), t in 0.0..1.0f64) {
            let a = Point2::new(ax, ay);
            let b = Point2::new(bx, by);
            let p = a.lerp(b, t);
            // p's distance sum to the endpoints equals the segment length.
            prop_assert!((a.distance(p) + p.distance(b) - a.distance(b)).abs() < 1e-6);
        }
    }
}
