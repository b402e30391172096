//! Planar geometry for node placement.

use std::fmt;

/// A position on the simulation plane, in meters.
///
/// ```
/// use mesh_sim::geometry::Pos;
/// let a = Pos::new(0.0, 0.0);
/// let b = Pos::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pos {
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

impl Pos {
    /// Create a position from coordinates in meters.
    pub const fn new(x: f64, y: f64) -> Self {
        Pos { x, y }
    }

    /// Euclidean distance to another position, in meters.
    pub fn distance_to(self, other: Pos) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance; cheaper for comparisons.
    pub fn distance_sq(self, other: Pos) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

crate::snap_struct!(Pos { x, y });

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Pos {
    fn from((x, y): (f64, f64)) -> Self {
        Pos::new(x, y)
    }
}

/// A rectangular deployment area with its origin at `(0, 0)`, in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Area {
    /// Width (x extent) in meters.
    pub width: f64,
    /// Height (y extent) in meters.
    pub height: f64,
}

impl Area {
    /// Create an area.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive and finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0 && width.is_finite() && height.is_finite(),
            "area dimensions must be positive and finite"
        );
        Area { width, height }
    }

    /// A square area of the given side length in meters.
    pub fn square(side: f64) -> Self {
        Area::new(side, side)
    }

    /// Whether a position lies within this area (inclusive of the border).
    pub fn contains(&self, p: Pos) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }

    /// The diagonal length of the area.
    pub fn diagonal(&self) -> f64 {
        (self.width * self.width + self.height * self.height).sqrt()
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}m x {:.0}m", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Pos::new(1.0, 2.0);
        let b = Pos::new(-3.0, 7.5);
        assert!((a.distance_to(b) - b.distance_to(a)).abs() < 1e-12);
    }

    #[test]
    fn distance_sq_consistent() {
        let a = Pos::new(0.0, 0.0);
        let b = Pos::new(3.0, 4.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(a.distance_to(b), 5.0);
    }

    #[test]
    fn area_contains() {
        let area = Area::square(100.0);
        assert!(area.contains(Pos::new(0.0, 0.0)));
        assert!(area.contains(Pos::new(100.0, 100.0)));
        assert!(!area.contains(Pos::new(100.1, 50.0)));
        assert!(!area.contains(Pos::new(-0.1, 50.0)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_area_rejected() {
        let _ = Area::new(0.0, 10.0);
    }

    #[test]
    fn diagonal() {
        assert!((Area::new(30.0, 40.0).diagonal() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn pos_from_tuple() {
        let p: Pos = (1.0, 2.0).into();
        assert_eq!(p, Pos::new(1.0, 2.0));
    }
}
