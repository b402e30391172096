//! Cost newtypes.
//!
//! A [`LinkCost`] is the metric value of one link; a [`PathCost`] is the
//! accumulated value for a whole path. Both wrap `f64`, but the *meaning* of
//! the number depends on the metric: for ETX/ETT/PP/METX lower is better and
//! paths accumulate additively (or via METX's recursion); for SPP the value
//! is a success probability, paths accumulate multiplicatively, and **higher
//! is better**. Comparisons therefore go through
//! [`Metric::better`](crate::Metric::better), never through raw `<`.

use std::fmt;

use mesh_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};

/// The metric value of a single link.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct LinkCost(f64);

impl LinkCost {
    /// Wrap a raw value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "link cost must not be NaN");
        LinkCost(v)
    }

    /// The raw value.
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl Snap for LinkCost {
    fn snap(&self, w: &mut SnapWriter) {
        let LinkCost(v) = self;
        v.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = r.f64()?;
        if v.is_nan() {
            return Err(SnapError::StateMismatch("NaN link cost"));
        }
        Ok(LinkCost(v))
    }
}

impl fmt::Display for LinkCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

/// The accumulated metric value of a path.
///
/// `PathCost` is what a `JOIN QUERY` carries and what receivers compare when
/// picking the best path.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct PathCost(f64);

impl PathCost {
    /// Wrap a raw value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "path cost must not be NaN");
        PathCost(v)
    }

    /// The raw value.
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl Snap for PathCost {
    fn snap(&self, w: &mut SnapWriter) {
        let PathCost(v) = self;
        v.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = r.f64()?;
        if v.is_nan() {
            return Err(SnapError::StateMismatch("NaN path cost"));
        }
        Ok(PathCost(v))
    }
}

impl fmt::Display for PathCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        let l = LinkCost::new(1.25);
        assert_eq!(l.value(), 1.25);
        assert_eq!(l.to_string(), "1.2500");
        let p = PathCost::new(0.5);
        assert_eq!(p.value(), 0.5);
        assert_eq!(p.to_string(), "0.5000");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_link_cost_rejected() {
        let _ = LinkCost::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_path_cost_rejected() {
        let _ = PathCost::new(f64::NAN);
    }

    #[test]
    fn infinity_allowed_as_worst_case() {
        assert!(PathCost::new(f64::INFINITY).value().is_infinite());
    }
}
