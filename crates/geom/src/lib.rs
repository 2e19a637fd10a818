//! Geometry substrate for the `hetero3d` EDA flow.
//!
//! All physical-design crates in the workspace share these primitives:
//!
//! * [`Point`] / [`Rect`] — planar geometry in microns,
//! * [`BBox`] — accumulating bounding boxes and half-perimeter wirelength,
//! * [`BinGrid`] — uniform spatial binning used by placement spreading,
//!   bin-based FM partitioning and global routing,
//! * [`steiner`] — net-length estimators (HPWL, rectilinear MST).
//!
//! Coordinates are `f64` microns throughout the workspace. Determinism matters
//! more than raw speed for a reproduction flow, so every algorithm here is
//! straight-line deterministic: no hashing-order or parallel-reduction
//! dependence.
//!
//! # Examples
//!
//! ```
//! use m3d_geom::{BBox, Point};
//!
//! let mut bbox = BBox::new();
//! bbox.add(Point::new(0.0, 0.0));
//! bbox.add(Point::new(3.0, 4.0));
//! assert_eq!(bbox.hpwl(), 7.0);
//! ```

mod bbox;
mod bins;
mod point;
mod rect;
pub mod steiner;

pub use bbox::BBox;
pub use bins::{BinGrid, BinIdx};
pub use point::Point;
pub use rect::Rect;

/// Manhattan (L1) distance between two points, in microns.
///
/// # Examples
///
/// ```
/// use m3d_geom::{manhattan, Point};
/// assert_eq!(manhattan(Point::new(0.0, 0.0), Point::new(3.0, 4.0)), 7.0);
/// ```
#[must_use]
pub fn manhattan(a: Point, b: Point) -> f64 {
    (a.x - b.x).abs() + (a.y - b.y).abs()
}

/// Clamps `value` into `[lo, hi]`.
///
/// Unlike [`f64::clamp`] this never panics on `lo > hi`; it returns `lo` in
/// that degenerate case, which is the behaviour the spreading loops want when
/// a bin collapses to zero width.
#[must_use]
pub fn clamp(value: f64, lo: f64, hi: f64) -> f64 {
    if hi < lo {
        return lo;
    }
    value.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 5.5);
        assert_eq!(manhattan(a, b), manhattan(b, a));
    }

    #[test]
    fn manhattan_zero_for_same_point() {
        let p = Point::new(7.25, -1.5);
        assert_eq!(manhattan(p, p), 0.0);
    }

    #[test]
    fn clamp_handles_degenerate_interval() {
        assert_eq!(clamp(5.0, 10.0, 0.0), 10.0);
        assert_eq!(clamp(5.0, 0.0, 10.0), 5.0);
        assert_eq!(clamp(-5.0, 0.0, 10.0), 0.0);
        assert_eq!(clamp(15.0, 0.0, 10.0), 10.0);
    }
}
