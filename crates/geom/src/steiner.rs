//! Net-length estimators.
//!
//! Routing engines need a fast estimate of how much wire a net will consume
//! before (and sometimes instead of) actually routing it. Two estimators
//! are provided, in increasing fidelity and cost:
//!
//! * [`hpwl`] — half-perimeter of the pin bounding box; exact for 2- and
//!   3-pin nets, a lower bound otherwise,
//! * [`rmst`] — rectilinear minimum spanning tree via Prim's algorithm; a
//!   1.5-approximation upper bound on the rectilinear Steiner minimal tree,
//!   which is the standard pre-route estimate in timing-driven flows.

use crate::{BBox, Point};

/// Half-perimeter wirelength of the bounding box of `pins`.
///
/// # Examples
///
/// ```
/// use m3d_geom::{steiner, Point};
/// let pins = [Point::new(0.0, 0.0), Point::new(3.0, 4.0)];
/// assert_eq!(steiner::hpwl(&pins), 7.0);
/// ```
#[must_use]
pub fn hpwl(pins: &[Point]) -> f64 {
    pins.iter().copied().collect::<BBox>().hpwl()
}

/// Rectilinear minimum spanning tree length over `pins` (Prim's algorithm,
/// O(n²) — fine for net degrees seen in gate-level netlists).
///
/// Returns zero for nets with fewer than two pins. The RSMT (true Steiner
/// tree) length is between `2/3 * rmst` and `rmst`; flows in this workspace
/// use [`steiner_estimate`] which applies the usual fanout correction.
#[must_use]
pub fn rmst(pins: &[Point]) -> f64 {
    if pins.len() < 2 {
        return 0.0;
    }
    let n = pins.len();
    let mut in_tree = vec![false; n];
    let mut dist = vec![f64::INFINITY; n];
    in_tree[0] = true;
    for i in 1..n {
        dist[i] = pins[i].manhattan(pins[0]);
    }
    let mut total = 0.0;
    for _ in 1..n {
        let mut best = usize::MAX;
        let mut best_d = f64::INFINITY;
        for i in 0..n {
            if !in_tree[i] && dist[i] < best_d {
                best = i;
                best_d = dist[i];
            }
        }
        debug_assert!(best != usize::MAX);
        in_tree[best] = true;
        total += best_d;
        for i in 0..n {
            if !in_tree[i] {
                let d = pins[i].manhattan(pins[best]);
                if d < dist[i] {
                    dist[i] = d;
                }
            }
        }
    }
    total
}

/// Pre-route Steiner length estimate used by timing and power analysis.
///
/// Exact HPWL for degree ≤ 3; for larger nets the RMST scaled by the
/// empirical Steiner correction `0.87` (RSMT is on average ~13 % shorter
/// than RMST on random point sets).
#[must_use]
pub fn steiner_estimate(pins: &[Point]) -> f64 {
    if pins.len() <= 3 {
        hpwl(pins)
    } else {
        rmst(pins) * 0.87
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_pin_estimators_agree() {
        let pins = [Point::new(0.0, 0.0), Point::new(5.0, 7.0)];
        assert_eq!(hpwl(&pins), 12.0);
        assert_eq!(rmst(&pins), 12.0);
        assert_eq!(steiner_estimate(&pins), 12.0);
    }

    #[test]
    fn empty_and_single_pin_nets_have_zero_length() {
        assert_eq!(hpwl(&[]), 0.0);
        assert_eq!(rmst(&[]), 0.0);
        let one = [Point::new(1.0, 1.0)];
        assert_eq!(hpwl(&one), 0.0);
        assert_eq!(rmst(&one), 0.0);
    }

    #[test]
    fn rmst_on_collinear_points() {
        let pins = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(9.0, 0.0),
        ];
        assert_eq!(rmst(&pins), 9.0);
    }

    #[test]
    fn rmst_is_at_least_hpwl() {
        let pins = [
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
            Point::new(10.0, 10.0),
            Point::new(5.0, 5.0),
        ];
        assert!(rmst(&pins) >= hpwl(&pins));
    }

    #[test]
    fn steiner_estimate_below_rmst_for_large_nets() {
        let pins: Vec<Point> = (0..10)
            .map(|i| Point::new((i * 37 % 11) as f64, (i * 53 % 7) as f64))
            .collect();
        assert!(steiner_estimate(&pins) < rmst(&pins));
        assert!(steiner_estimate(&pins) > 0.0);
    }
}
