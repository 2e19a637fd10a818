//! Tier partitioning: bin-based FM min-cut, timing-driven assignment and
//! the repartitioning ECO of the heterogeneous flow.
//!
//! This crate is the heart of the paper's contribution. The homogeneous
//! Pin-3-D flow partitions with placement-driven (bin-based) FM min-cut
//! and area balancing; the heterogeneous flow adds two stages on top:
//!
//! 1. **Timing-based partitioning** ([`timing_driven_assignment`],
//!    Section III-A1): rank every cell by its worst slack (complete,
//!    cell-based coverage — not path sampling) and *lock* the most
//!    critical 20–30 % of cell area onto the fast tier before min-cut
//!    runs on the rest.
//! 2. **Repartitioning ECO** ([`repartition_eco_with`], Section III-C /
//!    Algorithm 1): after placement and CTS, iteratively find cells that
//!    are too slow for their tier on the critical paths and move them to
//!    the fast die, with WNS/TNS guard rails and an area-unbalance stop.
//!
//! # Examples
//!
//! ```
//! use m3d_geom::{Point, Rect};
//! use m3d_netgen::Benchmark;
//! use m3d_partition::{bin_min_cut_with_stats, cut_size, PartitionConfig};
//! use m3d_tech::Tier;
//!
//! let netlist = Benchmark::Aes.generate(0.02, 1);
//! let n = netlist.cell_count();
//! // Cells spread over a 4 × 4 bin grid on a 100 µm die.
//! let die = Rect::new(0.0, 0.0, 100.0, 100.0);
//! let positions: Vec<Point> = (0..n)
//!     .map(|i| Point::new((i as f64 * 37.3) % 100.0, (i as f64 * 53.7) % 100.0))
//!     .collect();
//! let (areas, locked) = (vec![1.0; n], vec![false; n]);
//! let mut tiers = vec![Tier::Bottom; n];
//! let config = PartitionConfig::default();
//! let (cut, stats) =
//!     bin_min_cut_with_stats(&netlist, &positions, die, 4, &areas, &locked, &mut tiers, &config);
//! assert_eq!(cut, cut_size(&netlist, &tiers));
//! assert_eq!(stats.cut, cut as u64);
//! ```

mod eco;
mod fm;
mod timing;

pub use eco::{repartition_eco_with, EcoConfig, EcoOutcome, EcoStop, EcoTimingView};
pub use fm::{bin_min_cut_with_stats, FmStats, PartitionConfig};
pub use timing::{timing_driven_assignment, TimingAssignment};

use m3d_netlist::Netlist;
use m3d_tech::Tier;

/// Number of signal nets spanning both tiers — each needs (at least) one
/// MIV in the monolithic 3-D implementation.
#[must_use]
pub fn cut_size(netlist: &Netlist, tiers: &[Tier]) -> usize {
    netlist
        .nets()
        .filter(|(_, net)| !net.is_clock)
        .filter(|(_, net)| {
            let mut seen = [false, false];
            for c in net.cells() {
                seen[tiers[c.index()].index()] = true;
            }
            seen[0] && seen[1]
        })
        .count()
}

/// Area on each tier under an assignment, `[bottom, top]`.
#[must_use]
pub fn tier_areas(areas: &[f64], tiers: &[Tier]) -> [f64; 2] {
    let mut out = [0.0; 2];
    for (i, &t) in tiers.iter().enumerate() {
        out[t.index()] += areas[i];
    }
    out
}

/// Relative area unbalance `|A0 − A1| / (A0 + A1)`, 0 for a perfect split.
#[must_use]
pub fn unbalance(areas: &[f64], tiers: &[Tier]) -> f64 {
    let [a, b] = tier_areas(areas, tiers);
    if a + b == 0.0 {
        0.0
    } else {
        (a - b).abs() / (a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_tech::{CellKind, Drive};

    #[test]
    fn cut_size_counts_spanning_nets() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g1 = n.add_gate("g1", CellKind::Inv, Drive::X1, 0);
        let g2 = n.add_gate("g2", CellKind::Inv, Drive::X1, 0);
        let na = n.add_net("na", a, 0);
        let n1 = n.add_net("n1", g1, 0);
        n.connect(na, g1, 0);
        n.connect(n1, g2, 0);
        let _n2 = n.add_net("n2", g2, 0);

        let same = vec![Tier::Bottom; n.cell_count()];
        assert_eq!(cut_size(&n, &same), 0);

        let mut split = same.clone();
        split[g2.index()] = Tier::Top;
        assert_eq!(cut_size(&n, &split), 1); // only n1 crosses
    }

    #[test]
    fn unbalance_metric() {
        let areas = vec![1.0, 1.0, 2.0];
        let tiers = vec![Tier::Bottom, Tier::Top, Tier::Top];
        assert_eq!(tier_areas(&areas, &tiers), [1.0, 3.0]);
        assert_eq!(unbalance(&areas, &tiers), 0.5);
        let even = vec![Tier::Bottom, Tier::Bottom, Tier::Top];
        assert_eq!(unbalance(&areas, &even), 0.0);
    }
}
