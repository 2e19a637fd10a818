use m3d_netlist::{CellId, Netlist};
use m3d_tech::Tier;

/// Result of the timing-based pre-assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingAssignment {
    /// Cells locked onto the fast tier, most critical first.
    pub locked_cells: Vec<CellId>,
}

/// Timing-based partitioning (Section III-A1).
///
/// Ranks every gate by its cell criticality (worst slack among paths
/// through the cell — the complete, cell-based coverage the paper uses
/// instead of path sampling) and locks the most critical cells onto the
/// fast tier, up to `area_cap` (the paper limits this to 20–30 % of total
/// cell area to avoid dense same-die clusters that the later legalization
/// would have to pull apart).
///
/// Sequential cells are skipped: a register on the slow tier costs one
/// clk→Q + setup, not a whole chain of slow stages, and leaving the
/// registers (and therefore the clock tree) on the low-power tier is a
/// large part of the heterogeneous power win — it is also what makes the
/// clock top-tier-heavy, as the paper's Table VIII observes. The
/// repartitioning ECO can still move an individual register later if a
/// path demands it.
///
/// `criticality[i]` is the slack of cell `i` (lower = more critical);
/// `areas[i]` its area. Returns the locked set; the caller marks those
/// cells locked and runs bin-based FM on the rest.
#[must_use]
pub fn timing_driven_assignment(
    netlist: &Netlist,
    criticality: &[f64],
    areas: &[f64],
    area_cap: f64,
    fast: Tier,
    tiers: &mut [Tier],
) -> TimingAssignment {
    let total_area: f64 = netlist
        .cells()
        .filter(|(_, c)| c.class.is_gate())
        .map(|(id, _)| areas[id.index()])
        .sum();
    let budget = total_area * area_cap.clamp(0.0, 1.0);

    let mut gates: Vec<CellId> = netlist
        .cells()
        .filter(|(_, c)| c.class.is_gate() && !c.is_sequential())
        .map(|(id, _)| id)
        .collect();
    gates.sort_by(|a, b| {
        criticality[a.index()]
            .partial_cmp(&criticality[b.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut locked_cells = Vec::new();
    let mut used = 0.0;
    for id in gates {
        let a = areas[id.index()];
        if used + a > budget {
            break;
        }
        used += a;
        tiers[id.index()] = fast;
        locked_cells.push(id);
    }
    TimingAssignment { locked_cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locks_most_critical_cells_up_to_cap() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 7);
        let count = n.cell_count();
        // Synthetic criticality: cell id as slack (lower id = more critical).
        let criticality: Vec<f64> = (0..count).map(|i| i as f64).collect();
        let areas: Vec<f64> = n
            .cells()
            .map(|(_, c)| if c.class.is_gate() { 1.0 } else { 0.0 })
            .collect();
        let mut tiers = vec![Tier::Top; count];
        let result =
            timing_driven_assignment(&n, &criticality, &areas, 0.25, Tier::Bottom, &mut tiers);
        let total: f64 = areas.iter().sum();
        let locked: f64 = result.locked_cells.iter().map(|c| areas[c.index()]).sum();
        assert!(
            (locked / total - 0.25).abs() < 0.02,
            "locked fraction {}",
            locked / total
        );
        // Locked cells are the lowest-slack gates.
        for w in result.locked_cells.windows(2) {
            assert!(criticality[w[0].index()] <= criticality[w[1].index()]);
        }
        for id in &result.locked_cells {
            assert_eq!(tiers[id.index()], Tier::Bottom);
        }
    }

    #[test]
    fn zero_cap_locks_nothing() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.01, 7);
        let criticality = vec![0.0; n.cell_count()];
        let areas = vec![1.0; n.cell_count()];
        let mut tiers = vec![Tier::Top; n.cell_count()];
        let result =
            timing_driven_assignment(&n, &criticality, &areas, 0.0, Tier::Bottom, &mut tiers);
        assert!(result.locked_cells.is_empty());
    }

    #[test]
    fn full_cap_locks_every_gate() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.01, 7);
        let criticality = vec![0.0; n.cell_count()];
        let areas = vec![1.0; n.cell_count()];
        let mut tiers = vec![Tier::Top; n.cell_count()];
        let result =
            timing_driven_assignment(&n, &criticality, &areas, 1.0, Tier::Bottom, &mut tiers);
        // Sequential cells are deliberately never locked.
        let comb = n
            .cells()
            .filter(|(_, c)| c.class.is_gate() && !c.is_sequential())
            .count();
        assert_eq!(result.locked_cells.len(), comb);
    }
}
