use crate::context::TimingContext;
use crate::engine::StaResult;
use m3d_netlist::{CellClass, CellId};
use m3d_tech::Tier;

/// One stage of a timing path: a cell traversal plus the wire into it.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStage {
    /// The cell.
    pub cell: CellId,
    /// The cell's tier.
    pub tier: Tier,
    /// Arc delay through the cell, ns (0 for the launch point itself).
    pub cell_delay_ns: f64,
    /// Wire delay into the cell, ns.
    pub wire_delay_ns: f64,
}

/// A reconstructed worst path from launch to capture.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// Stages, launch first, capture endpoint last.
    pub stages: Vec<PathStage>,
    /// Path slack, ns.
    pub slack_ns: f64,
    /// Total arc (cell) delay along the path, ns.
    pub cell_delay_ns: f64,
    /// Total wire delay along the path, ns.
    pub wire_delay_ns: f64,
}

impl TimingPath {
    /// Number of cells on the path.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Returns `true` for an empty path (no stages).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Number of cells on the given tier.
    #[must_use]
    pub fn cells_on(&self, tier: Tier) -> usize {
        self.stages.iter().filter(|s| s.tier == tier).count()
    }

    /// Total cell delay contributed by the given tier, ns.
    #[must_use]
    pub fn cell_delay_on(&self, tier: Tier) -> f64 {
        self.stages
            .iter()
            .filter(|s| s.tier == tier)
            .map(|s| s.cell_delay_ns)
            .sum()
    }

    /// Number of tier crossings (MIVs) along the path.
    #[must_use]
    pub fn miv_count(&self) -> usize {
        self.stages
            .windows(2)
            .filter(|w| w[0].tier != w[1].tier)
            .count()
    }
}

/// Extracts the worst path ending at each of the `k` most critical
/// endpoints, worst first.
///
/// Backtracking follows [`StaResult::worst_input`], i.e. the input pin that
/// set each gate's arrival — the same path the forward pass timed.
#[must_use]
pub fn worst_paths(ctx: &TimingContext<'_>, result: &StaResult, k: usize) -> Vec<TimingPath> {
    result
        .critical_endpoints
        .iter()
        .take(k)
        .map(|&ep| backtrack(ctx, result, ep))
        .collect()
}

fn backtrack(ctx: &TimingContext<'_>, result: &StaResult, endpoint: CellId) -> TimingPath {
    let netlist = ctx.netlist;
    let mut rev_stages: Vec<PathStage> = Vec::new();

    // The endpoint itself (capture cell): no arc delay through it.
    let ep_slack = result.endpoint_slack[endpoint.index()];
    let slack = if ep_slack.is_nan() {
        result.slack[endpoint.index()]
    } else {
        ep_slack
    };

    // Find the worst data input of the endpoint.
    let ep_cell = netlist.cell(endpoint);
    let data_pins = match &ep_cell.class {
        CellClass::Gate { kind, .. } if kind.is_sequential() => ep_cell.input_count() - 1,
        CellClass::Macro(_) => ep_cell.input_count() - 1,
        _ => ep_cell.input_count(),
    };
    let mut worst: Option<(CellId, f64)> = None; // (driver, wire delay)
    for pin in 0..data_pins {
        let Some(net) = netlist.input_net(endpoint, pin) else {
            continue;
        };
        if netlist.net(net).is_clock {
            continue;
        }
        let Some(drv) = netlist.net(net).driver else {
            continue;
        };
        let wire = ctx.parasitics.net(net).wire_delay_ns;
        let at = result.arrival[drv.cell.index()] + wire;
        if worst.is_none_or(|(c, w)| at > result.arrival[c.index()] + w) {
            worst = Some((drv.cell, wire));
        }
    }
    rev_stages.push(PathStage {
        cell: endpoint,
        tier: ctx.tier(endpoint.index()),
        cell_delay_ns: 0.0,
        wire_delay_ns: worst.map_or(0.0, |(_, w)| w),
    });

    // Walk back through combinational gates to the launch point.
    let mut cursor = worst.map(|(c, _)| c);
    let mut guard = 0;
    while let Some(id) = cursor {
        guard += 1;
        if guard > 100_000 {
            break;
        }
        let cell = netlist.cell(id);
        let is_comb_gate =
            matches!(&cell.class, CellClass::Gate { kind, .. } if !kind.is_sequential());
        if !is_comb_gate {
            // Launch point (register Q / macro / PI).
            rev_stages.push(PathStage {
                cell: id,
                tier: ctx.tier(id.index()),
                cell_delay_ns: 0.0,
                wire_delay_ns: 0.0,
            });
            break;
        }
        let pin = result.worst_input[id.index()];
        let (prev, wire, arc) = if pin == u8::MAX {
            (None, 0.0, 0.0)
        } else {
            match netlist.input_net(id, pin as usize) {
                Some(net) => {
                    let wire = ctx.parasitics.net(net).wire_delay_ns;
                    let prev = netlist.net(net).driver.map(|p| p.cell);
                    let arc = prev.map_or(0.0, |p| {
                        (result.arrival[id.index()] - (result.arrival[p.index()] + wire)).max(0.0)
                    });
                    (prev, wire, arc)
                }
                None => (None, 0.0, 0.0),
            }
        };
        rev_stages.push(PathStage {
            cell: id,
            tier: ctx.tier(id.index()),
            cell_delay_ns: arc,
            wire_delay_ns: wire,
        });
        cursor = prev;
    }

    rev_stages.reverse();
    let cell_delay_ns = rev_stages.iter().map(|s| s.cell_delay_ns).sum();
    let wire_delay_ns = rev_stages.iter().map(|s| s.wire_delay_ns).sum();
    TimingPath {
        stages: rev_stages,
        slack_ns: slack,
        cell_delay_ns,
        wire_delay_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ClockSpec, Parasitics};
    use crate::engine::analyze;
    use m3d_netlist::Netlist;
    use m3d_tech::{CellKind, Drive, Library, TierStack};

    fn pipeline(depth: usize) -> Netlist {
        let mut n = Netlist::new("pipe");
        let clk_in = n.add_input("clk");
        let clk = n.add_net("clk", clk_in, 0);
        n.set_clock(clk);
        let ff1 = n.add_gate("ff1", CellKind::Dff, Drive::X1, 0);
        n.connect(clk, ff1, 1);
        let d_in = n.add_input("d");
        let nd = n.add_net("nd", d_in, 0);
        n.connect(nd, ff1, 0);
        let mut prev = n.add_net("q1", ff1, 0);
        for i in 0..depth {
            let g = n.add_gate(format!("g{i}"), CellKind::Inv, Drive::X1, 0);
            n.connect(prev, g, 0);
            prev = n.add_net(format!("n{i}"), g, 0);
        }
        let ff2 = n.add_gate("ff2", CellKind::Dff, Drive::X1, 0);
        n.connect(prev, ff2, 0);
        n.connect(clk, ff2, 1);
        let q2 = n.add_net("q2", ff2, 0);
        let po = n.add_output("y");
        n.connect(q2, po, 0);
        n
    }

    #[test]
    fn path_reconstructs_full_chain() {
        let n = pipeline(12);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let parasitics = Parasitics::zero_wire(&n);
        let ctx = TimingContext {
            netlist: &n,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: ClockSpec::with_period(0.2),
        };
        let r = analyze(&ctx);
        let paths = worst_paths(&ctx, &r, 1);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        // launch FF + 12 inverters + capture FF = 14 stages.
        assert_eq!(p.len(), 14, "stages: {:?}", p.stages.len());
        assert!(p.cell_delay_ns > 0.0);
        assert_eq!(p.miv_count(), 0);
        assert!((p.slack_ns - r.wns).abs() < 1e-9);
        // First stage is the launch FF, last is the capture FF.
        assert!(n.cell(p.stages[0].cell).is_sequential());
        assert!(n.cell(p.stages[p.len() - 1].cell).is_sequential());
    }

    #[test]
    fn hetero_path_counts_mivs_and_tier_delays() {
        let n = pipeline(10);
        let stack = TierStack::heterogeneous();
        let mut tiers = vec![Tier::Bottom; n.cell_count()];
        // Alternate tiers along the chain to force crossings.
        for (i, t) in tiers.iter_mut().enumerate() {
            if i % 2 == 0 {
                *t = Tier::Top;
            }
        }
        let parasitics = Parasitics::zero_wire(&n);
        let ctx = TimingContext {
            netlist: &n,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: ClockSpec::with_period(0.3),
        };
        let r = analyze(&ctx);
        let p = &worst_paths(&ctx, &r, 1)[0];
        assert!(p.miv_count() > 3);
        assert!(p.cells_on(Tier::Top) > 0);
        assert!(p.cells_on(Tier::Bottom) > 0);
        let total = p.cell_delay_on(Tier::Top) + p.cell_delay_on(Tier::Bottom);
        assert!((total - p.cell_delay_ns).abs() < 1e-9);
        // Slow-tier inverters contribute more delay per cell.
        let top_cells = p.cells_on(Tier::Top) as f64;
        let bot_cells = p.cells_on(Tier::Bottom) as f64;
        if top_cells > 1.0 && bot_cells > 1.0 {
            let avg_top = p.cell_delay_on(Tier::Top) / top_cells;
            let avg_bot = p.cell_delay_on(Tier::Bottom) / bot_cells;
            assert!(avg_top > avg_bot, "slow tier avg {avg_top} vs {avg_bot}");
        }
    }

    #[test]
    fn k_paths_are_sorted_by_slack() {
        let n = m3d_netgen::Benchmark::Netcard.generate(0.02, 5);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let parasitics = Parasitics::zero_wire(&n);
        let ctx = TimingContext {
            netlist: &n,
            stack: &stack,
            tiers: &tiers,
            parasitics: &parasitics,
            clock: ClockSpec::with_period(0.4),
        };
        let r = analyze(&ctx);
        let paths = worst_paths(&ctx, &r, 10);
        assert!(paths.len() <= 10);
        for w in paths.windows(2) {
            assert!(w[0].slack_ns <= w[1].slack_ns + 1e-9);
        }
    }
}
