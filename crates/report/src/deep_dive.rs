//! Table VIII: clock network, critical path and memory-interconnect
//! analyses of one implementation.

use m3d_flow::Implementation;
use m3d_sta::{worst_paths, TimingContext};
use m3d_tech::Tier;

/// Memory-interconnect metrics (Table VIII, first block).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryReport {
    /// RMS wire latency of nets feeding macro inputs, ps.
    pub input_net_latency_ps: f64,
    /// RMS wire latency of nets driven by macro outputs, ps.
    pub output_net_latency_ps: f64,
    /// Switching power of all macro-attached nets, µW (at sign-off
    /// activity).
    pub net_switching_power_uw: f64,
    /// Number of macro-attached nets.
    pub net_count: usize,
}

/// Clock-network metrics (Table VIII, second block).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClockReport {
    /// Total clock buffers.
    pub buffer_count: usize,
    /// Buffers on the top tier (0 for 2-D).
    pub top_buffer_count: usize,
    /// Buffers on the bottom tier.
    pub bottom_buffer_count: usize,
    /// Total buffer area, µm².
    pub buffer_area_um2: f64,
    /// Clock wirelength, mm.
    pub wirelength_mm: f64,
    /// Maximum insertion delay, ns.
    pub max_latency_ns: f64,
    /// Global skew, ns.
    pub max_skew_ns: f64,
    /// Average launch/capture skew over the 100 most critical paths, ns.
    pub avg_skew_100_ns: f64,
}

/// Critical-path anatomy (Table VIII, third block).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CriticalPathReport {
    /// Clock period, ns.
    pub clock_period_ns: f64,
    /// Path slack, ns.
    pub slack_ns: f64,
    /// Launch/capture clock skew, ns.
    pub clock_skew_ns: f64,
    /// Total path delay, ns.
    pub path_delay_ns: f64,
    /// Wire delay along the path, ns.
    pub wire_delay_ns: f64,
    /// Cell delay along the path, ns.
    pub cell_delay_ns: f64,
    /// Cells on the path.
    pub total_cells: usize,
    /// MIV crossings on the path.
    pub mivs: usize,
    /// Cells on the top tier.
    pub top_cells: usize,
    /// Cells on the bottom tier.
    pub bottom_cells: usize,
    /// Cell delay contributed by the top tier, ns.
    pub top_cell_delay_ns: f64,
    /// Cell delay contributed by the bottom tier, ns.
    pub bottom_cell_delay_ns: f64,
}

impl CriticalPathReport {
    /// Average stage delay on the top tier, ns.
    #[must_use]
    pub fn avg_top_delay_ns(&self) -> f64 {
        if self.top_cells > 0 {
            self.top_cell_delay_ns / self.top_cells as f64
        } else {
            0.0
        }
    }

    /// Average stage delay on the bottom tier, ns.
    #[must_use]
    pub fn avg_bottom_delay_ns(&self) -> f64 {
        if self.bottom_cells > 0 {
            self.bottom_cell_delay_ns / self.bottom_cells as f64
        } else {
            0.0
        }
    }
}

/// The full Table VIII data set for one implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepDive {
    /// Memory-interconnect block (zeroed when the design has no macros).
    pub memory: MemoryReport,
    /// Clock-network block.
    pub clock: ClockReport,
    /// Critical-path block.
    pub path: CriticalPathReport,
}

/// Computes the Table VIII analyses from a finished implementation.
#[must_use]
pub fn deep_dive(imp: &Implementation) -> DeepDive {
    let netlist = &imp.netlist;
    let parasitics = &imp.parasitics;

    // ---- memory interconnects ------------------------------------------
    let mut in_sq = 0.0;
    let mut in_n = 0usize;
    let mut out_sq = 0.0;
    let mut out_n = 0usize;
    let mut switching_uw = 0.0;
    for (net_id, net) in netlist.nets() {
        if net.is_clock {
            continue;
        }
        let drives_macro = net
            .sinks
            .iter()
            .any(|p| netlist.cell(p.cell).class.is_macro());
        let driven_by_macro = net
            .driver
            .is_some_and(|p| netlist.cell(p.cell).class.is_macro());
        if !drives_macro && !driven_by_macro {
            continue;
        }
        let model = parasitics.net(net_id);
        let lat = model.wire_delay_ns * 1e3; // ps
        if drives_macro {
            in_sq += lat * lat;
            in_n += 1;
        }
        if driven_by_macro {
            out_sq += lat * lat;
            out_n += 1;
        }
        // Switching power of the net at a nominal 0.15 activity.
        let vdd = net
            .driver
            .map_or(0.9, |p| imp.stack.library(imp.tiers[p.cell.index()]).vdd);
        switching_uw += 0.5 * 0.15 * model.wire_cap_ff * vdd * vdd * imp.frequency_ghz;
    }
    let memory = MemoryReport {
        input_net_latency_ps: if in_n > 0 {
            (in_sq / in_n as f64).sqrt()
        } else {
            0.0
        },
        output_net_latency_ps: if out_n > 0 {
            (out_sq / out_n as f64).sqrt()
        } else {
            0.0
        },
        net_switching_power_uw: switching_uw,
        net_count: in_n + out_n,
    };

    // ---- clock network ----------------------------------------------------
    // The sign-off timing context, from what the implementation carries,
    // to extract the top critical paths for the skew and path blocks from
    // `imp.sta`.
    let ctx = TimingContext {
        netlist,
        stack: &imp.stack,
        tiers: &imp.tiers,
        parasitics,
        clock: imp.clock_spec(),
    };
    // The flow already signed off with this context (same netlist,
    // parasitics and clock constructor), so reuse its result instead of
    // re-running a full analyze.
    let paths = worst_paths(&ctx, &imp.sta, 100);

    let mut skew_sum = 0.0;
    let mut skew_n = 0usize;
    for p in &paths {
        if p.len() < 2 {
            continue;
        }
        let launch = p.stages[0].cell;
        let capture = p.stages[p.len() - 1].cell;
        skew_sum += imp.clock_tree.pair_skew_ns(launch, capture);
        skew_n += 1;
    }
    let clock = ClockReport {
        buffer_count: imp.clock_tree.buffer_count(),
        top_buffer_count: imp.clock_tree.buffer_count_on(Tier::Top),
        bottom_buffer_count: imp.clock_tree.buffer_count_on(Tier::Bottom),
        buffer_area_um2: imp.clock_tree.buffer_area_um2(&imp.stack),
        wirelength_mm: imp.clock_tree.wirelength_um * 1e-3,
        max_latency_ns: imp.clock_tree.max_latency_ns(),
        max_skew_ns: imp.clock_tree.max_skew_ns(),
        avg_skew_100_ns: if skew_n > 0 {
            skew_sum / skew_n as f64
        } else {
            0.0
        },
    };

    // ---- critical path -----------------------------------------------------
    let path = match paths.first() {
        Some(p) if p.len() >= 2 => {
            let launch = p.stages[0].cell;
            let capture = p.stages[p.len() - 1].cell;
            CriticalPathReport {
                clock_period_ns: 1.0 / imp.frequency_ghz,
                slack_ns: p.slack_ns,
                clock_skew_ns: imp.clock_tree.pair_skew_ns(launch, capture),
                path_delay_ns: p.cell_delay_ns + p.wire_delay_ns,
                wire_delay_ns: p.wire_delay_ns,
                cell_delay_ns: p.cell_delay_ns,
                total_cells: p.len(),
                mivs: p.miv_count(),
                top_cells: p.cells_on(Tier::Top),
                bottom_cells: p.cells_on(Tier::Bottom),
                top_cell_delay_ns: p.cell_delay_on(Tier::Top),
                bottom_cell_delay_ns: p.cell_delay_on(Tier::Bottom),
            }
        }
        _ => CriticalPathReport::default(),
    };

    DeepDive {
        memory,
        clock,
        path,
    }
}

/// Formats a set of deep dives side by side as the Table VIII layout.
#[must_use]
pub fn format_deep_dive(labels: &[&str], dives: &[&DeepDive]) -> String {
    use crate::tables::TextTable;
    let mut header: Vec<String> = vec!["Metric".into(), "Units".into()];
    header.extend(labels.iter().map(|s| (*s).to_string()));
    let mut t = TextTable::new(header);
    let row = |name: &str, unit: &str, get: &dyn Fn(&DeepDive) -> String| {
        let mut cells = vec![name.to_string(), unit.to_string()];
        cells.extend(dives.iter().map(|d| get(d)));
        cells
    };
    let f1 = |v: f64| format!("{v:.1}");
    let f2 = |v: f64| format!("{v:.2}");
    let f3 = |v: f64| format!("{v:.3}");
    t.row(row("Input Net Latency", "ps", &|d| {
        f1(d.memory.input_net_latency_ps)
    }));
    t.row(row("Output Net Latency", "ps", &|d| {
        f1(d.memory.output_net_latency_ps)
    }));
    t.row(row("Net Switching Power", "uW", &|d| {
        f2(d.memory.net_switching_power_uw)
    }));
    t.row(row("Buffer Count", "", &|d| {
        d.clock.buffer_count.to_string()
    }));
    t.row(row("Top Buffer Count", "", &|d| {
        d.clock.top_buffer_count.to_string()
    }));
    t.row(row("Bottom Buffer Count", "", &|d| {
        d.clock.bottom_buffer_count.to_string()
    }));
    t.row(row("Buffer Area", "um2", &|d| f1(d.clock.buffer_area_um2)));
    t.row(row("Clock WL", "mm", &|d| f3(d.clock.wirelength_mm)));
    t.row(row("Max Latency", "ns", &|d| f3(d.clock.max_latency_ns)));
    t.row(row("Max Skew", "ns", &|d| f3(d.clock.max_skew_ns)));
    t.row(row("100 Path Avg. Skew", "ns", &|d| {
        f3(d.clock.avg_skew_100_ns)
    }));
    t.row(row("Clock Period", "ns", &|d| f3(d.path.clock_period_ns)));
    t.row(row("Slack", "ns", &|d| f3(d.path.slack_ns)));
    t.row(row("Clock Skew", "ns", &|d| f3(d.path.clock_skew_ns)));
    t.row(row("Path Delay", "ns", &|d| f3(d.path.path_delay_ns)));
    t.row(row("Wire Delay", "ns", &|d| f3(d.path.wire_delay_ns)));
    t.row(row("Cell Delay", "ns", &|d| f3(d.path.cell_delay_ns)));
    t.row(row("Total Cells", "", &|d| d.path.total_cells.to_string()));
    t.row(row("# MIVs", "", &|d| d.path.mivs.to_string()));
    t.row(row("Top Cells", "", &|d| d.path.top_cells.to_string()));
    t.row(row("Top Cell Delay", "ns", &|d| {
        f3(d.path.top_cell_delay_ns)
    }));
    t.row(row("Avg. Top Delay", "ns", &|d| {
        f3(d.path.avg_top_delay_ns())
    }));
    t.row(row("Bottom Cells", "", &|d| {
        d.path.bottom_cells.to_string()
    }));
    t.row(row("Bottom Cell Delay", "ns", &|d| {
        f3(d.path.bottom_cell_delay_ns)
    }));
    t.row(row("Avg. Bottom Delay", "ns", &|d| {
        f3(d.path.avg_bottom_delay_ns())
    }));
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_flow::{Config, FlowOptions, FlowSession};

    #[test]
    fn deep_dive_on_cpu_populates_all_blocks() {
        let n = m3d_netgen::Benchmark::Cpu.generate(0.02, 51);
        let mut o = FlowOptions::default();
        o.placer_mut().iterations = 6;
        let imp = FlowSession::builder(&n)
            .options(o)
            .build()
            .and_then(|s| s.run(Config::Hetero3d, 1.0))
            .expect("flow");
        let dive = deep_dive(&imp);
        assert!(dive.memory.net_count > 0, "CPU has macro nets");
        assert!(dive.memory.input_net_latency_ps >= 0.0);
        assert!(dive.clock.buffer_count > 0);
        assert!(dive.path.total_cells >= 2);
        assert!(dive.path.path_delay_ns > 0.0);
        let text = format_deep_dive(&["Hetero 3D"], &[&dive]);
        assert!(text.contains("Buffer Count"));
        assert!(text.contains("Avg. Top Delay"));
    }

    #[test]
    fn hetero_critical_path_prefers_fast_tier() {
        // Table VIII's key observation: most critical-path cells sit on
        // the fast (bottom) tier, and the slow tier's average stage delay
        // is larger.
        let n = m3d_netgen::Benchmark::Cpu.generate(0.025, 51);
        let mut o = FlowOptions::default();
        o.placer_mut().iterations = 6;
        let imp = FlowSession::builder(&n)
            .options(o)
            .build()
            .and_then(|s| s.run(Config::Hetero3d, 1.3))
            .expect("flow");
        let dive = deep_dive(&imp);
        assert!(
            dive.path.bottom_cells >= dive.path.top_cells,
            "bottom {} vs top {}",
            dive.path.bottom_cells,
            dive.path.top_cells
        );
        if dive.path.top_cells > 2 && dive.path.bottom_cells > 2 {
            assert!(
                dive.path.avg_top_delay_ns() > dive.path.avg_bottom_delay_ns(),
                "slow tier avg {} vs fast {}",
                dive.path.avg_top_delay_ns(),
                dive.path.avg_bottom_delay_ns()
            );
        }
    }
}
