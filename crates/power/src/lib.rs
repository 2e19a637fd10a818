//! Power analysis: activity propagation, switching/internal/leakage power
//! and clock-network power.
//!
//! Mirrors the paper's methodology ("fixed input activity factors and
//! statistical switching propagation"): primary inputs get a fixed toggle
//! rate, signal probabilities propagate through each gate's boolean
//! function, and per-net switching power uses the driver tier's supply —
//! which is where the heterogeneous design wins (nets driven from the
//! 0.81 V tier burn ~19 % less `CV²` energy than at 0.90 V, and 9-track
//! pins are smaller loads).
//!
//! Probabilities propagate in the level-major order of the netlist's
//! levelization memo ([`Netlist::levels`]) — the one every timer on the
//! structure reads — so a power pass does no ordering work of its own.
//! Any topological order gives the same bits: each gate reads only its
//! inputs' values and writes only its own output net's.
//!
//! # Examples
//!
//! ```
//! use m3d_netgen::Benchmark;
//! use m3d_power::{analyze_power, PowerConfig};
//! use m3d_sta::Parasitics;
//! use m3d_tech::{Library, Tier, TierStack};
//!
//! let netlist = Benchmark::Aes.generate(0.02, 1);
//! let stack = TierStack::two_d(Library::twelve_track());
//! let tiers = vec![Tier::Bottom; netlist.cell_count()];
//! let parasitics = Parasitics::zero_wire(&netlist);
//! let p = analyze_power(&netlist, &stack, &tiers, &parasitics, None, &PowerConfig::default());
//! assert!(p.total_mw() > 0.0);
//! ```

use m3d_cts::ClockTree;
use m3d_netlist::{CellClass, Netlist, NO_NET};
use m3d_sta::Parasitics;
use m3d_tech::{CellKind, Tier, TierStack};

/// Power-analysis parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// Toggle rate at primary inputs, transitions per cycle.
    pub input_activity: f64,
    /// Clock frequency, GHz.
    pub frequency_ghz: f64,
    /// Signal one-probability assumed at primary inputs.
    pub input_probability: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            input_activity: 0.15,
            frequency_ghz: 1.0,
            input_probability: 0.5,
        }
    }
}

/// Power breakdown in mW.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerResult {
    /// Net switching power (wire + pin capacitance), mW.
    pub switching_mw: f64,
    /// Cell-internal power, mW.
    pub internal_mw: f64,
    /// Leakage power, mW.
    pub leakage_mw: f64,
    /// Clock network power (buffers, wire, sink pins), mW.
    pub clock_mw: f64,
}

impl PowerResult {
    /// Total power, mW.
    #[must_use]
    pub fn total_mw(&self) -> f64 {
        self.switching_mw + self.internal_mw + self.leakage_mw + self.clock_mw
    }
}

/// Runs the full power analysis.
///
/// `clock_tree` adds clock-network power when present (post-CTS analyses);
/// pre-CTS calls pass `None`.
#[must_use]
pub fn analyze_power(
    netlist: &Netlist,
    stack: &TierStack,
    tiers: &[Tier],
    parasitics: &Parasitics,
    clock_tree: Option<&ClockTree>,
    config: &PowerConfig,
) -> PowerResult {
    let f = config.frequency_ghz;
    let n_nets = netlist.net_count();

    // --- signal probability & activity propagation -----------------------
    let mut prob = vec![config.input_probability; n_nets];
    let mut activity = vec![config.input_activity; n_nets];
    // Launch points: register/macro outputs toggle with data-like activity.
    for (id, cell) in netlist.cells() {
        if cell.is_sequential() || cell.class.is_macro() {
            for net in netlist.output_nets(id) {
                prob[net.index()] = 0.5;
                activity[net.index()] = config.input_activity;
            }
        }
    }
    for &id in netlist.levels().order() {
        let Some(kind) = netlist.cell(id).class.gate_kind() else {
            continue;
        };
        let inputs = &netlist.cell_inputs(id)[..kind.input_count()];
        // No library kind has more than three inputs.
        let mut in_probs = [0.0; 3];
        for (p, &raw) in in_probs.iter_mut().zip(inputs) {
            *p = if raw == NO_NET {
                0.5
            } else {
                prob[raw as usize]
            };
        }
        let in_act: f64 = inputs
            .iter()
            .map(|&raw| {
                if raw == NO_NET {
                    0.0
                } else {
                    activity[raw as usize]
                }
            })
            .sum::<f64>()
            / kind.input_count().max(1) as f64;
        if let Some(out) = netlist.output_net(id, 0) {
            let p = kind.output_probability(&in_probs[..inputs.len()]);
            prob[out.index()] = p;
            // Statistical propagation: transition density scaled by output
            // uncertainty (2p(1-p) = 1 at p=0.5, 0 at constant outputs).
            activity[out.index()] = in_act * (4.0 * p * (1.0 - p)).clamp(0.05, 1.0) * 0.9;
        }
    }

    // --- switching power --------------------------------------------------
    let mut switching_uw = 0.0;
    for (net_id, net) in netlist.nets() {
        if net.is_clock {
            continue;
        }
        let Some(driver) = net.driver else { continue };
        let vdd = stack.library(tiers[driver.cell.index()]).vdd;
        // Load: wire + sink pins (in their own tiers' libraries).
        let mut cap = parasitics.net(net_id).wire_cap_ff;
        for sink in &net.sinks {
            let c = netlist.cell(sink.cell);
            cap += match &c.class {
                CellClass::Gate { kind, drive } => stack
                    .library(tiers[sink.cell.index()])
                    .cell(*kind, *drive)
                    .map_or(0.0, |m| m.input_cap_ff),
                CellClass::Macro(spec) => spec.input_cap_ff,
                _ => 2.0,
            };
        }
        // 0.5 · α · C · V² · f ; fF · V² · GHz = µW.
        switching_uw += 0.5 * activity[net_id.index()] * cap * vdd * vdd * f;
    }

    // --- internal & leakage -----------------------------------------------
    let mut internal_uw = 0.0;
    let mut leakage_uw = 0.0;
    for (id, cell) in netlist.cells() {
        match &cell.class {
            CellClass::Gate { kind, drive } => {
                if kind.is_clock_cell() {
                    continue; // accounted in clock power
                }
                let lib = stack.library(tiers[id.index()]);
                if let Some(m) = lib.cell(*kind, *drive) {
                    leakage_uw += m.leakage_uw;
                    let act = netlist
                        .output_net(id, 0)
                        .map_or(config.input_activity, |net| activity[net.index()]);
                    // Sequential cells switch internally every clock.
                    let act = if kind.is_sequential() {
                        act.max(0.3)
                    } else {
                        act
                    };
                    internal_uw += act * m.internal_energy_fj * f;
                }
            }
            CellClass::Macro(spec) => {
                leakage_uw += spec.leakage_uw;
                internal_uw += 0.5 * spec.internal_energy_fj * f;
            }
            _ => {}
        }
    }

    // --- clock network ------------------------------------------------------
    let clock_uw = clock_tree.map_or(0.0, |tree| {
        // The clock toggles twice per cycle: E = C·V² per cycle.
        let mut uw = tree.switched_cap_ff * stack.vdd_high() * stack.vdd_high() * f;
        for node in &tree.nodes {
            let lib = stack.library(node.tier);
            if let Some(m) = lib.cell(CellKind::ClkBuf, node.drive) {
                uw += m.leakage_uw + m.internal_energy_fj * f; // α = 1
            }
        }
        uw
    });

    PowerResult {
        switching_mw: switching_uw * 1e-3,
        internal_mw: internal_uw * 1e-3,
        leakage_mw: leakage_uw * 1e-3,
        clock_mw: clock_uw * 1e-3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_tech::Library;

    fn run(stack: &TierStack, tiers: &[Tier], f: f64) -> PowerResult {
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 6);
        assert_eq!(tiers.len(), n.cell_count());
        let parasitics = Parasitics::zero_wire(&n);
        analyze_power(
            &n,
            stack,
            tiers,
            &parasitics,
            None,
            &PowerConfig {
                frequency_ghz: f,
                ..Default::default()
            },
        )
    }

    fn cell_count() -> usize {
        m3d_netgen::Benchmark::Aes.generate(0.02, 6).cell_count()
    }

    /// Kahn's FIFO pops gates in nondecreasing level — a gate is
    /// released by its deepest driver — so the memo's level-major order
    /// is the Kahn order itself, and a power pass over it reproduces the
    /// Kahn-ordered pass by bits.
    #[test]
    fn the_level_order_is_the_kahn_order() {
        for bench in m3d_netgen::Benchmark::ALL {
            for scale in [0.02, 0.05] {
                let n = bench.generate(scale, 3);
                let kahn = n
                    .combinational_order()
                    .expect("generated designs are acyclic");
                assert_eq!(n.levels().order(), &kahn[..], "{bench:?} @ {scale}");
            }
        }
    }

    #[test]
    fn power_scales_with_frequency() {
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; cell_count()];
        let p1 = run(&stack, &tiers, 1.0);
        let p2 = run(&stack, &tiers, 2.0);
        assert!(p2.switching_mw > 1.9 * p1.switching_mw);
        assert!(p2.internal_mw > 1.9 * p1.internal_mw);
        // Leakage is frequency independent.
        assert!((p2.leakage_mw - p1.leakage_mw).abs() < 1e-9);
    }

    #[test]
    fn nine_track_is_lower_power() {
        let fast = TierStack::two_d(Library::twelve_track());
        let slow = TierStack::two_d(Library::nine_track());
        let tiers = vec![Tier::Bottom; cell_count()];
        let pf = run(&fast, &tiers, 1.0);
        let ps = run(&slow, &tiers, 1.0);
        assert!(ps.total_mw() < pf.total_mw());
        assert!(ps.leakage_mw < 0.2 * pf.leakage_mw, "high-Vt leakage win");
    }

    #[test]
    fn hetero_sits_between_homogeneous_extremes() {
        let hetero = TierStack::heterogeneous();
        let n_cells = cell_count();
        let all_fast = vec![Tier::Bottom; n_cells];
        let all_slow = vec![Tier::Top; n_cells];
        let mut half = vec![Tier::Bottom; n_cells];
        for (i, t) in half.iter_mut().enumerate() {
            if i % 2 == 0 {
                *t = Tier::Top;
            }
        }
        let pf = run(&hetero, &all_fast, 1.0);
        let ps = run(&hetero, &all_slow, 1.0);
        let pm = run(&hetero, &half, 1.0);
        assert!(pf.total_mw() > pm.total_mw());
        assert!(pm.total_mw() > ps.total_mw());
    }

    #[test]
    fn wire_cap_adds_switching_power() {
        let n = m3d_netgen::Benchmark::Aes.generate(0.02, 6);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let zero = Parasitics::zero_wire(&n);
        let mut wired = Parasitics::zero_wire(&n);
        for id in n.net_ids() {
            wired.net_mut(id).wire_cap_ff = 10.0;
        }
        let p0 = analyze_power(&n, &stack, &tiers, &zero, None, &PowerConfig::default());
        let p1 = analyze_power(&n, &stack, &tiers, &wired, None, &PowerConfig::default());
        assert!(p1.switching_mw > 1.5 * p0.switching_mw);
        assert_eq!(p1.leakage_mw, p0.leakage_mw);
    }

    #[test]
    fn clock_tree_adds_clock_power() {
        let n = m3d_netgen::Benchmark::Netcard.generate(0.02, 6);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let fp = m3d_place::Floorplan::new(&n, &stack, &tiers, 0.7);
        let placement = m3d_place::global_place(&n, &fp, &m3d_place::PlacerConfig::default());
        let tree = m3d_cts::synthesize(
            &n,
            &placement,
            &tiers,
            &stack,
            m3d_cts::CtsMode::Flat2d,
            &m3d_cts::CtsConfig::default(),
        );
        let parasitics = Parasitics::zero_wire(&n);
        let without = analyze_power(
            &n,
            &stack,
            &tiers,
            &parasitics,
            None,
            &PowerConfig::default(),
        );
        let with = analyze_power(
            &n,
            &stack,
            &tiers,
            &parasitics,
            Some(&tree),
            &PowerConfig::default(),
        );
        assert_eq!(without.clock_mw, 0.0);
        assert!(with.clock_mw > 0.0);
        assert!(with.total_mw() > without.total_mw());
    }

    #[test]
    fn activity_decays_through_and_gates() {
        // A chain of AND gates with p=0.5 inputs drives probability toward
        // 0 and activity down with it.
        use m3d_tech::{CellKind, Drive};
        let mut n = Netlist::new("ands");
        let a = n.add_input("a");
        let mut prev = n.add_net("na", a, 0);
        let b = n.add_input("b");
        let mut side = n.add_net("nb", b, 0);
        for i in 0..6 {
            let g = n.add_gate(format!("g{i}"), CellKind::And2, Drive::X1, 0);
            n.connect(prev, g, 0);
            n.connect(side, g, 1);
            let out = n.add_net(format!("n{i}"), g, 0);
            side = prev;
            prev = out;
        }
        let y = n.add_output("y");
        n.connect(prev, y, 0);
        let stack = TierStack::two_d(Library::twelve_track());
        let tiers = vec![Tier::Bottom; n.cell_count()];
        let parasitics = Parasitics::zero_wire(&n);
        let p = analyze_power(
            &n,
            &stack,
            &tiers,
            &parasitics,
            None,
            &PowerConfig::default(),
        );
        // Just a sanity check that the analysis runs and is small but
        // positive for this tiny design.
        assert!(p.total_mw() > 0.0);
        assert!(p.switching_mw < 1.0);
    }
}
