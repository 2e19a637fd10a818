//! Cross-crate integration tests: Verilog round-trips through the full
//! flow, determinism of complete implementations, and consistency between
//! independently computed quantities (MIVs vs cut size, clock sinks vs
//! registers, power vs frequency).

use hetero3d::flow::{Config, FlowOptions, FlowSession, Implementation};
use hetero3d::netgen::Benchmark;
use hetero3d::netlist::{verilog, Netlist};
use hetero3d::partition::cut_size;
use hetero3d::tech::Tier;

fn options() -> FlowOptions {
    let mut o = FlowOptions::default();
    o.placer_mut().iterations = 6;
    o
}

fn run_flow(n: &Netlist, c: Config, f: f64, o: &FlowOptions) -> Implementation {
    FlowSession::builder(n)
        .options(o.clone())
        .build()
        .and_then(|s| s.run(c, f))
        .expect("flow succeeds on a valid netlist")
}

#[test]
fn verilog_round_trip_flows_identically() {
    let original = Benchmark::Aes.generate(0.02, 90);
    let text = verilog::write(&original);
    let parsed = verilog::parse(&text).expect("round trip parses");
    assert_eq!(parsed.gate_count(), original.gate_count());
    assert_eq!(parsed.net_count(), original.net_count());

    // Same flow outcome modulo cell ordering: compare scalar metrics.
    let o = options();
    let a = run_flow(&original, Config::TwoD12T, 1.0, &o);
    let b = run_flow(&parsed, Config::TwoD12T, 1.0, &o);
    assert_eq!(a.netlist.gate_count(), b.netlist.gate_count());
    assert!((a.floorplan.die.area() - b.floorplan.die.area()).abs() < 1.0);
}

#[test]
fn full_flow_is_deterministic() {
    let n = Benchmark::Ldpc.generate(0.015, 91);
    let o = options();
    let a = run_flow(&n, Config::Hetero3d, 1.3, &o);
    let b = run_flow(&n, Config::Hetero3d, 1.3, &o);
    assert_eq!(a.sta.wns, b.sta.wns);
    assert_eq!(a.routing.total_wirelength_um, b.routing.total_wirelength_um);
    assert_eq!(a.power.total_mw(), b.power.total_mw());
    assert_eq!(a.tiers, b.tiers);
}

#[test]
fn mivs_track_cut_size() {
    // The router's MIV count equals one per tier-spanning MST edge, so it
    // is at least the cut size (every cut net crosses at least once).
    let n = Benchmark::Netcard.generate(0.02, 92);
    let imp = run_flow(&n, Config::ThreeD12T, 1.0, &options());
    let cut = cut_size(&imp.netlist, &imp.tiers);
    assert!(
        imp.routing.total_mivs >= cut,
        "MIVs {} must cover the cut {}",
        imp.routing.total_mivs,
        cut
    );
    assert!(
        imp.routing.total_mivs < cut * 4 + 10,
        "MIVs {} should stay within a small multiple of the cut {}",
        imp.routing.total_mivs,
        cut
    );
}

#[test]
fn every_register_gets_clock_latency() {
    let n = Benchmark::Cpu.generate(0.015, 93);
    let imp = run_flow(&n, Config::Hetero3d, 1.0, &options());
    for id in imp.netlist.sequential_cells() {
        assert!(
            imp.clock_tree.sink_latency[id.index()] > 0.0,
            "register {:?} missing clock latency",
            imp.netlist.cell_name(id)
        );
    }
}

#[test]
fn power_scales_with_frequency_through_the_flow() {
    let n = Benchmark::Aes.generate(0.02, 94);
    let o = options();
    let slow = run_flow(&n, Config::TwoD12T, 0.5, &o);
    let fast = run_flow(&n, Config::TwoD12T, 1.0, &o);
    assert!(
        fast.power.total_mw() > 1.5 * slow.power.total_mw(),
        "power {} @1GHz vs {} @0.5GHz",
        fast.power.total_mw(),
        slow.power.total_mw()
    );
}

#[test]
fn all_cells_stay_inside_the_die() {
    let n = Benchmark::Netcard.generate(0.02, 95);
    let imp = run_flow(&n, Config::Hetero3d, 1.0, &options());
    let die = imp.floorplan.die.inflated(1.0);
    for (id, cell) in imp.netlist.cells() {
        if cell.class.is_gate() {
            let p = imp.placement.positions[id.index()];
            assert!(
                die.contains(p),
                "cell {} at {p} escaped the die",
                imp.netlist.cell_name(id)
            );
        }
    }
}

#[test]
fn ports_and_macros_stay_on_bottom_tier() {
    let n = Benchmark::Cpu.generate(0.015, 96);
    let imp = run_flow(&n, Config::Hetero3d, 1.0, &options());
    for (id, cell) in imp.netlist.cells() {
        if cell.class.is_port() || cell.class.is_macro() {
            assert_eq!(
                imp.tiers[id.index()],
                Tier::Bottom,
                "{} should be on the bottom tier",
                imp.netlist.cell_name(id)
            );
        }
    }
}

#[test]
fn two_d_configs_use_single_tier() {
    let n = Benchmark::Aes.generate(0.015, 97);
    for config in [Config::TwoD9T, Config::TwoD12T] {
        let imp = run_flow(&n, config, 1.0, &options());
        assert!(imp.tiers.iter().all(|t| *t == Tier::Bottom));
        assert_eq!(imp.routing.total_mivs, 0);
    }
}
