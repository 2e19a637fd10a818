//! Integration tests of the paper's headline claims — the "shape targets"
//! of DESIGN.md §5 — on reduced-scale netlists. These span every crate in
//! the workspace: netgen → place → partition → route → cts → sta → power
//! → cost → flow.

use hetero3d::cost::CostModel;
use hetero3d::flow::{ComparisonSummary, Config, FlowOptions, FlowSession, Implementation};
use hetero3d::netgen::Benchmark;
use hetero3d::netlist::Netlist;
use hetero3d::tech::Tier;

fn options() -> FlowOptions {
    let mut o = FlowOptions::default();
    o.placer_mut().iterations = 8;
    o
}

fn run_flow(n: &Netlist, c: Config, f: f64, o: &FlowOptions) -> Implementation {
    FlowSession::builder(n)
        .options(o.clone())
        .build()
        .and_then(|s| s.run(c, f))
        .expect("flow succeeds on a valid netlist")
}

fn compare_configs(n: &Netlist, o: &FlowOptions, cost: &CostModel) -> ComparisonSummary {
    FlowSession::builder(n)
        .options(o.clone())
        .build()
        .and_then(|s| s.compare(cost))
        .expect("comparison succeeds on a valid netlist")
        .summary
}

#[test]
fn hetero_meets_iso_performance_target() {
    // Shape 1: the heterogeneous design closes (or nearly closes) timing
    // at the 12-track 2-D fmax.
    let n = Benchmark::Aes.generate(0.03, 77);
    let cmp = compare_configs(&n, &options(), &CostModel::default());
    assert!(
        cmp.hetero.wns_ns >= -0.07 / cmp.target_ghz,
        "hetero WNS {} at {} GHz violates the 7% criterion",
        cmp.hetero.wns_ns,
        cmp.target_ghz
    );
}

#[test]
fn hetero_beats_homogeneous_3d_on_ppc_and_si() {
    // Shapes 2 and 5 against the strongest 3-D baseline (12-track 3-D).
    let n = Benchmark::Netcard.generate(0.03, 77);
    let cmp = compare_configs(&n, &options(), &CostModel::default());
    let vs_12t3d = cmp
        .deltas
        .iter()
        .find(|d| d.config == Config::ThreeD12T)
        .expect("delta row exists");
    assert!(
        vs_12t3d.ppc > 0.0,
        "hetero should beat 12T-3D on PPC, got {:+.1}%",
        vs_12t3d.ppc
    );
    assert!(
        vs_12t3d.si_area < 0.0,
        "hetero should use less silicon than 12T-3D, got {:+.1}%",
        vs_12t3d.si_area
    );
    assert!(
        vs_12t3d.total_power < 0.0,
        "hetero should use less power than 12T-3D, got {:+.1}%",
        vs_12t3d.total_power
    );
}

#[test]
fn hetero_beats_best_2d_on_pdp() {
    // Shape 3: PDP better than the best 2-D (12-track).
    let n = Benchmark::Netcard.generate(0.03, 78);
    let cmp = compare_configs(&n, &options(), &CostModel::default());
    let vs_2d12 = cmp
        .deltas
        .iter()
        .find(|d| d.config == Config::TwoD12T)
        .expect("delta row exists");
    assert!(
        vs_2d12.pdp < 0.0,
        "hetero PDP should beat 12T-2D, got {:+.1}%",
        vs_2d12.pdp
    );
}

#[test]
fn three_d_reduces_wirelength_vs_2d() {
    // Shape 6: 3-D wirelength is well below 2-D for the non-macro designs.
    let n = Benchmark::Ldpc.generate(0.025, 79);
    let o = options();
    let wl_2d = run_flow(&n, Config::TwoD12T, 1.2, &o)
        .routing
        .total_wirelength_um;
    let wl_3d = run_flow(&n, Config::ThreeD12T, 1.2, &o)
        .routing
        .total_wirelength_um;
    assert!(
        wl_3d < 0.9 * wl_2d,
        "3-D WL {wl_3d} should be well under 2-D {wl_2d}"
    );
}

#[test]
fn nine_track_configs_are_slowest() {
    // Shape 4: at an aggressive target, 9-track timing is worst; 12-track
    // 3-D is best.
    let n = Benchmark::Cpu.generate(0.02, 80);
    let o = options();
    let f = 1.8;
    let wns_9t2d = run_flow(&n, Config::TwoD9T, f, &o).sta.wns;
    let wns_12t2d = run_flow(&n, Config::TwoD12T, f, &o).sta.wns;
    let wns_12t3d = run_flow(&n, Config::ThreeD12T, f, &o).sta.wns;
    assert!(wns_9t2d < wns_12t2d, "9T {wns_9t2d} vs 12T {wns_12t2d}");
    // 12T-3D stays within ~10 % of the period of 12T-2D (the CPU's fixed
    // macros constrain the halved 3-D footprint more than the 2-D one, so
    // exact parity is not expected at this scale).
    assert!(
        wns_12t3d >= wns_12t2d - 0.1 / f,
        "12T-3D {wns_12t3d} should be competitive with 12T-2D {wns_12t2d}"
    );
}

#[test]
fn hetero_clock_tree_is_top_tier_heavy() {
    // Shape 9: most clock buffers follow the registers to the slow top
    // tier in the heterogeneous design.
    let n = Benchmark::Netcard.generate(0.03, 81);
    let imp = run_flow(&n, Config::Hetero3d, 1.0, &options());
    let top = imp.clock_tree.buffer_count_on(Tier::Top);
    let bottom = imp.clock_tree.buffer_count_on(Tier::Bottom);
    assert!(
        top > bottom,
        "expected top-heavy hetero clock, got top {top} bottom {bottom}"
    );
}

#[test]
fn no_level_shifters_in_hetero_flow() {
    // Shape: with the paper's 0.90/0.81 V pairing, no level shifters are
    // ever instantiated by the flow.
    let n = Benchmark::Aes.generate(0.02, 82);
    let imp = run_flow(&n, Config::Hetero3d, 1.0, &options());
    let shifters = imp
        .netlist
        .cells()
        .filter(|(_, c)| c.class.gate_kind() == Some(hetero3d::tech::CellKind::LevelShifter))
        .count();
    assert_eq!(shifters, 0);
    // And the library pair passes the compatibility check.
    let check = hetero3d::tech::BoundaryCheck::check(
        imp.stack.library(Tier::Bottom),
        imp.stack.library(Tier::Top),
    );
    assert!(check.compatible());
}

#[test]
fn repartitioning_improves_or_preserves_wns() {
    // Shape 8 (Table V direction): the enhanced flow's WNS is no worse
    // than the baseline's at a stressed frequency.
    let n = Benchmark::Cpu.generate(0.015, 83);
    let o = options();
    let baseline = FlowOptions {
        enable_timing_partition: false,
        enable_3d_cts: false,
        enable_repartition: false,
        ..o.clone()
    };
    let f = 1.6;
    let base = run_flow(&n, Config::Hetero3d, f, &baseline);
    let enhanced = run_flow(&n, Config::Hetero3d, f, &o);
    assert!(
        enhanced.sta.wns >= base.sta.wns - 1e-9,
        "enhanced {} vs baseline {}",
        enhanced.sta.wns,
        base.sta.wns
    );
}
