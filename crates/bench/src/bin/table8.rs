//! Regenerates Table VIII: clock-network, critical-path and memory-
//! interconnect deep dives of the CPU design in three implementations —
//! best 2-D (12-track), best homogeneous 3-D (12-track), heterogeneous 3-D.
//!
//! Note: the paper's column header says "9-track 2D" but its Section IV-C
//! text describes the *best 2-D implementation (12-track)*; we emit both
//! 2-D flavors so either reading can be checked.

use hetero3d::cost::CostModel;
use hetero3d::flow::{try_find_fmax, try_run_flow, Config};
use hetero3d::netgen::Benchmark;
use hetero3d::report::{deep_dive, format_deep_dive};
use m3d_bench::{bench_options, emit, parse_args, TABLE_SCALE};
use std::fmt::Write as _;

fn main() {
    let args = parse_args(TABLE_SCALE);
    let options = bench_options();
    let netlist = Benchmark::Cpu.generate(args.scale, args.seed);
    eprintln!("[cpu: {} gates]", netlist.gate_count());
    let (target, base) =
        try_find_fmax(&netlist, Config::TwoD12T, &options, 1.0).expect("fmax sweep");
    eprintln!("[12T-2D fmax {target:.2} GHz]");

    let imp_9t2d = try_run_flow(&netlist, Config::TwoD9T, target, &options).expect("flow");
    let imp_12t3d = try_run_flow(&netlist, Config::ThreeD12T, target, &options).expect("flow");
    let imp_hetero = try_run_flow(&netlist, Config::Hetero3d, target, &options).expect("flow");
    let _ = base.ppac(&CostModel::default());

    let dives = [
        deep_dive(&base),
        deep_dive(&imp_9t2d),
        deep_dive(&imp_12t3d),
        deep_dive(&imp_hetero),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table VIII: clock / critical path / memory interconnect (cpu @ {target:.2} GHz)\n"
    );
    out.push_str(&format_deep_dive(
        &["12T 2D", "9T 2D", "12T 3D", "Hetero 3D"],
        &[&dives[0], &dives[1], &dives[2], &dives[3]],
    ));
    let _ = writeln!(
        out,
        "\n(paper shapes: hetero clock is top-tier-heavy with smaller buffer area but\n larger max latency/skew; critical path has few top-tier cells whose average\n stage delay is ~2x the bottom tier's; memory net latency smallest in hetero)"
    );
    emit(&args, "table8.txt", &out);
}
