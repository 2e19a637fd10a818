//! Regenerates Fig. 4: clock-tree / memory-net / critical-path overlays of
//! the CPU design in 2-D and heterogeneous 3-D, as SVG files.

use hetero3d::flow::{try_run_flow, Config};
use hetero3d::netgen::Benchmark;
use hetero3d::report::render_overlays;
use m3d_bench::{bench_options, emit, parse_args, TABLE_SCALE};

fn main() {
    let args = parse_args(TABLE_SCALE);
    let options = bench_options();
    let netlist = Benchmark::Cpu.generate(args.scale, args.seed);
    eprintln!("[cpu: {} gates]", netlist.gate_count());
    let frequency = 1.0;

    let imp_2d = try_run_flow(&netlist, Config::TwoD12T, frequency, &options).expect("flow");
    emit(
        &args,
        "fig4_2d_overlays.svg",
        &render_overlays(
            &imp_2d,
            "2D 12-track: clock (green), memory nets, critical path (red)",
        ),
    );
    let imp_h = try_run_flow(&netlist, Config::Hetero3d, frequency, &options).expect("flow");
    emit(
        &args,
        "fig4_hetero_overlays.svg",
        &render_overlays(
            &imp_h,
            "hetero 3D: clock (green), memory nets, critical path (red)",
        ),
    );
}
