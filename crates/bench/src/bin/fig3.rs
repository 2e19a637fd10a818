//! Regenerates Fig. 3: placement layouts of the CPU design in 9-track 2-D,
//! 12-track 2-D and heterogeneous 3-D (both tiers, visibly different cell
//! heights), as SVG files.

use hetero3d::flow::{try_run_flow, Config};
use hetero3d::netgen::Benchmark;
use hetero3d::report::{render_layout, LayerChoice};
use m3d_bench::{bench_options, emit, parse_args, TABLE_SCALE};

fn main() {
    let args = parse_args(TABLE_SCALE);
    let options = bench_options();
    let netlist = Benchmark::Cpu.generate(args.scale, args.seed);
    eprintln!("[cpu: {} gates]", netlist.gate_count());
    let frequency = 1.0;

    let imp_9t = try_run_flow(&netlist, Config::TwoD9T, frequency, &options).expect("flow");
    emit(
        &args,
        "fig3a_2d_9track.svg",
        &render_layout(&imp_9t, LayerChoice::Bottom, "(a) 2D 9-track cpu"),
    );
    let imp_12t = try_run_flow(&netlist, Config::TwoD12T, frequency, &options).expect("flow");
    emit(
        &args,
        "fig3b_2d_12track.svg",
        &render_layout(&imp_12t, LayerChoice::Bottom, "(b) 2D 12-track cpu"),
    );
    let imp_h = try_run_flow(&netlist, Config::Hetero3d, frequency, &options).expect("flow");
    emit(
        &args,
        "fig3c_hetero_both.svg",
        &render_layout(&imp_h, LayerChoice::Both, "(c) hetero 3D cpu (both tiers)"),
    );
    emit(
        &args,
        "fig3c_hetero_bottom.svg",
        &render_layout(
            &imp_h,
            LayerChoice::Bottom,
            "(c) hetero 3D cpu (12T bottom)",
        ),
    );
    emit(
        &args,
        "fig3c_hetero_top.svg",
        &render_layout(&imp_h, LayerChoice::Top, "(c) hetero 3D cpu (9T top)"),
    );
}
