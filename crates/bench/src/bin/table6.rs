//! Regenerates Table VI: raw PPAC of the heterogeneous 3-D implementation
//! for all four benchmark netlists at each design's iso-performance target
//! (the 12-track 2-D fmax).

use hetero3d::cost::CostModel;
use hetero3d::flow::try_compare_configs;
use hetero3d::netgen::Benchmark;
use hetero3d::report::format_comparison;
use m3d_bench::{bench_options, emit, parse_args, TABLE_SCALE};
use std::fmt::Write as _;

fn main() {
    let args = parse_args(TABLE_SCALE);
    let options = bench_options();
    let cost = CostModel::default();
    let mut comparisons = Vec::new();
    for bench in Benchmark::ALL {
        let netlist = bench.generate(args.scale, args.seed);
        eprintln!("[{bench}: {} gates]", netlist.gate_count());
        comparisons.push(
            try_compare_configs(&netlist, &options, &cost)
                .expect("comparison")
                .summary,
        );
    }
    let refs: Vec<&_> = comparisons.iter().collect();
    let mut out = String::new();
    let _ = writeln!(out, "Table VI: PPAC of the 3D heterogeneous designs\n");
    out.push_str(&format_comparison(&refs));
    let _ = writeln!(
        out,
        "\n(absolute values are simulator-scale, not foundry-scale; compare shapes:\n every design meets its 12T-2D fmax with small-negative or positive WNS)"
    );
    emit(&args, "table6.txt", &out);
}
