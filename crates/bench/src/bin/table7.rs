//! Regenerates Table VII: percent deltas of the heterogeneous 3-D design
//! against all four homogeneous configurations, per benchmark. Negative
//! values (positive for PPC) mean the heterogeneous design wins.

use hetero3d::cost::CostModel;
use hetero3d::flow::try_compare_configs;
use hetero3d::netgen::Benchmark;
use hetero3d::report::format_table7;
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
    let _ = writeln!(
        out,
        "Table VII: PPAC percentage delta = (hetero - config)/config x 100\n"
    );
    out.push_str(&format_table7(&refs));
    let _ = writeln!(
        out,
        "(paper headline shapes: hetero PPC beats every homogeneous config;\n PDP beats the best 2-D; Si area ~-12.5% vs 12-track configs)"
    );
    emit(&args, "table7.txt", &out);
}
