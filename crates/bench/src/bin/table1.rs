//! Regenerates Table I: the qualitative 1–5 ranking of the five
//! configurations on frequency / power / power-per-frequency / footprint /
//! silicon area / die cost — here derived from *measured* implementations
//! rather than asserted a priori.

use hetero3d::cost::CostModel;
use hetero3d::flow::try_compare_configs;
use hetero3d::netgen::Benchmark;
use hetero3d::report::qualitative_ranking;
use m3d_bench::{bench_options, emit, parse_args, TABLE_SCALE};
use std::fmt::Write as _;

fn main() {
    let args = parse_args(TABLE_SCALE);
    let options = bench_options();
    let cost = CostModel::default();
    // Rank on the netcard design (the paper's Table I is design-generic;
    // netcard is the largest and least quirky of the four).
    let netlist = Benchmark::Netcard.generate(args.scale, args.seed);
    eprintln!("[netcard: {} gates]", netlist.gate_count());
    let cmp = try_compare_configs(&netlist, &options, &cost)
        .expect("comparison")
        .summary;
    let mut all = cmp.homogeneous.clone();
    all.push(cmp.hetero.clone());
    let table = qualitative_ranking(&all);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table I: measured qualitative ranking (1 = worst, 5 = best), netcard @ {:.2} GHz\n",
        cmp.target_ghz
    );
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\n(paper's expected ranks: Frequency 1/2/3/5/- with hetero 4; Power 4/5/1/2\n with hetero 3; Power/Freq hetero best at 5; Si Area 9T best; Die Cost 3D worst)"
    );
    emit(&args, "table1.txt", &out);
}
