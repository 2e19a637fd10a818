//! Regenerates Table V: the CPU design through the unmodified Pin-3-D flow
//! (min-cut partitioning only, tier-blind clock tree, no repartitioning)
//! versus the enhanced Hetero-Pin-3-D flow, at the same frequency.

use hetero3d::cost::CostModel;
use hetero3d::flow::{pin3d_baseline_comparison, try_find_fmax, Config};
use hetero3d::netgen::Benchmark;
use hetero3d::report::format_table5;
use m3d_bench::{bench_options, emit, parse_args, TABLE_SCALE};
use std::fmt::Write as _;

fn main() {
    let args = parse_args(TABLE_SCALE);
    let options = bench_options();
    let netlist = Benchmark::Cpu.generate(args.scale, args.seed);
    // The paper captured Table V at the CPU's iso-performance target,
    // where the unmodified flow misses timing badly; stretch the measured
    // 12T-2D fmax by 10 % to land in the same regime on the scaled design.
    let (fmax, _) = try_find_fmax(&netlist, Config::TwoD12T, &options, 1.0).expect("fmax sweep");
    let frequency = (fmax * 1.1 * 100.0).round() / 100.0;
    eprintln!("[12T-2D fmax {fmax:.2} GHz -> Table V target {frequency:.2} GHz]");
    let cmp = pin3d_baseline_comparison(&netlist, frequency, &options, &CostModel::default())
        .expect("Table V flows");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table V: Pin-3D baseline vs Hetero-Pin-3D (cpu, {} gates, {} GHz)\n",
        netlist.gate_count(),
        frequency
    );
    out.push_str(&format_table5(&cmp));
    let _ = writeln!(
        out,
        "\n(paper reference @1.2 GHz: WNS -0.489 -> -0.060 ns, power 224.1 -> 198.8 mW,\n WL ~unchanged; the enhanced flow recovers WNS and cuts power)"
    );
    emit(&args, "table5.txt", &out);
}
