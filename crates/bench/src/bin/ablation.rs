//! Ablation study of the heterogeneous flow's design choices: each of the
//! three Hetero-Pin-3-D enhancements toggled independently, plus a sweep
//! of the timing-partitioning area cap (the paper's 20–30 % guidance).

use hetero3d::flow::{Config, FlowOptions, FlowSession};
use hetero3d::netgen::Benchmark;
use m3d_bench::{bench_options, emit, parse_args, TABLE_SCALE};
use std::fmt::Write as _;

fn main() {
    let args = parse_args(TABLE_SCALE);
    let options = bench_options();
    let netlist = Benchmark::Cpu.generate(args.scale, args.seed);
    eprintln!("[cpu: {} gates]", netlist.gate_count());
    // Every variant is a binding of one session: they differ only behind
    // the pseudo-3-D checkpoint, which is computed once.
    let session = FlowSession::builder(&netlist)
        .options(options.clone())
        .build()
        .expect("valid netlist");
    let (fmax, _) = session.fmax(Config::TwoD12T, 1.0).expect("fmax sweep");
    let frequency = (fmax * 1.1 * 100.0).round() / 100.0;
    eprintln!("[ablating at {frequency:.2} GHz]");
    let run = |o: &FlowOptions| {
        let variant = session.bind(o).expect("a variant shares the checkpoints");
        variant.run(Config::Hetero3d, frequency).expect("flow")
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: Hetero-Pin-3D enhancements on cpu @ {frequency:.2} GHz\n"
    );
    let _ = writeln!(
        out,
        "{:<34} {:>8} {:>8} {:>9} {:>7}",
        "variant", "WNS ns", "pwr mW", "WL mm", "MIVs"
    );
    let _ = writeln!(out, "{}", "-".repeat(70));

    let variants: Vec<(&str, FlowOptions)> = vec![
        (
            "none (Pin-3D baseline)",
            FlowOptions {
                enable_timing_partition: false,
                enable_3d_cts: false,
                enable_repartition: false,
                ..options.clone()
            },
        ),
        (
            "+ timing partitioning",
            FlowOptions {
                enable_timing_partition: true,
                enable_3d_cts: false,
                enable_repartition: false,
                ..options.clone()
            },
        ),
        (
            "+ 3-D (COVER) CTS",
            FlowOptions {
                enable_timing_partition: false,
                enable_3d_cts: true,
                enable_repartition: false,
                ..options.clone()
            },
        ),
        (
            "+ repartitioning ECO",
            FlowOptions {
                enable_timing_partition: false,
                enable_3d_cts: false,
                enable_repartition: true,
                ..options.clone()
            },
        ),
        ("all three (Hetero-Pin-3D)", options.clone()),
    ];
    for (name, o) in &variants {
        let imp = run(o);
        let _ = writeln!(
            out,
            "{:<34} {:>8.3} {:>8.3} {:>9.2} {:>7}",
            name,
            imp.sta.wns,
            imp.power.total_mw(),
            imp.routing.total_wirelength_mm(),
            imp.routing.total_mivs
        );
    }

    let _ = writeln!(out, "\nTiming-partition area cap sweep (paper: 20-30 %):\n");
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>9} {:>9}",
        "cap", "WNS ns", "pwr mW", "WL mm", "locked"
    );
    let _ = writeln!(out, "{}", "-".repeat(48));
    for cap in [0.0, 0.1, 0.2, 0.28, 0.4, 0.6] {
        let o = FlowOptions {
            timing_partition_cap: cap,
            ..options.clone()
        };
        let imp = run(&o);
        let locked = imp
            .timing_assignment
            .as_ref()
            .map_or(0, |a| a.locked_cells.len());
        let _ = writeln!(
            out,
            "{:<10.2} {:>8.3} {:>8.3} {:>9.2} {:>9}",
            cap,
            imp.sta.wns,
            imp.power.total_mw(),
            imp.routing.total_wirelength_mm(),
            locked
        );
    }
    let _ = writeln!(
        out,
        "\n(expected: each enhancement individually improves WNS; the cap sweep\n shows diminishing returns past the paper's 20-30 % band as locked\n clusters start fighting the bin-balanced placement)"
    );
    emit(&args, "ablation.txt", &out);
}
