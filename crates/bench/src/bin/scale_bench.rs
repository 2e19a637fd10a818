//! The `--scale` throughput ladder: full hetero-3-D flow runs over the
//! synthetic scale family, emitting `results/BENCH_scale.json`.
//!
//! Each rung generates a scale-family netlist (100 k+ cells at the
//! default setting), builds the flat [`Topology`] view, and pushes the
//! design through the complete heterogeneous flow — partitioning,
//! placement, routing, CTS, sign-off STA and power — at one target
//! frequency. Per rung the manifest records:
//!
//! * **deterministic** metrics (cell/net/pin counts, name-arena bytes,
//!   sign-off WNS bits) that `bench_gate` diffs against the committed
//!   baseline exactly, and
//! * **throughput** metrics (`flow_cells_per_sec`, stage walls, peak
//!   heap) that `bench_gate` checks against absolute floors only — CI
//!   wall clocks are too noisy for relative comparisons.
//!
//! Usage: `scale_bench [--scale <f64>] [--seed <u64>] [--out <dir>]`.
//! `--scale` multiplies every rung's cell target; the default 1.0 ladder
//! is the committed baseline (and the CI setting), `--scale 5` pushes
//! the top rung to a million cells for local soak runs.

use hetero3d::flow::{try_run_flow, Config};
use hetero3d::netgen::scale_netlist;
use hetero3d::netlist::Topology;
use hetero3d::obs::alloc;
use std::fmt::Write as _;
use std::time::Instant;

#[global_allocator]
static ALLOC: hetero3d::obs::CountingAlloc = hetero3d::obs::CountingAlloc;

/// Rung cell targets at `--scale 1.0`. The smallest rung already clears
/// the 100 k-cell line the flat layouts are built for.
const BASE_RUNGS: [usize; 3] = [100_000, 160_000, 250_000];

/// Target clock for the ladder runs, GHz. Modest on purpose: the ladder
/// measures throughput, not achievable frequency, and a relaxed target
/// keeps the sizing loop from dominating the wall clock.
const LADDER_GHZ: f64 = 0.5;

fn main() {
    let mut args = m3d_bench::parse_args();
    if !std::env::args().any(|a| a == "--scale") {
        args.scale = 1.0;
    }
    let options = m3d_bench::bench_options();

    let mut rungs_json = Vec::new();
    for base in BASE_RUNGS {
        let target = ((base as f64 * args.scale).round() as usize).max(5_000);
        let name = format!("scale{}k", target / 1000);
        println!("== {name}: target {target} cells ==");
        alloc::reset_peak();

        let t0 = Instant::now();
        let netlist = scale_netlist(target, args.seed);
        let gen_s = t0.elapsed().as_secs_f64();
        let (cells, nets) = (netlist.cell_count(), netlist.net_count());
        let pins = netlist.stats().pins;

        let t1 = Instant::now();
        let topo = Topology::build(&netlist);
        let topo_s = t1.elapsed().as_secs_f64();
        let arena_bytes = topo.name_arena_bytes();
        drop(topo);

        let t2 = Instant::now();
        let imp =
            try_run_flow(&netlist, Config::Hetero3d, LADDER_GHZ, &options).expect("ladder flow");
        let flow_s = t2.elapsed().as_secs_f64();
        let throughput = cells as f64 / flow_s;
        let peak = alloc::peak_bytes();
        println!(
            "   {cells} cells, {nets} nets | gen {gen_s:.2}s topo {topo_s:.3}s \
             flow {flow_s:.2}s ({throughput:.0} cells/s) | peak {:.1} MiB | wns {:.4} ns",
            peak as f64 / (1024.0 * 1024.0),
            imp.sta.wns
        );

        let mut r = String::from("    {\n");
        let _ = writeln!(r, "      \"name\": \"{name}\",");
        let _ = writeln!(r, "      \"target_cells\": {target},");
        let _ = writeln!(r, "      \"cells\": {cells},");
        let _ = writeln!(r, "      \"nets\": {nets},");
        let _ = writeln!(r, "      \"pins\": {pins},");
        let _ = writeln!(r, "      \"arena_bytes\": {arena_bytes},");
        let _ = writeln!(r, "      \"wns_ns\": {:.6},", imp.sta.wns);
        let _ = writeln!(r, "      \"gen_s\": {gen_s:.3},");
        let _ = writeln!(r, "      \"topo_s\": {topo_s:.4},");
        let _ = writeln!(r, "      \"flow_s\": {flow_s:.3},");
        let _ = writeln!(r, "      \"flow_cells_per_sec\": {throughput:.1},");
        let _ = writeln!(r, "      \"peak_heap_bytes\": {peak}");
        r.push_str("    }");
        rungs_json.push(r);
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"scale\",");
    let _ = writeln!(
        json,
        "  \"scale\": {}, \"seed\": {}, \"threads\": {},",
        args.scale,
        args.seed,
        hetero3d::par::resolve(0)
    );
    let _ = writeln!(json, "  \"frequency_ghz\": {LADDER_GHZ},");
    let _ = writeln!(json, "  \"rungs\": [");
    json.push_str(&rungs_json.join(",\n"));
    json.push_str("\n  ]\n}\n");
    m3d_bench::emit(&args, "BENCH_scale.json", &json);
    let manifest = m3d_bench::json::parse(&json).expect("the manifest just written parses");
    println!(
        "README \"Running at scale\" table:\n{}",
        m3d_bench::scale_table_markdown(&manifest)
    );
}
