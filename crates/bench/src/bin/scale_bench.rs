//! The `--scale` throughput ladder: full hetero-3-D flow runs over the
//! synthetic scale family, emitting `results/BENCH_scale.json`.
//!
//! Each rung generates a scale-family netlist (100 k+ cells at the
//! default setting) and pushes the design through the complete
//! heterogeneous flow — partitioning,
//! placement, routing, CTS, sign-off STA and power — at one target
//! frequency. Per rung the manifest records:
//!
//! * in `deterministic`, the cell/net/pin counts, name-arena bytes and
//!   sign-off WNS that `bench_gate` diffs against the committed baseline
//!   exactly, and
//! * in `perf`, the generation and flow walls, `flow_cells_per_sec` and
//!   peak heap, which no gate reads — CI wall clocks are too noisy.
//!
//! Usage: `scale_bench [--scale <f64>] [--seed <u64>] [--out <dir>]`.
//! `--scale` multiplies every rung's cell target; the default 1.0 ladder
//! is the committed baseline (and the CI setting), `--scale 5` pushes
//! the top rung to a million cells for local soak runs.

use hetero3d::flow::{try_run_flow, Config};
use hetero3d::netgen::scale_netlist;
use hetero3d::obs::alloc;
use m3d_json::Obj;
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
    let args = m3d_bench::parse_args(1.0);
    let options = m3d_bench::bench_options();

    let (mut deterministic, mut perf) = (Vec::new(), Vec::new());
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
        let arena_bytes = netlist.name_arena_bytes();

        let t1 = Instant::now();
        let imp =
            try_run_flow(&netlist, Config::Hetero3d, LADDER_GHZ, &options).expect("ladder flow");
        let flow_s = t1.elapsed().as_secs_f64();
        let throughput = cells as f64 / flow_s;
        let peak = alloc::peak_bytes();
        println!(
            "   {cells} cells, {nets} nets | gen {gen_s:.2}s \
             flow {flow_s:.2}s ({throughput:.0} cells/s) | peak {:.1} MiB | wns {:.4} ns",
            peak as f64 / (1024.0 * 1024.0),
            imp.sta.wns
        );

        deterministic.push(
            Obj::new()
                .put("name", name.clone())
                .put("target_cells", target)
                .put("cells", cells)
                .put("nets", nets)
                .put("pins", pins)
                .put("arena_bytes", arena_bytes)
                .put("wns_ns", imp.sta.wns)
                .build(),
        );
        perf.push(
            Obj::new()
                .put("name", name)
                .put("gen_s", gen_s)
                .put("flow_s", flow_s)
                .put("flow_cells_per_sec", throughput)
                .put("peak_heap_bytes", peak)
                .build(),
        );
    }

    let manifest = m3d_bench::write_manifest(
        &args,
        "scale",
        [
            ("frequency_ghz", LADDER_GHZ.into()),
            ("rungs", deterministic.into()),
        ],
        [("rungs", perf.into())],
    );
    println!(
        "README \"Running at scale\" table:\n{}",
        m3d_bench::scale_table_markdown(&manifest)
    );
}
