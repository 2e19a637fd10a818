//! A flow costs what its design holds. With [`CountingAlloc`] as this
//! binary's global allocator, the heap one cold Hetero3d flow
//! (`prepare_base → pseudo_checkpoint → run_from_base`) needs on top of
//! its input netlist is measurable to the byte, and two properties are
//! pinned:
//!
//! * **bounded and flat per cell** — the flow's heap high-water over its
//!   entry heap stays under a per-cell bound at 20 k and 100 k cells, and
//!   the two readings agree within 10 %, so no stage holds more than the
//!   design's size calls for (three copies of a timing result, say);
//! * **exactly sized route plans** — the transient heap of
//!   [`global_route`] on the signed-off design stays under a bound per
//!   routed net;
//! * **a kept prefix holds what later stages read** — the bytes one more
//!   pre-sizing prefix leaves resident in a [`FlowSession`] stay under a
//!   per-cell bound, which a prefix that still kept its per-net routes
//!   exceeds.
//!
//! Each bound sits a little above the reading the layout gives today,
//! on one thread, where the allocation sequence is fixed. One test
//! function only: the counters are process-global, so a second test
//! running on another harness thread would pollute the readings.

use hetero3d::flow::{
    prepare_base, pseudo_checkpoint, run_from_base, Config, FlowOptions, FlowSession,
};
use hetero3d::netgen::scale_netlist;
use hetero3d::obs::{alloc, CountingAlloc};
use hetero3d::route::global_route;
use hetero3d::tech::StackingStyle;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Per-cell bound on a cold flow's heap high-water over its entry heap.
/// Reading: 247.0 B/cell at 20 k cells and 232.6 at 100 k (281.4 and
/// 265.9 while the layout kept its per-net routes, each clock copied the
/// tree's latencies and route plans stored endpoint positions; 369.1
/// and 353.5 while the timer handed out copies of its result and the
/// route plans grew by doubling).
const FLOW_BYTES_PER_CELL: f64 = 250.0;
/// Per-net bound on `global_route`'s transient heap. Reading: 87.9 B/net
/// at 20 k cells and 84.9 at 100 k (135.4 and 132.8 with tree edges as
/// endpoint positions, 176.1 and 165.2 with doubling growth).
const ROUTE_BYTES_PER_NET: f64 = 90.0;
/// Per-cell bound on the bytes one kept prefix leaves resident in a
/// session. Reading: 57.2 B/cell at 20 k cells (73.2 while a layout kept
/// its per-net routes).
const PREFIX_BYTES_PER_CELL: f64 = 60.0;

struct Reading {
    cells: usize,
    flow_per_cell: f64,
    route_per_net: f64,
}

/// One cold Hetero3d flow on a `target`-cell netlist at `ghz`, then one
/// more `global_route` of its signed-off design.
fn cold_flow(target: usize, ghz: f64) -> Reading {
    let netlist = scale_netlist(target, 7);
    let options = FlowOptions {
        threads: 1,
        ..FlowOptions::default()
    };
    let entry = alloc::current_bytes();
    alloc::reset_peak();
    let base = prepare_base(&netlist, &options).expect("prepare_base");
    let pseudo = pseudo_checkpoint(&base, &options).expect("pseudo_checkpoint");
    let imp = run_from_base(&base, Some(&pseudo), Config::Hetero3d, ghz, &options)
        .expect("run_from_base");
    let flow_peak = alloc::peak_bytes() - entry;

    let routed = imp
        .netlist
        .nets()
        .filter(|(_, net)| !net.is_clock && net.degree() >= 2)
        .count();
    let before = alloc::current_bytes();
    alloc::reset_peak();
    let routing = global_route(
        &imp.netlist,
        &imp.placement,
        &imp.tiers,
        &imp.stack,
        &options.route,
    );
    let route_peak = alloc::peak_bytes() - before;
    drop(routing);

    let cells = netlist.cell_count();
    Reading {
        cells,
        flow_per_cell: flow_peak as f64 / cells as f64,
        route_per_net: route_peak as f64 / routed as f64,
    }
}

/// The bytes one more kept prefix leaves resident in a session, per
/// cell. A Hetero3d run at a second frequency forks the first run's
/// prefix; the same configuration under the other stacking style, bound
/// to the session, builds and keeps a second one off the pseudo-3-D
/// checkpoint the first run left. Each run's implementation is dropped.
fn kept_prefix_per_cell(target: usize, ghz: [f64; 2]) -> (usize, f64) {
    let netlist = scale_netlist(target, 7);
    let options = FlowOptions {
        threads: 1,
        ..FlowOptions::default()
    };
    let session = FlowSession::builder(&netlist)
        .options(options.clone())
        .build()
        .expect("session");
    drop(session.run(Config::Hetero3d, ghz[0]).expect("first run"));
    assert_eq!(session.take_prefix_counts(), (1, 0));
    drop(
        session
            .run(Config::Hetero3d, ghz[1])
            .expect("second frequency"),
    );
    assert_eq!(
        session.take_prefix_counts(),
        (0, 1),
        "a second frequency forks the prefix"
    );
    // The default style is monolithic.
    let mut other = options;
    other.tech.stacking = StackingStyle::F2fHybridBond;
    let bound = session
        .bind(&other)
        .expect("stacking is read behind the checkpoint");
    let before = alloc::current_bytes();
    drop(
        bound
            .run(Config::Hetero3d, ghz[0])
            .expect("other stacking style"),
    );
    let kept = alloc::current_bytes() - before;
    assert_eq!(session.take_prefix_counts(), (1, 0), "a prefix of its own");
    let cells = netlist.cell_count();
    (cells, kept as f64 / cells as f64)
}

#[test]
fn a_flow_costs_what_its_design_holds() {
    hetero3d::par::set_threads(1);
    let readings = [cold_flow(20_000, 0.2), cold_flow(100_000, 0.11)];
    for r in &readings {
        eprintln!(
            "{} cells: flow high-water {:.1} B/cell over entry, route transient {:.1} B/net",
            r.cells, r.flow_per_cell, r.route_per_net
        );
        assert!(
            r.flow_per_cell <= FLOW_BYTES_PER_CELL,
            "{} cells: flow high-water {:.1} B/cell exceeds {FLOW_BYTES_PER_CELL}",
            r.cells,
            r.flow_per_cell
        );
        assert!(
            r.route_per_net <= ROUTE_BYTES_PER_NET,
            "{} cells: route transient {:.1} B/net exceeds {ROUTE_BYTES_PER_NET}",
            r.cells,
            r.route_per_net
        );
    }
    let [small, large] = &readings;
    assert!(
        (large.flow_per_cell - small.flow_per_cell).abs() <= 0.10 * small.flow_per_cell,
        "flow high-water per cell drifts with size: {:.1} at 20k vs {:.1} at 100k",
        small.flow_per_cell,
        large.flow_per_cell
    );
    let (cells, prefix) = kept_prefix_per_cell(20_000, [0.2, 0.25]);
    eprintln!("{cells} cells: one kept prefix {prefix:.1} B/cell resident");
    assert!(
        prefix <= PREFIX_BYTES_PER_CELL,
        "{cells} cells: one kept prefix holds {prefix:.1} B/cell, over {PREFIX_BYTES_PER_CELL}"
    );
}
