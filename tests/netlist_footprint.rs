//! A netlist costs what it holds. With [`CountingAlloc`] as this
//! binary's global allocator, the live heap a netlist owns is measurable
//! to the byte, and three properties of the flat layout are pinned:
//!
//! * **no construction slack** — a generated netlist holds within 5 % of
//!   the bytes its clone holds once the original is gone (a clone sizes
//!   every table exactly, so any gap is capacity the generator left);
//! * **flat per cell** — bytes per cell at 20 k and 100 k cells agree
//!   within 5 %, so nothing grows faster than the design;
//! * **compact** — at most 150 bytes per cell.
//!
//! One test function only: the counters are process-global, so a second
//! test running on another harness thread would pollute the readings.

use hetero3d::netgen::scale_netlist;
use hetero3d::obs::{alloc, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Live bytes of a generated netlist and of its clone, each measured on
/// its own (the clone after the original is dropped).
fn generated_and_cloned(target: usize) -> (usize, f64, f64) {
    let base = alloc::current_bytes();
    let netlist = scale_netlist(target, 7);
    let generated = alloc::current_bytes() - base;
    let clone = netlist.clone();
    let cells = netlist.cell_count();
    drop(netlist);
    let cloned = alloc::current_bytes() - base;
    drop(clone);
    (cells, generated as f64, cloned as f64)
}

#[test]
fn a_netlist_costs_what_it_holds() {
    let mut per_cell = Vec::new();
    for target in [20_000, 100_000] {
        let (cells, generated, cloned) = generated_and_cloned(target);
        let (gen_b, clone_b) = (generated / cells as f64, cloned / cells as f64);
        eprintln!("{cells} cells: generated {gen_b:.1} B/cell, cloned {clone_b:.1} B/cell");
        assert!(
            (generated - cloned).abs() <= 0.05 * cloned,
            "{cells} cells: generated {gen_b:.1} B/cell vs clone {clone_b:.1}: construction slack"
        );
        assert!(
            gen_b <= 150.0 && clone_b <= 150.0,
            "{cells} cells: {gen_b:.1} / {clone_b:.1} B/cell exceeds 150"
        );
        per_cell.push(gen_b);
    }
    let (small, large) = (per_cell[0], per_cell[1]);
    assert!(
        (large - small).abs() <= 0.05 * small,
        "bytes per cell drift with size: {small:.1} at 20k vs {large:.1} at 100k"
    );
}
