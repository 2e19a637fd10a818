//! A netlist costs what it holds. With [`CountingAlloc`] as this
//! binary's global allocator, plus a count of the bytes the measuring
//! thread itself holds, the live heap a netlist owns is measurable to the
//! byte, and three properties of the flat layout are pinned:
//!
//! * **no construction slack** — a generated netlist holds within 5 % of
//!   the bytes its clone holds once the original is gone (a clone sizes
//!   every table exactly, so any gap is capacity the generator left);
//! * **flat per cell** — bytes per cell at 20 k and 100 k cells agree
//!   within 5 %, so nothing grows faster than the design;
//! * **compact** — at most 150 bytes per cell.
//!
//! The levelization memo ([`hetero3d::netlist::Netlist::levels`]) is held
//! to the same standard: at most 64 bytes per cell, flat from 20 k to
//! 100 k cells, and freed with the last netlist sharing it (no `Arc`
//! cycle keeps it alive).
//!
//! Every reading is the measuring thread's own: generation, cloning and
//! levelization run on the calling thread, while the test harness's main
//! thread books the running test (its running-test map and timeout queue,
//! 900 B) after spawning it, which lands inside a process-wide window
//! whenever the machine is busy enough to run the test thread first.

use hetero3d::netgen::scale_netlist;
use hetero3d::obs::CountingAlloc;
use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated minus bytes freed by this thread. Constant-
    /// initialised and without a destructor, so reading it from inside
    /// the allocator never allocates.
    static OWN_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// [`CountingAlloc`] that also books each block on the thread that
/// allocates or frees it.
struct PerThread;

impl PerThread {
    fn book(delta: i64) {
        let _ = OWN_BYTES.try_with(|b| b.set(b.get() + delta));
    }
}

// SAFETY: every method forwards its arguments unchanged to
// `CountingAlloc` (itself a `System` forwarder) and returns its result;
// the bookkeeping is arithmetic on a plain thread-local cell.
unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = CountingAlloc.alloc(layout);
        if !p.is_null() {
            Self::book(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAlloc.dealloc(ptr, layout);
        Self::book(-(layout.size() as i64));
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = CountingAlloc.alloc_zeroed(layout);
        if !p.is_null() {
            Self::book(layout.size() as i64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = CountingAlloc.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::book(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

#[global_allocator]
static ALLOC: PerThread = PerThread;

/// Bytes this thread has allocated minus bytes it has freed (negative
/// when it has freed more than it allocated, e.g. a block the harness
/// handed it); differences across a window are what it holds.
fn own_bytes() -> i64 {
    OWN_BYTES.with(Cell::get)
}

/// Live bytes of a generated netlist and of its clone, each measured on
/// its own (the clone after the original is dropped), and of the
/// levelization memo the clone then builds.
fn generated_cloned_and_memo(target: usize) -> (usize, f64, f64, f64) {
    let base = own_bytes();
    let netlist = scale_netlist(target, 7);
    let generated = own_bytes() - base;
    let clone = netlist.clone();
    let cells = netlist.cell_count();
    drop(netlist);
    let cloned = own_bytes() - base;
    let levels = clone.levels();
    let memo = own_bytes() - base - cloned;
    let sharer = clone.clone();
    drop((clone, levels, sharer));
    assert_eq!(
        own_bytes(),
        base,
        "{cells} cells: the last netlist sharing the memo frees it"
    );
    (cells, generated as f64, cloned as f64, memo as f64)
}

#[test]
fn a_netlist_costs_what_it_holds() {
    let (mut per_cell, mut memo_per_cell) = (Vec::new(), Vec::new());
    for target in [20_000, 100_000] {
        let (cells, generated, cloned, memo) = generated_cloned_and_memo(target);
        let (gen_b, clone_b) = (generated / cells as f64, cloned / cells as f64);
        let memo_b = memo / cells as f64;
        eprintln!(
            "{cells} cells: generated {gen_b:.1} B/cell, cloned {clone_b:.1} B/cell, \
             levelization {memo_b:.1} B/cell"
        );
        assert!(
            memo_b <= 64.0,
            "{cells} cells: levelization {memo_b:.1} B/cell exceeds 64"
        );
        memo_per_cell.push(memo_b);
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
    for (what, v) in [("netlist", &per_cell), ("levelization", &memo_per_cell)] {
        let (small, large) = (v[0], v[1]);
        assert!(
            (large - small).abs() <= 0.05 * small,
            "{what} bytes per cell drift with size: {small:.1} at 20k vs {large:.1} at 100k"
        );
    }
}
