//! Per-span allocation with the counting allocator installed. It is a
//! process-wide setting, so this file stays a binary of its own.

use m3d_obs::{alloc, CountingAlloc, Obs};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_span_books_what_it_allocated_and_how_far_the_peak_rose() {
    const MIB: usize = 1 << 20;
    let obs = Obs::enabled();
    alloc::reset_peak();
    {
        let stage = obs.span("stage");
        {
            let _inner = stage.child("grow");
            let block = vec![1u8; 4 * MIB];
            std::hint::black_box(&block);
        }
        // Below the high-water the child set: allocates, raises nothing.
        let small = vec![1u8; MIB];
        std::hint::black_box(&small);
    }
    let m = obs.manifest();
    let perf = |key: &str| m.perf(key).unwrap_or_else(|| panic!("{key} booked"));
    let mib = MIB as u64;
    assert!(perf("stage/grow/alloc_bytes") >= 4 * mib);
    assert!(perf("stage/grow/heap_rise_bytes") >= 4 * mib);
    assert!(perf("stage/alloc_bytes") >= 5 * mib);
    let after_child = perf("stage/heap_rise_bytes") - perf("stage/grow/heap_rise_bytes");
    assert!(
        after_child < mib,
        "the parent rose {after_child} B past its child"
    );
    assert!(!m.deterministic_json().render().contains("alloc"));
}
