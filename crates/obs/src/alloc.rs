//! Opt-in counting allocator for peak-memory telemetry.
//!
//! Data-layout work (string arenas, CSR connectivity, flat gain lists)
//! is ultimately about bytes, so the benchmark binaries need a way to
//! *measure* bytes: install [`CountingAlloc`] as the process global
//! allocator and read [`peak_bytes`] / [`current_bytes`] around the
//! region of interest.
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: m3d_obs::CountingAlloc = m3d_obs::CountingAlloc;
//! ```
//!
//! The counters are process-global and scheduling-dependent (allocator
//! traffic moves with thread interleaving), so readings belong in the
//! **performance-only** half of a manifest ([`crate::Obs::perf_add`]),
//! never in the deterministic section. Library code must not install the
//! allocator — that choice belongs to the binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static TOTAL: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that tracks live, peak and cumulative
/// allocated bytes. Zero-cost readings; a few atomic ops per allocation.
pub struct CountingAlloc;

impl CountingAlloc {
    fn on_alloc(size: usize) {
        let size = size as u64;
        TOTAL.fetch_add(size, Ordering::Relaxed);
        let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
        // Lock-free peak update: racing threads settle on the max.
        let mut peak = PEAK.load(Ordering::Relaxed);
        while now > peak {
            match PEAK.compare_exchange_weak(peak, now, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
    }

    fn on_dealloc(size: usize) {
        CURRENT.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: `GlobalAlloc`'s contract is `System`'s, forwarded unchanged:
// every method passes its caller's pointer, layout and size straight to
// the `System` method of the same name and returns what that returned, so
// a block is always freed or resized by the allocator that produced it,
// with the layout it was produced for. The bookkeeping around the calls
// is relaxed atomic arithmetic on statics — it cannot allocate, unwind or
// touch the block.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        p
    }
}

/// Live heap bytes right now (0 unless [`CountingAlloc`] is installed).
#[must_use]
pub fn current_bytes() -> u64 {
    CURRENT.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes since process start (or the last
/// [`reset_peak`]).
#[must_use]
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Cumulative bytes ever allocated — allocation *churn*, the number the
/// scratch-buffer work drives down even when the peak stays flat.
#[must_use]
pub fn total_allocated_bytes() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Restarts the peak tracker from the current live size, so per-phase
/// peaks can be measured in sequence.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    // The test binary does not install the allocator, so the counters
    // stay at zero — which is itself the documented behavior.
    #[test]
    fn readings_without_installation_are_zero() {
        assert_eq!(super::current_bytes(), 0);
        assert_eq!(super::peak_bytes(), 0);
        assert_eq!(super::total_allocated_bytes(), 0);
    }
}
