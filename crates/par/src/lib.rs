//! # m3d-par — deterministic parallelism for the hetero3d flow
//!
//! Every primitive here is **deterministic by construction**: the result
//! of a call is a pure function of its inputs and never of the thread
//! count. Two rules enforce this:
//!
//! 1. **Fixed decomposition** — work is split into chunks whose boundaries
//!    depend only on the input length (never on how many workers exist).
//!    Threads race to *claim* chunks, but each chunk's computation sees
//!    exactly the data it would see sequentially.
//! 2. **Ordered merge** — per-chunk results are combined in chunk-index
//!    order. Floating-point reductions therefore perform bit-identical
//!    operation sequences at any thread count, including `threads = 1`,
//!    which executes the same chunked algorithm on the calling thread.
//!
//! Thread-count resolution: an explicit per-call count wins; `0` falls
//! back to the process-global setting ([`set_threads`]), which itself
//! falls back to the `HETERO3D_THREADS` environment variable and finally
//! to the machine's available parallelism. Because results are
//! thread-count-invariant, the global is only a *performance* knob — no
//! correctness hazard exists if two flows race on it.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the automatic thread count.
pub const THREADS_ENV: &str = "HETERO3D_THREADS";

/// Sentinel meaning "no explicit global override".
const UNSET: usize = usize::MAX;

static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(UNSET);

/// Work below this many items is not worth spawning threads for.
pub const PAR_THRESHOLD: usize = 2048;

/// Upper bound on the number of chunks a bulk operation is split into.
/// Fixed (never derived from the worker count) so decomposition — and
/// with it every ordered merge — is identical at any thread count.
const MAX_CHUNKS: usize = 128;

/// The automatic thread count: `HETERO3D_THREADS` if set and positive,
/// otherwise the machine's available parallelism.
#[must_use]
pub fn available() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sets the process-global thread count. `0` restores automatic
/// resolution ([`available`]).
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(if n == 0 { UNSET } else { n }, Ordering::SeqCst);
}

/// The resolved global thread count.
#[must_use]
pub fn threads() -> usize {
    match GLOBAL_THREADS.load(Ordering::SeqCst) {
        UNSET => available(),
        n => n,
    }
}

/// Resolves a per-call thread request: explicit counts win, `0` defers to
/// the global setting.
#[must_use]
pub fn resolve(requested: usize) -> usize {
    if requested == 0 {
        threads()
    } else {
        requested
    }
}

/// Splits `len` items into at most `max_chunks` contiguous ranges of
/// near-equal size. Boundaries depend only on `len` and `max_chunks`.
fn chunk_bounds(len: usize, max_chunks: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let n = max_chunks.clamp(1, len);
    let base = len / n;
    let extra = len % n;
    let mut bounds = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < extra);
        bounds.push(start..start + size);
        start += size;
    }
    bounds
}

/// The fixed decomposition of `len` items: `len.min(MAX_CHUNKS)`
/// contiguous ranges, whatever the worker count. A sequential fold that
/// must reproduce a chunk-ordered merge walks these ranges.
#[must_use]
pub fn chunks(len: usize) -> Vec<Range<usize>> {
    chunk_bounds(len, MAX_CHUNKS)
}

/// Applies `f` to fixed index ranges covering `0..len` and returns the
/// per-chunk results **in chunk order**.
///
/// The chunking is [`chunks`]`(len)` regardless of `threads`, so a caller
/// folding the returned vector performs the same merge sequence at any
/// thread count. `threads` only controls how many workers race to claim
/// chunks ([`par_invoke`]); `threads <= 1` (after [`resolve`]) runs the
/// same chunks sequentially on the calling thread.
pub fn par_ranges<R, F>(threads: usize, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let f = &f;
    let jobs = chunks(len)
        .into_iter()
        .map(|range| move || f(range))
        .collect();
    par_invoke(threads, jobs)
}

/// Deterministic parallel in-place update: `f(i, &mut items[i])` for
/// every index, over disjoint `&mut` chunks with [`par_ranges`]'s fixed
/// decomposition, claimed through [`par_invoke`]. A repeated bulk pass
/// fills its standing buffer this way instead of collecting a fresh
/// design-sized `Vec` per chunk: it allocates nothing per item. Each call
/// sees only its own item, so the result equals a sequential `iter_mut`
/// loop at any thread count.
pub fn par_fill<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let f = &f;
    let mut jobs = Vec::new();
    let mut rest = items;
    for range in chunks(rest.len()) {
        let (chunk, tail) = rest.split_at_mut(range.len());
        rest = tail;
        jobs.push(move || {
            for (k, item) in chunk.iter_mut().enumerate() {
                f(range.start + k, item);
            }
        });
    }
    par_invoke(threads, jobs);
}

/// Runs independent thunks concurrently, returning their results in call
/// order: the one scheduler. Workers claim the next unclaimed thunk from
/// a shared counter, so each runs once; `threads <= 1` (after
/// [`resolve`]) runs them in order on the calling thread. Besides the
/// chunks of [`par_ranges`] and [`par_fill`], it carries the flow's
/// coarse fan-out: one thunk per configuration of a comparison, one per
/// walk of a grid wave, one per die of a 3-D legalization. (The fmax
/// ladder's rungs are not fanned out: they run one at a time, so the
/// sweep can stop at the first that meets timing.)
pub fn par_invoke<R, F>(threads: usize, thunks: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    let workers = resolve(threads).min(thunks.len().max(1));
    if workers <= 1 || thunks.len() <= 1 {
        return thunks.into_iter().map(|f| f()).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..thunks.len()).map(|_| Mutex::new(None)).collect();
    let tasks: Vec<Mutex<Option<F>>> = thunks.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let next = AtomicUsize::new(0);
    let slots_ref = &slots;
    let tasks_ref = &tasks;
    let next_ref = &next;
    std::thread::scope(|scope| {
        let work = move || loop {
            let i = next_ref.fetch_add(1, Ordering::Relaxed);
            if i >= tasks_ref.len() {
                break;
            }
            let task = tasks_ref[i]
                .lock()
                .expect("task slot poisoned")
                .take()
                .expect("each task claimed once");
            let r = task();
            *slots_ref[i].lock().expect("result slot poisoned") = Some(r);
        };
        for _ in 1..workers {
            scope.spawn(work);
        }
        // The calling thread is worker zero.
        work();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every task ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_cover_exactly_once() {
        for len in [0usize, 1, 7, 128, 129, 1000, 12345] {
            let bounds = chunk_bounds(len, MAX_CHUNKS);
            let mut covered = 0;
            for (i, r) in bounds.iter().enumerate() {
                assert_eq!(r.start, covered, "chunk {i} starts where {} ended", covered);
                assert!(!r.is_empty());
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn chunk_bounds_ignore_thread_count_by_design() {
        // Decomposition is a function of len only — the core determinism
        // invariant. (Compile-time enforced by the signature; this guards
        // against someone threading worker counts into it later.)
        let a = chunk_bounds(1000, MAX_CHUNKS);
        let b = chunk_bounds(1000, MAX_CHUNKS);
        assert_eq!(a, b);
    }

    #[test]
    fn float_reduction_is_bit_identical_across_thread_counts() {
        // Pathological float data: summation order matters a lot here, so
        // this fails loudly if chunk boundaries ever become thread-count
        // dependent.
        let items: Vec<f64> = (0..50_000)
            .map(|i| (i as f64 * 0.1).sin() * 10f64.powi((i % 17) - 8))
            .collect();
        let reduce = |threads: usize| -> f64 {
            par_ranges(threads, items.len(), |r| r.map(|i| items[i]).sum::<f64>())
                .into_iter()
                .sum()
        };
        let base = reduce(1);
        for t in [2, 3, 4, 8, 16] {
            assert_eq!(reduce(t).to_bits(), base.to_bits(), "threads = {t}");
        }
    }

    #[test]
    fn par_invoke_preserves_call_order() {
        let thunks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..9usize)
            .map(|i| {
                Box::new(move || {
                    // Stagger so completion order differs from call order.
                    std::thread::sleep(std::time::Duration::from_millis(9 - i as u64));
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let out = par_invoke(4, thunks);
        assert_eq!(out, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn resolve_and_global_setting_interact() {
        set_threads(3);
        assert_eq!(resolve(0), 3);
        assert_eq!(resolve(5), 5);
        set_threads(0);
        assert!(resolve(0) >= 1);
    }

    #[test]
    fn par_fill_matches_a_sequential_loop() {
        let seq: Vec<usize> = (0..5000).map(|i| i * 3 + 1).collect();
        for t in [1, 2, 3, 8] {
            let mut out: Vec<usize> = (0..5000).collect();
            par_fill(t, &mut out, |i, x| *x = *x * 2 + i + 1);
            assert_eq!(out, seq, "threads = {t}");
        }
        let mut empty: Vec<u8> = Vec::new();
        par_fill(4, &mut empty, |_, _| unreachable!());
    }
}
