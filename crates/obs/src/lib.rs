//! Structured telemetry for the hetero3d flow: nested stage spans with
//! wall-clock timing, monotonic counters, gauge metrics and set-once
//! labels, aggregated into a per-run [`Manifest`].
//!
//! # Determinism contract
//!
//! A manifest has two kinds of content:
//!
//! - **Deterministic**: counters, gauges, labels, and the set of span
//!   paths with their call counts. These must be bit-identical across
//!   thread counts for the same inputs. Stages get there by recording
//!   totals they computed themselves (the parallel kernels return their
//!   results in input order), from one thread after the parallel work —
//!   racing threads never sum floats in the collector.
//! - **Performance-only**: span wall times, the thread count, each
//!   span's allocation (below), and anything recorded through
//!   [`Obs::perf_add`] (e.g. the serve layer's store hit/miss tallies,
//!   which depend on scheduling). These are reported but excluded from
//!   [`Manifest::deterministic_json`].
//!
//! # Per-span allocation
//!
//! Every span also books, into the performance-only counters, the bytes
//! allocated while it ran (`<path>/alloc_bytes`) and how far the
//! process heap high-water rose while it ran (`<path>/heap_rise_bytes`),
//! both read from [`alloc`]'s counters. They are process-wide, so a span
//! that runs beside another also counts that one's traffic, and they
//! read zero unless the binary installs [`CountingAlloc`]. The spans
//! whose `heap_rise_bytes` is non-zero are where a run's peak was set.
//!
//! [`Manifest::deterministic_json`] and [`Manifest::json`] build
//! `m3d-json` trees whose keys and labels borrow from the manifest; this
//! crate has no escaping, number-formatting or layout code of its own.
//!
//! # Usage
//!
//! An [`Obs`] handle is cheap to clone and disabled by default, so
//! instrumented library code pays one branch per call when no collector
//! is attached. [`Obs::scope`] derives a handle whose keys share a
//! prefix; concurrent flow branches (fmax ladder rungs, config sweeps)
//! each scope themselves so they never write the same span path.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod alloc;

pub use alloc::CountingAlloc;

use m3d_json::{Obj, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-path span aggregate: how many times the span ran and the summed
/// wall time. Wall time is performance-only; calls are deterministic.
#[derive(Debug, Default, Clone, Copy)]
struct SpanAgg {
    calls: u64,
    wall_ns: u128,
}

/// Shared sink behind enabled [`Obs`] handles. Every section is a
/// `BTreeMap` so iteration (and therefore manifest serialization) is
/// ordered by key, independent of recording order.
#[derive(Debug, Default)]
struct Collector {
    spans: Mutex<BTreeMap<String, SpanAgg>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    labels: Mutex<BTreeMap<String, String>>,
    perf: Mutex<BTreeMap<String, u64>>,
}

/// Handle for recording telemetry. Disabled handles (the default) drop
/// every record on the floor without locking.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Collector>>,
    prefix: String,
}

/// Handle identity, not content: two handles are equal when they feed
/// the same collector (or are both disabled) under the same prefix.
/// This keeps `FlowOptions: PartialEq` meaningful — options structs
/// differing only in where telemetry goes still compare by that.
impl PartialEq for Obs {
    fn eq(&self, other: &Obs) -> bool {
        self.prefix == other.prefix
            && match (&self.inner, &other.inner) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

impl Obs {
    /// A no-op handle: records nothing, costs one branch per call.
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// A handle backed by a fresh collector.
    pub fn enabled() -> Obs {
        Obs {
            inner: Some(Arc::new(Collector::default())),
            prefix: String::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Derives a handle writing under `prefix/segment/...`. Used to give
    /// concurrent flow branches disjoint key spaces.
    pub fn scope(&self, segment: &str) -> Obs {
        Obs {
            inner: self.inner.clone(),
            prefix: join(&self.prefix, segment),
        }
    }

    fn key(&self, name: &str) -> String {
        join(&self.prefix, name)
    }

    /// Opens a timed span; the span records itself when dropped.
    /// Re-entering the same path accumulates calls, wall time and
    /// allocation.
    pub fn span(&self, name: &str) -> Span {
        Span::open(self.inner.clone(), self.key(name))
    }

    /// Adds to a monotonic counter (deterministic section).
    pub fn counter_add(&self, name: &str, value: u64) {
        if let Some(c) = &self.inner {
            *c.counters
                .lock()
                .expect("obs counters poisoned")
                .entry(self.key(name))
                .or_insert(0) += value;
        }
    }

    /// Sets a gauge to `value` (deterministic section; last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(c) = &self.inner {
            c.gauges
                .lock()
                .expect("obs gauges poisoned")
                .insert(self.key(name), value);
        }
    }

    /// Raises a gauge to `value` if it exceeds the current reading — a
    /// high-water mark (queue depth, in-flight requests). Max *is*
    /// commutative, so unlike [`Obs::gauge_add`] this is safe to call
    /// from racing threads, though the observed peak itself may be
    /// scheduling-dependent (report such gauges as performance-only
    /// data when byte-identity matters).
    pub fn gauge_max(&self, name: &str, value: f64) {
        if let Some(c) = &self.inner {
            let mut gauges = c.gauges.lock().expect("obs gauges poisoned");
            let slot = gauges.entry(self.key(name)).or_insert(f64::NEG_INFINITY);
            if value > *slot {
                *slot = value;
            }
        }
    }

    /// Adds to a gauge (deterministic section). Callers on parallel
    /// paths must fold their partial sums in a fixed order first, because
    /// float addition does not commute in bits.
    pub fn gauge_add(&self, name: &str, value: f64) {
        if let Some(c) = &self.inner {
            *c.gauges
                .lock()
                .expect("obs gauges poisoned")
                .entry(self.key(name))
                .or_insert(0.0) += value;
        }
    }

    /// Records a set-once string label (input fingerprints, config
    /// names). First write wins so re-entrant stages cannot flap it.
    pub fn label_set(&self, name: &str, value: &str) {
        if let Some(c) = &self.inner {
            c.labels
                .lock()
                .expect("obs labels poisoned")
                .entry(self.key(name))
                .or_insert_with(|| value.to_string());
        }
    }

    /// Adds to a performance-only counter: reported in the full
    /// manifest, excluded from the deterministic section. Use for
    /// scheduling-dependent tallies (cache hits, retries).
    pub fn perf_add(&self, name: &str, value: u64) {
        if let Some(c) = &self.inner {
            *c.perf
                .lock()
                .expect("obs perf poisoned")
                .entry(self.key(name))
                .or_insert(0) += value;
        }
    }

    /// Snapshots everything recorded so far.
    pub fn manifest(&self) -> Manifest {
        let Some(c) = &self.inner else {
            return Manifest::default();
        };
        Manifest {
            spans: c
                .spans
                .lock()
                .expect("obs spans poisoned")
                .iter()
                .map(|(path, agg)| SpanRow {
                    path: path.clone(),
                    calls: agg.calls,
                    wall_ns: agg.wall_ns,
                })
                .collect(),
            counters: clone_map(&c.counters),
            gauges: clone_map(&c.gauges),
            labels: clone_map(&c.labels),
            perf: clone_map(&c.perf),
        }
    }
}

fn join(prefix: &str, segment: &str) -> String {
    if prefix.is_empty() {
        segment.to_string()
    } else {
        format!("{prefix}/{segment}")
    }
}

fn clone_map<V: Clone>(m: &Mutex<BTreeMap<String, V>>) -> Vec<(String, V)> {
    m.lock()
        .expect("obs section poisoned")
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

/// RAII stage timer returned by [`Obs::span`]. Dropping it folds the
/// elapsed wall time into the collector under the span's path, and the
/// span's allocation into the performance-only counters.
pub struct Span {
    collector: Option<Arc<Collector>>,
    path: String,
    start: Instant,
    /// [`alloc::total_allocated_bytes`] at open.
    allocated: u64,
    /// [`alloc::peak_bytes`] at open.
    peak: u64,
}

impl Span {
    fn open(collector: Option<Arc<Collector>>, path: String) -> Span {
        let (allocated, peak) = if collector.is_some() {
            (alloc::total_allocated_bytes(), alloc::peak_bytes())
        } else {
            (0, 0)
        };
        Span {
            collector,
            path,
            start: Instant::now(),
            allocated,
            peak,
        }
    }

    /// Opens a nested span at `self.path/name`.
    pub fn child(&self, name: &str) -> Span {
        Span::open(self.collector.clone(), join(&self.path, name))
    }

    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(c) = &self.collector else { return };
        let elapsed = self.start.elapsed().as_nanos();
        let allocated = alloc::total_allocated_bytes().saturating_sub(self.allocated);
        let rise = alloc::peak_bytes().saturating_sub(self.peak);
        {
            let mut perf = c.perf.lock().expect("obs perf poisoned");
            for (what, bytes) in [("alloc_bytes", allocated), ("heap_rise_bytes", rise)] {
                *perf.entry(join(&self.path, what)).or_insert(0) += bytes;
            }
        }
        let mut spans = c.spans.lock().expect("obs spans poisoned");
        let agg = spans.entry(std::mem::take(&mut self.path)).or_default();
        agg.calls += 1;
        agg.wall_ns += elapsed;
    }
}

/// One aggregated span in a [`Manifest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    pub path: String,
    /// Deterministic: how many times this span ran.
    pub calls: u64,
    /// Performance-only: summed wall time.
    pub wall_ns: u128,
}

/// Ordered snapshot of a run's telemetry. All sections are sorted by
/// key, so equal content serializes to equal bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    pub spans: Vec<SpanRow>,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub labels: Vec<(String, String)>,
    pub perf: Vec<(String, u64)>,
}

impl Manifest {
    pub fn counter(&self, name: &str) -> Option<u64> {
        lookup(&self.counters, name).copied()
    }

    /// The counter `name` summed over every scope: the keys that are
    /// `name` or end in `/name`. How "exactly once per command" counts
    /// (`flow/pseudo3d_runs`, `flow/prefix_runs`) are read when the
    /// work may be booked under any branch's prefix.
    pub fn counter_sum(&self, name: &str) -> u64 {
        let scoped = format!("/{name}");
        self.counters
            .iter()
            .filter(|(k, _)| k == name || k.ends_with(&scoped))
            .map(|&(_, v)| v)
            .sum()
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        lookup(&self.gauges, name).copied()
    }

    /// A performance-only counter ([`Obs::perf_add`]).
    pub fn perf(&self, name: &str) -> Option<u64> {
        lookup(&self.perf, name).copied()
    }

    pub fn label(&self, name: &str) -> Option<&str> {
        lookup(&self.labels, name).map(String::as_str)
    }

    pub fn span(&self, path: &str) -> Option<&SpanRow> {
        self.spans
            .binary_search_by(|row| row.path.as_str().cmp(path))
            .ok()
            .map(|i| &self.spans[i])
    }

    /// The deterministic section as a JSON tree: span paths with call
    /// counts (no wall times), counters, gauges, labels. Bit-identical
    /// across thread counts for the same inputs — this is the tree the
    /// determinism tests compare. Keys and labels borrow from `self`.
    pub fn deterministic_json(&self) -> Value<'_> {
        let spans = section(&self.spans, |s| (&s.path, s.calls.into()));
        self.sections(spans).build()
    }

    /// The full manifest as a JSON tree: the deterministic section with
    /// each span's wall time (µs) beside its calls, plus the
    /// performance-only counters.
    pub fn json(&self) -> Value<'_> {
        let spans = section(&self.spans, |s| {
            let wall_us = s.wall_ns as f64 / 1e3;
            let row = Obj::new().put("calls", s.calls).put("wall_us", wall_us);
            (&s.path, row.build())
        });
        self.sections(spans)
            .put("perf", section(&self.perf, |(k, v)| (k, (*v).into())))
            .build()
    }

    /// `spans` followed by the counters, gauges and labels.
    fn sections<'a>(&'a self, spans: Value<'a>) -> Obj<'a> {
        Obj::new()
            .put("spans", spans)
            .put(
                "counters",
                section(&self.counters, |(k, v)| (k, (*v).into())),
            )
            .put("gauges", section(&self.gauges, |(k, v)| (k, (*v).into())))
            .put(
                "labels",
                section(&self.labels, |(k, v)| (k, v.as_str().into())),
            )
    }
}

/// One manifest section as a JSON object, in the section's (key) order.
fn section<'a, T>(rows: &'a [T], entry: impl Fn(&'a T) -> (&'a String, Value<'a>)) -> Value<'a> {
    Value::Obj(
        rows.iter()
            .map(|row| {
                let (key, value) = entry(row);
                (key.as_str().into(), value)
            })
            .collect(),
    )
}

fn lookup<'a, V>(entries: &'a [(String, V)], name: &str) -> Option<&'a V> {
    entries
        .binary_search_by(|(k, _)| k.as_str().cmp(name))
        .ok()
        .map(|i| &entries[i].1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        let _span = obs.span("stage");
        obs.counter_add("n", 5);
        obs.gauge_set("g", 1.5);
        obs.label_set("l", "x");
        obs.perf_add("p", 1);
        assert!(!obs.is_enabled());
        assert_eq!(obs.manifest(), Manifest::default());
    }

    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        let obs = Obs::enabled();
        obs.gauge_max("queue/depth", 2.0);
        obs.gauge_max("queue/depth", 7.0);
        obs.gauge_max("queue/depth", 3.0);
        assert_eq!(obs.manifest().gauge("queue/depth"), Some(7.0));
    }

    #[test]
    fn span_nesting_builds_paths_and_counts_calls() {
        let obs = Obs::enabled();
        {
            let flow = obs.span("flow");
            for _ in 0..3 {
                let _p = flow.child("partition");
            }
            let route = flow.child("route");
            let _detail = route.child("plan");
        }
        let m = obs.manifest();
        let paths: Vec<(&str, u64)> = m.spans.iter().map(|s| (s.path.as_str(), s.calls)).collect();
        assert_eq!(
            paths,
            vec![
                ("flow", 1),
                ("flow/partition", 3),
                ("flow/route", 1),
                ("flow/route/plan", 1),
            ]
        );
        assert_eq!(m.span("flow/partition").unwrap().calls, 3);
    }

    #[test]
    fn scoped_handles_share_the_collector_under_distinct_prefixes() {
        let obs = Obs::enabled();
        let a = obs.scope("cfg/a");
        let b = obs.scope("cfg/b");
        a.counter_add("moves", 2);
        b.counter_add("moves", 7);
        a.counter_add("moves", 1);
        let m = obs.manifest();
        assert_eq!(m.counter("cfg/a/moves"), Some(3));
        assert_eq!(m.counter("cfg/b/moves"), Some(7));
        obs.counter_add("moves", 10);
        obs.counter_add("removes", 100);
        assert_eq!(obs.manifest().counter_sum("moves"), 20);
        assert_eq!(a, obs.scope("cfg/a"));
        assert_ne!(a, b);
        assert_ne!(a, Obs::enabled().scope("cfg/a"));
    }

    #[test]
    fn labels_are_set_once_and_gauges_last_write() {
        let obs = Obs::enabled();
        obs.label_set("netlist", "aes");
        obs.label_set("netlist", "cpu");
        obs.gauge_set("cut", 10.0);
        obs.gauge_set("cut", 4.0);
        let m = obs.manifest();
        assert_eq!(m.label("netlist"), Some("aes"));
        assert_eq!(m.gauge("cut"), Some(4.0));
    }

    #[test]
    fn deterministic_json_excludes_wall_time_and_perf() {
        let obs = Obs::enabled();
        {
            let _s = obs.span("stage");
        }
        obs.counter_add("arcs", 12);
        obs.perf_add("cache_hits", 99);
        let m = obs.manifest();
        let det = m.deterministic_json();
        assert_eq!(det.path("spans/stage"), Some(&Value::Num(1.0)));
        assert_eq!(det.path("counters/arcs"), Some(&Value::Num(12.0)));
        assert!(!det.render().contains("wall"));
        assert!(!det.render().contains("cache_hits"));
        let full = m.json();
        assert!(full.path("spans/stage/wall_us").is_some());
        assert_eq!(full.path("perf/cache_hits"), Some(&Value::Num(99.0)));
        // Without `CountingAlloc` installed a span allocates nothing.
        assert_eq!(m.perf("stage/alloc_bytes"), Some(0));
        assert_eq!(m.perf("stage/heap_rise_bytes"), Some(0));
        assert!(!det.render().contains("alloc_bytes"));
    }

    #[test]
    fn json_escapes_and_formats() {
        let obs = Obs::enabled();
        obs.label_set("path", "a\"b\\c");
        obs.gauge_set("whole", 3.0);
        obs.gauge_set("frac", 0.25);
        let text = obs.manifest().json().render();
        assert!(text.contains(r#""path":"a\"b\\c""#), "{text}");
        let parsed = m3d_json::parse_borrowed(&text).expect("the manifest is JSON");
        assert_eq!(
            parsed.path("labels/path").and_then(Value::as_str),
            Some("a\"b\\c")
        );
        assert_eq!(
            parsed.path("gauges/whole").and_then(Value::as_f64),
            Some(3.0)
        );
        assert_eq!(
            parsed.path("gauges/frac").and_then(Value::as_f64),
            Some(0.25)
        );
    }
}
