//! Bench-side spans: recorded around calls into the layers' public
//! functions, kept in memory, written as one JSON file when the traced
//! run ends. A span has a name, start and end (µs since the tracer was
//! created), the span that caused it and the id of the flow or request
//! it belongs to. Self time is a span's duration minus its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// One id per flow / request; spans of one operation share it.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Single-threaded span recorder (the benchmark drives the layers from
/// one thread; client threads time their requests themselves and hand
/// the finished spans over with [`Tracer::adopt`]).
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Starts a new operation (flow / request): later spans carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    pub fn begin(&mut self, name: &str) -> SpanId {
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            op: self.op,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Ends `id` (and, defensively, anything opened inside it that was
    /// left open) and returns its duration in milliseconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id.0 {
                break;
            }
        }
        self.spans[id.0].dur_ms()
    }

    /// Runs `f` inside a span; returns its result and the duration, ms.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Adds a span measured elsewhere (a client thread's request) as a
    /// root span of its own operation.
    pub fn adopt(&mut self, name: &str, start_us: f64, end_us: f64) {
        let op = self.next_op();
        self.spans.push(Span {
            name: name.to_string(),
            op,
            parent: None,
            start_us,
            end_us,
        });
    }

    /// Self time per span: duration minus the part covered by children.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_ms();
            }
        }
        own
    }

    /// Total self time and span count by span name, ms (sorted by name),
    /// over every span or only those of operation `op`.
    pub fn self_ms_by_name(&self, op: Option<u64>) -> BTreeMap<String, (f64, usize)> {
        let mut by: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ms()) {
            if op.is_some_and(|op| op != s.op) {
                continue;
            }
            let e = by.entry(s.name.clone()).or_insert((0.0, 0));
            e.0 += own;
            e.1 += 1;
        }
        by
    }

    /// Writes every span plus the self-time roll-up as JSON.
    pub fn write_json(&self, path: &Path, header: &[(&str, String)]) -> std::io::Result<()> {
        let mut s = String::from("{\n");
        for (k, v) in header {
            let _ = writeln!(s, "  \"{k}\": \"{v}\",");
        }
        s.push_str("  \"self_ms_by_name\": {\n");
        let by = self.self_ms_by_name(None);
        for (i, (name, (ms, count))) in by.iter().enumerate() {
            let comma = if i + 1 < by.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    \"{name}\": {{\"self_ms\": {ms:.4}, \"spans\": {count}}}{comma}"
            );
        }
        s.push_str("  },\n  \"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.1}, \"end_us\": {:.1}}}{comma}",
                sp.name, sp.op, sp.start_us, sp.end_us
            );
        }
        s.push_str("  ]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// Times `f` as a span of `tr` when there is a tracer, with a plain
/// clock otherwise; returns its result and the duration in ms. Untraced
/// runs go through the second arm, so they carry no span bookkeeping.
pub fn timed<R>(tr: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    match tr {
        Some(tr) => tr.time(name, f),
        None => {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_secs_f64() * 1e3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.next_op();
        let outer = t.begin("outer");
        let ((), inner_ms) = t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let outer_ms = t.end(outer);
        assert!(inner_ms >= 5.0 && outer_ms >= inner_ms);
        let own = t.self_ms();
        assert!((own[0] - (outer_ms - inner_ms)).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].op, t.spans[1].op);
        let by = t.self_ms_by_name(Some(1));
        assert_eq!(by["inner"].1, 1);
    }
}
