//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans are kept in memory while the workload runs and written out once
//! at exit, so recording costs one short mutex-guarded push per span. A
//! disabled tracer records nothing.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Index of a recorded span, used as a child's parent.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start: Duration,
    end: Option<Duration>,
    parent: Option<SpanId>,
    request: Option<u64>,
}

/// A span recorder; the origin of every timestamp is its creation.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span that started at `start`; `None` when tracing is off.
    pub fn open_at(
        &self,
        name: &'static str,
        start: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start = start.saturating_duration_since(self.origin);
        let mut spans = self.spans.lock().expect("a span recorder panicked");
        spans.push(Span {
            name,
            start,
            end: None,
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Open a span starting now.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        self.open_at(name, Instant::now(), parent, None)
    }

    /// Close span `id` at `end` (a no-op for `None`).
    pub fn close_at(&self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            let end = end.saturating_duration_since(self.origin);
            self.spans.lock().expect("a span recorder panicked")[id].end = Some(end);
        }
    }

    /// Close span `id` now.
    pub fn close(&self, id: Option<SpanId>) {
        self.close_at(id, Instant::now());
    }

    /// Run `f` inside a span named `name` under `parent`, returning its
    /// result and wall time.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, parent);
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed();
        self.close(id);
        (out, wall)
    }

    /// Render every span as a JSON array (microseconds since the origin;
    /// `end_us` is null for a span that never closed).
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("a span recorder panicked");
        let opt = |v: Option<u128>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start.as_micros(),
                opt(s.end.map(|e| e.as_micros())),
                opt(s.parent.map(|p| p as u128)),
                opt(s.request.map(u128::from)),
            );
        }
        out.push_str("\n]");
        out
    }
}
