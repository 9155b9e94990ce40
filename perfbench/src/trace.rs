//! In-memory spans for the traced run.
//!
//! Spans are taken only in the benchmark's own code, around calls into the
//! program's public functions: each records its name (the layer and call),
//! start and end, the span that caused it and the request it belongs to.
//! They stay in memory while the workload runs and are written out, one
//! JSON object per line, when it ends. With tracing off, [`Tracer::time`]
//! still times the call (the end-to-end metrics need that) but records
//! nothing.

use ratest_grader::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of a recorded span.
pub type SpanId = u64;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// Request the span belongs to; 0 for set-up and checking work.
    pub request: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub count: u64,
    pub total: Duration,
    /// Total minus the part covered by child spans.
    pub self_time: Duration,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Time `f`. With tracing on, the call is recorded as a span named
    /// `name`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, request, start, end);
        (out, end - start)
    }

    /// Record a span whose bounds were observed elsewhere (a served
    /// request, timed from its send to its response line).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.reserve();
            self.push(Span {
                id,
                parent,
                request,
                name,
                start,
                end,
            });
        }
    }

    /// Open a span that is closed later with [`Tracer::close`] — for a
    /// phase whose children are recorded before it ends.
    pub fn open(&self) -> Option<(SpanId, Instant)> {
        self.enabled.then(|| (self.reserve(), Instant::now()))
    }

    pub fn close(
        &self,
        opened: Option<(SpanId, Instant)>,
        name: &'static str,
        parent: Option<SpanId>,
    ) {
        if let Some((id, start)) = opened {
            self.push(Span {
                id,
                parent,
                request: 0,
                name,
                start,
                end: Instant::now(),
            });
        }
    }

    fn reserve(&self) -> SpanId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span lock").push(span);
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span lock").len()
    }

    /// Count, total and self time per span name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let spans = self.spans.lock().expect("span lock");
        let mut child_time: BTreeMap<SpanId, Duration> = BTreeMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                *child_time.entry(p).or_default() += s.duration();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for s in spans.iter() {
            let t = out.entry(s.name).or_default();
            let d = s.duration();
            t.count += 1;
            t.total += d;
            t.self_time += d.saturating_sub(child_time.get(&s.id).copied().unwrap_or_default());
        }
        out
    }

    /// Write every span as one JSON object per line; times are in
    /// microseconds since the tracer was created.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span lock");
        let us =
            |t: Instant| Json::Float(t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6);
        let mut text = String::new();
        for s in spans.iter() {
            let line = Json::obj(vec![
                ("id", Json::Int(s.id as i64)),
                (
                    "parent",
                    s.parent.map(|p| Json::Int(p as i64)).unwrap_or(Json::Null),
                ),
                ("request", Json::Int(s.request as i64)),
                ("name", Json::str(s.name)),
                ("start_us", us(s.start)),
                ("end_us", us(s.end)),
            ]);
            text.push_str(&line.render());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}
