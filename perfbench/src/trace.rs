//! In-memory span recorder for the traced benchmark run.
//!
//! Spans are recorded in the benchmark's own code around each call into a
//! layer. Each span keeps its name, start and end (nanoseconds since the
//! recorder was created), its parent span and the request it served (the
//! job tag on `serve-churn`). Nothing is written until the run ends.
//! A disabled recorder runs the wrapped call and records nothing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run, starting at 1.
    pub id: u32,
    /// The span this one was recorded under.
    pub parent: Option<u32>,
    /// Layer call, e.g. `nn.infer`.
    pub name: &'static str,
    /// Request the span served (0 when it served none).
    pub request: u64,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe span recorder; can be switched on and off mid-run.
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that starts enabled or disabled.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether new spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Switches recording on or off for spans that start from now on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's id
    /// to parent its own children (`None` when recording is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> T {
        if !self.enabled() {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(id, parent, name, request, start, Instant::now());
        out
    }

    /// Records a span whose bounds were measured elsewhere (e.g. from a
    /// duration the server reports). Returns its id, `None` when off.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.enabled() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, name, request, start, end);
        Some(id)
    }

    fn push(
        &self,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            request,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children. Children may nest, overlap each other (calls
/// on parallel threads) or run past the parent; only the covered part of
/// the parent's own interval is subtracted, once.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// The trace document written at the end of a traced run: the run
/// context, every span with its self time, and per-name totals.
pub fn trace_json(context_json: &str, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut totals: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    let mut lines = Vec::with_capacity(spans.len());
    for s in spans {
        let own = selfs[&s.id];
        let t = totals.entry(s.name).or_default();
        t.0 += 1;
        t.1 += s.duration_ns();
        t.2 += own;
        lines.push(format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id,
            s.parent.map_or("null".to_owned(), |p| p.to_string()),
            s.name,
            s.request,
            s.start_ns,
            s.end_ns,
            own
        ));
    }
    let totals: Vec<String> = totals
        .iter()
        .map(|(name, (calls, total, own))| {
            format!(
                "{{\"name\":\"{name}\",\"calls\":{calls},\"total_ms\":{},\"self_ms\":{}}}",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            )
        })
        .collect();
    format!(
        "{{\"context\":{context_json},\"totals\":[{}],\"spans\":[\n{}\n]}}\n",
        totals.join(","),
        lines.join(",\n")
    )
}
