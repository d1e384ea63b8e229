//! Structured tracing: nestable spans with monotonic timing, key/value
//! events, and the thread-aware in-memory collector behind them.
//!
//! Spans are RAII guards: [`span`] records entry, [`Drop`] records the
//! monotonic duration and files the record. Nesting is tracked with a
//! per-thread span stack, so concurrently-open spans on different
//! threads never corrupt each other's parent links. Records land in one
//! process-global collector (a mutex around two `Vec`s) with a hard
//! capacity cap — overflowing spans/events are counted, not stored, so
//! a pathological run degrades gracefully instead of exhausting memory.

use crate::gate;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default hard cap on stored span records (overflow is counted in
/// `dropped`). Override with `TS3_TRACE_MAX_SPANS` — benchmark runs set
/// it low so their committed `ts3.trace.v1` manifests stay a few
/// hundred KB instead of dumping 100k near-identical kernel spans.
pub const MAX_SPANS: usize = 100_000;
/// Hard cap on stored event records.
const MAX_EVENTS: usize = 100_000;

/// Effective span cap: `TS3_TRACE_MAX_SPANS` if set, else [`MAX_SPANS`].
/// Read once per process — changing the env var later has no effect.
pub(crate) fn max_spans() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("TS3_TRACE_MAX_SPANS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(MAX_SPANS)
    })
}

/// A typed key/value payload attached to spans and events.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer (counters, sizes, epochs).
    U64(u64),
    /// Float (losses, rates, norms).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Static string (reasons, labels).
    Str(&'static str),
    /// Owned string (rare: dynamic labels).
    Owned(String),
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(v as f64)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(v)
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Owned(v)
    }
}

impl FieldValue {
    /// Render for the stderr sink (`k=v` right-hand side).
    pub fn render(&self) -> String {
        match self {
            FieldValue::I64(v) => v.to_string(),
            FieldValue::U64(v) => v.to_string(),
            FieldValue::F64(v) => format!("{v:.6}"),
            FieldValue::Bool(v) => v.to_string(),
            FieldValue::Str(v) => (*v).to_string(),
            FieldValue::Owned(v) => v.clone(),
        }
    }
}

/// A completed span as stored by the collector.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Creation-order id (1-based; 0 is never issued).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name (dot-separated, e.g. `tensor.matmul`).
    pub name: &'static str,
    /// Nanoseconds since the process trace epoch at span entry.
    pub start_ns: u64,
    /// Monotonic span duration in nanoseconds.
    pub dur_ns: u64,
    /// Key/value payload recorded via [`Span::field`].
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// A point event as stored by the collector.
#[derive(Debug, Clone)]
pub struct EventRec {
    /// Span open on the emitting thread when the event fired, if any.
    pub parent: Option<u64>,
    /// Static event name (e.g. `epoch`, `early_stop`).
    pub name: &'static str,
    /// Nanoseconds since the process trace epoch.
    pub at_ns: u64,
    /// Key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

#[derive(Default)]
struct Collector {
    spans: Vec<SpanRec>,
    events: Vec<EventRec>,
    dropped_spans: u64,
    dropped_events: u64,
}

fn collector() -> &'static Mutex<Collector> {
    static C: OnceLock<Mutex<Collector>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(Collector::default()))
}

/// Monotonic nanoseconds since the first trace call in this process.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Mutable field bag handed to [`event`] closures.
#[derive(Default)]
pub struct Fields(pub(crate) Vec<(&'static str, FieldValue)>);

impl Fields {
    /// Attach `key = value`.
    pub fn set(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.0.push((key, value.into()));
    }
}

/// What a closing span files into the request timeline besides its own
/// trace record.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Nothing: an ordinary span.
    Plain,
    /// One `(label, dur_ns)` stage of the timeline batch open on the
    /// thread, if any (see [`crate::timeline::stage`]).
    Stage,
    /// The timeline batch itself (see [`crate::timeline::begin_batch`]).
    Batch,
}

/// RAII span guard. Created by [`span`]; files its record on drop.
/// It is the crate's only timer: [`crate::stage`] and
/// [`crate::begin_batch`] hand out the same guard, which also files the
/// serving timeline's stage and batch records when it closes.
///
/// When tracing is disabled the guard is inert: no id is assigned, no
/// clock is read, and **nothing is allocated** (`Vec::new` is
/// allocation-free) — the cost is one atomic load in [`span`] plus a
/// no-op drop.
pub struct Span {
    id: u64,
    name: &'static str,
    role: Role,
    parent: Option<u64>,
    start_ns: u64,
    start: Option<Instant>,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Span {
    /// True when this guard is actually recording.
    #[inline]
    pub fn active(&self) -> bool {
        self.start.is_some()
    }

    /// Creation-order id of the span record (0 when inert). A timeline
    /// batch is filed under its `serve.batch` span's id.
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach `key = value` to the span record (no-op when inert).
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.active() {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = start.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        match self.role {
            Role::Plain => {}
            Role::Stage => crate::timeline::file_stage(self.name, dur_ns),
            Role::Batch => crate::timeline::file_batch(dur_ns),
        }
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            dur_ns,
            fields: std::mem::take(&mut self.fields),
        };
        if gate::verbose() {
            let fields: String = rec
                .fields
                .iter()
                .map(|(k, v)| format!(" {k}={}", v.render()))
                .collect();
            eprintln!("[ts3 span] {} {:.3}ms{}", rec.name, dur_ns as f64 / 1e6, fields);
        }
        // ts3-lint: allow(no-unwrap-in-lib) collector mutex poisoning means a tracing thread panicked; trace state is unrecoverable
        let mut c = collector().lock().unwrap();
        if c.spans.len() < max_spans() {
            c.spans.push(rec);
        } else {
            c.dropped_spans += 1;
        }
    }
}

/// Open a span named `name` on the current thread. The returned guard
/// records entry/exit with monotonic timing; bind it (`let _s = ...`) so
/// it stays open for the intended scope.
#[inline]
pub fn span(name: &'static str) -> Span {
    open(name, Role::Plain)
}

/// Open a span that files into the timeline as `role` when it closes.
#[inline]
pub(crate) fn open(name: &'static str, role: Role) -> Span {
    if !gate::enabled() {
        let fields = Vec::new();
        return Span { id: 0, name, role, parent: None, start_ns: 0, start: None, fields };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let fields = Vec::new();
    Span { id, name, role, parent, start_ns: now_ns(), start: Some(Instant::now()), fields }
}

/// Record a point event named `name`. The closure populating the field
/// bag only runs when tracing is enabled, so call sites pay nothing on
/// the disabled path — not even argument formatting.
pub fn event(name: &'static str, fill: impl FnOnce(&mut Fields)) {
    if !gate::enabled() {
        return;
    }
    let mut fields = Fields::default();
    fill(&mut fields);
    let rec = EventRec {
        parent: STACK.with(|s| s.borrow().last().copied()),
        name,
        at_ns: now_ns(),
        fields: fields.0,
    };
    if gate::verbose() {
        let fields: String =
            rec.fields.iter().map(|(k, v)| format!(" {k}={}", v.render())).collect();
        eprintln!("[ts3 event] {}{}", rec.name, fields);
    }
    // ts3-lint: allow(no-unwrap-in-lib) collector mutex poisoning means a tracing thread panicked; trace state is unrecoverable
    let mut c = collector().lock().unwrap();
    if c.events.len() < MAX_EVENTS {
        c.events.push(rec);
    } else {
        c.dropped_events += 1;
    }
}

/// Clone the collector contents: `(spans, events, dropped)`. Spans and
/// events are in record order (span record order = completion order;
/// ids give creation order). The third element is the *total* dropped
/// count; [`dropped_counts`] splits it by record kind.
pub fn snapshot_records() -> (Vec<SpanRec>, Vec<EventRec>, u64) {
    // ts3-lint: allow(no-unwrap-in-lib) collector mutex poisoning means a tracing thread panicked; trace state is unrecoverable
    let c = collector().lock().unwrap();
    (c.spans.clone(), c.events.clone(), c.dropped_spans + c.dropped_events)
}

/// Records rejected by the capacity caps, split as
/// `(dropped_spans, dropped_events)`. A non-zero span count means the
/// trace is truncated and `TS3_TRACE_MAX_SPANS` (or the work volume)
/// should be revisited — `trace_check` warns on it.
pub fn dropped_counts() -> (u64, u64) {
    // ts3-lint: allow(no-unwrap-in-lib) collector mutex poisoning means a tracing thread panicked; trace state is unrecoverable
    let c = collector().lock().unwrap();
    (c.dropped_spans, c.dropped_events)
}

/// Clear all recorded spans and events.
pub fn reset_trace() {
    // ts3-lint: allow(no-unwrap-in-lib) collector mutex poisoning means a tracing thread panicked; trace state is unrecoverable
    let mut c = collector().lock().unwrap();
    c.spans.clear();
    c.events.clear();
    c.dropped_spans = 0;
    c.dropped_events = 0;
}

/// Canonical description of the span tree *shape*: names, nesting and
/// event names in creation order — no ids, durations or field values.
/// Two runs doing the same work produce the same string regardless of
/// thread count or machine speed, which is what the determinism test
/// compares.
///
/// Grammar: `span := name '[' events ']'? '(' children ')'?`, siblings
/// comma-separated; orphan events (no open span) are appended at the end
/// after `;`.
pub fn tree_shape() -> String {
    let (mut spans, events, _) = snapshot_records();
    spans.sort_by_key(|s| s.id);
    let mut out = String::new();
    let roots: Vec<usize> =
        (0..spans.len()).filter(|&i| parent_index(&spans, i).is_none()).collect();
    for (n, &i) in roots.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        write_shape(&spans, &events, i, &mut out);
    }
    let orphans: Vec<&EventRec> = events.iter().filter(|e| e.parent.is_none()).collect();
    if !orphans.is_empty() {
        out.push(';');
        for (n, e) in orphans.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(e.name);
        }
    }
    out
}

fn parent_index(spans: &[SpanRec], i: usize) -> Option<usize> {
    spans[i].parent.and_then(|p| spans.iter().position(|s| s.id == p))
}

fn write_shape(spans: &[SpanRec], events: &[EventRec], i: usize, out: &mut String) {
    out.push_str(spans[i].name);
    let evs: Vec<&EventRec> =
        events.iter().filter(|e| e.parent == Some(spans[i].id)).collect();
    if !evs.is_empty() {
        out.push('[');
        for (n, e) in evs.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            out.push_str(e.name);
        }
        out.push(']');
    }
    let children: Vec<usize> =
        (0..spans.len()).filter(|&c| parent_index(spans, c) == Some(i)).collect();
    if !children.is_empty() {
        out.push('(');
        for (n, &c) in children.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            write_shape(spans, events, c, out);
        }
        out.push(')');
    }
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        let _g = test_lock();
        crate::set_level(0);
        reset_trace();
        {
            let mut s = span("never");
            assert!(!s.active());
            s.field("k", 1u64);
            event("never_event", |f| f.set("x", 1u64));
        }
        let (spans, events, dropped) = snapshot_records();
        assert!(spans.is_empty() && events.is_empty() && dropped == 0);
    }

    #[test]
    fn spans_nest_and_events_attach() {
        let _g = test_lock();
        crate::set_level(1);
        reset_trace();
        {
            let mut outer = span("outer");
            outer.field("m", 3u64);
            {
                let _inner = span("inner");
                event("tick", |f| f.set("i", 0u64));
            }
            event("done", |_| {});
        }
        event("orphan", |_| {});
        assert_eq!(tree_shape(), "outer[done](inner[tick]);orphan");
        let (spans, _, _) = snapshot_records();
        // Completion order: inner closes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].fields, vec![("m", FieldValue::U64(3))]);
        assert!(spans[0].parent == Some(spans[1].id));
        crate::set_level(0);
        reset_trace();
    }

    #[test]
    fn field_value_conversions_render() {
        assert_eq!(FieldValue::from(3usize).render(), "3");
        assert_eq!(FieldValue::from(-2i64).render(), "-2");
        assert_eq!(FieldValue::from(true).render(), "true");
        assert_eq!(FieldValue::from("why").render(), "why");
        assert_eq!(FieldValue::from(1.5f32), FieldValue::F64(1.5));
    }
}
