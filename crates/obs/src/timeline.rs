//! Per-request trace timelines: where did *this* request's latency go?
//!
//! Aggregate metrics answer "is the fleet healthy"; a timeline answers
//! "where did request 4127's five milliseconds go". This module mints a
//! [`RequestCtx`] id at enqueue time and collects one record per request
//! as it moves through the serving spine:
//!
//! ```text
//! submitted ──queue-wait──▶ seen ──coalesce-hold──▶ flushed
//!     (enqueue tick)   (coalescer first eval)   (batch formed)
//!          ──execute (per forward stage, ns)──▶ responded
//! ```
//!
//! Tick-valued segments (queue-wait, hold, respond) come from the
//! serving layer's **virtual clock** and are therefore deterministic;
//! per-stage execute times are wallclock nanoseconds (this file is on
//! the `ts3lint.json` wallclock allowlist for exactly that reason) and
//! are excluded from [`deterministic_digest`], which is what the
//! cross-thread-count test compares.
//!
//! Export is [`timeline_to_json`] → a `ts3.timeline.v1` document with
//! the raw request/batch records plus a per-tenant nearest-rank
//! p50/p90/p99 tick-latency summary. Like the trace collector, storage
//! is capped ([`MAX_REQUESTS`]/[`MAX_BATCHES`]) with overflow counted,
//! and everything is gated on `TS3_TRACE >= 1` — the disabled path is
//! one relaxed atomic load and allocates nothing.

use crate::gate;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use ts3_json::Json;

/// Hard cap on stored request records (overflow counted, not stored).
pub const MAX_REQUESTS: usize = 65_536;
/// Hard cap on stored batch records.
pub const MAX_BATCHES: usize = 16_384;

/// Timeline identity of one in-flight request. Minted by
/// [`begin_request`]; `RequestCtx(0)` is the inert id handed out when
/// tracing is disabled, and every later `mark_*` on it is a no-op —
/// call sites thread the ctx through unconditionally and pay nothing
/// on the disabled path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestCtx(pub u64);

impl RequestCtx {
    /// The inert id: recording disabled or cap exceeded.
    pub const NONE: RequestCtx = RequestCtx(0);

    /// True when this ctx refers to a live timeline record.
    #[inline]
    pub fn active(&self) -> bool {
        self.0 != 0
    }
}

/// One request's life, tick-stamped by the serving layer's virtual
/// clock. `u64::MAX` in an "optional" tick field means the transition
/// was never recorded (e.g. the run ended with the request queued).
#[derive(Debug, Clone)]
pub struct ReqRec {
    /// Timeline id ([`RequestCtx`] payload).
    pub id: u64,
    /// Owning tenant.
    pub tenant: usize,
    /// Tick the request entered the server queue.
    pub submitted: u64,
    /// Tick the coalescer first evaluated it (`u64::MAX` if never).
    pub seen: u64,
    /// Tick its batch was formed (`u64::MAX` if never flushed).
    pub flushed: u64,
    /// Batch timeline id it rode in (0 if never flushed).
    pub batch: u64,
    /// Size of that batch.
    pub batch_size: usize,
    /// Tick the response was sent (`u64::MAX` if never).
    pub responded: u64,
    /// Deadline tick the client asked for.
    pub deadline: u64,
    /// Whether the response missed that deadline.
    pub missed: bool,
}

/// One executed batch: which stages ran and what each cost.
#[derive(Debug, Clone)]
pub struct BatchRec {
    /// Batch timeline id (shared by its requests' `batch` field).
    pub id: u64,
    /// Tenant whose plan executed.
    pub tenant: usize,
    /// Tick the batch executed.
    pub tick: u64,
    /// Requests in the batch.
    pub size: usize,
    /// `(stage name, wallclock ns)` in execution order.
    pub stages: Vec<(String, u64)>,
    /// Wallclock ns for the whole execute (stages + stacking/reply).
    pub total_ns: u64,
}

#[derive(Default)]
struct TimelineStore {
    requests: Vec<ReqRec>,
    batches: Vec<BatchRec>,
    dropped: u64,
}

fn store() -> &'static Mutex<TimelineStore> {
    static S: OnceLock<Mutex<TimelineStore>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(TimelineStore::default()))
}

static NEXT_REQ: AtomicU64 = AtomicU64::new(1);
static NEXT_BATCH: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Batch record under construction on this thread (the serve
    /// executor), receiving stage marks from `stage_scope`.
    static CURRENT_BATCH: RefCell<Option<BatchRec>> = const { RefCell::new(None) };
}

/// Mint a timeline id for a request entering the queue at tick
/// `submitted`. Returns [`RequestCtx::NONE`] (inert) when tracing is
/// disabled or the request cap is hit.
pub fn begin_request(tenant: usize, submitted: u64, deadline: u64) -> RequestCtx {
    if !gate::enabled() {
        return RequestCtx::NONE;
    }
    // ts3-lint: allow(no-unwrap-in-lib) timeline mutex poisoning means a recording thread panicked; timeline state is unrecoverable
    let mut s = store().lock().unwrap();
    if s.requests.len() >= MAX_REQUESTS {
        s.dropped += 1;
        return RequestCtx::NONE;
    }
    let id = NEXT_REQ.fetch_add(1, Ordering::Relaxed);
    s.requests.push(ReqRec {
        id,
        tenant,
        submitted,
        seen: u64::MAX,
        flushed: u64::MAX,
        batch: 0,
        batch_size: 0,
        responded: u64::MAX,
        deadline,
        missed: false,
    });
    RequestCtx(id)
}

fn with_req(ctx: RequestCtx, f: impl FnOnce(&mut ReqRec)) {
    if !ctx.active() {
        return;
    }
    // ts3-lint: allow(no-unwrap-in-lib) timeline mutex poisoning means a recording thread panicked; timeline state is unrecoverable
    let mut s = store().lock().unwrap();
    if let Some(r) = s.requests.iter_mut().rev().find(|r| r.id == ctx.0) {
        f(r);
    }
}

/// Record the coalescer's first evaluation of the request at `tick`
/// (the end of its queue-wait segment). Idempotent: only the first
/// call sticks.
pub fn mark_seen(ctx: RequestCtx, tick: u64) {
    with_req(ctx, |r| {
        if r.seen == u64::MAX {
            r.seen = tick;
        }
    });
}

/// Record the request's batch assignment at flush time.
pub fn mark_flushed(ctx: RequestCtx, tick: u64, batch: u64, batch_size: usize) {
    with_req(ctx, |r| {
        r.flushed = tick;
        r.batch = batch;
        r.batch_size = batch_size;
    });
}

/// Record the response leaving the server at `tick`.
pub fn mark_respond(ctx: RequestCtx, tick: u64, missed: bool) {
    with_req(ctx, |r| {
        r.responded = tick;
        r.missed = missed;
    });
}

/// RAII guard for one batch execution on the current thread. Stage
/// scopes opened while it lives attach to it; dropping files the
/// record (with total wallclock ns) and returns its id via
/// [`BatchGuard::id`] read before the drop.
pub struct BatchGuard {
    id: u64,
    start: Option<Instant>,
}

impl BatchGuard {
    /// Timeline id of this batch (0 when inert).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Open a batch-execution scope at `tick` for `tenant`, covering
/// `size` requests. Inert (id 0, no clock read) when tracing is
/// disabled or the batch cap is hit.
pub fn begin_batch(tenant: usize, tick: u64, size: usize) -> BatchGuard {
    if !gate::enabled() {
        return BatchGuard { id: 0, start: None };
    }
    {
        // ts3-lint: allow(no-unwrap-in-lib) timeline mutex poisoning means a recording thread panicked; timeline state is unrecoverable
        let mut s = store().lock().unwrap();
        if s.batches.len() >= MAX_BATCHES {
            s.dropped += 1;
            return BatchGuard { id: 0, start: None };
        }
    }
    let id = NEXT_BATCH.fetch_add(1, Ordering::Relaxed);
    CURRENT_BATCH.with(|b| {
        *b.borrow_mut() = Some(BatchRec {
            id,
            tenant,
            tick,
            size,
            stages: Vec::new(),
            total_ns: 0,
        });
    });
    BatchGuard { id, start: Some(Instant::now()) }
}

impl Drop for BatchGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let total_ns = start.elapsed().as_nanos() as u64;
        let rec = CURRENT_BATCH.with(|b| b.borrow_mut().take());
        let Some(mut rec) = rec else { return };
        rec.total_ns = total_ns;
        // ts3-lint: allow(no-unwrap-in-lib) timeline mutex poisoning means a recording thread panicked; timeline state is unrecoverable
        let mut s = store().lock().unwrap();
        if s.batches.len() < MAX_BATCHES {
            s.batches.push(rec);
        } else {
            s.dropped += 1;
        }
    }
}

/// RAII guard timing one forward stage inside the current batch scope.
pub struct StageGuard {
    name: Option<String>,
    start: Option<Instant>,
}

/// Time one named stage of the batch currently executing on this
/// thread. Inert when tracing is disabled or no batch scope is open —
/// model forwards (TS3Net, DLinear) call this unconditionally at their
/// stage seams, so training, evaluation and test runs outside a served
/// batch pay only the gate load and allocate nothing.
pub fn stage_scope(name: &str) -> StageGuard {
    if !gate::enabled() || !CURRENT_BATCH.with(|b| b.borrow().is_some()) {
        return StageGuard { name: None, start: None };
    }
    StageGuard { name: Some(name.to_string()), start: Some(Instant::now()) }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let (Some(name), Some(start)) = (self.name.take(), self.start) else { return };
        let dur_ns = start.elapsed().as_nanos() as u64;
        CURRENT_BATCH.with(|b| {
            if let Some(rec) = b.borrow_mut().as_mut() {
                rec.stages.push((name, dur_ns));
            }
        });
    }
}

/// Snapshot the timeline: `(requests, batches, dropped)`.
pub fn timeline_snapshot() -> (Vec<ReqRec>, Vec<BatchRec>, u64) {
    // ts3-lint: allow(no-unwrap-in-lib) timeline mutex poisoning means a recording thread panicked; timeline state is unrecoverable
    let s = store().lock().unwrap();
    (s.requests.clone(), s.batches.clone(), s.dropped)
}

/// Clear every timeline record and the dropped count.
pub fn reset_timeline() {
    // ts3-lint: allow(no-unwrap-in-lib) timeline mutex poisoning means a recording thread panicked; timeline state is unrecoverable
    let mut s = store().lock().unwrap();
    s.requests.clear();
    s.batches.clear();
    s.dropped = 0;
    CURRENT_BATCH.with(|b| *b.borrow_mut() = None);
}

fn tick_json(t: u64) -> Json {
    if t == u64::MAX {
        Json::Null
    } else {
        Json::Num(t as f64)
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 for empty).
fn rank_u64(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Render the timeline as a `ts3.timeline.v1` document: raw request
/// records with their tick segments (`queue_wait` = seen − submitted,
/// `hold` = flushed − seen, `respond` = responded − flushed), batch
/// records with per-stage wallclock ns, and a per-tenant nearest-rank
/// p50/p90/p99 summary over responded-request tick latencies.
pub fn timeline_to_json() -> Json {
    let (requests, batches, dropped) = timeline_snapshot();
    let req_json: Json = requests
        .iter()
        .map(|r| {
            let seg = |hi: u64, lo: u64| {
                if hi == u64::MAX || lo == u64::MAX {
                    Json::Null
                } else {
                    Json::Num(hi.saturating_sub(lo) as f64)
                }
            };
            Json::obj([
                ("id", Json::Num(r.id as f64)),
                ("tenant", Json::Num(r.tenant as f64)),
                ("submitted", Json::Num(r.submitted as f64)),
                ("seen", tick_json(r.seen)),
                ("flushed", tick_json(r.flushed)),
                ("responded", tick_json(r.responded)),
                ("deadline", Json::Num(r.deadline as f64)),
                ("missed", Json::Bool(r.missed)),
                ("batch", Json::Num(r.batch as f64)),
                ("batch_size", Json::Num(r.batch_size as f64)),
                (
                    "segments",
                    Json::obj([
                        ("queue_wait", seg(r.seen, r.submitted)),
                        ("hold", seg(r.flushed, r.seen)),
                        ("respond", seg(r.responded, r.flushed)),
                        ("total", seg(r.responded, r.submitted)),
                    ]),
                ),
            ])
        })
        .collect();
    let batch_json: Json = batches
        .iter()
        .map(|b| {
            let stages: Json = b
                .stages
                .iter()
                .map(|(name, ns)| {
                    Json::obj([
                        ("stage", Json::Str(name.clone())),
                        ("dur_ns", Json::Num(*ns as f64)),
                    ])
                })
                .collect();
            Json::obj([
                ("id", Json::Num(b.id as f64)),
                ("tenant", Json::Num(b.tenant as f64)),
                ("tick", Json::Num(b.tick as f64)),
                ("size", Json::Num(b.size as f64)),
                ("stages", stages),
                ("total_ns", Json::Num(b.total_ns as f64)),
            ])
        })
        .collect();
    // Per-tenant tick-latency summary over responded requests,
    // BTreeMap so tenant order is deterministic.
    let mut per_tenant: std::collections::BTreeMap<usize, Vec<u64>> =
        std::collections::BTreeMap::new();
    let mut misses: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    for r in &requests {
        if r.responded != u64::MAX {
            per_tenant.entry(r.tenant).or_default().push(r.responded - r.submitted);
            *misses.entry(r.tenant).or_insert(0) += u64::from(r.missed);
        }
    }
    let tenants: Json = per_tenant
        .iter()
        .map(|(tenant, lats)| {
            let mut sorted = lats.clone();
            sorted.sort_unstable();
            Json::obj([
                ("tenant", Json::Num(*tenant as f64)),
                ("responded", Json::Num(sorted.len() as f64)),
                ("deadline_missed", Json::Num(misses.get(tenant).copied().unwrap_or(0) as f64)),
                ("p50_ticks", Json::Num(rank_u64(&sorted, 0.50) as f64)),
                ("p90_ticks", Json::Num(rank_u64(&sorted, 0.90) as f64)),
                ("p99_ticks", Json::Num(rank_u64(&sorted, 0.99) as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::Str("ts3.timeline.v1".to_string())),
        ("requests", req_json),
        ("batches", batch_json),
        ("tenants", tenants),
        ("dropped_records", Json::Num(dropped as f64)),
    ])
}

/// Deterministic view of the timeline for cross-thread-count
/// comparisons: every tick-valued field and batch assignment, **no
/// wallclock ns**. Two runs of the same lockstep sim must produce the
/// same digest at any `TS3_THREADS` cap.
pub fn deterministic_digest() -> String {
    let (requests, batches, dropped) = timeline_snapshot();
    let mut out = String::new();
    for r in &requests {
        out.push_str(&format!(
            "r tenant={} sub={} seen={} flush={} resp={} dl={} miss={} bsize={}\n",
            r.tenant,
            r.submitted,
            r.seen as i64,
            r.flushed as i64,
            r.responded as i64,
            r.deadline,
            r.missed,
            r.batch_size,
        ));
    }
    for b in &batches {
        let stages: Vec<&str> = b.stages.iter().map(|(n, _)| n.as_str()).collect();
        out.push_str(&format!(
            "b tenant={} tick={} size={} stages={}\n",
            b.tenant,
            b.tick,
            b.size,
            stages.join(","),
        ));
    }
    out.push_str(&format!("dropped={dropped}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::test_lock;

    #[test]
    fn disabled_timeline_is_inert() {
        let _g = test_lock();
        crate::set_level(0);
        reset_timeline();
        let ctx = begin_request(0, 1, 5);
        assert!(!ctx.active());
        mark_seen(ctx, 2);
        mark_respond(ctx, 3, false);
        let guard = begin_batch(0, 2, 1);
        assert_eq!(guard.id(), 0);
        drop(guard);
        let (reqs, batches, dropped) = timeline_snapshot();
        assert!(reqs.is_empty() && batches.is_empty() && dropped == 0);
    }

    #[test]
    fn request_life_cycle_segments() {
        let _g = test_lock();
        crate::set_level(1);
        reset_timeline();
        let ctx = begin_request(3, 10, 20);
        assert!(ctx.active());
        mark_seen(ctx, 11);
        mark_seen(ctx, 15); // idempotent: first seen wins
        let batch_id;
        {
            let guard = begin_batch(3, 12, 4);
            batch_id = guard.id();
            {
                let _s = stage_scope("decompose");
            }
            {
                let _s = stage_scope("head");
            }
        }
        mark_flushed(ctx, 12, batch_id, 4);
        mark_respond(ctx, 12, false);
        let (reqs, batches, _) = timeline_snapshot();
        let r = &reqs[0];
        assert_eq!((r.submitted, r.seen, r.flushed, r.responded), (10, 11, 12, 12));
        assert_eq!(r.batch, batch_id);
        assert!(!r.missed);
        let b = &batches[0];
        assert_eq!(b.size, 4);
        assert_eq!(b.stages.len(), 2);
        assert_eq!(b.stages[0].0, "decompose");
        let json = timeline_to_json();
        assert_eq!(json.get("schema").and_then(|s| s.as_str()), Some("ts3.timeline.v1"));
        let req = &json.get("requests").and_then(|r| r.as_array()).unwrap()[0];
        let seg = req.get("segments").unwrap();
        assert_eq!(seg.get("queue_wait").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(seg.get("hold").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(seg.get("respond").and_then(|v| v.as_f64()), Some(0.0));
        crate::set_level(0);
        reset_timeline();
    }

    #[test]
    fn stage_scope_outside_batch_is_inert() {
        let _g = test_lock();
        crate::set_level(1);
        reset_timeline();
        {
            let _s = stage_scope("orphan");
        }
        let (_, batches, _) = timeline_snapshot();
        assert!(batches.is_empty());
        crate::set_level(0);
        reset_timeline();
    }

    #[test]
    fn digest_excludes_wallclock() {
        let _g = test_lock();
        crate::set_level(1);
        reset_timeline();
        let ctx = begin_request(0, 0, 4);
        mark_seen(ctx, 1);
        {
            let g = begin_batch(0, 1, 1);
            let id = g.id();
            mark_flushed(ctx, 1, id, 1);
            let _s = stage_scope("stage0");
        }
        mark_respond(ctx, 1, false);
        let d = deterministic_digest();
        assert!(d.contains("r tenant=0 sub=0 seen=1 flush=1 resp=1 dl=4 miss=false bsize=1"));
        assert!(d.contains("stages=stage0"));
        assert!(!d.contains("ns"), "digest must not embed wallclock: {d}");
        crate::set_level(0);
        reset_timeline();
    }
}
