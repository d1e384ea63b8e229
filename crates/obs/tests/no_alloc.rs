//! The disabled-path cost contract: with `TS3_TRACE=0`, opening and
//! dropping spans (plain, timeline stage and `serve.batch` spans
//! alike), recording fields, emitting events and bumping counters must
//! not allocate at all. With tracing on, bumping an
//! existing static-name counter or gauge allocates nothing either. A
//! counting global allocator makes the claims checkable instead of
//! aspirational.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the `System` allocator — every pointer,
// layout and length reaches `System` unchanged, so `System`'s own
// GlobalAlloc guarantees carry over verbatim. The only added behaviour
// is a SeqCst counter bump, which touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout to `System.alloc` unchanged;
    // the returned pointer is whatever `System` produced.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    // SAFETY: the caller promises `ptr`/`layout` came from this
    // allocator, which is `System` underneath — forwarding is sound.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same pass-through argument as `dealloc`; `System.realloc`
    // receives the caller's pointer, layout and size untouched.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn no_alloc_when_disabled() {
    ts3_obs::set_level(0);
    // Warm every lazily-initialised path (env parsing caches a string,
    // the collector and registry exist behind OnceLocks) so the
    // measured loop sees only steady-state behaviour.
    assert!(!ts3_obs::enabled());
    {
        let mut s = ts3_obs::span("warm");
        s.field("k", 1u64);
    }
    ts3_obs::event("warm", |f| f.set("k", 1u64));
    ts3_obs::counter_add("warm", 1);
    ts3_obs::gauge_set("warm", 0.0);
    ts3_obs::observe("warm", 0.0);
    ts3_obs::counter_add_l("warm", &[("tenant", "0")], 1);
    let _ = ts3_obs::begin_request(0, 0, 1);
    drop(ts3_obs::begin_batch(0, 0, 1));
    drop(ts3_obs::stage("warm.stage"));
    ts3_obs::flight::note_response(0, 0, false);

    let before = ALLOCS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        let mut s = ts3_obs::span("tensor.matmul");
        s.field("m", 64u64);
        s.field("flops", i);
        ts3_obs::counter_add("tensor.matmul.flops", i);
        ts3_obs::gauge_set("optim.grad_norm", 0.5);
        ts3_obs::observe("optim.grad_norm", 0.5);
        ts3_obs::event("epoch", |f| f.set("loss", 0.5f64));
        // v2 entry points: labeled metrics, request timelines and the
        // (unconfigured) flight recorder are equally free when off.
        // Label slices of static strs are stack-built — no heap.
        ts3_obs::counter_add_l("serve.requests", &[("tenant", "0")], 1);
        ts3_obs::gauge_set_l("serve.queue_depth", &[("tenant", "0")], 1.0);
        ts3_obs::observe_l("serve.latency_ticks", &[("tenant", "0")], 1.0);
        let ctx = ts3_obs::begin_request(0, i, i + 2);
        ts3_obs::mark_seen(ctx, i);
        {
            let b = ts3_obs::begin_batch(0, i, 1);
            ts3_obs::mark_flushed(ctx, i, b.id(), 1);
            let _stage = ts3_obs::stage("model.stage");
        }
        ts3_obs::mark_respond(ctx, i, false);
        ts3_obs::flight::note_response(i, 0, false);
        ts3_obs::flight::note_drift(i, 0, 8, 8);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "disabled spans/events/metrics must not allocate");

    // And nothing was recorded either.
    let (spans, events, dropped) = ts3_obs::snapshot_records();
    assert!(spans.is_empty() && events.is_empty() && dropped == 0);
    let m = ts3_obs::metrics_snapshot();
    assert!(m.counters.is_empty() && m.gauges.is_empty() && m.hists.is_empty());
    let l = ts3_obs::labeled_snapshot();
    assert!(l.counters.is_empty() && l.gauges.is_empty() && l.hists.is_empty());
    let (reqs, batches, tl_dropped) = ts3_obs::timeline_snapshot();
    assert!(reqs.is_empty() && batches.is_empty() && tl_dropped == 0);
    assert!(ts3_obs::flight::to_json().is_none());

    // Enabled: a static-name write is the zero-label series, whose empty
    // label set is built without a heap allocation. Checked here, not in
    // a second test, because the counting allocator is process-wide.
    ts3_obs::set_level(1);
    ts3_obs::counter_add("hot.calls", 1);
    ts3_obs::gauge_set("hot.norm", 0.0);
    let before = ALLOCS.load(Ordering::SeqCst);
    for i in 0..10_000u64 {
        ts3_obs::counter_add("hot.calls", i);
        ts3_obs::gauge_set("hot.norm", i as f64);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    ts3_obs::set_level(0);
    assert_eq!(after - before, 0, "existing zero-label series must not allocate");
    let m = ts3_obs::metrics_snapshot();
    assert_eq!(m.counters, vec![("hot.calls", 1 + 9_999 * 10_000 / 2)]);
    assert_eq!(m.gauges, vec![("hot.norm", 9_999.0)]);
    ts3_obs::reset();
}
