//! A counting global allocator, installed by the `perfbench` binary.
//!
//! Allocations are attributed to the public call the allocating thread
//! is inside ([`set_tag`]). Counting is off until [`enable`]d, so the
//! untraced runs pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The calls allocations are attributed to. `driver` is everything the
/// benchmark's own loop does outside a timed call (input generation and
/// bookkeeping); `serve.executor` is the serving executor thread.
pub const TAGS: [&str; 11] = [
    "driver",
    "data.batch",
    "core.forward",
    "autograd.backward",
    "nn.optim",
    "serve.submit",
    "serve.step",
    "serve.executor",
    "stream.push",
    "stream.sdft_push",
    "stream.drift_check",
];

static ON: AtomicBool = AtomicBool::new(false);
static COUNT: [AtomicU64; TAGS.len()] = [const { AtomicU64::new(0) }; TAGS.len()];
static BYTES: [AtomicU64; TAGS.len()] = [const { AtomicU64::new(0) }; TAGS.len()];

thread_local! {
    static TAG: Cell<usize> = const { Cell::new(0) };
}

/// Index of `name` in [`TAGS`]; unknown names count as `driver`.
pub fn tag(name: &str) -> usize {
    TAGS.iter().position(|t| *t == name).unwrap_or(0)
}

/// Attribute this thread's allocations to `tag` from now on; returns
/// the previous tag.
pub fn set_tag(tag: usize) -> usize {
    TAG.with(|t| t.replace(tag))
}

/// Turn counting on or off for every thread.
pub fn enable(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// Zero every counter.
pub fn reset() {
    for (c, b) in COUNT.iter().zip(&BYTES) {
        c.store(0, Ordering::Relaxed);
        b.store(0, Ordering::Relaxed);
    }
}

/// `(allocations, bytes)` per tag, in [`TAGS`] order.
pub fn snapshot() -> [(u64, u64); TAGS.len()] {
    std::array::from_fn(|i| (COUNT[i].load(Ordering::Relaxed), BYTES[i].load(Ordering::Relaxed)))
}

fn note(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        let tag = TAG.try_with(Cell::get).unwrap_or(0);
        COUNT[tag].fetch_add(1, Ordering::Relaxed);
        BYTES[tag].fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// [`System`] plus the counters above.
pub struct Counting;

// SAFETY: every method forwards its arguments to `System` unchanged, so
// `System`'s guarantees carry over. The added bookkeeping touches only
// atomics and a const-initialised thread-local `Cell` without a
// destructor, neither of which allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
