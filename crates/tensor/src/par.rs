//! Deterministic parallel-for over row blocks, executed on a
//! process-lifetime pool of parked worker threads.
//!
//! This module is the workspace's entire threading substrate (it fills
//! the role `rayon`/`crossbeam` would have played): a single primitive,
//! [`par_rows_mut`], that splits a flat output buffer into contiguous
//! blocks of whole rows and fans the blocks out to a **persistent
//! worker pool**. Workers are spawned lazily on first multi-threaded
//! dispatch, park on a condvar between dispatches, and live for the
//! rest of the process — the hot path never spawns an OS thread.
//!
//! ## Partitioning scheme
//!
//! The buffer's `rows = out.len() / row_width` rows are split into `t`
//! contiguous blocks, where `t = min(max_threads(), rows / grain)` —
//! `grain` is the minimum number of rows worth a thread. Block sizes
//! are `ceil`/`floor` balanced (`rows % t` leading blocks get one extra
//! row), so the partition is a pure function of `(rows, t)`: no work
//! stealing, no scheduler state, no run-to-run variation. The last
//! block always runs on the calling thread, so the single-thread path
//! touches no pool machinery at all.
//!
//! ## When results are bit-identical to serial
//!
//! Each worker receives a *disjoint* `&mut` block and the row offset it
//! starts at, and workers never share accumulators. As long as the
//! worker computes each row the same way the serial loop would (true
//! for every use in this crate: matmul row kernels and per-sample
//! convolution), the bytes written are **identical to a serial run for
//! every thread count** — parallelism only changes which thread writes
//! them. That makes `TS3_THREADS=1` vs `TS3_THREADS=8` runs, and runs
//! on different machines, bit-for-bit reproducible. This also covers
//! the contended fallback below: any dispatch may legally degrade to a
//! serial inline run without changing a single output bit.
//!
//! ## Pool design
//!
//! * One global `Pool` behind a `OnceLock`, holding a mutex-guarded
//!   vector of workers. Each worker owns a single-slot mailbox
//!   (`Mutex<Option<Job>>` + `Condvar`); dispatch fills the mailboxes
//!   of the first `t - 1` workers, runs the final block inline, then
//!   blocks on a completion latch until every job has finished.
//! * The worker vector's mutex doubles as the **dispatch lock**; it is
//!   only ever `try_lock`ed. A nested `par_rows_mut` from inside a
//!   worker closure, or a concurrent dispatch from another caller
//!   thread, simply fails the `try_lock` and runs serially inline —
//!   deadlock-free by construction, and bit-identical by the contract
//!   above.
//! * Worker panics are caught, parked in the latch, and re-raised on
//!   the calling thread once every sibling block has completed
//!   (`resume_unwind`), so a poisoned kernel panics the caller, not the
//!   pool: workers survive and keep serving later dispatches.
//! * Spawning is lazy and monotone: a dispatch that wants `t` threads
//!   tops the pool up to `t - 1` workers. The pool therefore holds at
//!   most `max_threads() - 1` OS threads unless the cap is *raised*
//!   mid-process (see below), and never more than `HARD_MAX - 1`.
//!
//! ## Thread-count policy
//!
//! [`max_threads`] reads `TS3_THREADS` (clamped to `[1, HARD_MAX]`) or
//! falls back to [`std::thread::available_parallelism`], caching the
//! answer for the process lifetime. [`set_max_threads`] overrides the
//! cap at runtime and takes effect on the **next dispatch** even after
//! the pool exists: shrinking masks the surplus workers (they stay
//! parked and unused), growing spawns the missing workers lazily, up to
//! `HARD_MAX`.
//!
//! ## Schedule fuzzing (`TS3_SCHED_FUZZ`)
//!
//! The bit-identity contract above claims outputs do not depend on
//! *which* worker runs *which* block or in what order the mailboxes are
//! filled. `TS3_SCHED_FUZZ=<seed>` (or [`set_sched_fuzz`]) turns that
//! claim into something testable: every pool dispatch draws a fresh
//! deterministic permutation (seeded from the fuzz seed and a
//! per-dispatch round counter, via `ts3-rng`) of **(a)** the
//! block→worker assignment and **(b)** the mailbox wake order. The
//! partition boundaries themselves never change — only the schedule —
//! so a correct row-wise worker must still produce bitwise-identical
//! buffers. The `sched_fuzz_sweep` integration test sweeps 16 seeds ×
//! several thread counts over matmul/FFT/decomposition/forward and
//! asserts exactly that; a failure means some kernel secretly depends
//! on scheduling (shared accumulator, block-order dependence, data
//! race). The fuzz branch is fully outside the default hot path: one
//! relaxed atomic load when the knob is off.
//!
//! ## Observability
//!
//! `tensor.par.dispatches` counts one per [`par_rows_mut`] call and is
//! independent of the thread count (part of the ts3-obs determinism
//! contract). The `tensor.par.sched.*` counters — `pool_dispatches`,
//! `inline_runs`, `threads_spawned`, `fuzzed_dispatches` — describe
//! *how* the work was scheduled, are inherently thread-count-dependent,
//! and are therefore excluded from cross-thread-count determinism
//! comparisons (the `trace_determinism` test filters `".sched."`
//! names). The same numbers are available untraced through
//! [`pool_stats`].

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use ts3_rng::rngs::StdRng;
use ts3_rng::{Rng, SeedableRng};

/// Absolute ceiling on the thread cap (and thus `HARD_MAX - 1` pool
/// workers per process), however `TS3_THREADS` / [`set_max_threads`]
/// are abused.
const HARD_MAX: usize = 256;

/// `0` means "not yet initialised from the environment".
static CAP: AtomicUsize = AtomicUsize::new(0);

/// Process-wide worker-count cap (see module docs for the policy).
pub fn max_threads() -> usize {
    let cap = CAP.load(Ordering::Relaxed);
    if cap != 0 {
        return cap;
    }
    let resolved = std::env::var("TS3_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.clamp(1, HARD_MAX))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    // Racing initialisers resolve the same value, so last-store-wins is
    // harmless.
    CAP.store(resolved, Ordering::Relaxed);
    resolved
}

/// Override the worker-count cap at runtime (clamped to `[1, HARD_MAX]`).
///
/// Takes effect on the next dispatch even when the pool is already
/// warm: shrinking leaves the surplus workers parked, growing spawns
/// the missing ones lazily. This exists for tests and calibration tools
/// that compare thread counts within one process (e.g. the
/// `trace_determinism` test); production code should configure
/// `TS3_THREADS` instead.
pub fn set_max_threads(n: usize) {
    CAP.store(n.clamp(1, HARD_MAX), Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Schedule fuzzing.

/// `0` = not yet resolved from the environment, `1` = off, `2` = on.
static FUZZ_STATE: AtomicUsize = AtomicUsize::new(0);
static FUZZ_SEED: AtomicU64 = AtomicU64::new(0);
/// Per-dispatch round counter: every fuzzed dispatch draws a distinct
/// permutation even under a fixed seed.
static FUZZ_ROUNDS: AtomicU64 = AtomicU64::new(0);

/// The active schedule-fuzz seed, if fuzzing is enabled.
///
/// Resolved once from `TS3_SCHED_FUZZ` (any value that parses as `u64`
/// enables fuzzing, including `0`); [`set_sched_fuzz`] overrides at
/// runtime. Off is one relaxed atomic load.
pub fn sched_fuzz() -> Option<u64> {
    match FUZZ_STATE.load(Ordering::Acquire) {
        1 => None,
        2 => Some(FUZZ_SEED.load(Ordering::Acquire)),
        _ => {
            let parsed = std::env::var("TS3_SCHED_FUZZ")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok());
            set_sched_fuzz(parsed);
            parsed
        }
    }
}

/// Enable (`Some(seed)`) or disable (`None`) schedule fuzzing at
/// runtime, overriding `TS3_SCHED_FUZZ`. Takes effect on the next
/// dispatch. Exists for tests that sweep seeds within one process.
pub fn set_sched_fuzz(seed: Option<u64>) {
    match seed {
        Some(s) => {
            // Seed first, then state: a reader that observes "on" must
            // also observe the seed (Release/Acquire pairing).
            FUZZ_SEED.store(s, Ordering::Release);
            FUZZ_STATE.store(2, Ordering::Release);
        }
        None => FUZZ_STATE.store(1, Ordering::Release),
    }
}

// ---------------------------------------------------------------------------
// Scheduling statistics (plain atomics: usable without ts3-obs tracing).

static SPAWNED: AtomicUsize = AtomicUsize::new(0);
static POOL_DISPATCHES: AtomicU64 = AtomicU64::new(0);
static INLINE_RUNS: AtomicU64 = AtomicU64::new(0);
static FUZZED_DISPATCHES: AtomicU64 = AtomicU64::new(0);
static LAST_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Point-in-time scheduling statistics of the worker pool.
#[derive(Debug, Clone, Copy)]
pub struct PoolStats {
    /// OS threads spawned by the pool over the process lifetime.
    pub threads_spawned: usize,
    /// Dispatches that fanned blocks out to pool workers.
    pub pool_dispatches: u64,
    /// Dispatches that ran serially inline (single-thread partition,
    /// contended pool, or spawn failure).
    pub inline_runs: u64,
    /// Pool dispatches that ran under a fuzzed schedule
    /// (`TS3_SCHED_FUZZ` / [`set_sched_fuzz`]).
    pub fuzzed_dispatches: u64,
    /// Thread count of the most recent dispatch (0 before the first).
    pub last_dispatch_threads: usize,
}

/// Snapshot the pool's scheduling counters. Unlike the mirrored
/// `tensor.par.sched.*` ts3-obs counters this works with tracing
/// disabled, which is what the pool tests use.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        threads_spawned: SPAWNED.load(Ordering::Relaxed),
        pool_dispatches: POOL_DISPATCHES.load(Ordering::Relaxed),
        inline_runs: INLINE_RUNS.load(Ordering::Relaxed),
        fuzzed_dispatches: FUZZED_DISPATCHES.load(Ordering::Relaxed),
        last_dispatch_threads: LAST_THREADS.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// The pool.

/// Monomorphised trampoline stored in a [`Job`]: reconstructs the
/// caller's closure reference and block slice from raw parts.
///
/// # Safety
/// `ctx` must point to a live `F`, and `ptr/len` to a live, exclusively
/// owned `[f32]` block, for the whole call. The dispatch guarantees
/// both by blocking on the completion latch before its stack frame
/// (which borrows the closure and the buffer) can unwind or return.
unsafe fn trampoline<F: Fn(usize, &mut [f32]) + Sync>(
    ctx: *const (),
    first_row: usize,
    ptr: *mut f32,
    len: usize,
) {
    let f = &*(ctx as *const F);
    f(first_row, std::slice::from_raw_parts_mut(ptr, len));
}

/// One block of work, type-erased so the long-lived worker threads can
/// run closures borrowed from a dispatcher's stack frame.
struct Job {
    // SAFETY: callers of `run` must uphold `trampoline`'s contract —
    // `ctx` points at a live `F` and `ptr/len` at an exclusively owned
    // block — which the dispatch guarantees by pinning its stack frame
    // on the latch until every job completes.
    run: unsafe fn(*const (), usize, *mut f32, usize),
    ctx: *const (),
    first_row: usize,
    ptr: *mut f32,
    len: usize,
    latch: *const Latch,
}
// SAFETY: a Job's raw pointers (closure context, buffer block, latch)
// are only dereferenced while the dispatching stack frame — which owns
// all three referents — is pinned on the completion latch (see
// `trampoline` and `WaitOnDrop`), so sending the Job to a worker thread
// never lets it outlive what it points at. The blocks handed to
// distinct workers are disjoint `split_at_mut` slices, so no two
// threads alias the same `&mut` data.
unsafe impl Send for Job {}

/// Completion latch for one dispatch: counts outstanding jobs and
/// carries the first worker panic back to the caller.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl Latch {
    fn new(jobs: usize) -> Latch {
        Latch {
            state: Mutex::new(LatchState { remaining: jobs, panic: None }),
            cv: Condvar::new(),
        }
    }

    /// Called by a worker when its job finishes (`panic` carries an
    /// unwind payload if the job panicked). The latch is not touched
    /// after the guard drops, so the caller may free it as soon as
    /// `remaining` hits zero.
    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        // ts3-lint: allow(no-unwrap-in-lib) lock/condvar poisoning means a worker panicked; the pool cannot be recovered and aborting is the contract
        let mut s = self.state.lock().unwrap();
        if s.panic.is_none() {
            s.panic = panic;
        } else {
            drop(panic);
        }
        s.remaining -= 1;
        if s.remaining == 0 {
            self.cv.notify_all();
        }
    }

    /// Block until every job has completed, then hand back the first
    /// captured panic payload (if any).
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        // ts3-lint: allow(no-unwrap-in-lib) lock/condvar poisoning means a worker panicked; the pool cannot be recovered and aborting is the contract
        let mut s = self.state.lock().unwrap();
        while s.remaining > 0 {
            // ts3-lint: allow(no-unwrap-in-lib) lock/condvar poisoning means a worker panicked; the pool cannot be recovered and aborting is the contract
            s = self.cv.wait(s).unwrap();
        }
        s.panic.take()
    }
}

/// Pins a dispatch's stack frame until all its pool jobs are done, even
/// if the inline block panics: the `Drop` impl re-waits on the latch,
/// so no worker can ever observe a dangling closure or buffer pointer.
struct WaitOnDrop<'a>(&'a Latch);

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        // ts3-lint: allow(no-unwrap-in-lib) lock/condvar poisoning means a worker panicked; the pool cannot be recovered and aborting is the contract
        let mut s = self.0.state.lock().unwrap();
        while s.remaining > 0 {
            // ts3-lint: allow(no-unwrap-in-lib) lock/condvar poisoning means a worker panicked; the pool cannot be recovered and aborting is the contract
            s = self.0.cv.wait(s).unwrap();
        }
    }
}

/// One parked worker: a single-slot mailbox the dispatcher fills and
/// the worker thread drains.
struct Mailbox {
    slot: Mutex<Option<Job>>,
    cv: Condvar,
}

fn worker_loop(mailbox: Arc<Mailbox>) {
    loop {
        let job = {
            // ts3-lint: allow(no-unwrap-in-lib) lock/condvar poisoning means a worker panicked; the pool cannot be recovered and aborting is the contract
            let mut slot = mailbox.slot.lock().unwrap();
            loop {
                if let Some(job) = slot.take() {
                    break job;
                }
                // ts3-lint: allow(no-unwrap-in-lib) lock/condvar poisoning means a worker panicked; the pool cannot be recovered and aborting is the contract
                slot = mailbox.cv.wait(slot).unwrap();
            }
        };
        // SAFETY: `job.ctx` and `job.ptr/len` satisfy `trampoline`'s
        // contract — the dispatching frame that owns the closure and
        // the buffer is pinned on the latch until this job completes,
        // and each job's block is a disjoint `split_at_mut` slice.
        // AssertUnwindSafe: the job's buffer block is exclusively owned
        // and simply abandoned mid-write on panic; the caller observes
        // the panic, never the half-written block.
        // ts3-lint: allow(unsafe-dataflow) the validity bound lives in the dispatcher's latch pin, not a local length; nothing assertable here
        let result = catch_unwind(AssertUnwindSafe(|| unsafe {
            (job.run)(job.ctx, job.first_row, job.ptr, job.len)
        }));
        // SAFETY: the dispatcher keeps the latch alive until `complete`
        // has decremented `remaining` (it waits under the same mutex),
        // so the pointer is valid for the duration of this borrow.
        // ts3-lint: allow(unsafe-dataflow) lifetime contract enforced by the dispatch latch, not expressible as a local assert
        let latch = unsafe { &*job.latch };
        latch.complete(result.err());
    }
}

struct Pool {
    /// Worker list; the mutex doubles as the dispatch lock (`try_lock`
    /// only — see module docs).
    workers: Mutex<Vec<Arc<Mailbox>>>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool { workers: Mutex::new(Vec::new()) })
}

impl Pool {
    /// Top `workers` up to `need` parked threads. Returns `false` if an
    /// OS spawn failed (the dispatch then degrades to inline serial).
    fn ensure_workers(workers: &mut Vec<Arc<Mailbox>>, need: usize) -> bool {
        while workers.len() < need {
            let mailbox = Arc::new(Mailbox {
                slot: Mutex::new(None),
                cv: Condvar::new(),
            });
            let for_thread = Arc::clone(&mailbox);
            let spawned = std::thread::Builder::new()
                .name(format!("ts3-par-{}", workers.len()))
                .spawn(move || worker_loop(for_thread));
            if spawned.is_err() {
                return false;
            }
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            ts3_obs::counter_add("tensor.par.sched.threads_spawned", 1);
            workers.push(mailbox);
        }
        true
    }

    /// Fan `out` out to `threads - 1` pool workers plus the calling
    /// thread. Returns `false` without touching `out` when the pool is
    /// busy (nested or concurrent dispatch) or a worker could not be
    /// spawned; the caller then runs the whole buffer inline.
    fn try_dispatch<F>(&self, threads: usize, out: &mut [f32], row_width: usize, worker: &F) -> bool
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        debug_assert!(threads >= 2);
        let Ok(mut workers) = self.workers.try_lock() else {
            return false;
        };
        if !Pool::ensure_workers(&mut workers, threads - 1) {
            return false;
        }
        POOL_DISPATCHES.fetch_add(1, Ordering::Relaxed);
        ts3_obs::counter_add("tensor.par.sched.pool_dispatches", 1);

        let rows = out.len() / row_width;
        let base = rows / threads;
        let extra = rows % threads;
        let latch = Latch::new(threads - 1);
        let ctx = worker as *const F as *const ();
        let mut rest = out;
        let mut first_row = 0usize;
        {
            // From here until the guard drops, this frame is pinned:
            // workers may hold pointers into `worker`, `out` and `latch`.
            let _pin = WaitOnDrop(&latch);
            if let Some(seed) = sched_fuzz() {
                // Fuzz mode: identical partition boundaries, permuted
                // block→worker assignment and mailbox wake order (see
                // module docs). Carve all `threads` blocks up front so
                // any block can go to any slot.
                FUZZED_DISPATCHES.fetch_add(1, Ordering::Relaxed);
                ts3_obs::counter_add("tensor.par.sched.fuzzed_dispatches", 1);
                let round = FUZZ_ROUNDS.fetch_add(1, Ordering::Relaxed);
                let mut rng =
                    StdRng::seed_from_u64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut blocks: Vec<Option<(usize, &mut [f32])>> = Vec::with_capacity(threads);
                for t in 0..threads {
                    let block_rows = base + usize::from(t < extra);
                    let (block, tail) = rest.split_at_mut(block_rows * row_width);
                    rest = tail;
                    blocks.push(Some((first_row, block)));
                    first_row += block_rows;
                }
                // `assign[k]` is the block handed to the k-th filled
                // mailbox (the last entry stays on the calling thread);
                // `wake` permutes which mailbox is filled k-th.
                let mut assign: Vec<usize> = (0..threads).collect();
                rng.shuffle(&mut assign);
                let mut wake: Vec<usize> = (0..threads - 1).collect();
                rng.shuffle(&mut wake);
                for (k, &w) in wake.iter().enumerate() {
                    // ts3-lint: allow(no-unwrap-in-lib) assign is a permutation of 0..threads, so each take() hits a distinct still-filled slot
                    let (row0, block) = blocks[assign[k]].take().unwrap();
                    let job = Job {
                        run: trampoline::<F>,
                        ctx,
                        first_row: row0,
                        ptr: block.as_mut_ptr(),
                        len: block.len(),
                        latch: &latch,
                    };
                    // ts3-lint: allow(no-unwrap-in-lib) lock/condvar poisoning means a worker panicked; the pool cannot be recovered and aborting is the contract
                    let mut slot = workers[w].slot.lock().unwrap();
                    debug_assert!(slot.is_none(), "mailbox busy under dispatch lock");
                    *slot = Some(job);
                    workers[w].cv.notify_one();
                }
                // ts3-lint: allow(no-unwrap-in-lib) assign is a permutation of 0..threads, so each take() hits a distinct still-filled slot
                let (row0, block) = blocks[assign[threads - 1]].take().unwrap();
                worker(row0, block);
            } else {
                for (t, mailbox) in workers.iter().take(threads - 1).enumerate() {
                    let block_rows = base + usize::from(t < extra);
                    let (block, tail) = rest.split_at_mut(block_rows * row_width);
                    rest = tail;
                    let job = Job {
                        run: trampoline::<F>,
                        ctx,
                        first_row,
                        ptr: block.as_mut_ptr(),
                        len: block.len(),
                        latch: &latch,
                    };
                    // ts3-lint: allow(no-unwrap-in-lib) lock/condvar poisoning means a worker panicked; the pool cannot be recovered and aborting is the contract
                    let mut slot = mailbox.slot.lock().unwrap();
                    debug_assert!(slot.is_none(), "mailbox busy under dispatch lock");
                    *slot = Some(job);
                    mailbox.cv.notify_one();
                    first_row += block_rows;
                }
                // Final block on the calling thread (exactly the
                // scoped-spawn era behaviour, so the single- and
                // multi-thread partitions agree element-for-element).
                worker(first_row, rest);
            }
        }
        if let Some(payload) = latch.wait() {
            resume_unwind(payload);
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Public entry points.

/// Split `out` into contiguous blocks of whole `row_width`-sized rows
/// and run `worker(first_row, block)` on each block, in parallel on the
/// persistent pool.
///
/// `grain` is the minimum number of rows that justifies one thread;
/// the thread count never exceeds [`max_threads`]. Results are
/// bit-identical to `worker(0, out)` whenever the worker is row-wise
/// (see module docs).
///
/// # Panics
/// Panics if `row_width == 0` or `out.len()` is not a multiple of
/// `row_width`. Worker panics propagate to the caller.
pub fn par_rows_mut<F>(out: &mut [f32], row_width: usize, grain: usize, worker: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(row_width > 0, "par_rows_mut: row_width must be positive");
    assert_eq!(out.len() % row_width, 0, "par_rows_mut: ragged buffer");
    let rows = out.len() / row_width;
    let threads = max_threads().min(rows / grain.max(1)).max(1);
    // Observability: one counter per dispatch (never per block, so the
    // value is independent of the thread count), plus a span at the
    // verbose level only — dispatches are far too hot for level 1.
    ts3_obs::counter_add("tensor.par.dispatches", 1);
    let _s = if ts3_obs::verbose() {
        let mut s = ts3_obs::span("tensor.par.dispatch");
        s.field("rows", rows);
        s.field("threads", threads);
        Some(s)
    } else {
        None
    };
    par_rows_mut_in(threads, out, row_width, &worker);
}

/// [`par_rows_mut`] with an explicit thread count — the deterministic
/// core, exposed so tests can force multi-threaded execution on any
/// machine. `threads` is clamped to `[1, rows]`.
pub fn par_rows_mut_in<F>(threads: usize, out: &mut [f32], row_width: usize, worker: &F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(row_width > 0, "par_rows_mut_in: row_width must be positive");
    assert_eq!(out.len() % row_width, 0, "par_rows_mut_in: ragged buffer");
    let rows = out.len() / row_width;
    if rows == 0 {
        return;
    }
    let threads = threads.clamp(1, rows).min(HARD_MAX);
    LAST_THREADS.store(threads, Ordering::Relaxed);
    if threads >= 2 && pool().try_dispatch(threads, out, row_width, worker) {
        return;
    }
    INLINE_RUNS.fetch_add(1, Ordering::Relaxed);
    ts3_obs::counter_add("tensor.par.sched.inline_runs", 1);
    worker(0, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row-wise worker with data-dependent, order-sensitive values.
    fn fill(first_row: usize, block: &mut [f32], width: usize) {
        for (r, row) in block.chunks_mut(width).enumerate() {
            let gr = first_row + r;
            for (c, v) in row.iter_mut().enumerate() {
                *v = ((gr * 31 + c) as f32 * 0.37).sin() * (gr as f32 + 1.0);
            }
        }
    }

    #[test]
    fn all_thread_counts_match_serial_bitwise() {
        let width = 7;
        let rows = 23;
        let mut serial = vec![0.0f32; rows * width];
        fill(0, &mut serial, width);
        for threads in [1, 2, 3, 4, 8, 23, 64] {
            let mut par = vec![0.0f32; rows * width];
            par_rows_mut_in(threads, &mut par, width, &|r0, block| fill(r0, block, width));
            assert_eq!(
                serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn partition_covers_every_row_exactly_once() {
        let width = 3;
        let rows = 17;
        let mut out = vec![0.0f32; rows * width];
        par_rows_mut_in(5, &mut out, width, &|_, block| {
            for v in block.iter_mut() {
                *v += 1.0;
            }
        });
        assert!(out.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn auto_grain_runs_serial_for_tiny_work() {
        // 4 rows with grain 8 must not panic and must fill everything.
        let mut out = vec![0.0f32; 4 * 2];
        par_rows_mut(&mut out, 2, 8, |r0, block| {
            for (i, v) in block.iter_mut().enumerate() {
                *v = (r0 * 2 + i) as f32;
            }
        });
        assert_eq!(out, (0..8).map(|v| v as f32).collect::<Vec<_>>());
    }

    #[test]
    fn empty_buffer_is_a_no_op() {
        let mut out: Vec<f32> = vec![];
        par_rows_mut(&mut out, 4, 1, |_, _| panic!("no rows, no calls"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_buffer_panics() {
        let mut out = vec![0.0f32; 5];
        par_rows_mut(&mut out, 2, 1, |_, _| {});
    }

    #[test]
    fn max_threads_is_positive_and_stable() {
        let a = max_threads();
        assert!(a >= 1);
        assert_eq!(a, max_threads());
    }

    #[test]
    fn fuzzed_schedules_are_bitwise_identical() {
        let width = 5;
        let rows = 29;
        let mut serial = vec![0.0f32; rows * width];
        fill(0, &mut serial, width);
        let serial_bits: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
        for seed in 0..8u64 {
            set_sched_fuzz(Some(seed));
            for threads in [2, 3, 5] {
                let mut par = vec![0.0f32; rows * width];
                par_rows_mut_in(threads, &mut par, width, &|r0, block| fill(r0, block, width));
                assert_eq!(
                    serial_bits,
                    par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "seed = {seed}, threads = {threads}"
                );
            }
        }
        set_sched_fuzz(None);
    }

    #[test]
    fn nested_dispatch_from_worker_degrades_to_inline() {
        // A worker that itself calls par_rows_mut_in must not deadlock:
        // the inner call fails the dispatch try_lock and runs serial.
        let width = 4;
        let mut out = vec![0.0f32; 8 * width];
        par_rows_mut_in(4, &mut out, width, &|r0, block| {
            let mut inner = vec![0.0f32; 2 * width];
            par_rows_mut_in(2, &mut inner, width, &|ir0, iblock| {
                fill(ir0, iblock, width)
            });
            for (r, row) in block.chunks_mut(width).enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = inner[c] + (r0 + r) as f32;
                }
            }
        });
        let mut reference = vec![0.0f32; 2 * width];
        fill(0, &mut reference, width);
        for (r, row) in out.chunks(width).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                assert_eq!(v.to_bits(), (reference[c] + r as f32).to_bits());
            }
        }
    }
}
