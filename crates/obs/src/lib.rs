//! # ts3-obs
//!
//! The workspace's observability substrate: structured tracing (nestable
//! spans + key/value events collected in memory) and one metrics
//! registry (counters, gauges, fixed-bucket histograms), with sinks for
//! human-readable stderr and [`ts3_json`] export. It fills the role the
//! `tracing` + `metrics` crates would play in a non-hermetic build, with
//! zero external dependencies.
//!
//! Since the v2 telemetry pass the crate also carries the production
//! serving pipeline — each layer answering a different question:
//!
//! * [`labels`] — *which tenant is slow?* The metrics registry: every
//!   series is keyed by `(name, label set)`. [`counter_add_l`] etc. write
//!   fixed-cardinality dimensional series; the static-name
//!   [`counter_add`]/[`gauge_set`]/[`observe`] write the zero-label
//!   series. Histograms report exact p50/p90/p99 by [`nearest_rank`],
//!   the workspace's one percentile rule.
//! * [`timeline`] — *where did this request's latency go?* A
//!   [`RequestCtx`] minted at enqueue, tracked through
//!   queue-wait → coalesce-hold → per-stage execute → respond, exported
//!   as `ts3.timeline.v1`. [`Span`] is the only timer: a batch is its
//!   `serve.batch` span ([`begin_batch`]) and a stage a [`stage`] span.
//! * [`flight`] — *what happened right before it broke?* A bounded
//!   event ring + rolling deadline-miss SLO window, dumping a
//!   `ts3.flight.v1` postmortem on threshold crossing or panic.
//! * [`expo`] — Prometheus-style text exposition of the registry,
//!   byte-deterministic ordering; [`folded_stacks`] renders span
//!   self-time for flamegraph tooling.
//!
//! ## Gating
//!
//! Everything hangs off one env-gated level, read once per process:
//!
//! * `TS3_TRACE=0` (and unset) — disabled. Every entry point degenerates
//!   to a single relaxed atomic load; [`span`] returns an inert guard and
//!   **allocates nothing** (covered by the `no_alloc_when_disabled`
//!   test).
//! * `TS3_TRACE=1` — spans, events and metrics are recorded in memory
//!   for later export (the bench harness writes
//!   `results/<stem>.trace.json`).
//! * `TS3_TRACE=2` — as level 1, plus a live human-readable echo of
//!   every completed span and event on stderr.
//!
//! `TS3_TRACE_MAX_SPANS=<n>` lowers the stored-span cap (default
//! [`trace::MAX_SPANS`]) so long runs — benchmark loops in particular —
//! produce compact manifests; overflow is counted in `dropped_records`,
//! never silently lost.
//!
//! ## Determinism contract
//!
//! Counter values and the span *tree shape* (names + nesting + event
//! names, not durations) are pure functions of the executed work, never
//! of the thread count: instrumented kernels open their spans on the
//! calling thread, and nothing increments a counter per worker block.
//! `TS3_THREADS=1` and `TS3_THREADS=8` runs therefore produce identical
//! dumps modulo timing fields — asserted by the cross-crate
//! `trace_determinism` test in `ts3-bench`.
//!
//! **Exception — `.sched.` counters.** Counters with a `.sched.` name
//! segment (`tensor.par.sched.*`, `signal.fft.sched.plans_built`)
//! record *scheduling and caching* decisions — pool dispatch vs. inline
//! runs, plan-cache builds — which legitimately depend on the thread
//! cap and on process history. Determinism comparisons must exclude
//! them (the `trace_determinism` test filters on the `.sched.`
//! substring); everything else remains thread-count-invariant.
//!
//! ## Example
//!
//! ```
//! ts3_obs::set_level(1);
//! {
//!     let mut s = ts3_obs::span("demo.outer");
//!     s.field("answer", 42u64);
//!     ts3_obs::event("demo.tick", |f| f.set("step", 1u64));
//!     ts3_obs::counter_add("demo.ticks", 1);
//! }
//! assert_eq!(ts3_obs::tree_shape(), "demo.outer[demo.tick]");
//! ts3_obs::reset();
//! ts3_obs::set_level(0);
//! ```

pub mod expo;
pub mod export;
pub mod flight;
pub mod gate;
pub mod labels;
pub mod timeline;
pub mod trace;

pub use export::{bench_json, folded_stacks, metrics_to_json, trace_to_json, BenchRow};
pub use gate::{enabled, explicitly_silent, set_level, verbose};
pub use labels::{
    counter_add, counter_add_l, gauge_set, gauge_set_l, labeled_snapshot, metrics_snapshot,
    nearest_rank, observe, observe_l, reset_metrics, HistStats, LabeledSnapshot, MetricsSnapshot,
};
pub use timeline::{
    begin_batch, begin_request, deterministic_digest, mark_flushed, mark_respond, mark_seen,
    reset_timeline, stage, timeline_snapshot, timeline_to_json, RequestCtx,
};
pub use trace::{
    dropped_counts, event, reset_trace, snapshot_records, span, tree_shape, EventRec, FieldValue,
    Fields, Span, SpanRec,
};

/// Clear every recorded span, event, metric, labeled series and
/// timeline record (the gate level and the flight recorder — which is
/// armed explicitly via [`flight::configure`] — are left untouched).
/// Intended for tests and multi-run tools that want one dump per run.
pub fn reset() {
    reset_trace();
    reset_metrics();
    reset_timeline();
}
