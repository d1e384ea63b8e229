//! The multi-tenant forecast server.
//!
//! One **executor thread** owns every tenant's [`CompiledPlan`] (plans
//! are `!Send` — `Rc`-based model graphs — so they are *built on* the
//! executor thread by a `Send` builder closure and never leave it). All
//! tenants therefore share the process-wide FFT plan cache and the
//! executor thread's plan memo: two tenants with the same window length
//! reuse the same FFT tables.
//!
//! Clients talk to the executor over an mpsc channel:
//!
//! * [`ServerHandle::submit`] enqueues a `[T, C]` window for a tenant
//!   with a deadline tick; the reply arrives on the caller's channel.
//! * [`ServerHandle::step`] is the scheduling barrier: at tick `now` the
//!   executor drains previously-submitted requests into the
//!   [`Coalescer`], executes every batch
//!   that is due (stacked into one `[N, T, C]` plan run per tenant), and
//!   replies to each request. Time only moves when the driver steps, so
//!   batching decisions are a pure function of the submitted load — the
//!   deterministic simulation and the latency benchmark drive the same
//!   code path.
//! * [`ServerHandle::shutdown`] drains everything still queued (no
//!   request is dropped), returns final counters and joins the thread.
//!   Dropping the handle performs the same graceful shutdown.

use crate::coalescer::{Coalescer, CoalescerConfig, Pending};
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use ts3_tensor::Tensor;
use ts3net_core::CompiledPlan;

/// A single forecast request: one lookback window for one tenant.
#[derive(Debug)]
pub struct ForecastRequest {
    /// Tenant index (dense, `0..n_tenants`).
    pub tenant: usize,
    /// The window, shaped `[T, C]` for the tenant's plan geometry.
    pub input: Tensor,
    /// Tick at which the client submitted.
    pub submitted: u64,
    /// Tick by which the client wants the forecast.
    pub deadline: u64,
}

/// What went wrong with a request or a server call.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Tenant index out of range.
    UnknownTenant {
        /// The offending index.
        tenant: usize,
        /// How many tenants the server hosts.
        tenants: usize,
    },
    /// Input window does not match the tenant plan's `[T, C]` geometry.
    BadShape {
        /// Expected `[lookback, c_in]`.
        expected: [usize; 2],
        /// The submitted shape.
        got: Vec<usize>,
    },
    /// Plan execution failed (carries the `PlanError` rendering).
    Plan(String),
    /// The server thread is gone (already shut down or panicked).
    Closed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant { tenant, tenants } => {
                write!(f, "unknown tenant {tenant} (server hosts {tenants})")
            }
            ServeError::BadShape { expected, got } => write!(
                f,
                "expected a [{}, {}] window, got {:?}",
                expected[0], expected[1], got
            ),
            ServeError::Plan(msg) => write!(f, "plan execution failed: {msg}"),
            ServeError::Closed => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Reply to one [`ForecastRequest`].
#[derive(Debug)]
pub struct ForecastResponse {
    /// The `[H, C]` forecast, or why it could not be produced.
    pub result: Result<Tensor, ServeError>,
    /// Tick the request was submitted at (copied from the request).
    pub submitted: u64,
    /// Tick the executing step ran at.
    pub completed: u64,
    /// How many requests shared the plan execution (1 = ran alone).
    pub batched_with: usize,
    /// True if `completed > deadline`.
    pub deadline_missed: bool,
}

/// What one [`ServerHandle::step`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Plan executions performed.
    pub batches: usize,
    /// Requests answered.
    pub completed: usize,
    /// Requests still queued for a later step.
    pub still_pending: usize,
}

/// Lifetime counters, returned by [`ServerHandle::shutdown`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests accepted.
    pub requests: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Plan executions.
    pub batches: u64,
    /// Responses completed after their deadline tick.
    pub deadline_misses: u64,
    /// Largest batch a single plan execution carried.
    pub max_batch_size: usize,
}

/// Server configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Batching policy.
    pub coalescer: CoalescerConfig,
}

enum Msg {
    Submit(ForecastRequest, Sender<ForecastResponse>),
    Step { now: u64, done: Sender<StepReport> },
    Shutdown { now: u64, done: Sender<ServerStats> },
}

/// Client-side handle to a running server. Cheap to use from one driver
/// thread; submissions and steps sent from the same thread are processed
/// in submission order.
pub struct ServerHandle {
    tx: Sender<Msg>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Start a server. `builder` runs **on the executor thread** and
    /// returns one frozen plan per tenant (tenant index = position).
    pub fn start(
        cfg: ServerConfig,
        builder: impl FnOnce() -> Vec<CompiledPlan> + Send + 'static,
    ) -> ServerHandle {
        let (tx, rx) = channel::<Msg>();
        let join = std::thread::Builder::new()
            .name("ts3-serve-executor".to_string())
            .spawn(move || executor(rx, cfg, builder))
            // ts3-lint: allow(no-unwrap-in-lib) thread spawn fails only on resource exhaustion at process start
            .expect("failed to spawn the ts3-serve executor thread");
        ServerHandle { tx, join: Some(join) }
    }

    /// Enqueue a request; the reply will arrive on `reply`.
    pub fn submit(
        &self,
        req: ForecastRequest,
        reply: &Sender<ForecastResponse>,
    ) -> Result<(), ServeError> {
        self.tx
            .send(Msg::Submit(req, reply.clone()))
            .map_err(|_| ServeError::Closed)
    }

    /// Run scheduling at tick `now` and block until the executor has
    /// finished every batch due at that tick (barrier).
    pub fn step(&self, now: u64) -> Result<StepReport, ServeError> {
        let (done_tx, done_rx) = channel();
        self.tx
            .send(Msg::Step { now, done: done_tx })
            .map_err(|_| ServeError::Closed)?;
        done_rx.recv().map_err(|_| ServeError::Closed)
    }

    /// Graceful shutdown at tick `now`: every queued request is executed
    /// and answered, the final counters are returned, and the executor
    /// thread is joined.
    pub fn shutdown(mut self, now: u64) -> Result<ServerStats, ServeError> {
        let stats = self.shutdown_inner(now);
        stats.ok_or(ServeError::Closed)
    }

    fn shutdown_inner(&mut self, now: u64) -> Option<ServerStats> {
        let (done_tx, done_rx) = channel();
        let sent = self.tx.send(Msg::Shutdown { now, done: done_tx }).is_ok();
        let stats = if sent { done_rx.recv().ok() } else { None };
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        stats
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.join.is_some() {
            let _ = self.shutdown_inner(u64::MAX);
        }
    }
}

/// What rides through the coalescer for one accepted request: the
/// window, its deadline, the timeline identity minted at accept, and
/// the reply channel.
struct Queued {
    input: Tensor,
    deadline: u64,
    ctx: ts3_obs::RequestCtx,
    reply: Sender<ForecastResponse>,
}

struct Executor {
    plans: Vec<CompiledPlan>,
    coalescer: Coalescer<Queued>,
    stats: ServerStats,
}

/// Run `f` with the tenant's decimal label, only when tracing is
/// enabled — labeled call sites pay no formatting/allocation on the
/// disabled path.
pub(crate) fn with_tenant_label(tenant: usize, f: impl FnOnce(&[(&'static str, &str)])) {
    if ts3_obs::enabled() {
        let t = tenant.to_string();
        f(&[("tenant", t.as_str())]);
    }
}

/// Hand the heap pages freed by the plan builder back to the OS.
///
/// Freezing runs each tenant's taped forward on the calibration batch
/// (the bitwise self-check); for TS3Net at batch 8 that graph is ~22 MB,
/// all of it freed before serving starts but left resident in the
/// executor's arena. Whether glibc later shrinks that arena on its own
/// depends on where a few long-lived chunks happened to land, so the
/// process's resident memory would differ from one start to the next.
/// Trimming once here makes the executor's resident memory its serving
/// working set, every time. A no-op off glibc.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a byte count, locks each
        // arena itself and only releases pages of free chunks, so it is
        // sound to call at any point from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn executor(
    rx: Receiver<Msg>,
    cfg: ServerConfig,
    builder: impl FnOnce() -> Vec<CompiledPlan>,
) {
    let plans = builder();
    release_free_heap();
    let mut ex = Executor {
        coalescer: Coalescer::new(plans.len(), cfg.coalescer),
        plans,
        stats: ServerStats::default(),
    };
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Submit(req, reply) => ex.accept(req, reply),
            Msg::Step { now, done } => {
                let report = ex.run_due(now, false);
                let _ = done.send(report);
            }
            Msg::Shutdown { now, done } => {
                // Drain submissions that raced the shutdown message, then
                // flush every queue so no request goes unanswered.
                while let Ok(msg) = rx.try_recv() {
                    match msg {
                        Msg::Submit(req, reply) => ex.accept(req, reply),
                        Msg::Step { now, done } => {
                            let report = ex.run_due(now, false);
                            let _ = done.send(report);
                        }
                        Msg::Shutdown { .. } => {}
                    }
                }
                ex.run_due(now, true);
                let _ = done.send(ex.stats);
                return;
            }
        }
    }
    // All senders dropped without an explicit shutdown: flush and exit.
    ex.run_due(u64::MAX, true);
}

impl Executor {
    fn accept(&mut self, req: ForecastRequest, reply: Sender<ForecastResponse>) {
        self.stats.requests += 1;
        ts3_obs::counter_add("serve.requests", 1);
        with_tenant_label(req.tenant, |labels| {
            ts3_obs::counter_add_l("serve.requests", labels, 1);
        });
        let err = if req.tenant >= self.plans.len() {
            Some(ServeError::UnknownTenant { tenant: req.tenant, tenants: self.plans.len() })
        } else {
            let geom = self.plans[req.tenant].geometry();
            if req.input.shape() != geom {
                Some(ServeError::BadShape { expected: geom, got: req.input.shape().to_vec() })
            } else {
                None
            }
        };
        if let Some(err) = err {
            self.stats.failed += 1;
            let _ = reply.send(ForecastResponse {
                result: Err(err),
                submitted: req.submitted,
                completed: req.submitted,
                batched_with: 0,
                deadline_missed: false,
            });
            return;
        }
        let ctx = ts3_obs::begin_request(req.tenant, req.submitted, req.deadline);
        self.coalescer.push(
            req.tenant,
            Pending::new(
                req.submitted,
                req.deadline,
                Queued { input: req.input, deadline: req.deadline, ctx, reply },
            ),
        );
    }

    fn run_due(&mut self, now: u64, drain: bool) -> StepReport {
        let batches =
            if drain { self.coalescer.drain_all(now) } else { self.coalescer.due(now) };
        let mut report = StepReport::default();
        for (tenant, batch) in batches {
            report.batches += 1;
            report.completed += batch.len();
            self.execute(tenant, batch, now);
        }
        report.still_pending = self.coalescer.pending();
        report
    }

    fn execute(&mut self, tenant: usize, batch: Vec<Pending<Queued>>, now: u64) {
        let plan = &self.plans[tenant];
        let [lookback, c_in] = plan.geometry();
        let n = batch.len();
        self.stats.batches += 1;
        self.stats.max_batch_size = self.stats.max_batch_size.max(n);
        ts3_obs::counter_add("serve.batches", 1);
        let mut span = ts3_obs::span("serve.batch");
        if span.active() {
            span.field("tenant", tenant);
            span.field("size", n);
            span.field("model", plan.name().to_string());
        }
        // Stack the windows into one [N, T, C] execution, timed as one
        // timeline batch — the `stage_scope` seams inside the model's
        // eager forward (run by `CompiledPlan::run`) file their per-stage
        // execute segments into this scope.
        let mut data = Vec::with_capacity(n * lookback * c_in);
        for p in &batch {
            data.extend_from_slice(p.payload.input.as_slice());
        }
        let stacked = Tensor::from_vec(data, &[n, lookback, c_in]);
        let batch_guard = ts3_obs::begin_batch(tenant, now, n);
        let batch_id = batch_guard.id();
        let outcome = plan.run(&stacked);
        drop(batch_guard);
        for (i, p) in batch.into_iter().enumerate() {
            let Queued { deadline, ctx, reply, .. } = p.payload;
            let result = match &outcome {
                Ok(y) => {
                    let h = y.shape()[1];
                    Ok(y.narrow(0, i, 1).reshape(&[h, c_in]))
                }
                Err(e) => Err(ServeError::Plan(e.to_string())),
            };
            if result.is_ok() {
                self.stats.completed += 1;
            } else {
                self.stats.failed += 1;
            }
            let deadline_missed = now > deadline;
            if deadline_missed {
                self.stats.deadline_misses += 1;
                ts3_obs::counter_add("serve.deadline_miss", 1);
            }
            with_tenant_label(tenant, |labels| {
                ts3_obs::observe_l(
                    "serve.latency_ticks",
                    labels,
                    now.saturating_sub(p.submitted) as f64,
                );
                if deadline_missed {
                    ts3_obs::counter_add_l("serve.deadline_miss", labels, 1);
                }
            });
            ts3_obs::mark_seen(ctx, p.seen.unwrap_or(now));
            ts3_obs::mark_flushed(ctx, now, batch_id, n);
            ts3_obs::mark_respond(ctx, now, deadline_missed);
            ts3_obs::flight::note_response(now, tenant, deadline_missed);
            let _ = reply.send(ForecastResponse {
                result,
                submitted: p.submitted,
                completed: now,
                batched_with: n,
                deadline_missed,
            });
        }
    }
}
