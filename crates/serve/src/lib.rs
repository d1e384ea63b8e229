//! # ts3-serve — multi-tenant batching forecast server
//!
//! Serves frozen [`CompiledPlan`](ts3net_core::CompiledPlan)s behind a
//! request queue with **deadline-aware coalescing**: compatible requests
//! for the same tenant are stacked into one batched plan execution,
//! trading a bounded number of hold ticks for amortized throughput.
//!
//! Layout:
//!
//! * [`coalescer`] — the pure batching policy (flush on full batch,
//!   max-hold expiry, or imminent deadline). No threads, no clocks.
//! * [`server`] — one executor thread that owns every tenant's plan
//!   (plans are `!Send`, so they are built *on* that thread), drains an
//!   mpsc request queue, and executes due batches at each `step` tick.
//!   All tenants share the process-wide FFT plan cache. Holds and
//!   deadlines are in ticks the caller supplies: library code never
//!   reads a wallclock (enforced by `ts3-lint`).
//! * [`sim`] — a deterministic single-threaded closed-loop load driver:
//!   same seed in, bit-identical [`SimReport`] out,
//!   regardless of worker-pool thread count.
//! * [`online`] — the streaming workload: per-stream
//!   `ts3_stream::PulsedTriple` state appending one sample per tick,
//!   pulses feeding the warm plans through the same coalescer, with a
//!   sliding-DFT period-drift monitor. Same determinism contract as
//!   [`sim`].
//!
//! ## Observability
//!
//! The serving path is instrumented end to end through `ts3-obs` v2:
//! every accepted request mints a [`ts3_obs::RequestCtx`] and is
//! tracked queue-wait → coalesce-hold → batched per-stage execute →
//! respond; the coalescer reports `serve.queue_depth` /
//! `serve.coalesce_hold`; the executor records per-tenant labeled
//! `serve.requests` / `serve.latency_ticks` / `serve.deadline_miss`
//! series and feeds every response (plus the online mode's period-drift
//! alerts) to the `ts3_obs::flight` recorder. All instrumentation is
//! tick-valued where determinism matters, so traced and untraced runs
//! produce byte-identical reports at any thread cap.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::mpsc::channel;
//! use std::rc::Rc;
//! use ts3_serve::{ForecastRequest, ServerConfig, ServerHandle};
//! use ts3net_core::{CompiledPlan, ForecastModel, TS3NetConfig};
//! use ts3_baselines::{build_forecaster, BaselineConfig};
//! use ts3_tensor::Tensor;
//!
//! // Plans are built on the executor thread by a Send closure.
//! let server = ServerHandle::start(ServerConfig::default(), || {
//!     let cfg = BaselineConfig::scaled(2, 24, 12);
//!     let ts3 = TS3NetConfig::scaled(2, 24, 12);
//!     let model: Rc<dyn ForecastModel> =
//!         Rc::from(build_forecaster("DLinear", &cfg, &ts3, 7));
//!     let calib = Tensor::zeros(&[1, 24, 2]);
//!     vec![CompiledPlan::freeze(model, &calib).unwrap()]
//! });
//!
//! let (reply_tx, reply_rx) = channel();
//! server
//!     .submit(
//!         ForecastRequest {
//!             tenant: 0,
//!             input: Tensor::zeros(&[24, 2]),
//!             submitted: 0,
//!             deadline: 2,
//!         },
//!         &reply_tx,
//!     )
//!     .unwrap();
//! server.step(0).unwrap(); // held: batch not full, deadline not imminent
//! server.step(1).unwrap(); // deadline 2 is imminent -> executes now
//! let resp = reply_rx.recv().unwrap();
//! assert_eq!(resp.result.unwrap().shape(), &[12, 2]);
//! let stats = server.shutdown(2).unwrap();
//! assert_eq!(stats.completed, 1);
//! ```

pub mod coalescer;
pub mod online;
pub mod server;
pub mod sim;

pub use coalescer::{Coalescer, CoalescerConfig, Pending};
pub use online::{run_online_sim, OnlineConfig, OnlineReport};
pub use server::{
    ForecastRequest, ForecastResponse, ServeError, ServerConfig, ServerHandle, ServerStats,
    StepReport,
};
pub use sim::{run_sim, SimConfig, SimReport};
