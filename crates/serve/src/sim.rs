//! Deterministic closed-loop load simulation.
//!
//! Drives a [`ServerHandle`] from a single thread in **lockstep**: at
//! every tick each idle client submits one request, the server runs its
//! scheduling step, and replies are collected — so the batching
//! decisions, response order and latency histogram are a pure function
//! of `(SimConfig, builder)`. There are no client threads and no
//! wallclock reads; running the same simulation twice (or under a
//! different worker-pool thread cap) produces a bit-identical
//! [`SimReport`].
//!
//! Latencies are measured in **ticks** (`completed - submitted`), which
//! is the scheduling latency induced by coalescing. The `serve_bench`
//! binary layers real nanosecond timing on top of the same lockstep
//! loop; this module stays time-free so it can live in library code
//! under the `ts3-lint` wallclock ban.

use crate::server::{ForecastRequest, ForecastResponse, ServerConfig, ServerHandle, ServerStats};
use std::sync::mpsc::{channel, Receiver, Sender};
use ts3_rng::rngs::StdRng;
use ts3_rng::{Rng, SeedableRng};
use ts3_tensor::Tensor;
use ts3net_core::CompiledPlan;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Concurrent closed-loop clients.
    pub n_clients: usize,
    /// Ticks to run before the graceful-shutdown drain.
    pub ticks: u64,
    /// Seed for every client's window-generator stream.
    pub seed: u64,
    /// Deadline = submit tick + this slack.
    pub deadline_slack: u64,
    /// `[lookback, c_in]` of each tenant's plan, in tenant order. Client
    /// `i` talks to tenant `i % tenants.len()`.
    pub tenants: Vec<[usize; 2]>,
    /// Server/batching knobs.
    pub server: ServerConfig,
    /// Optional injected outage: during ticks `[start, start + len)` the
    /// server's scheduling step is skipped while clients keep
    /// submitting, so queued deadlines slip and the run produces a
    /// deterministic deadline-miss burst. Used to exercise the
    /// `ts3_obs::flight` recorder's SLO trigger.
    pub stall: Option<(u64, u64)>,
}

/// What a simulation run produced. Every field is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Successful forecasts returned to clients.
    pub forecasts: u64,
    /// Scheduling latency of each forecast in ticks, in completion order.
    pub latencies_ticks: Vec<u64>,
    /// Batch size each forecast rode in, aligned with `latencies_ticks`.
    pub batch_sizes: Vec<usize>,
    /// Final server counters.
    pub stats: ServerStats,
}

struct Client {
    tenant: usize,
    rng: StdRng,
    in_flight: bool,
    reply_tx: Sender<ForecastResponse>,
    reply_rx: Receiver<ForecastResponse>,
}

impl Client {
    /// Synthetic lookback window: trend + seasonality + seeded noise, so
    /// the decomposition paths inside the models do real work.
    fn window(&mut self, shape: [usize; 2]) -> Tensor {
        let [t, c] = shape;
        let mut data = Vec::with_capacity(t * c);
        for ti in 0..t {
            for ci in 0..c {
                let phase = std::f32::consts::TAU * ti as f32 / 8.0 + ci as f32;
                let noise: f32 = self.rng.gen_f32() - 0.5;
                data.push(0.05 * ti as f32 + phase.sin() + 0.1 * noise);
            }
        }
        Tensor::from_vec(data, &[t, c])
    }
}

/// Run the closed-loop simulation. `builder` runs on the server's
/// executor thread and must return one plan per entry in
/// `cfg.tenants`, with matching geometries.
pub fn run_sim(
    cfg: &SimConfig,
    builder: impl FnOnce() -> Vec<CompiledPlan> + Send + 'static,
) -> SimReport {
    let server = ServerHandle::start(cfg.server, builder);
    let n_tenants = cfg.tenants.len().max(1);
    let mut clients: Vec<Client> = (0..cfg.n_clients)
        .map(|i| {
            let (reply_tx, reply_rx) = channel();
            Client {
                tenant: i % n_tenants,
                rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(i as u64)),
                in_flight: false,
                reply_tx,
                reply_rx,
            }
        })
        .collect();
    let mut report = SimReport {
        forecasts: 0,
        latencies_ticks: Vec::new(),
        batch_sizes: Vec::new(),
        stats: ServerStats::default(),
    };

    for now in 0..cfg.ticks {
        // 1) Idle clients submit, in client order (deterministic).
        for client in clients.iter_mut() {
            if client.in_flight {
                continue;
            }
            let shape = cfg.tenants[client.tenant];
            let req = ForecastRequest {
                tenant: client.tenant,
                input: client.window(shape),
                submitted: now,
                deadline: now + cfg.deadline_slack,
            };
            let reply = client.reply_tx.clone();
            if server.submit(req, &reply).is_ok() {
                client.in_flight = true;
            }
        }
        // 2) The server schedules and executes everything due this tick
        //    — unless this tick falls inside an injected stall window.
        let stalled = cfg.stall.is_some_and(|(start, len)| now >= start && now < start + len);
        if !stalled && server.step(now).is_err() {
            break;
        }
        // 3) Collect replies (lockstep: all responses for this tick are
        //    already in the channels when `step` returns).
        for client in clients.iter_mut() {
            while let Ok(resp) = client.reply_rx.try_recv() {
                client.in_flight = false;
                if resp.result.is_ok() {
                    report.forecasts += 1;
                    report.latencies_ticks.push(resp.completed - resp.submitted);
                    report.batch_sizes.push(resp.batched_with);
                }
            }
        }
    }

    // Graceful shutdown answers everything still queued at tick `ticks`.
    report.stats = server.shutdown(cfg.ticks).unwrap_or_default();
    for client in clients.iter_mut() {
        while let Ok(resp) = client.reply_rx.try_recv() {
            if resp.result.is_ok() {
                report.forecasts += 1;
                report.latencies_ticks.push(resp.completed - resp.submitted);
                report.batch_sizes.push(resp.batched_with);
            }
        }
    }
    report
}
