//! Online-forecast mode: per-stream pulsed decomposition feeding warm
//! compiled plans.
//!
//! The closed-loop [`sim`](crate::sim) models request/response clients
//! that ship a whole `[T, C]` window per request. The online mode
//! models the streaming workload the ROADMAP targets — each client
//! **appends one sample per tick** — by keeping a
//! [`PulsedTriple`] per stream: O(C) ring
//! bookkeeping per sample, and on each pulse (every `hop` samples once
//! warm) the trailing window goes to the tenant's warm
//! [`CompiledPlan`] through the ordinary
//! coalescing server. A [`SlidingDft`] monitor
//! rides along and flags period drift (its cheap per-sample dominant
//! period disagreeing with the pulse's exact `T_f`) — the signal a
//! production deployment would use to trigger re-calibration.
//!
//! Like `sim`, the driver is single-threaded lockstep with no wallclock:
//! the same [`OnlineConfig`] produces a bit-identical [`OnlineReport`]
//! at any worker-pool thread cap (asserted in
//! `tests/serve_integration.rs`).

use crate::server::{ForecastRequest, ForecastResponse, ServerConfig, ServerHandle, ServerStats};
use std::sync::mpsc::{channel, Receiver, Sender};
use ts3_rng::rngs::StdRng;
use ts3_rng::{Rng, SeedableRng};
use ts3_signal::decompose::TripleConfig;
use ts3_stream::{PulsedTriple, SlidingDft, StreamConfig};
use ts3net_core::CompiledPlan;

/// Online-simulation parameters.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Independent sample streams (each is one "user").
    pub n_streams: usize,
    /// Ticks to run; every stream appends one sample per tick.
    pub ticks: u64,
    /// Seed for the per-stream sample generators.
    pub seed: u64,
    /// Forecast deadline = pulse tick + this slack.
    pub deadline_slack: u64,
    /// `[lookback, c_in]` of each tenant's plan, in tenant order.
    /// Stream `i` talks to tenant `i % tenants.len()`.
    pub tenants: Vec<[usize; 2]>,
    /// Pulse cadence: decompose + submit every `hop` samples once warm.
    pub hop: usize,
    /// Spectral bands for the streaming decomposition.
    pub lambda: usize,
    /// Server/batching knobs.
    pub server: ServerConfig,
}

/// What an online run produced. Every field is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineReport {
    /// Samples appended across all streams.
    pub samples: u64,
    /// Pulses emitted (streaming decompositions computed).
    pub pulses: u64,
    /// Pulses skipped because the stream still had a forecast in flight.
    pub pulses_skipped: u64,
    /// Successful forecasts returned.
    pub forecasts: u64,
    /// Scheduling latency of each forecast in ticks, completion order.
    pub latencies_ticks: Vec<u64>,
    /// Batch size each forecast rode in, aligned with `latencies_ticks`.
    pub batch_sizes: Vec<usize>,
    /// Pulses whose exact `T_f` differed from the previous pulse's.
    pub t_f_changes: u64,
    /// Pulses where the sliding-DFT monitor disagreed with the exact
    /// `T_f` — the online period-drift alert.
    pub drift_alerts: u64,
    /// Final server counters.
    pub stats: ServerStats,
}

struct Stream {
    tenant: usize,
    rng: StdRng,
    pulse: PulsedTriple,
    monitor: SlidingDft,
    last_t_f: Option<usize>,
    in_flight: bool,
    reply_tx: Sender<ForecastResponse>,
    reply_rx: Receiver<ForecastResponse>,
}

impl Stream {
    /// One synthetic sample row: trend + two tones + seeded noise, the
    /// same flavor as the request-mode sim windows.
    fn sample(&mut self, now: u64, channels: usize) -> Vec<f32> {
        (0..channels)
            .map(|ch| {
                let ti = now as f32;
                let noise: f32 = self.rng.gen_f32() - 0.5;
                0.02 * ti
                    + (std::f32::consts::TAU * ti / 8.0 + ch as f32).sin()
                    + 0.3 * (std::f32::consts::TAU * ti / 24.0).cos()
                    + 0.1 * noise
            })
            .collect()
    }
}

/// Run the online streaming simulation. `builder` runs on the server's
/// executor thread and must return one plan per entry in `cfg.tenants`,
/// with matching geometries.
pub fn run_online_sim(
    cfg: &OnlineConfig,
    builder: impl FnOnce() -> Vec<CompiledPlan> + Send + 'static,
) -> OnlineReport {
    assert!(cfg.hop >= 1, "run_online_sim: hop must be >= 1");
    let server = ServerHandle::start(cfg.server, builder);
    let n_tenants = cfg.tenants.len().max(1);
    let mut streams: Vec<Stream> = (0..cfg.n_streams)
        .map(|i| {
            let tenant = i % n_tenants;
            let [t, c] = cfg.tenants[tenant];
            let (reply_tx, reply_rx) = channel();
            let triple = TripleConfig { lambda: cfg.lambda, ..Default::default() };
            Stream {
                tenant,
                rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(i as u64)),
                pulse: PulsedTriple::new(StreamConfig {
                    window: t,
                    channels: c,
                    hop: cfg.hop,
                    triple,
                }),
                monitor: SlidingDft::new(t, c),
                last_t_f: None,
                in_flight: false,
                reply_tx,
                reply_rx,
            }
        })
        .collect();
    let mut report = OnlineReport {
        samples: 0,
        pulses: 0,
        pulses_skipped: 0,
        forecasts: 0,
        latencies_ticks: Vec::new(),
        batch_sizes: Vec::new(),
        t_f_changes: 0,
        drift_alerts: 0,
        stats: ServerStats::default(),
    };

    for now in 0..cfg.ticks {
        // 1) Every stream appends one sample, in stream order. Sampling
        //    never pauses — streaming state advances even while a
        //    forecast is in flight; only the *submit* is skipped then.
        for stream in streams.iter_mut() {
            let [t, c] = cfg.tenants[stream.tenant];
            let row = stream.sample(now, c);
            stream.monitor.push(&row);
            let Some(emit) = stream.pulse.push(&row) else {
                report.samples += 1;
                continue;
            };
            report.samples += 1;
            report.pulses += 1;
            if stream.last_t_f.is_some_and(|prev| prev != emit.t_f) {
                report.t_f_changes += 1;
            }
            stream.last_t_f = Some(emit.t_f);
            if let Some(observed) = stream.monitor.drift_against(emit.t_f) {
                report.drift_alerts += 1;
                crate::server::with_tenant_label(stream.tenant, |labels| {
                    ts3_obs::counter_add_l("stream.drift_alerts", labels, 1);
                });
                ts3_obs::flight::note_drift(now, stream.tenant, emit.t_f, observed);
            }
            if stream.in_flight {
                report.pulses_skipped += 1;
                continue;
            }
            let req = ForecastRequest {
                tenant: stream.tenant,
                input: emit.window_tensor(t, c),
                submitted: now,
                deadline: now + cfg.deadline_slack,
            };
            let reply = stream.reply_tx.clone();
            if server.submit(req, &reply).is_ok() {
                stream.in_flight = true;
            }
        }
        // 2) The server schedules and executes everything due this tick.
        if server.step(now).is_err() {
            break;
        }
        // 3) Collect replies (lockstep, as in `sim`).
        for stream in streams.iter_mut() {
            while let Ok(resp) = stream.reply_rx.try_recv() {
                stream.in_flight = false;
                if resp.result.is_ok() {
                    report.forecasts += 1;
                    report.latencies_ticks.push(resp.completed - resp.submitted);
                    report.batch_sizes.push(resp.batched_with);
                }
            }
        }
    }

    report.stats = server.shutdown(cfg.ticks).unwrap_or_default();
    for stream in streams.iter_mut() {
        while let Ok(resp) = stream.reply_rx.try_recv() {
            if resp.result.is_ok() {
                report.forecasts += 1;
                report.latencies_ticks.push(resp.completed - resp.submitted);
                report.batch_sizes.push(resp.batched_with);
            }
        }
    }
    report
}
