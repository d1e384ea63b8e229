//! End-to-end contracts for the serving layer: responses are bitwise
//! identical to a locally-built same-seed plan, tenants are isolated,
//! malformed and non-finite requests get typed errors, graceful
//! shutdown answers every queued request, batching actually coalesces
//! under load, and the simulation driver is bit-for-bit deterministic
//! across runs and worker-pool thread caps.

use std::rc::Rc;
use std::sync::mpsc::channel;
use ts3_baselines::{build_forecaster, BaselineConfig};
use ts3_serve::{
    run_online_sim, run_sim, CoalescerConfig, ForecastRequest, OnlineConfig, ServeError,
    ServerConfig, ServerHandle, SimConfig,
};
use ts3_tensor::par::set_max_threads;
use ts3_tensor::Tensor;
use ts3net_core::{CompiledPlan, ForecastModel, TS3NetConfig};

const LOOKBACK: usize = 24;
const HORIZON: usize = 12;
const CHANNELS: usize = 2;

fn cfgs() -> (BaselineConfig, TS3NetConfig) {
    let cfg = BaselineConfig::scaled(CHANNELS, LOOKBACK, HORIZON);
    let mut ts3 = TS3NetConfig::scaled(CHANNELS, LOOKBACK, HORIZON);
    ts3.lambda = 4;
    ts3.d_model = 4;
    ts3.d_hidden = 4;
    (cfg, ts3)
}

fn freeze(name: &str, seed: u64) -> CompiledPlan {
    let (cfg, ts3) = cfgs();
    let model: Rc<dyn ForecastModel> = Rc::from(build_forecaster(name, &cfg, &ts3, seed));
    let calib = Tensor::zeros(&[1, LOOKBACK, CHANNELS]);
    CompiledPlan::freeze(model, &calib).unwrap()
}

fn window(seed: u64) -> Tensor {
    let mut data = Vec::with_capacity(LOOKBACK * CHANNELS);
    for ti in 0..LOOKBACK {
        for ci in 0..CHANNELS {
            let tf = ti as f32 + seed as f32;
            data.push(0.02 * tf + (std::f32::consts::TAU * tf / 8.0 + 0.5 * ci as f32).sin());
        }
    }
    Tensor::from_vec(data, &[LOOKBACK, CHANNELS])
}

fn serve_cfg(max_batch: usize, max_hold: u64) -> ServerConfig {
    ServerConfig { coalescer: CoalescerConfig { max_batch, max_hold } }
}

#[test]
fn response_is_bitwise_identical_to_a_locally_built_plan() {
    let server = ServerHandle::start(serve_cfg(8, 0), || vec![freeze("DLinear", 7)]);
    let reference = freeze("DLinear", 7);
    let (tx, rx) = channel();
    for i in 0..3u64 {
        let w = window(i);
        server
            .submit(
                ForecastRequest { tenant: 0, input: w.clone(), submitted: i, deadline: i + 10 },
                &tx,
            )
            .unwrap();
        server.step(i).unwrap(); // max_hold = 0 -> executes immediately
        let resp = rx.recv().unwrap();
        let got = resp.result.unwrap();
        let want = reference
            .run(&w.reshape(&[1, LOOKBACK, CHANNELS]))
            .unwrap()
            .reshape(&[HORIZON, CHANNELS]);
        assert_eq!(got.shape(), want.shape());
        assert_eq!(got.as_slice(), want.as_slice(), "request {i}: served != local plan");
    }
    server.shutdown(3).unwrap();
}

#[test]
fn tenants_are_isolated_and_share_one_executor() {
    let server = ServerHandle::start(serve_cfg(8, 0), || {
        vec![freeze("TS3Net", 7), freeze("DLinear", 7)]
    });
    let (ts3_ref, dlinear_ref) = (freeze("TS3Net", 7), freeze("DLinear", 7));
    let w = window(5);
    let (tx_a, rx_a) = channel();
    let (tx_b, rx_b) = channel();
    server
        .submit(
            ForecastRequest { tenant: 0, input: w.clone(), submitted: 0, deadline: 10 },
            &tx_a,
        )
        .unwrap();
    server
        .submit(
            ForecastRequest { tenant: 1, input: w.clone(), submitted: 0, deadline: 10 },
            &tx_b,
        )
        .unwrap();
    server.step(0).unwrap();
    let batched = w.reshape(&[1, LOOKBACK, CHANNELS]);
    let got_a = rx_a.recv().unwrap().result.unwrap();
    let got_b = rx_b.recv().unwrap().result.unwrap();
    assert_eq!(
        got_a.as_slice(),
        ts3_ref.run(&batched).unwrap().as_slice(),
        "tenant 0 must answer with the TS3Net plan"
    );
    assert_eq!(
        got_b.as_slice(),
        dlinear_ref.run(&batched).unwrap().as_slice(),
        "tenant 1 must answer with the DLinear plan"
    );
    assert_ne!(got_a.as_slice(), got_b.as_slice(), "the two models genuinely differ");
    let stats = server.shutdown(1).unwrap();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.batches, 2, "one plan execution per tenant");
}

#[test]
fn malformed_requests_get_typed_errors_immediately() {
    let server = ServerHandle::start(serve_cfg(8, 5), || vec![freeze("DLinear", 7)]);
    let (tx, rx) = channel();
    server
        .submit(
            ForecastRequest { tenant: 3, input: window(0), submitted: 0, deadline: 10 },
            &tx,
        )
        .unwrap();
    match rx.recv().unwrap().result {
        Err(ServeError::UnknownTenant { tenant: 3, tenants: 1 }) => {}
        other => panic!("expected UnknownTenant, got {other:?}"),
    }
    server
        .submit(
            ForecastRequest {
                tenant: 0,
                input: Tensor::zeros(&[LOOKBACK, CHANNELS + 1]),
                submitted: 0,
                deadline: 10,
            },
            &tx,
        )
        .unwrap();
    match rx.recv().unwrap().result {
        Err(ServeError::BadShape { expected, got }) => {
            assert_eq!(expected, [LOOKBACK, CHANNELS]);
            assert_eq!(got, vec![LOOKBACK, CHANNELS + 1]);
        }
        other => panic!("expected BadShape, got {other:?}"),
    }
    let stats = server.shutdown(0).unwrap();
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.completed, 0);
}

#[test]
fn non_finite_window_is_rejected_and_leaves_its_neighbours_alone() {
    // TS3Net selects T_f from the spectrum averaged over the batch, so a
    // NaN lane held in the same batch would change request 1's forecast.
    let serve_one = |with_nan: bool| {
        let server = ServerHandle::start(serve_cfg(8, 4), || vec![freeze("TS3Net", 7)]);
        let (tx, rx) = channel();
        let (tx_nan, rx_nan) = channel();
        let request = |input| ForecastRequest { tenant: 0, input, submitted: 0, deadline: 10 };
        server.submit(request(window(1)), &tx).unwrap();
        if with_nan {
            let mut bad = window(2);
            bad.as_mut_slice()[5] = f32::NAN;
            server.submit(request(bad), &tx_nan).unwrap();
        }
        let stats = server.shutdown(4).unwrap();
        (rx.recv().unwrap(), rx_nan.try_recv().ok(), stats)
    };
    let (alone, _, _) = serve_one(false);
    let (neighbour, nan_reply, stats) = serve_one(true);
    match nan_reply.map(|r| r.result) {
        Some(Err(ServeError::NonFinite)) => {}
        other => panic!("expected NonFinite, got {other:?}"),
    }
    assert_eq!(neighbour.batched_with, 1, "the NaN window never joins a batch");
    assert_eq!(
        neighbour.result.unwrap().as_slice(),
        alone.result.unwrap().as_slice(),
        "the co-submitted reply must be bit-identical to a run without the NaN request"
    );
    assert_eq!((stats.completed, stats.failed), (1, 1));
}

#[test]
fn graceful_shutdown_answers_every_queued_request() {
    // Huge hold + batch thresholds: nothing becomes due on its own, so
    // only the shutdown drain can answer.
    let server = ServerHandle::start(serve_cfg(64, 1_000), || vec![freeze("DLinear", 7)]);
    let (tx, rx) = channel();
    for i in 0..5u64 {
        server
            .submit(
                ForecastRequest { tenant: 0, input: window(i), submitted: 0, deadline: 2_000 },
                &tx,
            )
            .unwrap();
    }
    let report = server.step(0).unwrap();
    assert_eq!(report.completed, 0, "policy holds everything");
    assert_eq!(report.still_pending, 5);
    let stats = server.shutdown(1).unwrap();
    assert_eq!(stats.completed, 5, "drain answers all pending requests");
    let mut replies = 0;
    while let Ok(resp) = rx.try_recv() {
        assert!(resp.result.is_ok());
        assert_eq!(resp.batched_with, 5, "drain executed one batch of 5");
        replies += 1;
    }
    assert_eq!(replies, 5);
}

#[test]
fn coalescer_batches_under_load_and_batch_results_match_singles() {
    let server = ServerHandle::start(serve_cfg(8, 2), || vec![freeze("DLinear", 7)]);
    let reference = freeze("DLinear", 7);
    let (tx, rx) = channel();
    let windows: Vec<Tensor> = (0..8).map(|i| window(i as u64)).collect();
    for w in &windows {
        server
            .submit(
                ForecastRequest { tenant: 0, input: w.clone(), submitted: 0, deadline: 20 },
                &tx,
            )
            .unwrap();
    }
    let report = server.step(0).unwrap();
    assert_eq!(report.batches, 1, "a full batch flushes in one execution");
    assert_eq!(report.completed, 8);
    let mut responses: Vec<_> = (0..8).map(|_| rx.recv().unwrap()).collect();
    responses.sort_by_key(|r| r.submitted);
    for (w, resp) in windows.iter().zip(&responses) {
        assert_eq!(resp.batched_with, 8);
        let got = resp.result.as_ref().unwrap();
        let want = reference
            .run(&w.reshape(&[1, LOOKBACK, CHANNELS]))
            .unwrap()
            .reshape(&[HORIZON, CHANNELS]);
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "a batched forecast must equal the same window served alone"
        );
    }
    server.shutdown(1).unwrap();
}

#[test]
fn deadline_exactly_on_the_flush_tick_is_not_a_miss() {
    // Urgency fires when waiting one more tick would miss the deadline
    // (`deadline <= now + 1`); the flush then completes at `now`, one
    // tick *before* the deadline. Walk the boundary explicitly.
    let server = ServerHandle::start(serve_cfg(64, 1_000), || vec![freeze("DLinear", 7)]);
    let (tx, rx) = channel();
    // deadline = submit + 2: not urgent at tick 0, urgent at tick 1.
    server
        .submit(ForecastRequest { tenant: 0, input: window(1), submitted: 0, deadline: 2 }, &tx)
        .unwrap();
    let held = server.step(0).unwrap();
    assert_eq!(held.completed, 0, "deadline 2 is still 2 ticks out at tick 0");
    assert_eq!(held.still_pending, 1);
    let flushed = server.step(1).unwrap();
    assert_eq!(flushed.completed, 1, "tick 1 is the last tick that can make deadline 2");
    let resp = rx.recv().unwrap();
    assert!(resp.result.is_ok());
    assert_eq!(resp.completed, 1);
    assert_eq!(resp.completed + 1, 2, "flush tick sits exactly one tick before the deadline");
    assert!(!resp.deadline_missed, "completing on the flush tick meets the deadline");
    // deadline = submit + 1: urgent immediately, same-tick execution.
    server
        .submit(ForecastRequest { tenant: 0, input: window(2), submitted: 5, deadline: 6 }, &tx)
        .unwrap();
    let now = server.step(5).unwrap();
    assert_eq!(now.completed, 1, "deadline == now + 1 flushes on the submit tick");
    let resp = rx.recv().unwrap();
    assert_eq!(resp.completed, 5);
    assert!(!resp.deadline_missed);
    let stats = server.shutdown(6).unwrap();
    assert_eq!(stats.deadline_misses, 0);
}

#[test]
fn zero_max_hold_flushes_every_step_without_coalescing_loss() {
    // max_hold = 0: `now - submitted >= 0` always holds, so every step
    // flushes whatever is queued — still as one batch, not singles.
    let server = ServerHandle::start(serve_cfg(8, 0), || vec![freeze("DLinear", 7)]);
    let reference = freeze("DLinear", 7);
    let (tx, rx) = channel();
    let windows: Vec<Tensor> = (0..3).map(|i| window(40 + i)).collect();
    for w in &windows {
        server
            .submit(
                ForecastRequest { tenant: 0, input: w.clone(), submitted: 0, deadline: 1_000 },
                &tx,
            )
            .unwrap();
    }
    let report = server.step(0).unwrap();
    assert_eq!(report.batches, 1, "zero hold still coalesces what is already queued");
    assert_eq!(report.completed, 3);
    let mut responses: Vec<_> = (0..3).map(|_| rx.recv().unwrap()).collect();
    responses.sort_by_key(|r| r.submitted);
    for (w, resp) in windows.iter().zip(&responses) {
        assert_eq!(resp.completed, 0, "zero hold answers on the submit tick");
        assert_eq!(resp.batched_with, 3);
        let want = reference
            .run(&w.reshape(&[1, LOOKBACK, CHANNELS]))
            .unwrap()
            .reshape(&[HORIZON, CHANNELS]);
        assert_eq!(resp.result.as_ref().unwrap().as_slice(), want.as_slice());
    }
    // An empty step under zero hold is a no-op, not a panic.
    let idle = server.step(1).unwrap();
    assert_eq!(idle.batches, 0);
    assert_eq!(idle.completed, 0);
    server.shutdown(2).unwrap();
}

#[test]
fn shutdown_races_a_just_enqueued_request_and_still_answers_it() {
    // Submit and immediately shut down with no intervening step: the
    // executor's shutdown drain must pick up the racing submission and
    // answer it rather than dropping the reply channel.
    for _ in 0..5 {
        let server = ServerHandle::start(serve_cfg(64, 1_000), || vec![freeze("DLinear", 7)]);
        let (tx, rx) = channel();
        server
            .submit(
                ForecastRequest { tenant: 0, input: window(9), submitted: 0, deadline: 1_000 },
                &tx,
            )
            .unwrap();
        let stats = server.shutdown(0).unwrap();
        assert_eq!(stats.requests, 1, "racing submit must be accepted by the drain");
        assert_eq!(stats.completed, 1, "racing submit must be answered, not dropped");
        let resp = rx.recv().expect("reply channel must hold the drained response");
        assert!(resp.result.is_ok());
        assert_eq!(resp.batched_with, 1);
    }
}

#[test]
fn online_sim_streams_samples_pulses_and_forecasts_deterministically() {
    let cfg = OnlineConfig {
        n_streams: 4,
        ticks: 60,
        seed: 123,
        deadline_slack: 4,
        tenants: vec![[LOOKBACK, CHANNELS], [LOOKBACK, CHANNELS]],
        hop: 4,
        lambda: 4,
        server: serve_cfg(4, 2),
    };
    let builder = || vec![freeze("TS3Net", 7), freeze("DLinear", 7)];
    set_max_threads(1);
    let a = run_online_sim(&cfg, builder);
    let b = run_online_sim(&cfg, builder);
    assert_eq!(a, b, "same config, same thread cap -> identical online report");
    set_max_threads(4);
    let c = run_online_sim(&cfg, builder);
    set_max_threads(1);
    assert_eq!(a, c, "worker-pool thread cap must not change the online report");
    // Workload shape: every stream appends every tick; pulses start
    // after one full window and recur every `hop` samples.
    assert_eq!(a.samples, cfg.ticks * cfg.n_streams as u64);
    let per_stream_pulses = (cfg.ticks - LOOKBACK as u64) / cfg.hop as u64 + 1;
    assert_eq!(a.pulses, per_stream_pulses * cfg.n_streams as u64);
    assert!(a.forecasts > 0, "pulses must reach the plans");
    assert_eq!(a.forecasts as usize, a.latencies_ticks.len());
    assert_eq!(a.stats.failed, 0, "streaming windows always match plan geometry");
    assert!(
        a.forecasts + a.pulses_skipped <= a.pulses,
        "every pulse either submits or is skipped in flight"
    );
}

#[test]
fn online_forecasts_are_bitwise_identical_to_feeding_the_plan_directly() {
    // One stream, generous slack and zero hold: each pulse's forecast
    // must equal running the reference plan on the pulse's own window.
    // Rebuild the same deterministic stream locally to get the windows.
    use ts3_rng::{Rng, SeedableRng};
    use ts3_signal::decompose::TripleConfig;
    use ts3_stream::{PulsedTriple, StreamConfig};

    let cfg = OnlineConfig {
        n_streams: 1,
        ticks: 40,
        seed: 7,
        deadline_slack: 8,
        tenants: vec![[LOOKBACK, CHANNELS]],
        hop: 8,
        lambda: 4,
        server: serve_cfg(1, 0),
    };
    let report = run_online_sim(&cfg, || vec![freeze("DLinear", 3)]);
    assert!(report.forecasts > 0);
    // The online driver submits at most one request per stream at a
    // time (closed loop), so with batch cap 1 every forecast rode alone
    // and deterministically.
    assert!(report.batch_sizes.iter().all(|&b| b == 1));
    // Reproduce the first pulse's window locally and check the served
    // path against a locally-built plan, bit for bit.
    let reference = freeze("DLinear", 3);
    let mut stream = PulsedTriple::new(StreamConfig {
        window: LOOKBACK,
        channels: CHANNELS,
        hop: cfg.hop,
        triple: TripleConfig { lambda: cfg.lambda, ..Default::default() },
    });
    let mut rng = ts3_rng::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut first_emit = None;
    for now in 0..cfg.ticks {
        let row: Vec<f32> = (0..CHANNELS)
            .map(|ch| {
                let ti = now as f32;
                let noise: f32 = rng.gen_f32() - 0.5;
                0.02 * ti
                    + (std::f32::consts::TAU * ti / 8.0 + ch as f32).sin()
                    + 0.3 * (std::f32::consts::TAU * ti / 24.0).cos()
                    + 0.1 * noise
            })
            .collect();
        if let Some(e) = stream.push(&row) {
            first_emit = Some(e);
            break;
        }
    }
    let emit = first_emit.expect("stream warms up within the run");
    let served = {
        let server = ServerHandle::start(serve_cfg(1, 0), || vec![freeze("DLinear", 3)]);
        let (tx, rx) = channel();
        server
            .submit(
                ForecastRequest {
                    tenant: 0,
                    input: emit.window_tensor(LOOKBACK, CHANNELS),
                    submitted: 0,
                    deadline: 8,
                },
                &tx,
            )
            .unwrap();
        server.step(0).unwrap();
        let resp = rx.recv().unwrap();
        server.shutdown(1).unwrap();
        resp.result.unwrap()
    };
    let want = reference
        .run(&emit.window_tensor(LOOKBACK, CHANNELS).reshape(&[1, LOOKBACK, CHANNELS]))
        .unwrap()
        .reshape(&[HORIZON, CHANNELS]);
    assert_eq!(served.as_slice(), want.as_slice(), "served pulse != local plan on same window");
}

#[test]
fn simulation_is_deterministic_across_runs_and_thread_caps() {
    let sim = SimConfig {
        n_clients: 8,
        ticks: 12,
        seed: 99,
        deadline_slack: 4,
        tenants: vec![[LOOKBACK, CHANNELS], [LOOKBACK, CHANNELS]],
        server: serve_cfg(4, 2),
        stall: None,
    };
    let builder = || vec![freeze("TS3Net", 7), freeze("DLinear", 7)];
    set_max_threads(1);
    let a = run_sim(&sim, builder);
    let b = run_sim(&sim, builder);
    assert_eq!(a, b, "same config, same thread cap -> identical report");
    set_max_threads(4);
    let c = run_sim(&sim, builder);
    set_max_threads(1);
    assert_eq!(a, c, "worker-pool thread cap must not change the report");
    assert!(a.forecasts > 0);
    assert_eq!(a.forecasts as usize, a.latencies_ticks.len());
    assert!(
        a.batch_sizes.iter().any(|&b| b > 1),
        "8 clients on 2 tenants must produce at least one coalesced batch"
    );
    assert_eq!(a.stats.failed, 0);
}
