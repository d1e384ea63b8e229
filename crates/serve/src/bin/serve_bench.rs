//! Closed-loop serving latency benchmark.
//!
//!   serve_bench [--smoke] [--out-dir DIR]
//!
//! Runs the same lockstep loop as `ts3_serve::sim` against two tenants
//! (a small TS3Net and DLinear) at 1, 8 and 64 concurrent clients, but
//! measures **real nanoseconds** per forecast (submit -> reply) with
//! `Instant` — this binary is on the `ts3-lint` wallclock allowlist;
//! library code stays tick-based and deterministic.
//!
//! Emits `ts3.bench.v1` JSON (BENCH_serve_smoke.json in smoke mode,
//! BENCH_serve.json otherwise) with rows:
//!
//! * `serve_latency/c{N}`      — per-forecast latency (median gated)
//! * `serve_latency_p99/c{N}`  — tail latency
//! * `serve_rate/c{N}`         — mean ns per forecast (throughput⁻¹)
//!
//! compatible with the `bench_compare` regression gate, e.g.:
//!
//!   bench_compare results/BENCH_serve_smoke.json \
//!       target/serve-smoke/BENCH_serve_smoke.json --threshold 75

use std::path::PathBuf;
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;
use ts3_baselines::{build_forecaster, BaselineConfig};
use ts3_rng::rngs::StdRng;
use ts3_rng::{Rng, SeedableRng};
use ts3_obs::{bench_json, nearest_rank, BenchRow};
use ts3_serve::{ForecastRequest, ForecastResponse, ServerConfig, ServerHandle};
use ts3_tensor::Tensor;
use ts3net_core::{CompiledPlan, ForecastModel, TS3NetConfig};

const CLIENT_COUNTS: [usize; 3] = [1, 8, 64];
const LOOKBACK: usize = 24;
const HORIZON: usize = 12;
const CHANNELS: usize = 2;

fn build_plans() -> Vec<CompiledPlan> {
    let cfg = BaselineConfig::scaled(CHANNELS, LOOKBACK, HORIZON);
    let mut ts3 = TS3NetConfig::scaled(CHANNELS, LOOKBACK, HORIZON);
    ts3.lambda = 4;
    ts3.d_model = 4;
    ts3.d_hidden = 4;
    let calib = Tensor::zeros(&[1, LOOKBACK, CHANNELS]);
    ["TS3Net", "DLinear"]
        .into_iter()
        .map(|name| {
            let model: Rc<dyn ForecastModel> = Rc::from(build_forecaster(name, &cfg, &ts3, 7));
            CompiledPlan::freeze(model, &calib)
                .unwrap_or_else(|e| panic!("{name}: freeze failed: {e}"))
        })
        .collect()
}

struct Client {
    tenant: usize,
    rng: StdRng,
    started: Option<Instant>,
    tx: Sender<ForecastResponse>,
    rx: Receiver<ForecastResponse>,
}

impl Client {
    fn window(&mut self) -> Tensor {
        let mut data = Vec::with_capacity(LOOKBACK * CHANNELS);
        for ti in 0..LOOKBACK {
            for ci in 0..CHANNELS {
                let phase = std::f32::consts::TAU * ti as f32 / 8.0 + ci as f32;
                let noise: f32 = self.rng.gen_f32() - 0.5;
                data.push(0.05 * ti as f32 + phase.sin() + 0.1 * noise);
            }
        }
        Tensor::from_vec(data, &[LOOKBACK, CHANNELS])
    }
}

struct RunResult {
    latencies_ns: Vec<u64>,
    total_ns: u64,
    forecasts: u64,
}

fn run_closed_loop(n_clients: usize, ticks: u64) -> RunResult {
    let server = ServerHandle::start(ServerConfig::default(), build_plans);
    let mut clients: Vec<Client> = (0..n_clients)
        .map(|i| {
            let (tx, rx) = channel();
            Client {
                tenant: i % 2,
                rng: StdRng::seed_from_u64(42 + i as u64),
                started: None,
                tx,
                rx,
            }
        })
        .collect();
    let mut out = RunResult { latencies_ns: Vec::new(), total_ns: 0, forecasts: 0 };
    // Untimed warm-up: first plan executions fault in code and buffers;
    // without this the c1 tail is dominated by one cold iteration.
    const WARMUP_TICKS: u64 = 6;
    let mut run_start = Instant::now();
    for now in 0..WARMUP_TICKS + ticks {
        if now == WARMUP_TICKS {
            out.latencies_ns.clear();
            out.forecasts = 0;
            run_start = Instant::now();
        }
        for client in clients.iter_mut() {
            if client.started.is_some() {
                continue;
            }
            let req = ForecastRequest {
                tenant: client.tenant,
                input: client.window(),
                submitted: now,
                deadline: now + 4,
            };
            let tx = client.tx.clone();
            if server.submit(req, &tx).is_ok() {
                client.started = Some(Instant::now());
            }
        }
        server.step(now).expect("executor thread died mid-benchmark");
        for client in clients.iter_mut() {
            while let Ok(resp) = client.rx.try_recv() {
                if let Some(start) = client.started.take() {
                    if resp.result.is_ok() {
                        out.latencies_ns.push(start.elapsed().as_nanos() as u64);
                        out.forecasts += 1;
                    }
                }
            }
        }
    }
    server.shutdown(WARMUP_TICKS + ticks).expect("graceful shutdown failed");
    for client in clients.iter_mut() {
        while let Ok(resp) = client.rx.try_recv() {
            if let Some(start) = client.started.take() {
                if resp.result.is_ok() {
                    out.latencies_ns.push(start.elapsed().as_nanos() as u64);
                    out.forecasts += 1;
                }
            }
        }
    }
    out.total_ns = run_start.elapsed().as_nanos() as u64;
    out
}

fn main() {
    let mut smoke = false;
    let mut out_dir = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out-dir" => {
                out_dir = PathBuf::from(
                    args.next().expect("--out-dir needs an argument"),
                );
            }
            other => {
                eprintln!("usage: serve_bench [--smoke] [--out-dir DIR] (got {other})");
                std::process::exit(2);
            }
        }
    }
    if let Ok(threads) = std::env::var("TS3_THREADS") {
        if let Ok(n) = threads.parse::<usize>() {
            ts3_tensor::par::set_max_threads(n);
        }
    }
    let ticks: u64 = if smoke { 30 } else { 300 };
    std::fs::create_dir_all(&out_dir).expect("cannot create --out-dir");

    let mut rows = Vec::new();
    println!("== serve_bench ({} ticks/run, 2 tenants: TS3Net + DLinear) ==", ticks);
    for n in CLIENT_COUNTS {
        let mut r = run_closed_loop(n, ticks);
        r.latencies_ns.sort_unstable();
        let p99_ns = nearest_rank(&r.latencies_ns, 0.99);
        let rate_ns = if r.forecasts > 0 { r.total_ns / r.forecasts } else { 0 };
        let shape = format!("c{n}");
        println!(
            "clients={n:<3} forecasts={:<6} p50={:>9} ns  p99={:>9} ns  {:>9} ns/forecast",
            r.forecasts,
            nearest_rank(&r.latencies_ns, 0.50),
            p99_ns,
            rate_ns
        );
        rows.push(BenchRow::from_sorted("serve_latency", &shape, &r.latencies_ns));
        rows.push(BenchRow::scalar("serve_latency_p99", &shape, p99_ns, r.forecasts));
        rows.push(BenchRow::scalar("serve_rate", &shape, rate_ns, r.forecasts));
    }

    let name = if smoke { "BENCH_serve_smoke.json" } else { "BENCH_serve.json" };
    let path = out_dir.join(name);
    let doc = bench_json(ts3_tensor::par::max_threads(), &rows);
    std::fs::write(&path, doc.to_string_pretty()).expect("cannot write bench JSON");
    println!("serve_bench: wrote {}", path.display());
}
