//! Serving-telemetry smoke driver: exercises the full `ts3-obs` v2
//! pipeline end to end and writes every artifact the observability
//! verify gate validates.
//!
//!   serve_obs [--smoke] [--out-dir DIR]
//!
//! Two deterministic lockstep phases share one traced process:
//!
//! 1. **Stalled request sim** — `ts3_serve::sim::run_sim` with an
//!    injected outage (`SimConfig::stall`): the server's scheduling
//!    step is skipped for a window of ticks while clients keep
//!    submitting, so the resume tick answers a burst of
//!    deadline-missed requests and the armed `ts3_obs::flight`
//!    recorder crosses its SLO miss-ratio threshold.
//! 2. **Online streaming sim** — `ts3_serve::online::run_online_sim`
//!    with a short hop, producing per-tenant labeled series and
//!    sliding-DFT period-drift alerts into the same registries.
//!
//! Artifacts (under `--out-dir`, default `results/`):
//!
//! * `serve_obs.timeline.json` — `ts3.timeline.v1` request timelines
//! * `serve_obs.flight.json`   — `ts3.flight.v1` postmortem (the stall
//!   **must** have fired the trigger; exit 1 otherwise)
//! * `serve_obs.prom`          — Prometheus text exposition. Everything
//!   in it is tick-valued, so two runs of this binary produce
//!   byte-identical files — the verify gate `cmp`s them.
//! * `serve_obs.folded`        — span self-time folded stacks
//!
//! Tracing is forced on (level 1) if `TS3_TRACE` did not already enable
//! it; `TS3_THREADS` is honoured like every other workspace binary.

use std::path::{Path, PathBuf};
use std::rc::Rc;
use ts3_baselines::{build_forecaster, BaselineConfig};
use ts3_serve::{run_online_sim, run_sim, OnlineConfig, ServerConfig, SimConfig};
use ts3_tensor::Tensor;
use ts3net_core::{CompiledPlan, ForecastModel, TS3NetConfig};

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

fn main() {
    let mut smoke = false;
    let mut out_dir = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out-dir" => {
                out_dir = PathBuf::from(args.next().expect("--out-dir needs an argument"));
            }
            other => {
                eprintln!("usage: serve_obs [--smoke] [--out-dir DIR] (got {other})");
                std::process::exit(2);
            }
        }
    }
    if let Ok(threads) = std::env::var("TS3_THREADS") {
        if let Ok(n) = threads.parse::<usize>() {
            ts3_tensor::par::set_max_threads(n);
        }
    }
    if !ts3_obs::enabled() {
        ts3_obs::set_level(1);
    }
    std::fs::create_dir_all(&out_dir).expect("cannot create --out-dir");
    ts3_obs::reset();
    // Window sized to the outage burst: the resume tick answers all 8
    // stalled clients in one drain, so 8 consecutive misses saturate an
    // 8-wide rolling window regardless of pre-stall traffic.
    ts3_obs::flight::configure(ts3_obs::flight::FlightConfig {
        window: 8,
        min_window: 8,
        miss_threshold: 0.5,
        ..Default::default()
    });
    ts3_obs::flight::install_panic_hook();

    // Phase 1: request/response sim with an injected outage. Slack 3 and
    // a 10-tick stall guarantee the resume tick drains a burst of
    // already-expired deadlines.
    let ticks: u64 = if smoke { 40 } else { 120 };
    let sim = SimConfig {
        n_clients: 8,
        ticks,
        seed: 99,
        deadline_slack: 3,
        tenants: vec![[LOOKBACK, CHANNELS], [LOOKBACK, CHANNELS]],
        server: ServerConfig::default(),
        stall: Some((ticks / 3, 10)),
    };
    let sim_report = run_sim(&sim, build_plans);
    println!(
        "serve_obs: sim forecasts={} deadline_misses={} flight_triggered={}",
        sim_report.forecasts,
        sim_report.stats.deadline_misses,
        ts3_obs::flight::triggered()
    );

    // Phase 2: streaming workload into the same registries — labeled
    // per-tenant series plus sliding-DFT drift alerts.
    let online = OnlineConfig {
        n_streams: 6,
        ticks: if smoke { 96 } else { 240 },
        seed: 7,
        deadline_slack: 4,
        tenants: vec![[LOOKBACK, CHANNELS], [LOOKBACK, CHANNELS]],
        hop: 4,
        lambda: 4,
        server: ServerConfig::default(),
    };
    let online_report = run_online_sim(&online, build_plans);
    println!(
        "serve_obs: online pulses={} forecasts={} drift_alerts={}",
        online_report.pulses, online_report.forecasts, online_report.drift_alerts
    );

    let (spans, _, _) = ts3_obs::snapshot_records();
    write(&out_dir, "serve_obs.timeline.json", ts3_obs::timeline_to_json().to_string_pretty());
    write(&out_dir, "serve_obs.prom", ts3_obs::expo::render());
    write(&out_dir, "serve_obs.folded", ts3_obs::folded_stacks(&spans));

    if !ts3_obs::flight::triggered() {
        eprintln!("serve_obs: stall did not trip the flight recorder's SLO trigger");
        std::process::exit(1);
    }
    let Some(postmortem) = ts3_obs::flight::to_json() else {
        eprintln!("serve_obs: flight recorder armed but produced no postmortem");
        std::process::exit(1);
    };
    write(&out_dir, "serve_obs.flight.json", postmortem.to_string_pretty());
}

/// Write one artifact under `dir` (panics if it cannot).
fn write(dir: &Path, name: &str, text: String) {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("serve_obs: wrote {}", path.display());
}
