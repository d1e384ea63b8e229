//! End-to-end contracts for the serving telemetry pipeline (ts3-obs
//! v2): tracing must be a pure observer (traced and untraced runs
//! produce identical reports), every dump — plain metrics, labeled
//! series, exposition text, timeline digest — must be invariant to the
//! worker-pool thread cap, and an injected outage must trip the flight
//! recorder's SLO trigger.
//!
//! This is its own integration-test binary so it owns the
//! process-global obs registries and thread-cap state; tests serialise
//! on a mutex because all of that state is shared.

use std::rc::Rc;
use std::sync::Mutex;
use ts3_baselines::{build_forecaster, BaselineConfig};
use ts3_serve::{
    run_online_sim, run_sim, CoalescerConfig, OnlineConfig, ServerConfig, SimConfig,
};
use ts3_tensor::par::set_max_threads;
use ts3_tensor::Tensor;
use ts3net_core::{CompiledPlan, ForecastModel, TS3NetConfig};

const LOOKBACK: usize = 24;
const HORIZON: usize = 12;
const CHANNELS: usize = 2;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn freeze(name: &str, seed: u64) -> CompiledPlan {
    let cfg = BaselineConfig::scaled(CHANNELS, LOOKBACK, HORIZON);
    let mut ts3 = TS3NetConfig::scaled(CHANNELS, LOOKBACK, HORIZON);
    ts3.lambda = 4;
    ts3.d_model = 4;
    ts3.d_hidden = 4;
    let model: Rc<dyn ForecastModel> = Rc::from(build_forecaster(name, &cfg, &ts3, seed));
    let calib = Tensor::zeros(&[1, LOOKBACK, CHANNELS]);
    CompiledPlan::freeze(model, &calib).unwrap()
}

fn builder() -> Vec<CompiledPlan> {
    vec![freeze("TS3Net", 7), freeze("DLinear", 7)]
}

fn sim_cfg(stall: Option<(u64, u64)>) -> SimConfig {
    SimConfig {
        n_clients: 6,
        ticks: 24,
        seed: 99,
        deadline_slack: 3,
        tenants: vec![[LOOKBACK, CHANNELS], [LOOKBACK, CHANNELS]],
        server: ServerConfig { coalescer: CoalescerConfig { max_batch: 4, max_hold: 2 } },
        stall,
    }
}

fn online_cfg() -> OnlineConfig {
    OnlineConfig {
        n_streams: 4,
        ticks: 72,
        seed: 7,
        deadline_slack: 4,
        tenants: vec![[LOOKBACK, CHANNELS], [LOOKBACK, CHANNELS]],
        hop: 4,
        lambda: 4,
        server: ServerConfig { coalescer: CoalescerConfig { max_batch: 4, max_hold: 2 } },
    }
}

/// The exposition text minus scheduling series: `.sched.` counters
/// (sanitized to `_sched_`) legitimately vary with the thread cap and
/// process history; everything else must not.
fn exposition_sans_sched() -> String {
    ts3_obs::expo::render()
        .lines()
        .filter(|l| !l.contains("_sched_"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Tracing must observe, never perturb: the same simulation with the
/// collector off and on yields identical reports (forecast counts,
/// latencies, batch shapes, server stats).
#[test]
fn traced_run_report_equals_untraced_run_report() {
    let _g = lock();
    set_max_threads(1);
    ts3_obs::set_level(0);
    ts3_obs::reset();
    let untraced = run_sim(&sim_cfg(None), builder);

    ts3_obs::set_level(1);
    ts3_obs::reset();
    let traced = run_sim(&sim_cfg(None), builder);
    ts3_obs::set_level(0);
    ts3_obs::reset();

    assert_eq!(untraced, traced, "enabling TS3_TRACE must not change the simulation");
    assert!(untraced.forecasts > 0);
}

/// Every metric the online mode records — plain counters, labeled
/// per-tenant series, histograms, gauges — must dump identically at
/// 1 and 4 worker threads (modulo `.sched.` scheduling counters).
#[test]
fn online_metrics_dump_is_thread_cap_invariant() {
    let _g = lock();
    ts3_obs::set_level(1);

    set_max_threads(1);
    ts3_obs::reset();
    let report_1 = run_online_sim(&online_cfg(), builder);
    let expo_1 = exposition_sans_sched();

    set_max_threads(4);
    ts3_obs::reset();
    let report_4 = run_online_sim(&online_cfg(), builder);
    let expo_4 = exposition_sans_sched();

    set_max_threads(1);
    ts3_obs::set_level(0);
    ts3_obs::reset();

    assert_eq!(report_1, report_4, "online report differs across thread caps");
    assert!(
        expo_1.contains("serve_requests{tenant=\"0\"}"),
        "labeled per-tenant series missing from exposition:\n{expo_1}"
    );
    assert!(expo_1.contains("serve_coalesce_hold"), "coalescer hold histogram missing");
    assert!(expo_1.contains("serve_queue_depth"), "queue depth gauge missing");
    assert_eq!(expo_1, expo_4, "metrics dump differs between 1 and 4 threads");
}

/// The timeline's deterministic digest (tick-valued request and batch
/// records, ns excluded) is a pure function of the simulated work, and
/// every batch lists the stage seams of its model's eager forward:
/// tenant 0 (TS3Net) its triple decomposition and backbone steps,
/// tenant 1 (DLinear) its two-branch split.
#[test]
fn timeline_digest_is_thread_cap_invariant() {
    let _g = lock();
    ts3_obs::set_level(1);

    set_max_threads(1);
    ts3_obs::reset();
    let _ = run_online_sim(&online_cfg(), builder);
    let digest_1 = ts3_obs::deterministic_digest();

    set_max_threads(4);
    ts3_obs::reset();
    let _ = run_online_sim(&online_cfg(), builder);
    let digest_4 = ts3_obs::deterministic_digest();

    set_max_threads(1);
    ts3_obs::set_level(0);
    ts3_obs::reset();

    assert!(digest_1.contains("r tenant="), "digest recorded no requests:\n{digest_1}");
    assert!(digest_1.contains("b tenant="), "digest recorded no batches");
    assert_eq!(digest_1, digest_4, "timeline digest differs across thread caps");
    for line in digest_1.lines().filter(|l| l.starts_with("b tenant=")) {
        let expected = if line.starts_with("b tenant=0 ") {
            "stages=trend_split,select_t_f,embed,block0,block1,heads"
        } else {
            "stages=decompose,trend_linear,seasonal_linear"
        };
        assert!(line.ends_with(expected), "batch reports wrong stages: {line}");
    }
    assert!(
        digest_1.contains("b tenant=0 ") && digest_1.contains("b tenant=1 "),
        "both tenants must serve batches:\n{digest_1}"
    );
}

/// An injected outage long enough to strand every client past its
/// deadline must latch the flight recorder's miss-ratio trigger, and
/// the postmortem must report the window as it fired.
#[test]
fn stall_burst_trips_the_flight_recorder() {
    let _g = lock();
    set_max_threads(1);
    ts3_obs::set_level(1);
    ts3_obs::reset();
    ts3_obs::flight::configure(ts3_obs::flight::FlightConfig {
        window: 6,
        min_window: 6,
        miss_threshold: 0.5,
        ..Default::default()
    });

    // Stall ticks [8, 16): 6 clients queue with slack-3 deadlines that
    // all expire mid-stall, so the resume tick answers 6 straight
    // misses into a 6-wide window.
    let report = run_sim(&sim_cfg(Some((8, 8))), builder);
    assert!(report.stats.deadline_misses >= 6, "stall produced too few misses: {report:?}");
    assert!(ts3_obs::flight::triggered(), "miss burst did not latch the SLO trigger");

    let doc = ts3_obs::flight::to_json().expect("armed recorder renders a postmortem");
    let trigger = doc.get("trigger").unwrap();
    assert!(
        trigger.get("fired_at_tick").unwrap().as_f64().is_some(),
        "postmortem lacks the fire tick"
    );
    let ratio = trigger.get("window_miss_ratio").unwrap().as_f64().unwrap();
    assert!(ratio >= 0.5, "frozen trigger window below threshold: {ratio}");
    assert!(
        !doc.get("events").unwrap().as_array().unwrap().is_empty(),
        "postmortem event ring is empty"
    );

    ts3_obs::flight::reset_flight();
    ts3_obs::set_level(0);
    ts3_obs::reset();
}
