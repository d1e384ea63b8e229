//! Flight recorder: a bounded ring of recent serving events plus
//! rolling SLO windows, dumped as a `ts3.flight.v1` postmortem when
//! things go wrong.
//!
//! Metrics tell you the deadline-miss ratio is 40%; the flight recorder
//! tells you *what the last N ticks looked like* when it crossed that
//! line. The recorder keeps:
//!
//! * an **event ring** of the most recent [`FlightConfig::capacity`]
//!   tick-stamped events (responses, deadline misses, drift alerts,
//!   free-form notes) — old events fall off the front;
//! * a **rolling response window** of the last
//!   [`FlightConfig::window`] responses, from which the current
//!   deadline-miss ratio is computed.
//!
//! When the miss ratio crosses [`FlightConfig::miss_threshold`] (with
//! at least [`FlightConfig::min_window`] responses observed) the
//! trigger **latches** and — if [`FlightConfig::out`] is set — the
//! postmortem JSON is written there immediately, once. A panic hook
//! ([`install_panic_hook`]) covers the crash case: the postmortem is
//! flushed before the process dies, chaining to the previously
//! installed hook.
//!
//! Unlike spans/metrics the recorder is **opt-in via [`configure`]**,
//! independent of `TS3_TRACE`: a production server wants postmortems
//! even with tracing off. Unconfigured, every entry point is one
//! relaxed atomic load. All recorded data is tick-stamped (virtual
//! clock) — no wallclock — so postmortems are deterministic and the
//! determinism suite can assert on them.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use ts3_json::Json;

/// Flight-recorder knobs. Start from `FlightConfig::default()` and
/// override; `..Default::default()` keeps call sites stable as knobs
/// are added.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Events retained in the ring (oldest evicted first).
    pub capacity: usize,
    /// Responses in the rolling SLO window.
    pub window: usize,
    /// Responses required before the miss-ratio trigger can fire
    /// (avoids a 1-for-1 start tripping a 100% ratio).
    pub min_window: usize,
    /// Deadline-miss ratio in the window that trips the trigger.
    pub miss_threshold: f64,
    /// Where to write the `ts3.flight.v1` postmortem when the trigger
    /// fires (and from the panic hook). `None` = record but never
    /// auto-dump; read [`to_json`] manually.
    pub out: Option<PathBuf>,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            capacity: 1024,
            window: 64,
            min_window: 16,
            miss_threshold: 0.5,
            out: None,
        }
    }
}

/// One tick-stamped entry in the event ring.
#[derive(Debug, Clone)]
struct FlightEvent {
    /// Virtual tick the event happened at.
    pub tick: u64,
    /// Event kind (`respond`, `deadline_miss`, `drift`, `note`).
    pub kind: &'static str,
    /// Owning tenant, if the event has one.
    pub tenant: Option<usize>,
    /// Free-form detail (owned so dynamic values survive the ring).
    pub detail: String,
}

struct Recorder {
    cfg: FlightConfig,
    ring: VecDeque<FlightEvent>,
    /// Rolling response window: `true` = deadline missed.
    window: VecDeque<bool>,
    responses: u64,
    misses: u64,
    drift_alerts: u64,
    triggered_at: Option<u64>,
    /// `(responses, misses)` in the rolling window at the moment the
    /// trigger latched — the postmortem reports the window *as fired*,
    /// not whatever it rolled on to afterwards.
    trigger_window: Option<(usize, usize)>,
    dumped: bool,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn recorder() -> &'static Mutex<Option<Recorder>> {
    static R: OnceLock<Mutex<Option<Recorder>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(None))
}

/// Arm the recorder with `cfg`, clearing any previous state. Until
/// this is called every `note_*` entry point is one atomic load.
pub fn configure(cfg: FlightConfig) {
    // ts3-lint: allow(no-unwrap-in-lib) flight mutex poisoning means a recording thread panicked; recorder state is unrecoverable
    let mut r = recorder().lock().unwrap();
    *r = Some(Recorder {
        cfg,
        ring: VecDeque::new(),
        window: VecDeque::new(),
        responses: 0,
        misses: 0,
        drift_alerts: 0,
        triggered_at: None,
        trigger_window: None,
        dumped: false,
    });
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Disarm and clear the recorder.
pub fn reset_flight() {
    ACTIVE.store(false, Ordering::Relaxed);
    // ts3-lint: allow(no-unwrap-in-lib) flight mutex poisoning means a recording thread panicked; recorder state is unrecoverable
    *recorder().lock().unwrap() = None;
}

/// True once the miss-ratio trigger has latched.
pub fn triggered() -> bool {
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    // ts3-lint: allow(no-unwrap-in-lib) flight mutex poisoning means a recording thread panicked; recorder state is unrecoverable
    recorder().lock().unwrap().as_ref().is_some_and(|r| r.triggered_at.is_some())
}

fn push_event(r: &mut Recorder, ev: FlightEvent) {
    if r.ring.len() >= r.cfg.capacity {
        r.ring.pop_front();
    }
    r.ring.push_back(ev);
}

fn render(r: &Recorder) -> Json {
    let events: Json = r
        .ring
        .iter()
        .map(|e| {
            Json::obj([
                ("tick", Json::Num(e.tick as f64)),
                ("kind", Json::Str(e.kind.to_string())),
                (
                    "tenant",
                    e.tenant.map_or(Json::Null, |t| Json::Num(t as f64)),
                ),
                ("detail", Json::Str(e.detail.clone())),
            ])
        })
        .collect();
    // Report the window frozen at trigger time when the trigger fired;
    // the live window otherwise (un-fired recorder dumped via to_json).
    let (window_responses, window_misses) = r
        .trigger_window
        .unwrap_or_else(|| (r.window.len(), r.window.iter().filter(|&&m| m).count()));
    Json::obj([
        ("schema", Json::Str("ts3.flight.v1".to_string())),
        (
            "trigger",
            Json::obj([
                (
                    "fired_at_tick",
                    r.triggered_at.map_or(Json::Null, |t| Json::Num(t as f64)),
                ),
                ("miss_threshold", Json::Num(r.cfg.miss_threshold)),
                ("window", Json::Num(r.cfg.window as f64)),
                ("window_responses", Json::Num(window_responses as f64)),
                ("window_misses", Json::Num(window_misses as f64)),
                (
                    "window_miss_ratio",
                    Json::Num(if window_responses == 0 {
                        0.0
                    } else {
                        window_misses as f64 / window_responses as f64
                    }),
                ),
            ]),
        ),
        (
            "totals",
            Json::obj([
                ("responses", Json::Num(r.responses as f64)),
                ("deadline_misses", Json::Num(r.misses as f64)),
                ("drift_alerts", Json::Num(r.drift_alerts as f64)),
            ]),
        ),
        ("events", events),
    ])
}

fn dump_if_configured(r: &mut Recorder) {
    if r.dumped {
        return;
    }
    let Some(path) = r.cfg.out.clone() else { return };
    r.dumped = true;
    let doc = render(r);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let _ = std::fs::write(&path, doc.to_string_pretty());
}

/// Record a response at `tick`: feeds the event ring and the rolling
/// SLO window; fires (and latches) the trigger when the windowed miss
/// ratio crosses the threshold.
pub fn note_response(tick: u64, tenant: usize, missed: bool) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    // ts3-lint: allow(no-unwrap-in-lib) flight mutex poisoning means a recording thread panicked; recorder state is unrecoverable
    let mut guard = recorder().lock().unwrap();
    let Some(r) = guard.as_mut() else { return };
    r.responses += 1;
    if missed {
        r.misses += 1;
    }
    if r.window.len() >= r.cfg.window {
        r.window.pop_front();
    }
    r.window.push_back(missed);
    push_event(
        r,
        FlightEvent {
            tick,
            kind: if missed { "deadline_miss" } else { "respond" },
            tenant: Some(tenant),
            detail: String::new(),
        },
    );
    if r.triggered_at.is_none() && r.window.len() >= r.cfg.min_window {
        let misses = r.window.iter().filter(|&&m| m).count();
        if misses as f64 / r.window.len() as f64 >= r.cfg.miss_threshold {
            r.triggered_at = Some(tick);
            r.trigger_window = Some((r.window.len(), misses));
            dump_if_configured(r);
        }
    }
}

/// Record a period-drift alert from the streaming monitor at `tick`:
/// the sliding-DFT dominant period `observed` disagreed with the exact
/// decomposition's `expected`.
pub fn note_drift(tick: u64, tenant: usize, expected: usize, observed: usize) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    // ts3-lint: allow(no-unwrap-in-lib) flight mutex poisoning means a recording thread panicked; recorder state is unrecoverable
    let mut guard = recorder().lock().unwrap();
    let Some(r) = guard.as_mut() else { return };
    r.drift_alerts += 1;
    push_event(
        r,
        FlightEvent {
            tick,
            kind: "drift",
            tenant: Some(tenant),
            detail: format!("expected_t_f={expected} observed={observed}"),
        },
    );
}

/// Record a free-form note at `tick` (config changes, stall markers —
/// anything a postmortem reader would want on the ribbon).
pub fn note(tick: u64, detail: &str) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    // ts3-lint: allow(no-unwrap-in-lib) flight mutex poisoning means a recording thread panicked; recorder state is unrecoverable
    let mut guard = recorder().lock().unwrap();
    let Some(r) = guard.as_mut() else { return };
    push_event(r, FlightEvent { tick, kind: "note", tenant: None, detail: detail.to_string() });
}

/// Render the current recorder state as a `ts3.flight.v1` document
/// (`None` when unconfigured).
pub fn to_json() -> Option<Json> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    // ts3-lint: allow(no-unwrap-in-lib) flight mutex poisoning means a recording thread panicked; recorder state is unrecoverable
    recorder().lock().unwrap().as_ref().map(render)
}

/// Install a panic hook that flushes the postmortem before the process
/// dies, then chains to the previously installed hook. Installs at
/// most once per process.
pub fn install_panic_hook() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        // A poisoned recorder mutex is expected here (we're panicking);
        // recover the guard rather than aborting the hook.
        if ACTIVE.load(Ordering::Relaxed) {
            let mut guard = recorder().lock().unwrap_or_else(|e| e.into_inner());
            if let Some(r) = guard.as_mut() {
                dump_if_configured(r);
            }
        }
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::test_lock;

    #[test]
    fn unconfigured_recorder_is_inert() {
        let _g = test_lock();
        reset_flight();
        note_response(1, 0, true);
        note_drift(1, 0, 8, 12);
        assert!(to_json().is_none());
        assert!(!triggered());
    }

    #[test]
    fn miss_ratio_trigger_latches_once() {
        let _g = test_lock();
        configure(FlightConfig {
            window: 8,
            min_window: 4,
            miss_threshold: 0.5,
            ..Default::default()
        });
        for tick in 0..3 {
            note_response(tick, 0, false);
        }
        assert!(!triggered(), "below min_window");
        note_response(3, 0, true);
        note_response(4, 0, true);
        assert!(!triggered(), "2/5 misses under threshold");
        note_response(5, 1, true);
        assert!(triggered(), "3/6 misses crosses 0.5");
        // Recovery does not unlatch.
        for tick in 6..20 {
            note_response(tick, 0, false);
        }
        assert!(triggered());
        let doc = to_json().unwrap();
        assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some("ts3.flight.v1"));
        let trig = doc.get("trigger").unwrap();
        assert_eq!(trig.get("fired_at_tick").and_then(|v| v.as_f64()), Some(5.0));
        reset_flight();
    }

    #[test]
    fn ring_evicts_oldest() {
        let _g = test_lock();
        configure(FlightConfig { capacity: 4, ..Default::default() });
        for tick in 0..10 {
            note(tick, "x");
        }
        let doc = to_json().unwrap();
        let events = doc.get("events").and_then(|e| e.as_array()).unwrap().to_vec();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("tick").and_then(|v| v.as_f64()), Some(6.0));
        assert_eq!(events[3].get("tick").and_then(|v| v.as_f64()), Some(9.0));
        reset_flight();
    }

    #[test]
    fn drift_events_carry_detail() {
        let _g = test_lock();
        configure(FlightConfig::default());
        note_drift(7, 2, 8, 12);
        let doc = to_json().unwrap();
        let events = doc.get("events").and_then(|e| e.as_array()).unwrap().to_vec();
        assert_eq!(events[0].get("kind").and_then(|k| k.as_str()), Some("drift"));
        assert_eq!(
            events[0].get("detail").and_then(|d| d.as_str()),
            Some("expected_t_f=8 observed=12")
        );
        assert_eq!(
            doc.get("totals").unwrap().get("drift_alerts").and_then(|v| v.as_f64()),
            Some(1.0)
        );
        reset_flight();
    }
}
