//! CI validator for the telemetry artifacts the workspace emits:
//!
//! * `ts3.trace.v1` run manifests (`results/<stem>.trace.json`) —
//!   schema tag, optional training-epoch events and instrumented
//!   kernel spans; **warns** (does not fail) when the collector
//!   reports dropped spans, so capped benchmark runs are visible in CI
//!   logs without gating on them.
//! * `ts3.timeline.v1` request timelines (`--timeline <path>`) — every
//!   request carries the queue-wait/hold/respond/total segments and a
//!   per-tenant latency summary exists.
//! * `ts3.flight.v1` postmortems (`--flight <path>`) — the SLO trigger
//!   actually fired and the event ring is non-empty.
//! * `ts3.lint.v2` lint reports (`--lint <path>`) — files were walked,
//!   every reported rule carries a timing entry, and the resolved crate
//!   DAG is non-empty and internally closed (every dependency is
//!   itself a workspace crate).
//!
//! Exits non-zero (with a message on stderr) on any failure, so
//! `scripts/verify.sh` can gate on it.
//!
//! Usage:
//!
//! ```text
//! trace_check <path> [--require-epoch] [--require-kernel-span] [--require-counter NAME]...
//!             [--require-coverage NAME]...
//! trace_check --timeline <path>
//! trace_check --flight <path>
//! trace_check --lint <path>
//! ```
//!
//! `--require-counter NAME` (repeatable) fails unless the manifest's
//! `metrics.counters` holds a non-zero `NAME` — used by `verify.sh` to
//! assert the AVX2 dispatch counters actually ticked on hosts that
//! advertise the feature.
//!
//! `--require-coverage NAME` (repeatable) fails when the spans named
//! `NAME` are not broken down by their children: when their summed
//! self-time (duration minus the durations of direct children) is more
//! than 10% of their summed duration, or when no span has that name.

use ts3_json::Json;

fn name(node: &Json) -> Option<&str> {
    node.get("name").and_then(|v| v.as_str())
}

fn children(span: &Json) -> &[Json] {
    span.get("children").and_then(|c| c.as_array()).unwrap_or(&[])
}

fn dur_us(span: &Json) -> f64 {
    span.get("dur_us").and_then(|v| v.as_f64()).unwrap_or(0.0)
}

/// Every span of a span forest, at every depth, parents first.
fn flatten<'a>(spans: &'a [Json], out: &mut Vec<&'a Json>) {
    for s in spans {
        out.push(s);
        flatten(children(s), out);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("trace_check: FAIL: {msg}");
    std::process::exit(1);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e:?}")))
}

fn check_schema(doc: &Json, path: &str, want: &str) {
    if doc.get("schema").and_then(|v| v.as_str()) != Some(want) {
        fail(&format!("{path}: missing or wrong schema tag (want {want})"));
    }
}

/// Validate a `ts3.timeline.v1` document: every request record carries
/// the four latency segments, and the per-tenant summary is present.
fn check_timeline(path: &str) {
    let doc = load(path);
    check_schema(&doc, path, "ts3.timeline.v1");
    let requests = doc
        .get("requests")
        .and_then(|r| r.as_array())
        .unwrap_or_else(|| fail(&format!("{path}: no requests array")));
    if requests.is_empty() {
        fail(&format!("{path}: timeline holds zero requests"));
    }
    for (i, r) in requests.iter().enumerate() {
        let segments = r
            .get("segments")
            .unwrap_or_else(|| fail(&format!("{path}: request {i} has no segments")));
        for seg in ["queue_wait", "hold", "respond", "total"] {
            if segments.get(seg).and_then(|v| v.as_f64()).is_none() {
                fail(&format!("{path}: request {i} missing segment {seg}"));
            }
        }
    }
    let tenants = doc
        .get("tenants")
        .and_then(|t| t.as_array())
        .unwrap_or_else(|| fail(&format!("{path}: no tenants summary")));
    for t in tenants {
        for key in ["tenant", "responded", "p50_ticks", "p99_ticks"] {
            if t.get(key).and_then(|v| v.as_f64()).is_none() {
                fail(&format!("{path}: tenant summary missing {key}"));
            }
        }
    }
    let batches = doc.get("batches").and_then(|b| b.as_array()).map_or(0, |b| b.len());
    println!(
        "trace_check: OK {path} ({} requests, {batches} batches, {} tenants)",
        requests.len(),
        tenants.len()
    );
}

/// Validate a `ts3.flight.v1` postmortem: the trigger fired and the
/// event ring holds something to read.
fn check_flight(path: &str) {
    let doc = load(path);
    check_schema(&doc, path, "ts3.flight.v1");
    let trigger = doc
        .get("trigger")
        .unwrap_or_else(|| fail(&format!("{path}: no trigger object")));
    let fired = trigger
        .get("fired_at_tick")
        .unwrap_or_else(|| fail(&format!("{path}: trigger has no fired_at_tick")));
    if matches!(fired, Json::Null) {
        fail(&format!("{path}: flight recorder never fired (fired_at_tick is null)"));
    }
    let events = doc
        .get("events")
        .and_then(|e| e.as_array())
        .unwrap_or_else(|| fail(&format!("{path}: no events array")));
    if events.is_empty() {
        fail(&format!("{path}: postmortem event ring is empty"));
    }
    let misses = doc
        .get("totals")
        .and_then(|t| t.get("deadline_misses"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);
    println!(
        "trace_check: OK {path} (fired at tick {}, {} events, {misses:.0} deadline misses)",
        fired.as_f64().unwrap_or(-1.0),
        events.len()
    );
}

/// Validate a `ts3.lint.v2` report: the walk saw files, the rule list
/// is non-empty and fully timed, and the crate DAG is a closed graph
/// over workspace crates.
fn check_lint(path: &str) {
    let doc = load(path);
    check_schema(&doc, path, "ts3.lint.v2");
    let checked = doc
        .get("checked_files")
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| fail(&format!("{path}: no checked_files count")));
    if checked <= 0.0 {
        fail(&format!("{path}: lint run walked zero files"));
    }
    let rules = doc
        .get("rules")
        .and_then(|r| r.as_array())
        .unwrap_or_else(|| fail(&format!("{path}: no rules array")));
    if rules.is_empty() {
        fail(&format!("{path}: rules array is empty"));
    }
    let timing = doc
        .get("rule_timing_us")
        .and_then(|t| t.as_object())
        .unwrap_or_else(|| fail(&format!("{path}: no rule_timing_us object")));
    for r in rules {
        let name = r
            .as_str()
            .unwrap_or_else(|| fail(&format!("{path}: non-string rule id in rules array")));
        let timed = timing
            .iter()
            .any(|(k, v)| k == name && v.as_f64().is_some());
        if !timed {
            fail(&format!("{path}: rule {name} has no numeric rule_timing_us entry"));
        }
    }
    let dag = doc
        .get("crate_dag")
        .and_then(|d| d.as_object())
        .unwrap_or_else(|| fail(&format!("{path}: no crate_dag object")));
    if dag.is_empty() {
        fail(&format!("{path}: crate_dag is empty (no workspace manifests parsed)"));
    }
    let mut edges = 0usize;
    for (name, deps) in dag {
        let deps = deps
            .as_array()
            .unwrap_or_else(|| fail(&format!("{path}: crate_dag[{name}] is not an array")));
        for d in deps {
            let dep = d
                .as_str()
                .unwrap_or_else(|| fail(&format!("{path}: non-string dep under {name}")));
            if !dag.iter().any(|(k, _)| k == dep) {
                fail(&format!(
                    "{path}: crate_dag edge {name} -> {dep} points outside the workspace"
                ));
            }
            edges += 1;
        }
    }
    if doc.get("diagnostics").and_then(|d| d.as_array()).is_none() {
        fail(&format!("{path}: no diagnostics array"));
    }
    let summary = doc
        .get("summary")
        .unwrap_or_else(|| fail(&format!("{path}: no summary object")));
    for key in ["errors", "warnings"] {
        if summary.get(key).and_then(|v| v.as_f64()).is_none() {
            fail(&format!("{path}: summary missing numeric {key}"));
        }
    }
    println!(
        "trace_check: OK {path} ({checked:.0} files, {} rules timed, {} crates, {edges} dag edges)",
        rules.len(),
        dag.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--lint") {
        let path = args.get(i + 1).unwrap_or_else(|| fail("--lint needs a path"));
        check_lint(path);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--timeline") {
        let path = args
            .get(i + 1)
            .unwrap_or_else(|| fail("--timeline needs a path"));
        check_timeline(path);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--flight") {
        let path = args.get(i + 1).unwrap_or_else(|| fail("--flight needs a path"));
        check_flight(path);
        return;
    }
    let path = args.iter().find(|a| !a.starts_with("--")).unwrap_or_else(|| {
        fail("usage: trace_check <path> [--require-epoch] [--require-kernel-span] [--require-counter NAME]... [--require-coverage NAME]... | --timeline <path> | --flight <path> | --lint <path>")
    });
    let require_epoch = args.iter().any(|a| a == "--require-epoch");
    let require_kernel = args.iter().any(|a| a == "--require-kernel-span");
    // The values of a repeatable `--flag NAME` option.
    let values_of = |flag: &str| -> Vec<&String> {
        args.iter()
            .enumerate()
            .filter(|(_, a)| *a == flag)
            .map(|(i, _)| {
                args.get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .unwrap_or_else(|| fail(&format!("{flag} needs a name")))
            })
            .collect()
    };
    let required_counters = values_of("--require-counter");
    let required_coverage = values_of("--require-coverage");

    let doc = load(path);
    check_schema(&doc, path, ts3_bench::TRACE_SCHEMA);
    let spans = doc
        .get("trace")
        .and_then(|t| t.get("spans"))
        .and_then(|s| s.as_array())
        .unwrap_or_else(|| fail(&format!("{path}: no trace.spans array")));
    let metrics = doc
        .get("metrics")
        .unwrap_or_else(|| fail(&format!("{path}: no metrics object")));

    let mut all = Vec::new();
    flatten(spans, &mut all);
    let epochs: usize = all
        .iter()
        .filter_map(|s| s.get("events").and_then(|e| e.as_array()))
        .map(|events| events.iter().filter(|e| name(e) == Some("epoch")).count())
        .sum();
    let kernels = all
        .iter()
        .filter(|s| name(s).is_some_and(|n| n.starts_with("tensor.") || n.starts_with("signal.")))
        .count();
    let flops = metrics
        .get("counters")
        .and_then(|c| c.get("tensor.matmul.flops"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0);

    if require_epoch && epochs == 0 {
        fail(&format!("{path}: expected >= 1 training epoch event, found none"));
    }
    if require_kernel {
        if kernels == 0 {
            fail(&format!("{path}: expected >= 1 kernel span (tensor.*/signal.*), found none"));
        }
        if flops <= 0.0 {
            fail(&format!("{path}: tensor.matmul.flops counter missing or zero"));
        }
    }
    for name in &required_counters {
        let value = metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        if value <= 0.0 {
            fail(&format!("{path}: required counter {name} missing or zero"));
        }
    }
    for want in &required_coverage {
        // Self-time: a span's duration minus its direct children's.
        let named: Vec<&Json> = all.iter().copied().filter(|s| name(s) == Some(want)).collect();
        let total: f64 = named.iter().map(|s| dur_us(s)).sum();
        let self_us: f64 =
            named.iter().map(|s| dur_us(s) - children(s).iter().map(dur_us).sum::<f64>()).sum();
        if total <= 0.0 {
            fail(&format!("{path}: no timed span named {want}"));
        }
        let share = self_us / total;
        if share > 0.10 {
            fail(&format!(
                "{path}: {want} self-time is {:.1}% of its total (limit 10%): \
                 its children do not account for its time",
                share * 100.0
            ));
        }
        println!("trace_check: {want} self-time {:.2}% of {total:.0} us", share * 100.0);
    }
    // Split drop counters landed with obs v2; older manifests only have
    // the dropped_records sum — tolerate absence, warn on overflow.
    let dropped_spans = doc.get("dropped_spans").and_then(|v| v.as_f64()).unwrap_or(0.0);
    let dropped_events = doc.get("dropped_events").and_then(|v| v.as_f64()).unwrap_or(0.0);
    if dropped_spans > 0.0 {
        eprintln!(
            "trace_check: WARN {path}: {dropped_spans:.0} spans dropped at the collector cap \
             (raise TS3_TRACE_MAX_SPANS for a complete tree)"
        );
    }
    if dropped_events > 0.0 {
        eprintln!("trace_check: WARN {path}: {dropped_events:.0} events dropped at the collector cap");
    }
    println!(
        "trace_check: OK {path} ({} root spans, {epochs} epoch events, {kernels} kernel spans, {flops:.0} matmul flops)",
        spans.len()
    );
}
