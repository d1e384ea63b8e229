//! perfbench --workload <train|serve|stream> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <train|serve|stream> --seed <n> --seconds <s> --steady <runs>
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs a fixed
//! number of operations with `ts3-obs` recording, per-call timers and the
//! counting allocator on, alternating with as many untraced ones, and
//! prints the per-layer metrics. The last line of standard output is
//! one JSON object. `--steady` runs `--trace 0` in `runs` fresh processes
//! (seeds n, n+1, ...) and one traced process, and prints the spread of
//! every metric.

use perfbench::workloads::{Ledger, OpLog, Serve, Stream, Train, Workload};
use perfbench::{alloc, stats};
use std::collections::HashSet;
use std::process::Command;
use std::time::Instant;
use ts3_json::Json;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Each run sets the workload up at least this many times and until
/// [`SETUP_SPAN_S`] have gone by; `setup_s` is the median set-up time.
/// One set-up sits inside a single fast or slow spell of the host, so
/// the repeats span several spells.
const SETUP_REPEATS: usize = 5;
const SETUP_SPAN_S: f64 = 3.0;

/// Percentile, in per-mille, of the gated latency metric. On a shared
/// host the per-operation time flips between a fast and a slow state
/// every second or so; a median of the run lands between the two modes
/// and moves with their mix, while the 10th percentile stays in the
/// fast mode (README: "Why p10").
const GATED_PERMILLE: u32 = 100;

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <train|serve|stream> --seed <n> --seconds <s> (--trace <0|1> | --steady <runs>)"
    );
    std::process::exit(2);
}

fn setup(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "train" => Box::new(Train::setup(seed)),
        "serve" => Box::new(Serve::setup(seed)),
        _ => Box::new(Stream::setup(seed)),
    }
}

/// Operations of each pass of the traced run: fixed, so per-layer
/// counts repeat exactly for a seed.
fn traced_ops(workload: &str) -> usize {
    match workload {
        "train" => 12,
        "serve" => 60,
        _ => 100,
    }
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn counter(snapshot: &ts3_obs::MetricsSnapshot, name: &str) -> f64 {
    snapshot.counters.iter().find(|(k, _)| *k == name).map_or(0.0, |(_, v)| *v as f64)
}

/// Run this binary once more in a fresh process, wait for it, and return
/// its result line. Exits when the run fails.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Json {
    let exe = std::env::current_exe().unwrap_or_else(|e| panic!("path of this binary: {e}"));
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .unwrap_or_else(|e| panic!("start a run: {e}"));
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = text.lines().last().and_then(|l| Json::parse(l).ok());
    match parsed {
        Some(doc) if out.status.success() => doc,
        _ => {
            eprintln!("{workload} seed {seed} trace {trace} failed ({}):\n{text}", out.status);
            std::process::exit(1);
        }
    }
}

fn metric_values(doc: &Json) -> Vec<(String, f64)> {
    let metrics = doc.get("metrics").and_then(Json::as_object).unwrap_or(&[]);
    metrics.iter().map(|(k, v)| (k.clone(), v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN))).collect()
}

/// The steadiness mode: the spread of each end-to-end metric over `runs`
/// fresh processes, then the cost of tracing from one traced process.
fn steady(workload: &str, seed: u64, seconds: f64, runs: u64) -> ! {
    if runs < 2 {
        usage();
    }
    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    for i in 0..runs {
        for (name, value) in metric_values(&run_child(workload, seed + i, seconds, false)) {
            match table.iter_mut().find(|(n, _)| *n == name) {
                Some((_, values)) => values.push(value),
                None => table.push((name, vec![value])),
            }
        }
    }
    println!("{workload}: {runs} runs of {seconds} s, seeds {seed}..={}", seed + runs - 1);
    println!("{:<18} {:>12} {:>12} {:>12} {:>10} {:>10}", "metric", "median", "q1", "q3", "iqr/med", "range/med");
    for (name, values) in &table {
        let [q1, _, q3] = stats::quartiles(values);
        let med = stats::py_median(values);
        let (lo, hi) = values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |a, &v| (a.0.min(v), a.1.max(v)));
        println!("{name:<18} {med:>12.4} {q1:>12.4} {q3:>12.4} {:>10.4} {:>10.4}", (q3 - q1) / med, (hi - lo) / med);
    }
    let traced = metric_values(&run_child(workload, seed, seconds, true));
    let overhead = traced.iter().find(|(n, _)| n == "trace.overhead_share").map_or(f64::NAN, |m| m.1);
    println!("{workload}: traced operations run {:.1}% below the throughput of the untraced ones between them", overhead * 100.0);
    std::process::exit(0);
}

fn main() {
    let entry = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut steady_runs) = (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok(),
            "--trace" => trace = Some(value == "1"),
            "--steady" => steady_runs = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    if !matches!(workload.as_str(), "train" | "serve" | "stream") {
        usage();
    }
    if let Some(runs) = steady_runs {
        steady(&workload, seed, seconds, runs);
    }
    let Some(trace) = trace else { usage() };

    // One pool thread per process: with the serve executor a process
    // then runs at most two threads (README: "Pool cap").
    ts3_tensor::par::set_max_threads(1);
    ts3_obs::set_level(0);

    let mut setups = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    while setups.len() < SETUP_REPEATS || entry.elapsed().as_secs_f64() < SETUP_SPAN_S {
        drop(w.take());
        let start = if setups.is_empty() { entry } else { Instant::now() };
        w = Some(setup(&workload, seed));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let threads = proc_status_kb("Threads:").unwrap_or(1.0);

    let mut ledger = Ledger::default();
    let mut log = OpLog::default();
    // The untraced operations of a traced run, which price the tracing.
    let mut plain = OpLog::default();
    let mut trace_overhead = 0.0;
    let mut metrics = Vec::new();
    let mut m = |name: &str, unit: &'static str, value: f64| metrics.push(Metric { name: name.into(), unit, value });
    let start = Instant::now();
    let mut ops = 0u64;
    if trace {
        // Traced and untraced operations alternate, so a slow spell of
        // the host weighs on both sides alike.
        ts3_obs::reset();
        alloc::reset();
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        for i in 0..2 * traced_ops(&workload) {
            let on = i % 2 == 1;
            ledger.on = on;
            ts3_obs::set_level(on as u8);
            alloc::enable(on);
            let op = Instant::now();
            if on {
                w.op(&mut ledger, &mut log);
                traced_s += op.elapsed().as_secs_f64();
                ops += 1;
            } else {
                w.op(&mut ledger, &mut plain);
                plain_s += op.elapsed().as_secs_f64();
            }
        }
        alloc::enable(false);
        ts3_obs::set_level(0);
        trace_overhead = 1.0 - (log.units as f64 / traced_s) / (plain.units as f64 / plain_s);
    } else {
        while start.elapsed().as_secs_f64() < seconds {
            w.op(&mut ledger, &mut log);
            ops += 1;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let mut failures = w.check();
    if threads > 2.0 || ts3_tensor::par::pool_stats().threads_spawned > 0 {
        failures.push(format!("process ran {threads} threads; at most 2 expected"));
    }

    let units = log.units.max(1) as f64;
    let lat = stats::sorted(&log.latencies_ms);
    if lat.is_empty() {
        failures.push("no operation completed".into());
    }
    if trace {
        let snap = ts3_obs::metrics_snapshot();
        let (spans, _, _) = ts3_obs::snapshot_records();
        let dropped = ts3_obs::dropped_counts().0;
        if dropped > 0 {
            failures.push(format!("trace dropped {dropped} spans"));
        }
        let span_ms = |name: &str| spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64 / 1e6).sum::<f64>() + 0.0;
        let span_n = |name: &str| spans.iter().filter(|s| s.name == name).count().max(1) as f64;
        let per_op = |v: f64| v / units;
        let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
        let steps = ops.max(1) as f64;
        let layers = ["data.batch", "core.forward", "autograd.backward", "nn.optim"];
        let step_ms = stats::mean(&log.latencies_ms);
        let accounted: f64 = layers.iter().map(|l| ledger.total_ms(l) / steps).sum();
        let unaccounted = if workload == "train" { 1.0 - accounted / step_ms } else { 0.0 };
        if unaccounted.abs() > 0.05 {
            failures.push(format!("train ledger does not close: {:.1}% unaccounted", unaccounted * 100.0));
        }
        // Self time of the eager forecast: its spans minus their children.
        let forecasts: HashSet<u64> = spans.iter().filter(|s| s.name == "ts3net.forecast").map(|s| s.id).collect();
        let forecast_ms = span_ms("ts3net.forecast");
        let forecast_child_ms: f64 = spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| forecasts.contains(&p)))
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum();
        let step = ledger.total_ms("serve.step");
        let plan = span_ms("plan.run");
        let replies = &log.replies;
        let queue: Vec<f64> = replies.iter().map(|r| r.queue_ticks as f64).collect();
        let (allocs, bytes) = alloc::snapshot().iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        for l in layers {
            m(&format!("{l}_ms"), "ms", ledger.total_ms(l) / steps);
        }
        m("train.unaccounted_share", "share", unaccounted);
        m("core.forward_self_share", "share", share(forecast_ms - forecast_child_ms, forecast_ms));
        m("core.plan_run_ms", "ms", share(plan, span_n("plan.run")));
        m("serve.submit_us", "us", ledger.mean_ms("serve.submit") * 1e3);
        m("serve.step_ms", "ms", ledger.mean_ms("serve.step"));
        m("serve.executor_overhead_share", "share", share(step - plan, step));
        m("serve.batch_size_mean", "count", share(replies.iter().map(|r| r.batch_size as f64).sum(), replies.len() as f64));
        m("serve.queue_ticks_p50", "ticks", if queue.is_empty() { 0.0 } else { stats::py_median(&queue) });
        m("serve.deadline_miss_share", "share", share(replies.iter().filter(|r| r.deadline_missed).count() as f64, replies.len() as f64));
        m("stream.push_us", "us", ledger.mean_ms("stream.push") * 1e3);
        m("stream.sdft_push_us", "us", ledger.mean_ms("stream.sdft_push") * 1e3);
        m("stream.drift_check_us", "us", ledger.mean_ms("stream.drift_check") * 1e3);
        m("stream.sdft_resyncs_per_op", "count", per_op(counter(&snap, "stream.sdft.resyncs")));
        m("tensor.matmul.calls_per_op", "count", per_op(counter(&snap, "tensor.matmul.calls")));
        m("tensor.matmul.flops_per_op", "flop", per_op(counter(&snap, "tensor.matmul.flops")));
        m("tensor.conv2d.calls_per_op", "count", per_op(counter(&snap, "tensor.conv2d.calls")));
        m("tensor.conv2d.flops_per_op", "flop", per_op(counter(&snap, "tensor.conv2d.flops")));
        m("tensor.conv2d_ms_per_op", "ms", per_op(span_ms("tensor.conv2d")));
        m("tensor.par.dispatches_per_op", "count", per_op(counter(&snap, "tensor.par.dispatches")));
        m("signal.fft.calls_per_op", "count", per_op(counter(&snap, "signal.fft.calls")));
        m("signal.fft.points_per_op", "count", per_op(counter(&snap, "signal.fft.points")));
        m("alloc.count_per_op", "count", per_op(allocs as f64));
        m("alloc.bytes_per_op", "bytes", per_op(bytes as f64));
        for (tag, (count, bytes)) in alloc::TAGS.iter().zip(alloc::snapshot()) {
            m(&format!("alloc.{tag}.count_per_op"), "count", per_op(count as f64));
            m(&format!("alloc.{tag}.bytes_per_op"), "bytes", per_op(bytes as f64));
        }
        m("trace.overhead_share", "share", trace_overhead);
    } else {
        let n = lat.len();
        let tail = stats::tail_permille(n);
        let at = |permille| if n > 0 { stats::percentile(&lat, permille) } else { 0.0 };
        // Printed for reading, left out of the result line: each moves
        // with the host's fast/slow mix by more than any bound allows.
        println!("{workload}: {n} latency samples in {wall_s:.1} s; tail percentile p{}", tail as f64 / 10.0);
        println!("{workload}/throughput_per_s = {} 1/s (not in the result line)", log.units as f64 / wall_s);
        println!("{workload}/latency_ms_p50 = {} ms (not in the result line)", at(500));
        println!("{workload}/latency_ms_tail = {} ms at p{} (not in the result line)", at(tail), tail as f64 / 10.0);
        m("setup_s", "s", stats::py_median(&setups));
        m("latency_ms_p10", "ms", at(GATED_PERMILLE));
        m("peak_rss_mb", "MB", proc_status_kb("VmHWM:").unwrap_or(0.0) / 1024.0);
    }
    for x in &metrics {
        if !x.value.is_finite() {
            failures.push(format!("{} is not finite", x.name));
        }
    }
    let failed = log.failed + plain.failed + failures.len() as u64;
    for x in &metrics {
        println!("{workload}/{} = {} {}", x.name, x.value, x.unit);
    }
    let attempted = log.attempted + plain.attempted;
    println!("operations attempted={attempted} failed={failed}");
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", x.name, x.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        body.join(", ")
    );
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
