//! Minimal wall-clock timing harness for the opt-in benchmarks under
//! `benches/` (replacing criterion so the workspace stays free of
//! external dependencies).
//!
//! Methodology: each benchmark body is first run once explicitly (paying
//! any lazy initialisation — thread-pool spawn, plan caches — outside the
//! measurement), then warmed up for a fixed duration while the per-call
//! iteration count is auto-scaled so one sample lasts at least
//! `MIN_SAMPLE` (1 ms), which keeps [`Instant`] quantisation noise well
//! below 1%. Measurement then runs for the budget, but never stops
//! before `MIN_SAMPLES` (20) samples: a body slower than budget / 20
//! (the TS3Net train step at ~70 ms got 3–5 samples in 300 ms) runs
//! over budget, so its median does not rest on a few samples taken in
//! one of the host's fast or slow states. All deltas are monotonic
//! `Instant` differences. We report
//! the **median** per-iteration time with its inter-quartile range
//! (p25..p75): the median is robust to interference spikes, and the IQR
//! makes run-to-run noise visible instead of averaging it away.
//!
//! Knobs: `TS3_BENCH_MS` overrides the per-benchmark measurement budget
//! in milliseconds (default 300).

use std::hint::black_box as hint_black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use ts3_obs::{bench_json, nearest_rank, BenchRow};

/// Re-export of [`std::hint::black_box`] under the name benchmark
/// bodies conventionally use.
pub fn black_box<T>(x: T) -> T {
    hint_black_box(x)
}

const WARMUP: Duration = Duration::from_millis(100);
const MIN_SAMPLE: Duration = Duration::from_millis(1);
const MIN_SAMPLES: usize = 20;
const MAX_SAMPLES: usize = 50;

fn measure_budget() -> Duration {
    std::env::var("TS3_BENCH_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map_or(Duration::from_millis(300), Duration::from_millis)
}

/// Timing summary of one benchmark (per-iteration durations).
#[derive(Debug, Clone, Copy)]
struct Stats {
    /// Fastest observed sample (the classic low-noise estimator).
    pub min: Duration,
    /// 25th-percentile sample (lower edge of the IQR).
    pub p25: Duration,
    /// Median sample — the headline number.
    pub median: Duration,
    /// 75th-percentile sample (upper edge of the IQR).
    pub p75: Duration,
    /// Total iterations executed during measurement.
    pub iters: u64,
}

/// Collects named benchmark results and renders a summary table.
#[derive(Default)]
pub struct Harness {
    results: Vec<(String, Stats)>,
}

impl Harness {
    /// Fresh harness; labels are printed in registration order.
    pub fn new() -> Self {
        Harness::default()
    }

    /// Measure `f` and record it under `label` (by convention
    /// `op/shape`, which the JSON export splits apart). Prints one
    /// progress line immediately so long runs show liveness.
    pub fn bench<R>(&mut self, label: &str, mut f: impl FnMut() -> R) {
        let stats = run_one(&mut f);
        println!(
            "{label:<40} median {:>12}  IQR [{:>10} .. {:>10}]  ({} iters)",
            fmt_duration(stats.median),
            fmt_duration(stats.p25),
            fmt_duration(stats.p75),
            stats.iters
        );
        self.results.push((label.to_string(), stats));
    }

    /// Write the results as a `ts3.bench.v1` document: one row per
    /// benchmark with the label's `op`/`shape` halves, nanosecond
    /// timing percentiles and the thread cap the run used.
    pub fn write_json(&self, path: &Path) -> std::io::Result<PathBuf> {
        let rows: Vec<BenchRow> = self
            .results
            .iter()
            .map(|(label, s)| {
                let (op, shape) = label.split_once('/').unwrap_or((label.as_str(), ""));
                BenchRow {
                    op: op.to_string(),
                    shape: shape.to_string(),
                    median_ns: s.median.as_nanos() as u64,
                    p25_ns: s.p25.as_nanos() as u64,
                    p75_ns: s.p75.as_nanos() as u64,
                    min_ns: s.min.as_nanos() as u64,
                    iters: s.iters,
                }
            })
            .collect();
        let doc = bench_json(ts3_tensor::par::max_threads(), &rows);
        std::fs::write(path, doc.to_string_pretty())?;
        Ok(path.to_path_buf())
    }

    /// Render the final summary table (sorted as registered).
    pub fn finish(self) {
        println!("\n== benchmark summary ({} entries) ==", self.results.len());
        for (label, s) in &self.results {
            println!(
                "{label:<40} {:>12} (IQR {:>10} .. {:>10})",
                fmt_duration(s.median),
                fmt_duration(s.p25),
                fmt_duration(s.p75)
            );
        }
    }
}

fn run_one<R>(f: &mut impl FnMut() -> R) -> Stats {
    // One explicit warm-up iteration before anything is timed: the first
    // call pays one-off lazy costs that must not skew calibration.
    hint_black_box(f());
    // Warm-up: also discovers how many iterations fill MIN_SAMPLE.
    let mut per_sample = 1u64;
    let warm_start = Instant::now();
    loop {
        let t0 = Instant::now();
        for _ in 0..per_sample {
            hint_black_box(f());
        }
        let dt = t0.elapsed();
        if dt < MIN_SAMPLE {
            per_sample = per_sample.saturating_mul(2);
        } else if warm_start.elapsed() >= WARMUP {
            break;
        }
    }
    // Measurement: monotonic Instant deltas only.
    let budget = measure_budget();
    let mut samples: Vec<Duration> = Vec::new();
    let mut total_iters = 0u64;
    let run_start = Instant::now();
    while (run_start.elapsed() < budget || samples.len() < MIN_SAMPLES)
        && samples.len() < MAX_SAMPLES
    {
        let t0 = Instant::now();
        for _ in 0..per_sample {
            hint_black_box(f());
        }
        samples.push(t0.elapsed() / per_sample as u32);
        total_iters += per_sample;
    }
    samples.sort();
    Stats {
        min: samples[0],
        p25: nearest_rank(&samples, 0.25),
        median: nearest_rank(&samples, 0.50),
        p75: nearest_rank(&samples, 0.75),
        iters: total_iters,
    }
}

/// Human format with µs/ms/s auto-ranging.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_json::Json;

    #[test]
    fn fmt_duration_ranges() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }

    #[test]
    fn percentiles_are_ordered() {
        let samples: Vec<Duration> = (1..=9).map(Duration::from_micros).collect();
        let p25 = nearest_rank(&samples, 0.25);
        let p50 = nearest_rank(&samples, 0.50);
        let p75 = nearest_rank(&samples, 0.75);
        assert!(p25 <= p50 && p50 <= p75);
        assert_eq!(p50, Duration::from_micros(5));
    }

    #[test]
    fn harness_records_each_bench() {
        // Keep the budget tiny so the unit test stays fast.
        std::env::set_var("TS3_BENCH_MS", "5");
        let mut h = Harness::new();
        h.bench("noop/1", || black_box(1 + 1));
        assert_eq!(h.results.len(), 1);
        let s = h.results[0].1;
        // At least MIN_SAMPLES samples of at least one iteration each,
        // however short the budget.
        assert!(s.iters >= MIN_SAMPLES as u64);
        assert!(s.min <= s.p25 && s.p25 <= s.median && s.median <= s.p75);
        h.finish();
        std::env::remove_var("TS3_BENCH_MS");
    }

    #[test]
    fn json_export_round_trips() {
        std::env::set_var("TS3_BENCH_MS", "5");
        let mut h = Harness::new();
        h.bench("fft/96", || black_box(2 * 2));
        let path = std::env::temp_dir().join("ts3_bench_json_test.json");
        h.write_json(&path).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("ts3.bench.v1"));
        assert!(doc.get("threads").unwrap().as_usize().unwrap() >= 1);
        let entries = doc.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries[0].get("op").unwrap().as_str(), Some("fft"));
        assert_eq!(entries[0].get("shape").unwrap().as_str(), Some("96"));
        assert!(entries[0].get("median_ns").unwrap().as_f64().unwrap() >= 0.0);
        std::fs::remove_file(&path).ok();
        std::env::remove_var("TS3_BENCH_MS");
    }
}
