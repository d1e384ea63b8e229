//! Latency summarization, `ts3.bench.v1` emission, and the telemetry
//! artifact writers (`ts3.timeline.v1`, `ts3.flight.v1`, Prometheus
//! text exposition, folded stacks).
//!
//! The serving benchmark reports through the same JSON schema as the
//! kernel/model benchmarks (`crates/bench`), so `bench_compare` can gate
//! serving-latency regressions with zero new tooling. Percentiles use
//! the workspace's one nearest-rank rule, [`ts3_obs::nearest_rank`].
//! The telemetry writers are thin filesystem shims over `ts3-obs` — the
//! `serve_obs` binary calls them after a traced run; they live here
//! (binary-adjacent code) so library modules stay free of file I/O.

use std::io;
use std::path::{Path, PathBuf};
use ts3_json::Json;
use ts3_obs::nearest_rank;

/// Order statistics of a latency sample set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Median.
    pub p50_ns: u64,
    /// 25th percentile.
    pub p25_ns: u64,
    /// 75th percentile.
    pub p75_ns: u64,
    /// 99th percentile (nearest rank).
    pub p99_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Sample count.
    pub n: usize,
}

/// Summarize a (not necessarily sorted) list of nanosecond samples.
pub fn summarize(samples: &[u64]) -> LatencySummary {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    LatencySummary {
        p50_ns: nearest_rank(&sorted, 0.50),
        p25_ns: nearest_rank(&sorted, 0.25),
        p75_ns: nearest_rank(&sorted, 0.75),
        p99_ns: nearest_rank(&sorted, 0.99),
        min_ns: sorted.first().copied().unwrap_or(0),
        n: sorted.len(),
    }
}

/// One `(op, shape)` row destined for a `ts3.bench.v1` file. The
/// `median_ns` field is what `bench_compare` gates on.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Operation name, e.g. `serve_latency`.
    pub op: String,
    /// Shape/variant tag, e.g. `c8` for 8 clients.
    pub shape: String,
    /// Gated metric.
    pub median_ns: u64,
    /// Lower quartile.
    pub p25_ns: u64,
    /// Upper quartile.
    pub p75_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Samples behind the row.
    pub iters: u64,
}

impl BenchRow {
    /// Row carrying a full latency summary.
    pub fn from_summary(op: &str, shape: &str, s: &LatencySummary) -> BenchRow {
        BenchRow {
            op: op.to_string(),
            shape: shape.to_string(),
            median_ns: s.p50_ns,
            p25_ns: s.p25_ns,
            p75_ns: s.p75_ns,
            min_ns: s.min_ns,
            iters: s.n as u64,
        }
    }

    /// Row for a single scalar metric (e.g. ns-per-forecast rate).
    pub fn scalar(op: &str, shape: &str, value_ns: u64, iters: u64) -> BenchRow {
        BenchRow {
            op: op.to_string(),
            shape: shape.to_string(),
            median_ns: value_ns,
            p25_ns: value_ns,
            p75_ns: value_ns,
            min_ns: value_ns,
            iters,
        }
    }
}

/// Write the current request-timeline registry as a `ts3.timeline.v1`
/// document (see `ts3_obs::timeline_to_json` for the schema).
pub fn write_timeline_json(path: &Path) -> io::Result<PathBuf> {
    std::fs::write(path, ts3_obs::timeline_to_json().to_string_pretty())?;
    Ok(path.to_path_buf())
}

/// Write the flight recorder's `ts3.flight.v1` postmortem, if the
/// recorder is armed and has fired. Returns `Ok(None)` (writing
/// nothing) when there is no postmortem to dump.
pub fn write_flight_json(path: &Path) -> io::Result<Option<PathBuf>> {
    match ts3_obs::flight::to_json() {
        Some(doc) => {
            std::fs::write(path, doc.to_string_pretty())?;
            Ok(Some(path.to_path_buf()))
        }
        None => Ok(None),
    }
}

/// Write the Prometheus-style text exposition of both metric registries
/// (`ts3_obs::expo::render` — byte-deterministic ordering).
pub fn write_exposition(path: &Path) -> io::Result<PathBuf> {
    std::fs::write(path, ts3_obs::expo::render())?;
    Ok(path.to_path_buf())
}

/// Write the recorded span tree as folded stacks (`path self_us` lines,
/// flamegraph input format).
pub fn write_folded(path: &Path) -> io::Result<PathBuf> {
    let (spans, _, _) = ts3_obs::snapshot_records();
    std::fs::write(path, ts3_obs::folded_stacks(&spans))?;
    Ok(path.to_path_buf())
}

/// Write rows as a `ts3.bench.v1` document (the same schema
/// `crates/bench` emits, so `bench_compare` accepts the file as-is).
pub fn write_bench_json(path: &Path, rows: &[BenchRow]) -> io::Result<PathBuf> {
    let entries: Json = rows
        .iter()
        .map(|r| {
            Json::obj([
                ("op", Json::from(r.op.as_str())),
                ("shape", Json::from(r.shape.as_str())),
                ("median_ns", Json::Num(r.median_ns as f64)),
                ("p25_ns", Json::Num(r.p25_ns as f64)),
                ("p75_ns", Json::Num(r.p75_ns as f64)),
                ("min_ns", Json::Num(r.min_ns as f64)),
                ("iters", Json::Num(r.iters as f64)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("schema", Json::from("ts3.bench.v1")),
        ("threads", Json::Num(ts3_tensor::par::max_threads() as f64)),
        ("entries", entries),
    ]);
    std::fs::write(path, doc.to_string_pretty())?;
    Ok(path.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_orders_the_samples() {
        let s = summarize(&[30, 10, 20]);
        assert_eq!(s.p50_ns, 20);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn bench_json_round_trips_through_ts3_json() {
        let rows = [
            BenchRow::from_summary(
                "serve_latency",
                "c8",
                &LatencySummary { p50_ns: 100, p25_ns: 90, p75_ns: 110, p99_ns: 200, min_ns: 80, n: 64 },
            ),
            BenchRow::scalar("serve_rate", "c8", 12345, 64),
        ];
        let path = std::env::temp_dir().join("ts3_serve_report_test.json");
        write_bench_json(&path, &rows).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("ts3.bench.v1"));
        let entries = doc.get("entries").unwrap();
        assert_eq!(entries.as_array().unwrap().len(), 2);
        let first = &entries.as_array().unwrap()[0];
        assert_eq!(first.get("op").unwrap().as_str(), Some("serve_latency"));
        assert_eq!(first.get("median_ns").unwrap().as_f64(), Some(100.0));
        std::fs::remove_file(&path).ok();
    }
}
