//! Run-manifest writer: when tracing is on (`TS3_TRACE>=1`), every
//! `ts3` experiment ends its run by dumping everything `ts3-obs`
//! recorded — the span tree, per-epoch events, metrics and a per-phase
//! wall-time summary — to `results/<stem>.trace.json`.
//!
//! The schema (`ts3.trace.v1`) is documented in README §Observability;
//! `crates/bench/src/bin/trace_check.rs` validates it in CI.

use crate::profile::RunProfile;
use crate::report::results_dir;
use std::path::PathBuf;
use ts3_json::Json;

/// Schema tag written at the top of every trace manifest.
pub const TRACE_SCHEMA: &str = "ts3.trace.v1";

/// Per-phase wall time: root spans grouped by name, with total duration
/// and occurrence count. A "phase" is any top-level span (e.g. one
/// `bench.train_forecaster` per table cell).
fn phases_json(spans: &[ts3_obs::SpanRec]) -> Json {
    let mut phases: Vec<(&'static str, f64, u64)> = Vec::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        match phases.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(p) => {
                p.1 += s.dur_ns as f64 / 1e3;
                p.2 += 1;
            }
            None => phases.push((s.name, s.dur_ns as f64 / 1e3, 1)),
        }
    }
    phases
        .into_iter()
        .map(|(name, total_us, count)| {
            Json::obj([
                ("name", Json::from(name)),
                ("total_us", Json::Num(total_us)),
                ("count", Json::Num(count as f64)),
            ])
        })
        .collect()
}

/// Write `results/<stem>.trace.json` (with the run's metrics snapshot
/// under `"metrics"`) for the run that just finished. Returns `None`
/// (and records nothing) when tracing is disabled, so untraced runs stay
/// byte-identical to the pre-observability harness.
pub fn write_trace_manifest(
    stem: &str,
    profile: &RunProfile,
) -> std::io::Result<Option<PathBuf>> {
    if !ts3_obs::enabled() {
        return Ok(None);
    }
    let (spans, events, dropped) = ts3_obs::snapshot_records();
    let (dropped_spans, dropped_events) = ts3_obs::dropped_counts();
    let threads_env = std::env::var("TS3_THREADS").ok();
    let simd_env = std::env::var("TS3_SIMD").ok();
    let doc = Json::obj([
        ("schema", Json::from(TRACE_SCHEMA)),
        ("stem", Json::from(stem)),
        (
            "profile",
            Json::obj([
                ("name", Json::from(profile.name)),
                ("seed", Json::Num(profile.seed as f64)),
                ("epochs", Json::Num(profile.epochs as f64)),
                ("batch_size", Json::Num(profile.batch_size as f64)),
            ]),
        ),
        (
            "threads",
            Json::obj([
                ("max_threads", Json::Num(ts3_tensor::par::max_threads() as f64)),
                (
                    "ts3_threads_env",
                    threads_env.map_or(Json::Null, Json::Str),
                ),
            ]),
        ),
        (
            "simd",
            Json::obj([
                ("kernel", Json::from(ts3_tensor::simd::kernel_name())),
                ("ts3_simd_env", simd_env.map_or(Json::Null, Json::Str)),
            ]),
        ),
        ("phases", phases_json(&spans)),
        ("trace", ts3_obs::trace_to_json(&spans, &events)),
        ("metrics", ts3_obs::metrics_to_json(&ts3_obs::metrics_snapshot())),
        ("dropped_records", Json::Num(dropped as f64)),
        ("dropped_spans", Json::Num(dropped_spans as f64)),
        ("dropped_events", Json::Num(dropped_events as f64)),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{stem}.trace.json"));
    std::fs::write(&path, doc.to_string_pretty())?;
    // Span self-time in folded-stacks format rides along for flamegraph
    // tooling (`results/<stem>.folded`).
    std::fs::write(dir.join(format!("{stem}.folded")), ts3_obs::folded_stacks(&spans))?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The gate level is process-global; keep the two manifest tests (the
    // only bench unit tests that flip it) from interleaving.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_manifest_is_noop() {
        let _g = LOCK.lock().unwrap();
        ts3_obs::set_level(0);
        let profile = RunProfile::smoke();
        let out = write_trace_manifest("manifest_noop_test", &profile).unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn enabled_manifest_round_trips() {
        let _g = LOCK.lock().unwrap();
        ts3_obs::set_level(1);
        ts3_obs::reset();
        {
            let _s = ts3_obs::span("bench.train_forecaster");
            ts3_obs::event("epoch", |f| {
                f.set("epoch", 0usize);
                f.set("loss", 0.5f32);
            });
        }
        ts3_obs::counter_add("tensor.matmul.calls", 2);
        let profile = RunProfile::smoke();
        let path = write_trace_manifest("manifest_unit_test", &profile)
            .unwrap()
            .expect("manifest written");
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(TRACE_SCHEMA));
        assert_eq!(
            doc.get("profile").unwrap().get("name").unwrap().as_str(),
            Some("smoke")
        );
        let phases = doc.get("phases").unwrap().as_array().unwrap();
        assert!(phases
            .iter()
            .any(|p| p.get("name").unwrap().as_str() == Some("bench.train_forecaster")));
        // Other tests may record concurrently, so look for *our* span
        // (a bench.train_forecaster root with an epoch event) rather
        // than assuming the dump holds nothing else.
        let spans = doc
            .get("trace")
            .unwrap()
            .get("spans")
            .unwrap()
            .as_array()
            .unwrap();
        assert!(spans.iter().any(|s| {
            s.get("name").unwrap().as_str() == Some("bench.train_forecaster")
                && s.get("events")
                    .and_then(|e| e.as_array())
                    .is_some_and(|evs| {
                        evs.iter().any(|e| e.get("name").unwrap().as_str() == Some("epoch"))
                    })
        }));
        assert!(
            doc.get("metrics")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("tensor.matmul.calls")
                .unwrap()
                .as_usize()
                .unwrap()
                >= 2
        );
        // The SIMD dispatch section names the selected kernel family.
        let kernel = doc
            .get("simd")
            .unwrap()
            .get("kernel")
            .unwrap()
            .as_str()
            .unwrap();
        assert!(kernel == "avx2" || kernel == "scalar", "kernel = {kernel}");
        // Split drop counters are surfaced (zero in a short run) and the
        // folded-stacks sidecar exists with our root span in it.
        assert_eq!(doc.get("dropped_spans").unwrap().as_usize(), Some(0));
        assert_eq!(doc.get("dropped_events").unwrap().as_usize(), Some(0));
        let folded_path = path.with_extension("").with_extension("folded");
        let folded = std::fs::read_to_string(&folded_path).unwrap();
        assert!(folded.contains("bench.train_forecaster"));
        std::fs::remove_file(&folded_path).ok();
        std::fs::remove_file(&path).ok();
        ts3_obs::set_level(0);
        ts3_obs::reset();
    }
}
