//! Self-tests of the benchmark: metric names and seeded inputs.

use perfbench::stats::valid_name;
use perfbench::workloads::{etth1_task, rng};
use ts3_rng::Rng;

#[test]
fn benchmark_json_metric_names_are_well_formed() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = ts3_json::Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("parse BENCHMARK.json");
    for key in ["end_to_end", "per_layer", "workloads"] {
        for m in doc.get(key).and_then(|v| v.as_array()).expect("metric list") {
            let name = m.get("name").and_then(|n| n.as_str()).expect("name");
            assert!(valid_name(name), "{key}: bad name {name}");
        }
    }
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    assert_eq!(etth1_task(7).data.as_slice(), etth1_task(7).data.as_slice());
    assert_ne!(etth1_task(7).data.as_slice(), etth1_task(8).data.as_slice());
    let draw = |seed| (0..16).map(|_| rng(seed, 3).gen_range(0..1000usize)).collect::<Vec<_>>();
    assert_eq!(draw(7), draw(7));
    let mut a = rng(7, 3);
    let mut b = rng(8, 3);
    let xa: Vec<u64> = (0..8).map(|_| a.gen_range(0..u64::MAX)).collect();
    let xb: Vec<u64> = (0..8).map(|_| b.gen_range(0..u64::MAX)).collect();
    assert_ne!(xa, xb);
}

/// Per-layer metrics that are counts, which must repeat exactly.
fn traced_counts(workload: &str) -> Vec<(String, f64)> {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1"])
        .output()
        .expect("run perfbench");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} traced run failed:\n{text}");
    let doc = ts3_json::Json::parse(text.lines().last().expect("a result line")).expect("parse the result line");
    let metrics = doc.get("metrics").and_then(|m| m.as_object()).expect("metrics");
    metrics
        .iter()
        .filter(|(_, v)| matches!(v.get("unit").and_then(|u| u.as_str()), Some("count" | "flop" | "bytes" | "ticks")))
        .map(|(k, v)| (k.clone(), v.get("value").and_then(|x| x.as_f64()).expect("a number")))
        .collect()
}

#[test]
fn traced_counts_repeat_for_a_seed() {
    for workload in ["train", "serve", "stream"] {
        let first = traced_counts(workload);
        assert!(first.iter().any(|(_, v)| *v > 0.0), "{workload}: no count was recorded");
        assert_eq!(first, traced_counts(workload), "{workload}: per-layer counts differ between two runs");
    }
}
