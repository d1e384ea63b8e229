//! Streaming-vs-batch per-sample decomposition benchmark.
//!
//!   stream_bench [--smoke] [--out-dir DIR]
//!
//! For each `(window, channels)` configuration the benchmark drives the
//! same seeded series through two per-sample paths:
//!
//! * **stream** — one warm [`PulsedTriple`]: `push(row)` emits the
//!   decomposition of the trailing window on every push (hop = 1);
//! * **batch**  — recompute-from-scratch: assemble the trailing window
//!   into a tensor and call `triple_decompose`, exactly what a server
//!   without streaming state pays per arriving sample.
//!
//! Both produce bitwise-identical decompositions (asserted here on the
//! final sample as a sanity check; the full sweep lives in
//! `tests/pulse_equivalence.rs`), so the ratio is a pure like-for-like
//! cost comparison. The run **fails** (exit 1) when the batch/stream
//! median ratio on the 96-step window drops below 5x — the streaming
//! path's reason to exist is hoisting the per-call CWT plan build and
//! tensor packaging, and losing that shows up as an order-of-magnitude
//! shift, not noise.
//!
//! Emits `ts3.bench.v1` JSON (BENCH_stream_smoke.json in smoke mode,
//! BENCH_stream.json otherwise) with `stream_push/wTcC` and
//! `batch_window/wTcC` rows for the `bench_compare` regression gate.
//! This binary measures wall time and is on the `ts3-lint` wallclock
//! allowlist; library code stays tick-based.

use std::path::PathBuf;
use std::time::Instant;
use ts3_obs::{bench_json, BenchRow};
use ts3_rng::rngs::StdRng;
use ts3_rng::{Rng, SeedableRng};
use ts3_signal::decompose::{triple_decompose, TripleConfig};
use ts3_stream::{PulsedTriple, StreamConfig};
use ts3_tensor::Tensor;

struct Case {
    window: usize,
    channels: usize,
    /// Timed samples per path (plus warm-up).
    iters: usize,
}

/// Seeded sample row: a drifting two-tone mix plus noise, matching the
/// flavor of the serve/sim drivers.
fn sample_row(rng: &mut StdRng, i: usize, channels: usize) -> Vec<f32> {
    (0..channels)
        .map(|ch| {
            let ti = i as f32;
            let phase = std::f32::consts::TAU * ti / 24.0 + ch as f32;
            let noise: f32 = rng.gen_f32() - 0.5;
            0.01 * ti + phase.sin() + 0.3 * (std::f32::consts::TAU * ti / 7.0).cos() + 0.1 * noise
        })
        .collect()
}

/// Median per-push ns of the warm streaming path, plus its final emit
/// for the bitwise cross-check.
fn run_stream(case: &Case, cfg: &TripleConfig) -> (Vec<u64>, ts3_stream::StreamDecomposition) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut stream = PulsedTriple::new(StreamConfig {
        window: case.window,
        channels: case.channels,
        hop: 1,
        triple: cfg.clone(),
    });
    let warmup = case.window + 8;
    let mut i = 0usize;
    let mut last = None;
    for _ in 0..warmup {
        if let Some(d) = stream.push(&sample_row(&mut rng, i, case.channels)) {
            last = Some(d);
        }
        i += 1;
    }
    let mut out = Vec::with_capacity(case.iters);
    for _ in 0..case.iters {
        let row = sample_row(&mut rng, i, case.channels);
        let start = Instant::now();
        let emit = stream.push(&row);
        out.push(start.elapsed().as_nanos() as u64);
        if let Some(d) = emit {
            last = Some(d);
        }
        i += 1;
    }
    (out, last.expect("stream never emitted"))
}

/// Median per-sample ns of the recompute-from-scratch path on the same
/// series: per arriving sample, pack the trailing window and run the
/// full batch `triple_decompose`.
fn run_batch(
    case: &Case,
    cfg: &TripleConfig,
    iters: usize,
) -> (Vec<u64>, ts3_signal::TripleDecomposition) {
    let mut rng = StdRng::seed_from_u64(7);
    let (t, c) = (case.window, case.channels);
    let mut history: Vec<f32> = Vec::new();
    let mut i = 0usize;
    let warmup = t + 8;
    for _ in 0..warmup {
        history.extend_from_slice(&sample_row(&mut rng, i, c));
        i += 1;
    }
    let mut out = Vec::with_capacity(iters);
    let mut last = None;
    // Match run_stream's sample stream exactly: the timed region covers
    // window assembly + decomposition, i.e. what push() replaces.
    for k in 0..case.iters {
        let row = sample_row(&mut rng, i, c);
        history.extend_from_slice(&row);
        i += 1;
        if k >= case.iters - iters {
            let start = Instant::now();
            let tail = &history[history.len() - t * c..];
            let x = Tensor::from_vec(tail.to_vec(), &[t, c]);
            let d = triple_decompose(&x, cfg);
            out.push(start.elapsed().as_nanos() as u64);
            last = Some(d);
        }
    }
    (out, last.expect("batch never ran"))
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
                eprintln!("usage: stream_bench [--smoke] [--out-dir DIR] (got {other})");
                std::process::exit(2);
            }
        }
    }
    if let Ok(threads) = std::env::var("TS3_THREADS") {
        if let Ok(n) = threads.parse::<usize>() {
            ts3_tensor::par::set_max_threads(n);
        }
    }
    std::fs::create_dir_all(&out_dir).expect("cannot create --out-dir");

    // The paper's serving window is 96 steps; lambda 16 is the scaled
    // profile used across the repo's tests.
    let cfg = TripleConfig::default();
    let cases: Vec<Case> = if smoke {
        vec![Case { window: 96, channels: 1, iters: 24 }]
    } else {
        vec![
            Case { window: 96, channels: 1, iters: 120 },
            Case { window: 96, channels: 3, iters: 60 },
            Case { window: 192, channels: 1, iters: 60 },
        ]
    };

    let mut rows = Vec::new();
    let mut gate_failed = false;
    println!("== stream_bench (hop=1: one decomposition per arriving sample) ==");
    for case in &cases {
        let shape = format!("w{}c{}", case.window, case.channels);
        // Batch is ~an order of magnitude slower per sample; time fewer
        // iterations of it to keep smoke runs short.
        let batch_iters = (case.iters / 4).max(8);
        let (mut stream_ns, se) = run_stream(case, &cfg);
        let (mut batch_ns, be) = run_batch(case, &cfg, batch_iters);

        // Sanity: the two paths really computed the same thing (full
        // sweep in tests/pulse_equivalence.rs).
        assert_eq!(se.t_f, be.t_f, "{shape}: t_f diverged");
        for (i, (a, b)) in se.regular.iter().zip(be.regular.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{shape}: regular[{i}] diverged");
        }

        stream_ns.sort_unstable();
        batch_ns.sort_unstable();
        let s_row = BenchRow::from_sorted("stream_push", &shape, &stream_ns);
        let b_row = BenchRow::from_sorted("batch_window", &shape, &batch_ns);
        let ratio = b_row.median_ns as f64 / s_row.median_ns.max(1) as f64;
        println!(
            "{shape:<8} stream {:>9} ns/sample   batch {:>9} ns/sample   ratio {ratio:.1}x",
            s_row.median_ns, b_row.median_ns
        );
        // The acceptance gate: streaming must beat recompute-from-
        // scratch by >= 5x on the 96-step window.
        if case.window == 96 && ratio < 5.0 {
            eprintln!("stream_bench: FAIL — {shape} ratio {ratio:.1}x is below the 5x gate");
            gate_failed = true;
        }
        rows.push(s_row);
        rows.push(b_row);
    }

    let name = if smoke { "BENCH_stream_smoke.json" } else { "BENCH_stream.json" };
    let path = out_dir.join(name);
    let doc = bench_json(ts3_tensor::par::max_threads(), &rows);
    std::fs::write(&path, doc.to_string_pretty()).expect("cannot write bench JSON");
    println!("stream_bench: wrote {}", path.display());
    if gate_failed {
        std::process::exit(1);
    }
}
