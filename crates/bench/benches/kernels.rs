//! Micro-benchmarks for the numeric substrate: FFT, CWT, matmul, conv2d
//! (forward and backward), GELU, trend decomposition and
//! spectrum-gradient kernels — the building blocks whose cost dominates
//! every table run.
//!
//! Run with: `cargo bench -p ts3-bench --features bench-harness`
//! (off by default so plain `cargo test` never builds these), or via
//! `scripts/bench.sh` which also persists the JSON mirror.
//!
//! Knobs (beyond the harness's own `TS3_BENCH_MS`):
//!
//! * `TS3_BENCH_SMOKE=1` — run the reduced CI subset only. Labels are
//!   byte-identical to the full run's so `bench_compare` can match the
//!   committed smoke baseline (`results/BENCH_kernels_smoke.json`).
//! * `TS3_BENCH_OUT=<path>` — write the JSON mirror there instead of
//!   `<workspace>/BENCH_kernels.json`.

use ts3_bench::timing::{black_box, Harness};
use ts3_bench::RunProfile;
use ts3_signal::decompose::{spectrum_gradient, trend_decompose, DEFAULT_TREND_KERNELS};
use ts3_signal::fft::{rfft, rfft_half};
use ts3_signal::{CwtPlan, Lanes, WaveletKind};
use ts3_tensor::{conv2d, conv2d_backward, Tensor};

/// Reduced-subset switch for the `verify.sh` bench gate.
fn smoke() -> bool {
    std::env::var("TS3_BENCH_SMOKE").is_ok_and(|v| v.trim() == "1")
}

fn bench_fft(h: &mut Harness) {
    // `fft/{n}` tracks the cost of "full spectrum of one length-n real
    // window" — the operation every spectral consumer in the workspace
    // performs. It now runs through the packed real-input transform
    // (rfft), so the time series across commits shows the rfft win
    // directly; `rfft_half/{n}` additionally tracks the half-spectrum
    // entry the periodogram/sliding-DFT paths use.
    let sizes: &[usize] = if smoke() { &[96, 256] } else { &[96, 256, 1024] };
    for &n in sizes {
        let x: Vec<f32> = (0..n)
            .map(|i| (i as f32 * 0.37).sin() + 0.5 * (i as f32 * 0.11).cos())
            .collect();
        h.bench(&format!("fft/{n}"), || rfft(black_box(&x)));
        h.bench(&format!("rfft_half/{n}"), || rfft_half(black_box(&x)));
    }
}

fn bench_cwt(h: &mut Harness) {
    let x: Vec<f32> = (0..96).map(|i| (i as f32 * 0.3).sin()).collect();
    let lambdas: &[usize] = if smoke() { &[16] } else { &[8, 16, 32] };
    for &lambda in lambdas {
        let plan = CwtPlan::new(96, lambda, WaveletKind::ComplexGaussian);
        h.bench(&format!("cwt/forward_amp/{lambda}"), || {
            plan.amplitude(black_box(&x))
        });
        if lambda == 16 {
            // The stream pulse's S-GD bank: all 7 channels of a `[96, 7]`
            // seasonal window in one lane pass, into `[16, 96, 7]`.
            let xs: Vec<f32> = (0..96 * 7).map(|i| (i as f32 * 0.3).sin()).collect();
            let ch: Vec<usize> = (0..7).collect();
            let src = Lanes { offsets: &ch, t_stride: 7, row_stride: 0 };
            let dst = Lanes { offsets: &ch, t_stride: 7, row_stride: 96 * 7 };
            let mut amp = vec![0.0f32; 16 * 96 * 7];
            h.bench("cwt/forward_amp_lanes/96x16x7", || {
                plan.amplitude_lanes(black_box(&xs), src, &mut amp, dst);
                amp[0]
            });
        }
    }
    if smoke() {
        return;
    }
    let plan = CwtPlan::new(96, 16, WaveletKind::ComplexGaussian);
    let w: Vec<f32> = (0..16 * 96).map(|i| (i as f32 * 0.01).sin()).collect();
    h.bench("cwt/inverse_16", || plan.inverse(black_box(&w)));
    let g_re = w.clone();
    let g_im = w.clone();
    h.bench("cwt/adjoint_16", || {
        plan.adjoint(black_box(&g_re), black_box(&g_im))
    });
    // A TF-Block branch backward at lambda 8: one lane group of eight
    // `[8, 96]` cotangent grids back to a `[96, 8]` input gradient.
    let plan = CwtPlan::new(96, 8, WaveletKind::ComplexGaussian);
    let g: Vec<f32> = (0..8 * 8 * 96).map(|i| (i as f32 * 0.01).sin()).collect();
    let grids: Vec<usize> = (0..8).map(|l| l * 8 * 96).collect();
    let chans: Vec<usize> = (0..8).collect();
    let src = Lanes { offsets: &grids, t_stride: 1, row_stride: 96 };
    let dst = Lanes { offsets: &chans, t_stride: 8, row_stride: 0 };
    let mut gx = vec![0.0f32; 96 * 8];
    h.bench("cwt/adjoint_lanes/96x8x8", || {
        gx.fill(0.0);
        plan.adjoint_lanes(black_box(&g), black_box(&g), src, &mut gx, dst);
        gx[0]
    });
}

fn bench_matmul(h: &mut Harness) {
    let sizes: &[usize] = if smoke() { &[32, 64] } else { &[32, 64, 128] };
    for &n in sizes {
        let a = Tensor::randn(&[n, n], 1);
        let b_t = Tensor::randn(&[n, n], 2);
        h.bench(&format!("matmul/{n}"), || a.matmul(black_box(&b_t)));
    }
}

fn bench_conv2d(h: &mut Harness) {
    // The TF-Block's inception shape: [B=8, C=8, lambda=8, T=96].
    let x = Tensor::randn(&[8, 8, 8, 96], 3);
    let kernels: &[usize] = if smoke() { &[3] } else { &[1, 3, 5] };
    for &k in kernels {
        let w = Tensor::randn(&[8, 8, k, k], 4);
        h.bench(&format!("conv2d/{k}"), || {
            conv2d(black_box(&x), black_box(&w), k / 2, k / 2)
        });
    }
    // The backward dominates the train step, so every kernel size runs
    // in the smoke set too. Same padding keeps the output [8, 8, 8, 96].
    let g = Tensor::randn(&[8, 8, 8, 96], 11);
    for k in [1, 3, 5] {
        let w = Tensor::randn(&[8, 8, k, k], 4);
        h.bench(&format!("conv2d_backward/{k}"), || {
            conv2d_backward(black_box(&x), black_box(&w), black_box(&g), k / 2, k / 2)
        });
    }
}

fn bench_gelu(h: &mut Harness) {
    // The GELU between the TF-Block's inception stages, on their hidden
    // plane [B=8, C=8, lambda=8, T=96]: one tanh per element.
    let x = Tensor::randn(&[8, 8, 8, 96], 12);
    h.bench("gelu/8x8x8x96", || black_box(&x).gelu_with_tanh());
}

fn bench_decomposition(h: &mut Harness) {
    let x = Tensor::randn(&[96, 7], 5);
    h.bench("decomposition/trend_decompose_96x7", || {
        trend_decompose(black_box(&x), &DEFAULT_TREND_KERNELS)
    });
    let tf = Tensor::randn(&[16, 96], 6);
    h.bench("decomposition/spectrum_gradient_16x96", || {
        spectrum_gradient(black_box(&tf), 24)
    });
}

/// Thread-scaling sweep (gated by `TS3_BENCH_THREAD_SWEEP`, a comma
/// list of thread caps, e.g. `1,2,4`): re-runs representative
/// parallel kernels under each cap via the runtime override
/// `set_max_threads`, producing `sweep/<kernel>/t<n>` rows. The rows
/// land in the same `ts3.bench.v1` mirror, so `bench_compare` gates
/// the scaling curve like any other kernel — a cap that stops helping
/// (or a kernel whose parallel path regressed at some width) shows up
/// as a row regression against the committed baseline. Outputs are
/// bitwise identical across caps (workspace determinism contract), so
/// the sweep measures pure scheduling cost.
fn bench_thread_sweep(h: &mut Harness) {
    let spec = std::env::var("TS3_BENCH_THREAD_SWEEP").unwrap_or_default();
    let counts: Vec<usize> = spec
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n >= 1)
        .collect();
    if counts.is_empty() {
        return;
    }
    let restore = ts3_tensor::par::max_threads();
    let a = Tensor::randn(&[128, 128], 7);
    let b = Tensor::randn(&[128, 128], 8);
    let x = Tensor::randn(&[8, 8, 8, 96], 9);
    let w = Tensor::randn(&[8, 8, 3, 3], 10);
    for &n in &counts {
        ts3_tensor::par::set_max_threads(n);
        h.bench(&format!("sweep/matmul_128/t{n}"), || a.matmul(black_box(&b)));
        if !smoke() {
            h.bench(&format!("sweep/conv2d_3/t{n}"), || {
                conv2d(black_box(&x), black_box(&w), 1, 1)
            });
        }
    }
    // Restore the ambient cap: the JSON mirror records `threads` at
    // write time and later benches must run at the configured width.
    ts3_tensor::par::set_max_threads(restore);
}

fn main() {
    let mut h = Harness::new();
    bench_fft(&mut h);
    bench_cwt(&mut h);
    bench_matmul(&mut h);
    bench_conv2d(&mut h);
    bench_gelu(&mut h);
    bench_decomposition(&mut h);
    bench_thread_sweep(&mut h);
    // Machine-readable mirror (op, shape, median ns + IQR, thread cap)
    // for regression tracking across commits via `bench_compare`.
    let path = match std::env::var_os("TS3_BENCH_OUT") {
        Some(p) => std::path::PathBuf::from(p),
        None => ts3_bench::workspace_root().join("BENCH_kernels.json"),
    };
    match h.write_json(&path) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("bench JSON write failed: {e}"),
    }
    // Under TS3_TRACE>=1 the instrumented kernels have been recording
    // spans/counters the whole run; persist the ts3.trace.v1 manifest
    // next to the table-run ones so bench runs are auditable too.
    let profile = RunProfile {
        name: "bench",
        ..RunProfile::smoke()
    };
    let stem = if smoke() { "BENCH_kernels_smoke" } else { "BENCH_kernels" };
    match ts3_bench::write_trace_manifest(stem, &profile) {
        Ok(Some(p)) => println!("wrote {}", p.display()),
        Ok(None) => {}
        Err(e) => eprintln!("trace manifest write failed: {e}"),
    }
    h.finish();
}
