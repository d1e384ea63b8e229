//! Deterministic schedule-fuzz race harness (`TS3_SCHED_FUZZ`).
//!
//! The worker pool's contract is that outputs never depend on the
//! schedule: not on which worker runs which row block, and not on the
//! order the mailboxes are woken. This sweep forces the point: for 16
//! fuzz seeds × thread counts {1, 2, 4} it recomputes a matmul, a
//! complex FFT, a real-input FFT, a triple decomposition and a TS3Net
//! forward pass plus one taped TS3Net training step (every parameter
//! gradient) under a freshly permuted schedule per dispatch, and
//! asserts every result is **bitwise** identical to the unfuzzed
//! single-thread baseline. A failure here means some kernel secretly
//! depends on scheduling — a shared accumulator, block-order
//! dependence, or a data race.
//!
//! Taped steps are also pinned across commits: an FNV-1a hash of the
//! baseline's TS3Net gradient bits, of one unfuzzed TimesNet step's and
//! of one unfuzzed TS3Net step at perfbench's train shape (7 channels,
//! 96 → 96, batch 8, so the inception convolutions run 8 output
//! channels) must equal a committed constant, so a change that reorders the
//! arithmetic of a layer either keeps the bits or has to re-pin them on
//! purpose.
//!
//! Everything lives in one `#[test]` on purpose: the fuzz seed and the
//! thread cap are process-global, so concurrent tests inside this
//! binary would race on them.

use ts3_baselines::{BaselineConfig, TimesNet};
use ts3_nn::Ctx;
use ts3_signal::fft::{fft, rfft_half};
use ts3_signal::{triple_decompose, TripleConfig};
use ts3_tensor::{par, Tensor};
use ts3net_core::{ForecastModel, TS3Net, TS3NetConfig};

const SEEDS: u64 = 16;
const THREADS: [usize; 3] = [1, 2, 4];

/// Pinned FNV-1a hashes of the taped-step gradient bits
/// ([`taped_step_bits`]) of the tiny TS3Net and TimesNet below, and of
/// the scaled TS3Net perfbench trains.
const TS3NET_GRAD_HASH: u64 = 0x5abe_526a_4d7b_6c57;
const TIMESNET_GRAD_HASH: u64 = 0xde6a_1b8f_59dc_5e7a;
const TS3NET_TRAIN_SHAPE_GRAD_HASH: u64 = 0xa00b_b90a_436c_b9a9;

fn tiny_cfg(c: usize, lookback: usize, horizon: usize) -> TS3NetConfig {
    let mut cfg = TS3NetConfig::scaled(c, lookback, horizon);
    cfg.lambda = 4;
    cfg.d_model = 4;
    cfg.d_hidden = 4;
    cfg.dropout = 0.0;
    cfg
}

/// Deterministic, value-varied fill so block mixups cannot cancel.
fn series(n: usize, stride: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i * stride + 3) as f32 * 0.173).sin() * (1.0 + i as f32 * 0.01))
        .collect()
}

fn tiny_timesnet() -> TimesNet {
    let mut cfg = BaselineConfig::scaled(2, 32, 16);
    cfg.dropout = 0.0;
    TimesNet::new(&cfg, 42)
}

/// FNV-1a hash of f32 bit patterns (little-endian bytes).
fn fnv1a(bits: &[u32]) -> u64 {
    bits.iter().flat_map(|b| b.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One taped training step: MSE against a fixed target, backward, then
/// every parameter gradient (conv, matmul and FFT adjoints) as bits.
/// Batch 5 splits unevenly at 2 and 4 threads, so a reduction whose
/// association followed the sample blocks would change bits here.
fn taped_step_bits(model: &dyn ForecastModel, batch: usize, lookback: usize, c: usize) -> Vec<u32> {
    let xb = Tensor::from_vec(series(batch * lookback * c, 19), &[batch, lookback, c]);
    let params = model.parameters();
    for p in &params {
        p.zero_grad();
    }
    let y = model.forecast(&xb, &mut Ctx::train(7));
    let target = Tensor::from_vec(series(y.value().numel(), 17), y.shape());
    y.mse_loss(&target).backward();
    let mut bits = Vec::new();
    for p in &params {
        bits.extend(p.grad().as_slice().iter().map(|v| v.to_bits()));
    }
    bits
}

/// One full pipeline evaluation under the current (fuzz, threads)
/// globals, flattened to bit patterns; the taped step's gradient bits
/// come last.
fn evaluate(model: &TS3Net, x: &Tensor) -> Vec<u32> {
    let mut bits = Vec::new();
    let push = |bits: &mut Vec<u32>, vals: &[f32]| {
        bits.extend(vals.iter().map(|v| v.to_bits()));
    };

    // Matmul: big enough that the pool actually dispatches multi-block.
    let a = Tensor::from_vec(series(37 * 64, 7), &[37, 64]);
    let b = Tensor::from_vec(series(64 * 48, 11), &[64, 48]);
    push(&mut bits, a.matmul(&b).as_slice());

    // Complex and real-input FFTs (256-point, radix-2 path).
    let sig = series(256, 5);
    let input: Vec<ts3_signal::Complex32> = sig
        .iter()
        .map(|&re| ts3_signal::Complex32::new(re, -0.25 * re))
        .collect();
    for c in fft(&input) {
        bits.push(c.re.to_bits());
        bits.push(c.im.to_bits());
    }
    for c in rfft_half(&sig) {
        bits.push(c.re.to_bits());
        bits.push(c.im.to_bits());
    }

    // Triple decomposition of a 2-channel window.
    let win = Tensor::from_vec(series(96 * 2, 3), &[96, 2]);
    let d = triple_decompose(&win, &TripleConfig { lambda: 4, ..Default::default() });
    push(&mut bits, d.trend.as_slice());
    push(&mut bits, d.seasonal.as_slice());
    push(&mut bits, d.fluctuant_1d.as_slice());
    push(&mut bits, d.fluctuant_2d.as_slice());

    // TS3Net forward pass (eval mode: no dropout, no tape).
    let mut ctx = Ctx::eval();
    push(&mut bits, model.forecast(x, &mut ctx).value().as_slice());

    bits.extend(taped_step_bits(model, 5, x.shape()[1], x.shape()[2]));
    bits
}

#[test]
fn sixteen_fuzzed_schedules_are_bitwise_identical() {
    // When the verify gate runs this binary with TS3_SCHED_FUZZ set,
    // the knob must actually have been picked up.
    let orig_fuzz = par::sched_fuzz();
    let orig_threads = par::max_threads();
    if std::env::var("TS3_SCHED_FUZZ").is_ok_and(|v| v.trim().parse::<u64>().is_ok()) {
        assert!(
            orig_fuzz.is_some(),
            "TS3_SCHED_FUZZ is set but par::sched_fuzz() resolved to off"
        );
    }

    let model = TS3Net::new(tiny_cfg(2, 32, 16), 42);
    let x = Tensor::from_vec(series(2 * 32 * 2, 13), &[2, 32, 2]);

    // Unfuzzed single-thread baseline.
    par::set_sched_fuzz(None);
    par::set_max_threads(1);
    let baseline = evaluate(&model, &x);

    // The taped steps match the pinned bits.
    let n_grads: usize = model.parameters().iter().map(|p| p.numel()).sum();
    for (name, got, want) in [
        ("TS3Net", fnv1a(&baseline[baseline.len() - n_grads..]), TS3NET_GRAD_HASH),
        ("TimesNet", fnv1a(&taped_step_bits(&tiny_timesnet(), 5, 32, 2)), TIMESNET_GRAD_HASH),
        (
            "TS3Net at perfbench's train shape",
            fnv1a(&taped_step_bits(&TS3Net::new(TS3NetConfig::scaled(7, 96, 96), 42), 8, 96, 7)),
            TS3NET_TRAIN_SHAPE_GRAD_HASH,
        ),
    ] {
        assert_eq!(got, want, "{name} taped-step gradient hash {got:#018x}, pinned {want:#018x}");
    }

    let fuzzed_before = par::pool_stats().fuzzed_dispatches;
    for seed in 0..SEEDS {
        par::set_sched_fuzz(Some(seed));
        for threads in THREADS {
            par::set_max_threads(threads);
            let got = evaluate(&model, &x);
            assert_eq!(
                baseline.len(),
                got.len(),
                "seed {seed}, threads {threads}: output shape changed"
            );
            if let Some(i) = (0..baseline.len()).find(|&i| baseline[i] != got[i]) {
                panic!(
                    "seed {seed}, threads {threads}: bit divergence at flat index {i}: \
                     {:#010x} vs {:#010x}",
                    baseline[i], got[i]
                );
            }
        }
    }
    // The sweep must have exercised the fuzzed dispatch path (the
    // multi-thread legs dispatch through the pool).
    assert!(
        par::pool_stats().fuzzed_dispatches > fuzzed_before,
        "no dispatch ever took the fuzzed schedule path"
    );

    par::set_sched_fuzz(orig_fuzz);
    par::set_max_threads(orig_threads);
}
