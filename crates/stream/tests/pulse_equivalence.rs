//! Batch-vs-streaming equivalence harness — the contract that makes
//! `ts3-stream` trustworthy: every pulse emitted by [`PulsedTriple`] is
//! **bitwise identical** to `ts3_signal::triple_decompose` run on the
//! same trailing window, across a seeded sweep of window lengths,
//! trend-kernel sets, lambda, channel counts, `T_f` modes, emit
//! cadences, ring-wrap alignments and worker-pool thread caps — in the
//! style of the existing par/serial and plan-equivalence suites.
//!
//! "Bitwise" means `f32::to_bits` equality on every element of every
//! component (trend, seasonal, regular, fluctuant 1-D/2-D, TF grid)
//! plus the selected `T_f`. No tolerance anywhere: the streaming path
//! replays the batch arithmetic, so any drift is a bug, not noise.

use ts3_rng::rngs::StdRng;
use ts3_rng::{Rng, SeedableRng};
use ts3_signal::decompose::{triple_decompose, TripleConfig};
use ts3_signal::wavelet::WaveletKind;
use ts3_stream::{PulsedTriple, StreamConfig};
use ts3_tensor::par::set_max_threads;
use ts3_tensor::Tensor;

/// One sweep point: the streaming config plus how long to drive it.
struct Combo {
    name: &'static str,
    window: usize,
    channels: usize,
    lambda: usize,
    kernels: Vec<usize>,
    t_f: Option<usize>,
    seed: u64,
}

fn combos() -> Vec<Combo> {
    vec![
        Combo { name: "short", window: 32, channels: 1, lambda: 4, kernels: vec![13, 17, 25], t_f: None, seed: 11 },
        Combo { name: "two_channel", window: 48, channels: 2, lambda: 8, kernels: vec![5], t_f: None, seed: 22 },
        Combo { name: "paper_window", window: 96, channels: 1, lambda: 16, kernels: vec![13, 17, 25], t_f: None, seed: 33 },
        Combo { name: "fixed_tf_wide", window: 96, channels: 3, lambda: 4, kernels: vec![13, 17, 25], t_f: Some(24), seed: 44 },
        Combo { name: "odd_bluestein", window: 33, channels: 2, lambda: 4, kernels: vec![7, 11], t_f: None, seed: 55 },
        Combo { name: "identity_kernel", window: 48, channels: 1, lambda: 4, kernels: vec![1, 25], t_f: Some(12), seed: 66 },
    ]
}

fn triple_cfg(c: &Combo) -> TripleConfig {
    TripleConfig {
        lambda: c.lambda,
        wavelet: WaveletKind::ComplexGaussian,
        trend_kernels: c.kernels.clone(),
        t_f: c.t_f,
    }
}

/// Seeded sample row: trend + two tones + noise, per channel.
fn row(rng: &mut StdRng, i: usize, channels: usize) -> Vec<f32> {
    (0..channels)
        .map(|ch| {
            let ti = i as f32;
            let noise: f32 = rng.gen_f32() - 0.5;
            0.02 * ti
                + (std::f32::consts::TAU * ti / 24.0 + ch as f32).sin()
                + 0.4 * (std::f32::consts::TAU * ti / 7.0).cos()
                + 0.2 * noise
        })
        .collect()
}

fn assert_bits(label: &str, combo: &str, pushed: u64, stream: &[f32], batch: &[f32]) {
    assert_eq!(stream.len(), batch.len(), "{combo}@{pushed}: {label} length");
    for (i, (a, b)) in stream.iter().zip(batch).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{combo}@{pushed}: {label}[{i}] diverged: stream {a} vs batch {b}"
        );
    }
}

/// Assert one emit equals the batch decomposition of the same window,
/// component by component, bit for bit.
fn assert_emit_matches_batch(
    combo: &Combo,
    cfg: &TripleConfig,
    emit: &ts3_stream::StreamDecomposition,
    history: &[Vec<f32>],
) {
    let (t, c) = (combo.window, combo.channels);
    let tail: Vec<f32> = history[history.len() - t..].iter().flatten().copied().collect();
    assert_bits("window", combo.name, emit.samples_seen, &emit.window, &tail);
    let x = Tensor::from_vec(tail, &[t, c]);
    let batch = triple_decompose(&x, cfg);
    assert_eq!(emit.t_f, batch.t_f, "{}@{}: t_f diverged", combo.name, emit.samples_seen);
    let n = emit.samples_seen;
    assert_bits("trend", combo.name, n, &emit.trend, batch.trend.as_slice());
    assert_bits("seasonal", combo.name, n, &emit.seasonal, batch.seasonal.as_slice());
    assert_bits("regular", combo.name, n, &emit.regular, batch.regular.as_slice());
    assert_bits("fluctuant_1d", combo.name, n, &emit.fluctuant_1d, batch.fluctuant_1d.as_slice());
    assert_bits("fluctuant_2d", combo.name, n, &emit.fluctuant_2d, batch.fluctuant_2d.as_slice());
    assert_bits("tf", combo.name, n, &emit.tf, batch.tf.as_slice());
}

/// Drive one combo for `2.5 * window` samples, checking emits against
/// the batch decomposition at a spread of ring-wrap alignments.
fn drive(combo: &Combo, hop: usize, check_every: u64) {
    let cfg = triple_cfg(combo);
    let mut stream = PulsedTriple::new(StreamConfig {
        window: combo.window,
        channels: combo.channels,
        hop,
        triple: cfg.clone(),
    });
    let mut rng = StdRng::seed_from_u64(combo.seed);
    let total = combo.window * 5 / 2;
    let mut history: Vec<Vec<f32>> = Vec::with_capacity(total);
    let mut emits = 0u64;
    let mut checked = 0u64;
    for i in 0..total {
        let r = row(&mut rng, i, combo.channels);
        history.push(r.clone());
        if let Some(emit) = stream.push(&r) {
            assert_eq!(
                emit.samples_seen,
                (i + 1) as u64,
                "{}: emit fired off its cadence",
                combo.name
            );
            let last = i == total - 1;
            if emits % check_every == 0 || last {
                assert_emit_matches_batch(combo, &cfg, &emit, &history);
                checked += 1;
            }
            emits += 1;
        }
    }
    let expected = ((total - combo.window) / hop + 1) as u64;
    assert_eq!(emits, expected, "{}: emit count", combo.name);
    assert!(checked >= 3, "{}: sweep checked too few emits", combo.name);
}

#[test]
fn streaming_emits_are_bitwise_equal_to_batch_across_the_sweep() {
    for combo in combos() {
        // Every emit at small windows; strided checks at the larger
        // ones still cover > window distinct ring-wrap alignments.
        let check_every = if combo.window >= 96 { 7 } else { 3 };
        drive(&combo, 1, check_every);
    }
}

#[test]
fn hop_cadence_does_not_change_emit_contents() {
    // hop only thins the emit schedule; each emitted decomposition must
    // still match batch on its own trailing window.
    let combo = Combo {
        name: "hopped",
        window: 48,
        channels: 2,
        lambda: 8,
        kernels: vec![13, 17, 25],
        t_f: None,
        seed: 77,
    };
    drive(&combo, 4, 1);
    drive(&combo, 7, 1);
}

#[test]
fn equivalence_holds_at_1_and_4_worker_threads() {
    // The determinism contract says thread caps change nothing; assert
    // it end-to-end for the streaming path by comparing both thread
    // counts against batch *and* against each other.
    let combo = Combo {
        name: "threads",
        window: 64,
        channels: 2,
        lambda: 8,
        kernels: vec![13, 17, 25],
        t_f: None,
        seed: 88,
    };
    let cfg = triple_cfg(&combo);
    let run = || -> Vec<Vec<f32>> {
        let mut stream = PulsedTriple::new(StreamConfig {
            window: combo.window,
            channels: combo.channels,
            hop: 1,
            triple: cfg.clone(),
        });
        let mut rng = StdRng::seed_from_u64(combo.seed);
        let mut history: Vec<Vec<f32>> = Vec::new();
        let mut outputs = Vec::new();
        for i in 0..combo.window * 2 {
            let r = row(&mut rng, i, combo.channels);
            history.push(r.clone());
            if let Some(emit) = stream.push(&r) {
                if emit.samples_seen % 16 == 0 {
                    assert_emit_matches_batch(&combo, &cfg, &emit, &history);
                }
                let mut flat = emit.regular.clone();
                flat.extend_from_slice(&emit.fluctuant_2d);
                flat.push(emit.t_f as f32);
                outputs.push(flat);
            }
        }
        outputs
    };
    set_max_threads(1);
    let serial = run();
    set_max_threads(4);
    let threaded = run();
    set_max_threads(1);
    assert_eq!(serial.len(), threaded.len());
    for (e, (a, b)) in serial.iter().zip(&threaded).enumerate() {
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "emit {e} elem {i}: 1 vs 4 threads");
        }
    }
}

#[test]
fn restarting_midstream_converges_after_one_window() {
    // A freshly constructed stream fed only the last `window` samples
    // emits the same bits as one that saw the whole history: the
    // operator's state is exactly the trailing window.
    let combo = &combos()[1]; // two_channel
    let cfg = triple_cfg(combo);
    let mk = || {
        PulsedTriple::new(StreamConfig {
            window: combo.window,
            channels: combo.channels,
            hop: 1,
            triple: cfg.clone(),
        })
    };
    let mut rng = StdRng::seed_from_u64(99);
    let total = combo.window * 3;
    let rows: Vec<Vec<f32>> = (0..total).map(|i| row(&mut rng, i, combo.channels)).collect();
    let mut long = mk();
    let mut long_last = None;
    for r in &rows {
        if let Some(e) = long.push(r) {
            long_last = Some(e);
        }
    }
    let mut short = mk();
    let mut short_last = None;
    for r in &rows[total - combo.window..] {
        if let Some(e) = short.push(r) {
            short_last = Some(e);
        }
    }
    let (a, b) = (long_last.expect("long emitted"), short_last.expect("short emitted"));
    assert_eq!(a.t_f, b.t_f);
    assert_bits("regular", "restart", a.samples_seen, &a.regular, &b.regular);
    assert_bits("tf", "restart", a.samples_seen, &a.tf, &b.tf);
}
