//! Tie-breaking determinism for top-k period selection.
//!
//! The ordering contract on `topk_periods_from_spectrum` says bins are
//! ranked by descending amplitude with **exact** amplitude ties broken
//! by ascending frequency (longer period wins). These tests pin that
//! contract with spectra containing genuinely equal-magnitude bins —
//! both handcrafted and produced by the real FFT path — and assert the
//! selection is identical across repeat runs and worker-pool thread
//! caps.

use ts3_rng::rngs::StdRng;
use ts3_rng::{Rng, SeedableRng};
use ts3_signal::{topk_periods, topk_periods_from_spectrum, topk_periods_multi, PeriodComponent};
use ts3_tensor::par::set_max_threads;
use ts3_tensor::Tensor;

fn freqs(comps: &[PeriodComponent]) -> Vec<usize> {
    comps.iter().map(|c| c.frequency).collect()
}

#[test]
fn exact_ties_select_ascending_frequency() {
    // Handcrafted periodogram: bins 3, 7 and 12 share the exact same
    // amplitude and everything else is strictly smaller. The contract
    // says the tied bins appear in ascending frequency order.
    let t = 32;
    let mut mean_amp = vec![0.25f32; t / 2 + 1];
    mean_amp[3] = 2.0;
    mean_amp[7] = 2.0;
    mean_amp[12] = 2.0;
    let top = topk_periods_from_spectrum(&mean_amp, t, 3);
    assert_eq!(freqs(&top), vec![3, 7, 12]);
    // A partial take of a tied group keeps the same prefix.
    let top2 = topk_periods_from_spectrum(&mean_amp, t, 2);
    assert_eq!(freqs(&top2), vec![3, 7]);
    // Ties below a strictly larger bin keep it on top.
    mean_amp[5] = 3.0;
    let top3 = topk_periods_from_spectrum(&mean_amp, t, 3);
    assert_eq!(freqs(&top3), vec![5, 3, 7]);
}

#[test]
fn impulse_spectrum_ties_every_bin_through_the_real_fft() {
    // A unit impulse at sample 0 has |X_f| = 1 exactly for every bin —
    // an all-way tie produced by the actual rfft, not by construction.
    // Selection must walk bins in ascending frequency.
    let t = 64;
    let mut x = vec![0.0f32; t];
    x[0] = 1.0;
    let top = topk_periods(&x, 5);
    assert_eq!(freqs(&top), vec![1, 2, 3, 4, 5]);
    assert_eq!(top[0].period, t); // f = 1 -> the longest period wins
    for pair in top.windows(2) {
        assert_eq!(
            pair[0].amplitude.to_bits(),
            pair[1].amplitude.to_bits(),
            "impulse bins must tie exactly"
        );
    }
}

#[test]
fn tied_selection_is_stable_across_runs_and_thread_caps() {
    // Seeded multichannel input plus an injected exact tie: the full
    // component list (frequency, period, amplitude bits) must be
    // identical run-to-run and at 1 vs 4 worker threads.
    let t = 96;
    let c = 3;
    let select = || -> Vec<(usize, usize, u32)> {
        let mut rng = StdRng::seed_from_u64(4242);
        let mut data = vec![0.0f32; t * c];
        for v in data.iter_mut() {
            *v = rng.gen_f32() - 0.5;
        }
        // Two pure tones, equal power, in disjoint channels: their mean
        // amplitudes collide exactly only if the arithmetic is
        // deterministic, which is exactly what we want to observe.
        for i in 0..t {
            let phase = std::f32::consts::TAU * i as f32;
            data[i * c] += (phase * 4.0 / t as f32).sin() * 5.0;
            data[i * c + 1] += (phase * 4.0 / t as f32).sin() * 5.0;
        }
        let x = Tensor::from_vec(data, &[t, c]);
        topk_periods_multi(&x, 8)
            .into_iter()
            .map(|p| (p.frequency, p.period, p.amplitude.to_bits()))
            .collect()
    };
    set_max_threads(1);
    let a = select();
    let b = select();
    set_max_threads(4);
    let c1 = select();
    set_max_threads(1);
    assert_eq!(a, b, "repeat runs diverged");
    assert_eq!(a, c1, "thread cap changed the selection");
    assert_eq!(a[0].0, 4, "the injected tone must dominate");
}
