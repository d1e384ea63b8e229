//! FFT-based multi-periodicity detection (paper Eq. 2): the top-k
//! frequencies by amplitude and their implied period lengths
//! `p_i = ceil(T / f_i)`.

use crate::fft::rfft_half_into;
use crate::Complex32;
use ts3_tensor::Tensor;

/// One detected periodic component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodComponent {
    /// Frequency index `f` in `1..=T/2` (cycles per window).
    pub frequency: usize,
    /// Implied period length `ceil(T / f)` in samples.
    pub period: usize,
    /// Mean amplitude of that frequency bin across channels.
    pub amplitude: f32,
}

/// Top-k dominant periods of a univariate series (Eq. 2).
pub fn topk_periods(x: &[f32], k: usize) -> Vec<PeriodComponent> {
    topk_periods_multi(&Tensor::from_vec(x.to_vec(), &[x.len(), 1]), k)
}

/// `(T, C)` of a `[T, C]` or `[B, T, C]` series: time is axis
/// `rank - 2`, and a rank-3 batch contributes `B·C` lanes in b-major
/// order (the columns of its `[T, B·C]` permute).
pub(crate) fn time_channels(x: &Tensor, op: &str) -> (usize, usize) {
    let r = x.rank();
    assert!(r == 2 || r == 3, "{op} expects [T, C] or [B, T, C], got rank {r}");
    (x.shape()[r - 2], x.shape()[r - 1])
}

/// Channel-mean amplitude spectrum (Eq. 2) of a row-major `[T, C]` or
/// `[B, T, C]` slice `x`, written into `mean_amp` (bins `0..=T/2`): the
/// one periodogram kernel behind [`mean_amplitude_spectrum`],
/// [`dominant_period`], [`topk_periods_multi`] and the streaming pulse.
///
/// Every (batch, channel) lane is copied into `col` (length `T`), its
/// half spectrum written into `spec`, and
/// `mean_amp[f] += |rfft(col)[f]| / lanes` runs in b-major lane order —
/// so a batch gives the bits of its `[T, B·C]` permute. Only bins
/// `0..=T/2` are read, so the packed half-spectrum transform suffices.
/// Both scratch buffers are caller-owned: a warm call allocates nothing.
pub fn mean_amplitude_spectrum_into(
    x: &[f32],
    t: usize,
    c: usize,
    col: &mut [f32],
    spec: &mut Vec<Complex32>,
    mean_amp: &mut [f32],
) {
    assert_eq!(col.len(), t, "periodogram: column scratch length");
    assert_eq!(mean_amp.len(), t / 2 + 1, "periodogram length mismatch");
    let mut _s = ts3_obs::span("signal.periodogram");
    if _s.active() {
        _s.field("t", t);
        _s.field("c", c);
        ts3_obs::counter_add("signal.periodogram.calls", 1);
    }
    mean_amp.fill(0.0);
    if t * c == 0 {
        return;
    }
    assert_eq!(x.len() % (t * c), 0, "periodogram: length is not a multiple of T * C");
    let lanes = x.len() / t;
    for block in x.chunks_exact(t * c) {
        for ch in 0..c {
            for (i, v) in col.iter_mut().enumerate() {
                *v = block[i * c + ch];
            }
            rfft_half_into(col, spec);
            for (dst, z) in mean_amp.iter_mut().zip(spec.iter()) {
                *dst += z.abs() / lanes as f32;
            }
        }
    }
}

/// Channel-mean amplitude spectrum of a `[T, C]` or `[B, T, C]` series:
/// bins `0..=T/2`.
pub fn mean_amplitude_spectrum(x: &Tensor) -> Vec<f32> {
    let (t, c) = time_channels(x, "mean_amplitude_spectrum");
    let mut mean_amp = vec![0.0f32; t / 2 + 1];
    let (mut col, mut spec) = (vec![0.0; t], Vec::new());
    mean_amplitude_spectrum_into(x.as_slice(), t, c, &mut col, &mut spec, &mut mean_amp);
    mean_amp
}

/// Select the top-k periods from a precomputed channel-mean amplitude
/// spectrum (`mean_amp[f]` for `f in 0..=T/2`, as produced by
/// [`mean_amplitude_spectrum`] or a sliding-DFT monitor).
///
/// Ordering contract: bins are ranked by **descending amplitude**, and
/// bins with exactly equal amplitude by **ascending frequency** — lower
/// frequency (longer period) wins a tie. The tie-break is explicit (not
/// an artifact of sort stability), so the selection is a pure function
/// of the spectrum values: deterministic across thread counts, repeat
/// runs, and the batch/streaming implementations.
pub fn topk_periods_from_spectrum(mean_amp: &[f32], t: usize, k: usize) -> Vec<PeriodComponent> {
    let half = t / 2;
    assert_eq!(mean_amp.len(), half + 1, "periodogram length mismatch");
    // Exclude DC (f = 0): the trend part carries it.
    let mut bins: Vec<(usize, f32)> = (1..=half).map(|f| (f, mean_amp[f])).collect();
    bins.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    bins.truncate(k);
    bins.into_iter()
        .map(|(f, amplitude)| PeriodComponent {
            frequency: f,
            period: t.div_ceil(f),
            amplitude,
        })
        .collect()
}

/// Top-k dominant periods of a multivariate `[T, C]` or `[B, T, C]`
/// series; amplitudes are averaged across channels and batch rows (the
/// TimesNet convention the paper follows). Tie-breaking is documented
/// on [`topk_periods_from_spectrum`].
pub fn topk_periods_multi(x: &Tensor, k: usize) -> Vec<PeriodComponent> {
    let (t, _) = time_channels(x, "topk_periods_multi");
    assert!(t >= 4, "series too short for period detection");
    topk_periods_from_spectrum(&mean_amplitude_spectrum(x), t, k)
}

/// Dominant-period selection from a precomputed spectrum: top-1 of
/// [`topk_periods_from_spectrum`] clamped to `[2, t]`, falling back to
/// `t/2` when the spectrum is degenerate (e.g. all-zero input).
pub fn dominant_period_from_spectrum(mean_amp: &[f32], t: usize) -> usize {
    let comps = topk_periods_from_spectrum(mean_amp, t, 1);
    match comps.first() {
        Some(c) if c.amplitude > 1e-12 => c.period.clamp(2, t),
        _ => (t / 2).max(2),
    }
}

/// The single dominant period (`p_1` / the paper's `T_f`) of a `[T, C]`
/// or `[B, T, C]` series, falling back to `t/2` if the spectrum is
/// degenerate (e.g. all-zero input).
pub fn dominant_period(x: &Tensor) -> usize {
    let (t, _) = time_channels(x, "dominant_period");
    assert!(t >= 4, "series too short for period detection");
    dominant_period_from_spectrum(&mean_amplitude_spectrum(x), t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sin_series(t: usize, period: usize) -> Vec<f32> {
        (0..t)
            .map(|i| (2.0 * std::f32::consts::PI * i as f32 / period as f32).sin())
            .collect()
    }

    #[test]
    fn detects_single_period() {
        let x = sin_series(96, 24);
        let p = topk_periods(&x, 1);
        assert_eq!(p[0].frequency, 4); // 96 / 24
        assert_eq!(p[0].period, 24);
    }

    #[test]
    fn detects_two_mixed_periods() {
        let t = 96;
        let a = sin_series(t, 24);
        let b = sin_series(t, 8);
        let x: Vec<f32> = a.iter().zip(&b).map(|(u, v)| 2.0 * u + v).collect();
        let p = topk_periods(&x, 2);
        let periods: Vec<usize> = p.iter().map(|c| c.period).collect();
        assert!(periods.contains(&24), "{periods:?}");
        assert!(periods.contains(&8), "{periods:?}");
        // The stronger component must rank first.
        assert_eq!(p[0].period, 24);
    }

    #[test]
    fn multichannel_averages_amplitudes() {
        let t = 64;
        let mut data = Vec::new();
        for i in 0..t {
            data.push((2.0 * std::f32::consts::PI * i as f32 / 16.0).sin()); // ch 0
            data.push((2.0 * std::f32::consts::PI * i as f32 / 16.0).cos()); // ch 1
        }
        let x = Tensor::from_vec(data, &[t, 2]);
        let p = topk_periods_multi(&x, 1);
        assert_eq!(p[0].period, 16);
    }

    #[test]
    fn dc_offset_is_ignored() {
        let x: Vec<f32> = sin_series(64, 16).iter().map(|v| v + 100.0).collect();
        let p = topk_periods(&x, 1);
        assert_eq!(p[0].period, 16);
    }

    #[test]
    fn dominant_period_fallback_on_flat_series() {
        let x = Tensor::zeros(&[32, 1]);
        assert_eq!(dominant_period(&x), 16);
    }

    #[test]
    fn period_formula_is_ceiling() {
        // T = 10, f = 3 -> p = ceil(10/3) = 4.
        let t = 10;
        let x: Vec<f32> = (0..t)
            .map(|i| (2.0 * std::f32::consts::PI * 3.0 * i as f32 / t as f32).sin())
            .collect();
        let p = topk_periods(&x, 1);
        assert_eq!(p[0].frequency, 3);
        assert_eq!(p[0].period, 4);
    }

    #[test]
    fn k_larger_than_bins_is_truncated() {
        let x = sin_series(16, 4);
        let p = topk_periods(&x, 100);
        assert_eq!(p.len(), 8); // T/2 bins
    }
}
