//! The paper's decomposition pipeline operating on raw (non-autograd)
//! tensors: trend decomposition (Eq. 1), spectrum-gradient computation
//! (Eq. 9), and the full triple decomposition (Eq. 10–11).
//!
//! These functions are the *data-side* reference implementation; the
//! differentiable in-network S-GD layer in `ts3net-core` mirrors them on
//! autograd variables and is tested against these outputs.

use crate::cwt::CwtPlan;
use crate::spectrum::{dominant_period, time_channels};
use crate::wavelet::WaveletKind;
use ts3_tensor::{moving_avg_same_into, Tensor};

/// Default moving-average kernel set for trend extraction, following the
/// multi-scale pooling used by MICN/Autoformer-style decompositions.
pub const DEFAULT_TREND_KERNELS: [usize; 3] = [13, 17, 25];

/// Trend decomposition (Eq. 1): `X = trend + seasonal`, where the trend is
/// the mean of several replicate-padded moving averages.
///
/// Input and outputs are `[T, C]` or `[B, T, C]`: time is axis
/// `rank - 2`. The tensor form of [`trend_seasonal_into`].
pub fn trend_decompose(x: &Tensor, kernels: &[usize]) -> (Tensor, Tensor) {
    let (t, c) = time_channels(x, "trend_decompose");
    let mut trend = vec![0.0f32; x.numel()];
    let mut seasonal = vec![0.0f32; x.numel()];
    trend_seasonal_into(x.as_slice(), t, c, kernels, &mut Vec::new(), &mut trend, &mut seasonal);
    (Tensor::from_vec(trend, x.shape()), Tensor::from_vec(seasonal, x.shape()))
}

/// Trend split (Eq. 1) of a row-major `[T, C]` or `[B, T, C]` slice `x`
/// into `trend` and `seasonal` (same length): the one kernel behind
/// [`trend_decompose`], the TS3Net forward and the streaming pulse.
///
/// The trend is the f32 sum of one [`moving_avg_same_into`] per kernel,
/// in kernel order, divided by the kernel count; the seasonal part is
/// `x - trend`. `scratch` holds one moving average and is resized as
/// needed, so a caller that keeps it allocates nothing per call.
pub fn trend_seasonal_into(
    x: &[f32],
    t: usize,
    c: usize,
    kernels: &[usize],
    scratch: &mut Vec<f32>,
    trend: &mut [f32],
    seasonal: &mut [f32],
) {
    assert!(!kernels.is_empty(), "trend_decompose needs at least one kernel");
    assert_eq!(trend.len(), x.len(), "trend_decompose: trend length");
    assert_eq!(seasonal.len(), x.len(), "trend_decompose: seasonal length");
    let mut _s = ts3_obs::span("signal.trend_decompose");
    if _s.active() {
        _s.field("t", t);
        _s.field("c", c);
        _s.field("kernels", kernels.len());
        ts3_obs::counter_add("signal.trend_decompose.calls", 1);
    }
    scratch.resize(x.len(), 0.0);
    trend.fill(0.0);
    for &k in kernels {
        moving_avg_same_into(x, t, c, k, scratch);
        for (dst, &m) in trend.iter_mut().zip(scratch.iter()) {
            *dst += m;
        }
    }
    let n = kernels.len() as f32;
    for v in trend.iter_mut() {
        *v /= n;
    }
    for ((s, &v), &tr) in seasonal.iter_mut().zip(x).zip(trend.iter()) {
        *s = v - tr;
    }
}

/// The spectrum gradient of a `[lambda, T]` TF grid (Eq. 9): the grid is
/// split along time into `u = ceil(T / t_f)` chunks and differenced,
/// with `S^0 = 0` so the first chunk passes through unchanged.
pub fn spectrum_gradient(tf: &Tensor, t_f: usize) -> Tensor {
    assert_eq!(tf.rank(), 2, "spectrum_gradient expects [lambda, T]");
    assert!(t_f >= 1, "sub-series length must be >= 1");
    let mut _s = ts3_obs::span("signal.spectrum_gradient");
    if _s.active() {
        _s.field("lambda", tf.shape()[0]);
        _s.field("t", tf.shape()[1]);
        _s.field("t_f", t_f);
        ts3_obs::counter_add("signal.spectrum_gradient.calls", 1);
    }
    let (lambda, t) = (tf.shape()[0], tf.shape()[1]);
    let mut out = vec![0.0f32; lambda * t];
    spectrum_gradient_rows(tf.as_slice(), lambda, t, t_f, &mut out);
    Tensor::from_vec(out, &[lambda, t])
}

/// Slice-level core of [`spectrum_gradient`]: differences a row-major
/// `[lambda, T]` grid `src` into `out` without constructing tensors.
///
/// Shared by the batch path above and the streaming crate
/// (`ts3-stream`), which replays the identical arithmetic per pulse so
/// that streaming emits stay bitwise equal to the batch decomposition.
pub fn spectrum_gradient_rows(src: &[f32], lambda: usize, t: usize, t_f: usize, out: &mut [f32]) {
    assert!(t_f >= 1, "sub-series length must be >= 1");
    assert_eq!(src.len(), lambda * t, "spectrum_gradient_rows: src length");
    assert_eq!(out.len(), lambda * t, "spectrum_gradient_rows: out length");
    // Chunk i starts at i·t_f and only the last chunk can be short, so
    // every column past the first chunk has its partner exactly t_f
    // columns back: `S^i - S^{i-1}` is `row[j] - row[j - t_f]`.
    let head = t_f.min(t);
    for li in 0..lambda {
        let row = &src[li * t..(li + 1) * t];
        let dst = &mut out[li * t..(li + 1) * t];
        dst[..head].copy_from_slice(&row[..head]);
        for ((d, &c), &prev) in dst[head..].iter_mut().zip(&row[head..]).zip(&row[..t - head]) {
            *d = c - prev;
        }
    }
}

/// Result of the spectrum-gradient decomposition of a seasonal channel.
#[derive(Debug, Clone)]
pub struct SgdChannel {
    /// The TF distribution `X_2D = Amp(WT(x))`, `[lambda, T]` (Eq. 8).
    pub tf: Tensor,
    /// The spectrum gradient `Delta_2D`, `[lambda, T]` (Eq. 9).
    pub delta_2d: Tensor,
    /// `Delta_1D = IWT(Delta_2D)`, `[T]` (Eq. 9).
    pub delta_1d: Vec<f32>,
    /// The regular part `x - Delta_1D`, `[T]` (Eq. 10).
    pub regular: Vec<f32>,
}

/// Spectrum-gradient decomposition (S-GD, Eq. 10–11) of one channel.
pub fn sgd_channel(x: &[f32], plan: &CwtPlan, t_f: usize) -> SgdChannel {
    assert_eq!(x.len(), plan.t_len, "sgd_channel: length mismatch with plan");
    let tf = plan.amplitude_tensor(x);
    let delta_2d = spectrum_gradient(&tf, t_f);
    let delta_1d = plan.inverse(delta_2d.as_slice());
    let regular: Vec<f32> = x.iter().zip(&delta_1d).map(|(a, b)| a - b).collect();
    SgdChannel { tf, delta_2d, delta_1d, regular }
}

/// Full triple decomposition of a `[T, C]` series.
#[derive(Debug, Clone)]
pub struct TripleDecomposition {
    /// Trend part, `[T, C]`.
    pub trend: Tensor,
    /// Seasonal part (`x - trend`), `[T, C]`.
    pub seasonal: Tensor,
    /// Regular part of the seasonal component, `[T, C]` (Eq. 10).
    pub regular: Tensor,
    /// `Delta_1D` fluctuation projected to 1-D, `[T, C]`.
    pub fluctuant_1d: Tensor,
    /// The fluctuant part `Delta_2D`, `[lambda, T, C]` (Eq. 10).
    pub fluctuant_2d: Tensor,
    /// TF distribution of the seasonal part, `[lambda, T, C]`.
    pub tf: Tensor,
    /// The dominant sub-series length `T_f` used for chunking.
    pub t_f: usize,
}

impl TripleDecomposition {
    /// Reconstruction `trend + regular + fluctuant_1d`, which equals the
    /// original series exactly (Eq. 10 is an exact split of the seasonal
    /// part).
    pub fn reconstruct(&self) -> Tensor {
        self.trend.add(&self.regular).add(&self.fluctuant_1d)
    }
}

/// Configuration for [`triple_decompose`].
#[derive(Debug, Clone)]
pub struct TripleConfig {
    /// Number of spectral sub-bands (the paper's lambda; default 100,
    /// scaled profiles use less).
    pub lambda: usize,
    /// Wavelet generating function.
    pub wavelet: WaveletKind,
    /// Trend moving-average kernels.
    pub trend_kernels: Vec<usize>,
    /// Sub-series length; `None` selects the dominant FFT period.
    pub t_f: Option<usize>,
}

impl Default for TripleConfig {
    fn default() -> Self {
        TripleConfig {
            lambda: 16,
            wavelet: WaveletKind::ComplexGaussian,
            trend_kernels: DEFAULT_TREND_KERNELS.to_vec(),
            t_f: None,
        }
    }
}

/// The paper's triple decomposition (Fig. 1 / Section III-B): decouple a
/// `[T, C]` series into trend-part, regular-part and fluctuant-part.
pub fn triple_decompose(x: &Tensor, cfg: &TripleConfig) -> TripleDecomposition {
    assert_eq!(x.rank(), 2, "triple_decompose expects [T, C]");
    let (t, c) = (x.shape()[0], x.shape()[1]);
    let mut _s = ts3_obs::span("signal.triple_decompose");
    if _s.active() {
        _s.field("t", t);
        _s.field("c", c);
        _s.field("lambda", cfg.lambda);
        ts3_obs::counter_add("signal.triple_decompose.calls", 1);
    }
    let (trend, seasonal) = trend_decompose(x, &cfg.trend_kernels);
    let t_f = cfg.t_f.unwrap_or_else(|| dominant_period(&seasonal)).clamp(2, t);
    let plan = CwtPlan::new(t, cfg.lambda, cfg.wavelet);
    let mut regular = Tensor::zeros(&[t, c]);
    let mut fluct_1d = Tensor::zeros(&[t, c]);
    let mut fluct_2d = Tensor::zeros(&[cfg.lambda, t, c]);
    let mut tf_all = Tensor::zeros(&[cfg.lambda, t, c]);
    for ch in 0..c {
        let col: Vec<f32> = (0..t).map(|i| seasonal.at(&[i, ch])).collect();
        let s = sgd_channel(&col, &plan, t_f);
        for i in 0..t {
            regular.set(&[i, ch], s.regular[i]);
            fluct_1d.set(&[i, ch], s.delta_1d[i]);
        }
        for li in 0..cfg.lambda {
            for i in 0..t {
                fluct_2d.set(&[li, i, ch], s.delta_2d.at(&[li, i]));
                tf_all.set(&[li, i, ch], s.tf.at(&[li, i]));
            }
        }
    }
    TripleDecomposition {
        trend,
        seasonal,
        regular,
        fluctuant_1d: fluct_1d,
        fluctuant_2d: fluct_2d,
        tf: tf_all,
        t_f,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_series(t: usize) -> Tensor {
        let data: Vec<f32> = (0..t)
            .map(|i| {
                let ti = i as f32;
                0.05 * ti                                   // trend
                    + (2.0 * std::f32::consts::PI * ti / 24.0).sin()  // periodic
                    + 0.3 * (2.0 * std::f32::consts::PI * ti / 7.0).sin()
            })
            .collect();
        Tensor::from_vec(data, &[t, 1])
    }

    #[test]
    fn trend_plus_seasonal_is_exact() {
        let x = mixed_series(96);
        let (trend, seasonal) = trend_decompose(&x, &DEFAULT_TREND_KERNELS);
        assert!(trend.add(&seasonal).allclose(&x, 1e-4));
    }

    #[test]
    fn trend_captures_linear_drift() {
        let x = mixed_series(192);
        let (trend, _) = trend_decompose(&x, &DEFAULT_TREND_KERNELS);
        // Trend should be monotone-ish: end well above start.
        let first = trend.at(&[10, 0]);
        let last = trend.at(&[181, 0]);
        assert!(last > first + 5.0, "trend did not capture drift: {first} .. {last}");
    }

    #[test]
    fn trend_of_pure_oscillation_is_small() {
        let t = 96;
        let data: Vec<f32> = (0..t)
            .map(|i| (2.0 * std::f32::consts::PI * i as f32 / 12.0).sin())
            .collect();
        let x = Tensor::from_vec(data, &[t, 1]);
        let (trend, _) = trend_decompose(&x, &[13, 25]);
        // Replicate padding inflates the trend near the edges (as in the
        // reference PyTorch implementations); check the interior.
        let interior = trend.narrow(0, 13, t - 26);
        assert!(interior.abs().max() < 0.15, "max interior trend {}", interior.abs().max());
    }

    #[test]
    fn spectrum_gradient_first_chunk_passthrough() {
        let tf = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 6]);
        let g = spectrum_gradient(&tf, 3);
        // First chunk: S^1 - 0 = S^1.
        assert_eq!(g.at(&[0, 0]), 0.0);
        assert_eq!(g.at(&[0, 2]), 2.0);
        // Second chunk: S^2 - S^1 -> constant 3 for this ramp.
        assert_eq!(g.at(&[0, 3]), 3.0);
        assert_eq!(g.at(&[1, 5]), 3.0);
    }

    #[test]
    fn spectrum_gradient_of_periodic_grid_vanishes_after_first_chunk() {
        // A grid that repeats every t_f columns has zero gradient beyond
        // the first chunk: the "regular" pattern.
        let (lambda, t, t_f) = (3, 12, 4);
        let mut data = Vec::new();
        for li in 0..lambda {
            for i in 0..t {
                data.push(((i % t_f) as f32 + li as f32).sin());
            }
        }
        let tf = Tensor::from_vec(data, &[lambda, t]);
        let g = spectrum_gradient(&tf, t_f);
        for li in 0..lambda {
            for i in t_f..t {
                assert!(g.at(&[li, i]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn spectrum_gradient_ragged_tail() {
        let tf = Tensor::from_vec((0..7).map(|v| v as f32).collect(), &[1, 7]);
        let g = spectrum_gradient(&tf, 3);
        assert_eq!(g.shape(), &[1, 7]);
        // Tail chunk has length 1: 6 - 3 = 3.
        assert_eq!(g.at(&[0, 6]), 3.0);
    }

    #[test]
    fn triple_decomposition_reconstructs_exactly() {
        let x = mixed_series(96);
        let cfg = TripleConfig { lambda: 8, ..Default::default() };
        let d = triple_decompose(&x, &cfg);
        let rec = d.reconstruct();
        assert!(rec.allclose(&x, 1e-3), "max diff {}", rec.max_abs_diff(&x));
    }

    #[test]
    fn stable_periodic_series_has_small_fluctuant_part() {
        // A perfectly periodic series whose period divides T_f produces a
        // near-repeating TF grid -> small fluctuant part away from the
        // first chunk.
        let t = 96;
        let data: Vec<f32> = (0..t)
            .map(|i| (2.0 * std::f32::consts::PI * i as f32 / 24.0).sin())
            .collect();
        let x = Tensor::from_vec(data, &[t, 1]);
        let cfg = TripleConfig { lambda: 8, t_f: Some(24), trend_kernels: vec![25], ..Default::default() };
        let d = triple_decompose(&x, &cfg);
        // Energy of fluctuant part beyond the first chunk should be small
        // relative to the seasonal energy.
        let seas_energy: f32 = d.seasonal.as_slice().iter().map(|v| v * v).sum();
        let fl: Vec<f32> = (24..t).map(|i| d.fluctuant_1d.at(&[i, 0])).collect();
        let fl_energy: f32 = fl.iter().map(|v| v * v).sum();
        assert!(
            fl_energy < 0.3 * seas_energy,
            "fluctuant energy {fl_energy} vs seasonal {seas_energy}"
        );
    }

    #[test]
    fn amplitude_modulated_series_has_larger_fluctuant_part() {
        let t = 96;
        let stable: Vec<f32> = (0..t)
            .map(|i| (2.0 * std::f32::consts::PI * i as f32 / 24.0).sin())
            .collect();
        let modulated: Vec<f32> = (0..t)
            .map(|i| {
                let env = 1.0 + 0.8 * (2.0 * std::f32::consts::PI * i as f32 / 96.0).sin();
                env * (2.0 * std::f32::consts::PI * i as f32 / 24.0).sin()
            })
            .collect();
        let cfg = TripleConfig { lambda: 8, t_f: Some(24), trend_kernels: vec![25], ..Default::default() };
        let energy = |v: &[f32]| -> f32 {
            let x = Tensor::from_vec(v.to_vec(), &[t, 1]);
            let d = triple_decompose(&x, &cfg);
            d.fluctuant_1d.as_slice()[24..].iter().map(|v| v * v).sum()
        };
        assert!(energy(&modulated) > 2.0 * energy(&stable));
    }

    #[test]
    fn multichannel_decomposition_is_channelwise() {
        let t = 48;
        let mut data = Vec::new();
        for i in 0..t {
            data.push((i as f32 / 8.0).sin());
            data.push((i as f32 / 5.0).cos() * 2.0);
        }
        let x = Tensor::from_vec(data, &[t, 2]);
        let cfg = TripleConfig { lambda: 6, t_f: Some(12), ..Default::default() };
        let d = triple_decompose(&x, &cfg);
        assert_eq!(d.regular.shape(), &[t, 2]);
        assert_eq!(d.fluctuant_2d.shape(), &[6, t, 2]);
        assert!(d.reconstruct().allclose(&x, 1e-3));
    }
}
