//! # ts3-signal
//!
//! Signal-processing substrate for the TS3Net reproduction:
//!
//! * [`complex`] — minimal complex arithmetic;
//! * [`fft`] — radix-2 + Bluestein FFT of arbitrary length and real-input
//!   helpers;
//! * [`spectrum`] — the channel-mean periodogram and multi-periodicity
//!   detection via top-k FFT amplitudes (paper Eq. 2);
//! * [`wavelet`] — complex Gaussian wavelets and the paper's scale set
//!   (Eq. 3–6);
//! * [`cwt`] — planned continuous wavelet transform, its adjoint (for
//!   autograd) and a calibrated linear inverse (Eq. 5–9);
//! * [`decompose`] — trend decomposition, spectrum gradients and the full
//!   triple decomposition (Eq. 1, 9–11).
//!
//! Eq. 1 and Eq. 2 each run on one slice kernel
//! ([`trend_seasonal_into`], [`mean_amplitude_spectrum_into`]) that
//! takes `[T, C]` or `[B, T, C]` data; the tensor entry points, the
//! TS3Net forward and the streaming pulse in `ts3-stream` all call it.
//!
//! ```
//! use ts3_signal::decompose::{triple_decompose, TripleConfig};
//! use ts3_tensor::Tensor;
//!
//! let x: Vec<f32> = (0..96).map(|t| (t as f32 / 12.0).sin() + 0.01 * t as f32).collect();
//! let x = Tensor::from_vec(x, &[96, 1]);
//! let d = triple_decompose(&x, &TripleConfig::default());
//! assert!(d.reconstruct().allclose(&x, 1e-3));
//! ```

pub mod complex;
pub mod cwt;
pub mod decompose;
pub mod fft;
mod fft_simd;
pub mod spectrum;
pub mod wavelet;

pub use complex::Complex32;
pub use cwt::{CwtPlan, Lanes};
pub use decompose::{
    sgd_channel, spectrum_gradient, spectrum_gradient_rows, trend_decompose, trend_seasonal_into,
    triple_decompose, TripleConfig, TripleDecomposition,
};
pub use spectrum::{
    dominant_period, dominant_period_from_spectrum, mean_amplitude_spectrum,
    mean_amplitude_spectrum_into, topk_periods, topk_periods_from_spectrum, topk_periods_multi,
    PeriodComponent,
};
pub use wavelet::{sample_wavelet, scale_set, WaveletKind};
