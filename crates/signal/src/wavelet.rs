//! Complex Gaussian wavelets (paper Eq. 3–4) and their scale sets (Eq. 6).
//!
//! The mother wavelet is `psi(t) = C_p * d^p/dt^p ( e^{-it} e^{-t^2} )`;
//! the paper uses the base form (order 0 in our notation, `cgau`-style).
//! The TF-Block's multi-branch structure uses *different* wavelet
//! generating functions per branch — we provide the first three envelope
//! derivatives, matching the `cgau1/cgau2/cgau3` family.

use crate::complex::Complex32;

/// Which complex Gaussian wavelet to use as the generating function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaveletKind {
    /// `C_0 e^{-it} e^{-t^2}` — the paper's Eq. 3.
    ComplexGaussian,
    /// First derivative of the complex Gaussian.
    ComplexGaussian1,
    /// Second derivative of the complex Gaussian.
    ComplexGaussian2,
}

impl WaveletKind {
    /// All supported kinds, in branch order.
    pub const ALL: [WaveletKind; 3] = [
        WaveletKind::ComplexGaussian,
        WaveletKind::ComplexGaussian1,
        WaveletKind::ComplexGaussian2,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            WaveletKind::ComplexGaussian => "cgau",
            WaveletKind::ComplexGaussian1 => "cgau1",
            WaveletKind::ComplexGaussian2 => "cgau2",
        }
    }

    /// Unnormalised wavelet value at time `t`.
    ///
    /// With `f(t) = e^{-it - t^2}`, the derivatives are
    /// `f' = (-i - 2t) f` and `f'' = ((-i - 2t)^2 - 2) f`.
    fn eval_raw(self, t: f32) -> Complex32 {
        let envelope = (-t * t).exp();
        let osc = Complex32::from_angle(-t); // e^{-it}
        let f = osc.scale(envelope);
        match self {
            WaveletKind::ComplexGaussian => f,
            WaveletKind::ComplexGaussian1 => Complex32::new(-2.0 * t, -1.0) * f,
            WaveletKind::ComplexGaussian2 => {
                let g = Complex32::new(-2.0 * t, -1.0);
                (g * g + Complex32::from_real(-2.0)) * f
            }
        }
    }
}

/// The half-support (in mother-wavelet time units) beyond which the
/// Gaussian envelope is negligible (`e^{-16} ~ 1e-7`).
const SUPPORT: f32 = 4.0;

/// Sample the wavelet of `kind` at scale `s`: taps `psi_s[n] =
/// (1/sqrt(s)) psi(n/s)` for `n in [-N, N]` with `N = ceil(SUPPORT * s)`,
/// normalised to unit energy (the `C_p` of Eq. 3).
///
/// Returns `(taps, half_len N)`; `taps.len() == 2N + 1`.
pub fn sample_wavelet(kind: WaveletKind, scale: f32) -> (Vec<Complex32>, usize) {
    assert!(scale > 0.0, "wavelet scale must be positive");
    let n = (SUPPORT * scale).ceil() as usize;
    let n = n.max(1);
    let inv_sqrt_s = 1.0 / scale.sqrt();
    let mut taps: Vec<Complex32> = (-(n as i64)..=n as i64)
        .map(|i| kind.eval_raw(i as f32 / scale).scale(inv_sqrt_s))
        .collect();
    // Unit-energy normalisation (C_p in Eq. 3).
    let energy: f32 = taps.iter().map(|z| z.norm_sqr()).sum();
    if energy > 0.0 {
        let inv = 1.0 / energy.sqrt();
        for z in taps.iter_mut() {
            *z = z.scale(inv);
        }
    }
    (taps, n)
}

/// The paper's scale set (Eq. 6): `s_i = 2*lambda / i` for `i = 1..=lambda`.
pub fn scale_set(lambda: usize) -> Vec<f32> {
    assert!(lambda >= 1, "lambda must be >= 1");
    (1..=lambda).map(|i| 2.0 * lambda as f32 / i as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_set_matches_eq6() {
        let s = scale_set(4);
        assert_eq!(s, vec![8.0, 4.0, 8.0 / 3.0, 2.0]);
        assert_eq!(scale_set(100).len(), 100);
        // Scales decrease with i; frequencies F_c/s increase.
        for w in s.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn wavelet_has_unit_energy() {
        for kind in WaveletKind::ALL {
            for s in [1.0f32, 2.5, 10.0] {
                let (taps, _) = sample_wavelet(kind, s);
                let e: f32 = taps.iter().map(|z| z.norm_sqr()).sum();
                assert!((e - 1.0).abs() < 1e-4, "{kind:?} s={s}: energy {e}");
            }
        }
    }

    #[test]
    fn wavelet_length_scales_with_scale() {
        let (t1, n1) = sample_wavelet(WaveletKind::ComplexGaussian, 2.0);
        let (t2, n2) = sample_wavelet(WaveletKind::ComplexGaussian, 8.0);
        assert!(n2 > n1);
        assert_eq!(t1.len(), 2 * n1 + 1);
        assert_eq!(t2.len(), 2 * n2 + 1);
    }

    #[test]
    fn wavelet_decays_at_support_edge() {
        let (taps, _) = sample_wavelet(WaveletKind::ComplexGaussian, 5.0);
        let centre = taps[taps.len() / 2].abs();
        let edge = taps[0].abs();
        assert!(edge < centre * 1e-4, "edge {edge} centre {centre}");
    }

    #[test]
    fn wavelet_near_zero_mean() {
        // Admissibility: the derivative wavelets have exactly zero mean;
        // the order-0 complex Gaussian (the paper's Eq. 3) only has a
        // *small* mean because its Gaussian bandwidth overlaps DC.
        for (kind, tol) in [
            (WaveletKind::ComplexGaussian, 0.2),
            (WaveletKind::ComplexGaussian1, 0.02),
            (WaveletKind::ComplexGaussian2, 0.02),
        ] {
            let (taps, _) = sample_wavelet(kind, 8.0);
            let mean_re: f32 = taps.iter().map(|z| z.re).sum::<f32>() / taps.len() as f32;
            let peak = taps.iter().map(|z| z.abs()).fold(0.0f32, f32::max);
            assert!(mean_re.abs() < tol * peak, "{kind:?}: mean {mean_re} vs peak {peak}");
        }
    }

    #[test]
    fn derivative_orders_differ() {
        let a = WaveletKind::ComplexGaussian.eval_raw(0.5);
        let b = WaveletKind::ComplexGaussian1.eval_raw(0.5);
        let c = WaveletKind::ComplexGaussian2.eval_raw(0.5);
        assert!((a - b).abs() > 1e-3);
        assert!((b - c).abs() > 1e-3);
    }
}
