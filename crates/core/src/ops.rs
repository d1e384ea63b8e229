//! Differentiable wavelet operators: the fixed linear CWT amplitude map
//! and the inverse wavelet transform, wired into autograd with
//! [`Var::node`] and hand-written adjoints.

use std::rc::Rc;
use ts3_autograd::Var;
use ts3_signal::{CwtPlan, Lanes};
use ts3_tensor::Tensor;

const AMP_EPS: f32 = 1e-8;

/// Differentiable `Amp(WT(x))`: `[B, T, D] -> [B, D, lambda, T]`
/// (channel-major layout ready for 2-D convolution).
///
/// The `B * D` series (lane `bi * D + di`) run through the plan's
/// lane-batched bank, eight per pass. The backward closure keeps the
/// complex coefficients of the forward: with `a = sqrt(re^2 + im^2 +
/// eps)`, the VJP is `adjoint(g * re / a, g * im / a)` per lane, added
/// into the input gradient.
pub fn cwt_amplitude(x: &Var, plan: &Rc<CwtPlan>) -> Var {
    let xv = x.value();
    assert_eq!(xv.rank(), 3, "cwt_amp expects [B, T, D]");
    let (b, t, d) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
    assert_eq!(t, plan.t_len, "cwt_amp: plan built for T={}, got {t}", plan.t_len);
    let lambda = plan.lambda;
    let lane_len = lambda * t;
    // Series `l = bi * D + di` reads column `di` of batch `bi` and owns
    // the `[lambda, T]` grid at `l * lane_len`.
    let cols: Vec<usize> = (0..b * d).map(|l| (l / d) * t * d + l % d).collect();
    let grids: Vec<usize> = (0..b * d).map(|l| l * lane_len).collect();
    let mut re_all = vec![0.0f32; b * d * lane_len];
    let mut im_all = vec![0.0f32; b * d * lane_len];
    plan.forward_complex_lanes(
        xv.as_slice(),
        Lanes { offsets: &cols, t_stride: d, row_stride: 0 },
        &mut re_all,
        &mut im_all,
        Lanes { offsets: &grids, t_stride: 1, row_stride: t },
    );
    let out: Vec<f32> = re_all
        .iter()
        .zip(&im_all)
        .map(|(&re, &im)| (re * re + im * im + AMP_EPS).sqrt())
        .collect();
    let plan = plan.clone();
    let backward = move |grad: &Tensor, _: &[Var]| {
        let gs = grad.as_slice();
        let mut g_re = vec![0.0f32; gs.len()];
        let mut g_im = vec![0.0f32; gs.len()];
        for j in 0..gs.len() {
            let re = re_all[j];
            let im = im_all[j];
            let a = (re * re + im * im + AMP_EPS).sqrt();
            let g = gs[j];
            g_re[j] = g * re / a;
            g_im[j] = g * im / a;
        }
        let mut gx = vec![0.0f32; b * t * d];
        plan.adjoint_lanes(
            &g_re,
            &g_im,
            Lanes { offsets: &grids, t_stride: 1, row_stride: t },
            &mut gx,
            Lanes { offsets: &cols, t_stride: d, row_stride: 0 },
        );
        vec![Some(Tensor::from_vec(gx, &[b, t, d]))]
    };
    Var::node(Tensor::from_vec(out, &[b, d, lambda, t]), vec![x.clone()], Box::new(backward))
}

/// Differentiable linear inverse wavelet transform `IWT` (Eq. 9):
/// `[B, D, lambda, T]` coefficients to `[B, T, D]`.
pub fn iwt(w: &Var, plan: &Rc<CwtPlan>) -> Var {
    let wv = w.value();
    assert_eq!(wv.rank(), 4, "iwt expects [B, D, lambda, T]");
    let (b, d, lambda, t) = (wv.shape()[0], wv.shape()[1], wv.shape()[2], wv.shape()[3]);
    assert_eq!(lambda, plan.lambda, "iwt: lambda mismatch");
    assert_eq!(t, plan.t_len, "iwt: T mismatch");
    let ws = wv.as_slice();
    let lane_len = lambda * t;
    let mut out = vec![0.0f32; b * t * d];
    let mut x = vec![0.0f32; t];
    for bi in 0..b {
        for di in 0..d {
            let base = (bi * d + di) * lane_len;
            plan.inverse_into(&ws[base..base + lane_len], &mut x);
            for (ti, &v) in x.iter().enumerate() {
                out[(bi * t + ti) * d + di] = v;
            }
        }
    }
    let plan = plan.clone();
    let backward = move |grad: &Tensor, _: &[Var]| {
        let gs = grad.as_slice();
        let mut gw = vec![0.0f32; b * d * lane_len];
        for bi in 0..b {
            for di in 0..d {
                let lane: Vec<f32> = (0..t).map(|ti| gs[(bi * t + ti) * d + di]).collect();
                let back = plan.inverse_adjoint(&lane);
                let base = (bi * d + di) * lane_len;
                gw[base..base + lane_len].copy_from_slice(&back);
            }
        }
        vec![Some(Tensor::from_vec(gw, &[b, d, lambda, t]))]
    };
    Var::node(Tensor::from_vec(out, &[b, t, d]), vec![w.clone()], Box::new(backward))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_autograd::gradcheck_var;
    use ts3_signal::WaveletKind;

    fn plan(t: usize, lambda: usize) -> Rc<CwtPlan> {
        Rc::new(CwtPlan::new(t, lambda, WaveletKind::ComplexGaussian))
    }

    #[test]
    fn cwt_amplitude_shape_and_positivity() {
        let p = plan(32, 4);
        let x = Var::constant(Tensor::randn(&[2, 32, 3], 1));
        let y = cwt_amplitude(&x, &p);
        assert_eq!(y.shape(), &[2, 3, 4, 32]);
        assert!(y.value().min() >= 0.0);
        assert!(y.value().all_finite());
    }

    #[test]
    fn cwt_amplitude_matches_plan_per_lane() {
        // Nine lanes (one full lane group plus one) on a [3, 24, 3]
        // input: every lane's amplitude is bitwise the single-series
        // `forward_complex` through the model's eps formula.
        let p = plan(24, 3);
        let (b, t, d) = (3, 24, 3);
        let x = Tensor::randn(&[b, t, d], 2);
        let y = cwt_amplitude(&Var::constant(x.clone()), &p);
        for bi in 0..b {
            for di in 0..d {
                let col: Vec<f32> = (0..t).map(|ti| x.at(&[bi, ti, di])).collect();
                let (re, im) = p.forward_complex(&col);
                for li in 0..3 {
                    for ti in 0..t {
                        let k = li * t + ti;
                        let want = (re[k] * re[k] + im[k] * im[k] + AMP_EPS).sqrt();
                        let got = y.value().at(&[bi, di, li, ti]);
                        assert_eq!(got.to_bits(), want.to_bits(), "({bi},{di},{li},{ti}): {got} vs {want}");
                    }
                }
            }
        }
    }

    #[test]
    fn cwt_amplitude_backward_matches_plan_adjoint_per_lane() {
        // The input gradient of every lane is bitwise the single-series
        // `adjoint` of `g * re / a`, `g * im / a`, added into zeros.
        let p = plan(24, 3);
        let (b, t, d) = (3, 24, 3);
        let x = Tensor::randn(&[b, t, d], 12);
        let g = Tensor::randn(&[b, d, 3, t], 13);
        let v = Var::constant(x.clone());
        cwt_amplitude(&v, &p).backward_with(g.clone());
        let gx = v.grad().expect("input gradient");
        for bi in 0..b {
            for di in 0..d {
                let col: Vec<f32> = (0..t).map(|ti| x.at(&[bi, ti, di])).collect();
                let (re, im) = p.forward_complex(&col);
                let mut g_re = vec![0.0f32; 3 * t];
                let mut g_im = vec![0.0f32; 3 * t];
                for k in 0..3 * t {
                    let a = (re[k] * re[k] + im[k] * im[k] + AMP_EPS).sqrt();
                    let gk = g.at(&[bi, di, k / t, k % t]);
                    g_re[k] = gk * re[k] / a;
                    g_im[k] = gk * im[k] / a;
                }
                let want = p.adjoint(&g_re, &g_im);
                for (ti, &v) in want.iter().enumerate() {
                    let w = 0.0 + v;
                    let got = gx.at(&[bi, ti, di]);
                    assert_eq!(got.to_bits(), w.to_bits(), "({bi},{ti},{di}): {got} vs {w}");
                }
            }
        }
    }

    #[test]
    fn cwt_amplitude_gradcheck() {
        let p = plan(16, 3);
        let x = Tensor::randn(&[1, 16, 2], 3).mul_scalar(0.5);
        let report = gradcheck_var(
            |v| {
                let w = Var::constant(Tensor::randn(&[1, 2, 3, 16], 4));
                cwt_amplitude(v, &p).mul(&w).sum()
            },
            &x,
            1e-2,
        );
        assert!(report.max_rel_err < 5e-2, "rel err {}", report.max_rel_err);
    }

    #[test]
    fn iwt_shape_and_linearity() {
        let p = plan(20, 4);
        let a = Tensor::randn(&[1, 2, 4, 20], 5);
        let b = Tensor::randn(&[1, 2, 4, 20], 6);
        let ya = iwt(&Var::constant(a.clone()), &p);
        let yb = iwt(&Var::constant(b.clone()), &p);
        let yab = iwt(&Var::constant(a.add(&b)), &p);
        assert_eq!(ya.shape(), &[1, 20, 2]);
        assert!(ya.value().add(yb.value()).allclose(yab.value(), 1e-4));
    }

    #[test]
    fn iwt_gradcheck() {
        let p = plan(12, 3);
        let w = Tensor::randn(&[1, 1, 3, 12], 7).mul_scalar(0.5);
        let report = gradcheck_var(
            |v| {
                let m = Var::constant(Tensor::randn(&[1, 12, 1], 8));
                iwt(v, &p).mul(&m).sum()
            },
            &w,
            1e-2,
        );
        assert!(report.max_rel_err < 2e-2, "rel err {}", report.max_rel_err);
    }

    #[test]
    fn iwt_of_wt_reconstructs_bandlimited() {
        // Through the Var ops: IWT(Re-part surrogate) uses amplitude, so
        // instead test adjoint-consistency: <IWT(w), g> == <w, IWT^T(g)>.
        let p = plan(16, 4);
        let w = Tensor::randn(&[1, 1, 4, 16], 9);
        let g = Tensor::randn(&[1, 16, 1], 10);
        let y = iwt(&Var::constant(w.clone()), &p);
        let lhs: f32 = y
            .value()
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let yv = iwt(&Var::constant(w.clone()), &p);
        yv.backward_with(g.clone());
        // lhs should equal <w, grad_w> by linearity.
        let gw = {
            let v = Var::constant(w.clone());
            let out = iwt(&v, &p);
            out.backward_with(g);
            v.grad().unwrap()
        };
        let rhs: f32 = w.as_slice().iter().zip(gw.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }
}
