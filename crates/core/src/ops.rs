//! Differentiable wavelet operators: the fixed linear CWT amplitude map
//! and the inverse wavelet transform, wired into autograd with
//! [`Var::node`] and hand-written adjoints.

use std::rc::Rc;
use ts3_autograd::Var;
use ts3_signal::CwtPlan;
use ts3_tensor::Tensor;

const AMP_EPS: f32 = 1e-8;

/// Differentiable `Amp(WT(x))`: `[B, T, D] -> [B, D, lambda, T]`
/// (channel-major layout ready for 2-D convolution).
///
/// The backward closure keeps the complex coefficients of the forward:
/// with `a = sqrt(re^2 + im^2 + eps)`, the VJP is
/// `adjoint(g * re / a, g * im / a)` per (batch, channel) lane.
pub fn cwt_amplitude(x: &Var, plan: &Rc<CwtPlan>) -> Var {
    let xv = x.value();
    assert_eq!(xv.rank(), 3, "cwt_amp expects [B, T, D]");
    let (b, t, d) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
    assert_eq!(t, plan.t_len, "cwt_amp: plan built for T={}, got {t}", plan.t_len);
    let lambda = plan.lambda;
    let lane_len = lambda * t;
    // Flattened re/im and amplitudes, lane `bi * D + di` at `lane * lane_len`.
    let mut re_all = vec![0.0f32; b * d * lane_len];
    let mut im_all = vec![0.0f32; b * d * lane_len];
    let mut out = vec![0.0f32; b * d * lane_len];
    let xs = xv.as_slice();
    for bi in 0..b {
        for di in 0..d {
            let col: Vec<f32> = (0..t).map(|ti| xs[(bi * t + ti) * d + di]).collect();
            let (re, im) = plan.forward_complex(&col);
            let base = (bi * d + di) * lane_len;
            re_all[base..base + lane_len].copy_from_slice(&re);
            im_all[base..base + lane_len].copy_from_slice(&im);
            for j in 0..lane_len {
                out[base + j] = (re[j] * re[j] + im[j] * im[j] + AMP_EPS).sqrt();
            }
        }
    }
    let plan = plan.clone();
    let backward = move |grad: &Tensor, _: &[Var]| {
        let gs = grad.as_slice();
        let mut gx = vec![0.0f32; b * t * d];
        for bi in 0..b {
            for di in 0..d {
                let base = (bi * d + di) * lane_len;
                let mut g_re = vec![0.0f32; lane_len];
                let mut g_im = vec![0.0f32; lane_len];
                for j in 0..lane_len {
                    let re = re_all[base + j];
                    let im = im_all[base + j];
                    let a = (re * re + im * im + AMP_EPS).sqrt();
                    let g = gs[base + j];
                    g_re[j] = g * re / a;
                    g_im[j] = g * im / a;
                }
                let lane_grad = plan.adjoint(&g_re, &g_im);
                for (ti, &v) in lane_grad.iter().enumerate() {
                    gx[(bi * t + ti) * d + di] += v;
                }
            }
        }
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
    for bi in 0..b {
        for di in 0..d {
            let base = (bi * d + di) * lane_len;
            let x = plan.inverse(&ws[base..base + lane_len]);
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
        let p = plan(24, 3);
        let x = Tensor::randn(&[1, 24, 2], 2);
        let y = cwt_amplitude(&Var::constant(x.clone()), &p);
        // Channel 1 lane must equal the plan's amplitude of that column.
        let col: Vec<f32> = (0..24).map(|t| x.at(&[0, t, 1])).collect();
        let want = p.amplitude(&col);
        for li in 0..3 {
            for ti in 0..24 {
                let got = y.value().at(&[0, 1, li, ti]);
                let w = (want[li * 24 + ti].powi(2) + AMP_EPS).sqrt();
                assert!((got - w).abs() < 1e-4, "({li},{ti}): {got} vs {w}");
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
