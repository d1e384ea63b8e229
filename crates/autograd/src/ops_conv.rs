//! Differentiable 1-D/2-D convolution. The forward is the `im2col`
//! kernel [`ts3_tensor::conv2d`]; the backward is one call to
//! [`ts3_tensor::conv2d_backward`], which forms the input gradient as
//! `Wᵀ · gy` folded back by the adjoint of `im2col` and the weight
//! gradient as `gy · colsᵀ` against the recomputed column matrix.

use crate::var::Var;

impl Var {
    /// 2-D convolution (stride 1): input `[B,Ci,H,W]`, weight
    /// `[Co,Ci,KH,KW]`, symmetric zero padding `(ph, pw)`.
    pub fn conv2d(&self, weight: &Var, ph: usize, pw: usize) -> Var {
        let value = ts3_tensor::conv2d(self.value(), weight.value(), ph, pw);
        Var::node(
            value,
            vec![self.clone(), weight.clone()],
            Box::new(move |g, parents| {
                let (gx, gw) =
                    ts3_tensor::conv2d_backward(parents[0].value(), parents[1].value(), g, ph, pw);
                vec![Some(gx), Some(gw)]
            }),
        )
    }

    /// 1-D convolution (stride 1): input `[B,Ci,L]`, weight `[Co,Ci,K]`.
    pub fn conv1d(&self, weight: &Var, pad: usize) -> Var {
        let (b, c, l) = (self.shape()[0], self.shape()[1], self.shape()[2]);
        let (co, ci, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
        let x4 = self.reshape(&[b, c, 1, l]);
        let w4 = weight.reshape(&[co, ci, 1, k]);
        let y = x4.conv2d(&w4, 0, pad);
        let ol = y.shape()[3];
        y.reshape(&[b, co, ol])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_tensor::Tensor;

    fn leaf(t: Tensor) -> Var {
        Var::constant(t)
    }

    #[test]
    fn conv2d_forward_matches_tensor_kernel() {
        let x = Tensor::randn(&[2, 3, 5, 5], 1);
        let w = Tensor::randn(&[4, 3, 3, 3], 2);
        let y = leaf(x.clone()).conv2d(&leaf(w.clone()), 1, 1);
        let want = ts3_tensor::conv2d(&x, &w, 1, 1);
        assert!(y.value().allclose(&want, 1e-5));
    }

    #[test]
    fn conv2d_weight_grad_identity_case() {
        // y = conv(x, w) with 1x1 kernel is y = w * x; d sum(y) / dw = sum(x).
        let x = leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]));
        let w = leaf(Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]));
        x.conv2d(&w, 0, 0).sum().backward();
        assert_eq!(w.grad().unwrap().item(), 10.0);
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn conv2d_input_grad_counts_kernel_coverage() {
        // With a 3x3 all-ones kernel, no padding on a 3x3 input, only one
        // output exists; every input position gets gradient 1.
        let x = leaf(Tensor::zeros(&[1, 1, 3, 3]));
        let w = leaf(Tensor::ones(&[1, 1, 3, 3]));
        x.conv2d(&w, 0, 0).sum().backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0; 9]);
    }

    #[test]
    fn conv2d_gradcheck_small() {
        let x0 = Tensor::randn(&[1, 2, 4, 4], 3).mul_scalar(0.5);
        let w0 = Tensor::randn(&[2, 2, 3, 3], 4).mul_scalar(0.5);
        // Analytic gradient for loss = sum(conv(x, w)^2) / 2.
        let x = leaf(x0.clone());
        let w = leaf(w0.clone());
        let y = x.conv2d(&w, 1, 1);
        y.square().sum().mul_scalar(0.5).backward();
        let gw = w.grad().unwrap();
        // Finite difference on one weight element.
        let f = |wt: &Tensor| -> f32 {
            let y = ts3_tensor::conv2d(&x0, wt, 1, 1);
            0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>()
        };
        let eps = 1e-2;
        for idx in [0usize, 7, 17] {
            let mut wp = w0.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = w0.clone();
            wm.as_mut_slice()[idx] -= eps;
            let num = (f(&wp) - f(&wm)) / (2.0 * eps);
            let ana = gw.as_slice()[idx];
            assert!(
                (num - ana).abs() < 2e-2 * num.abs().max(1.0),
                "idx {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn conv1d_forward_and_grad() {
        let x = leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]));
        let w = leaf(Tensor::from_vec(vec![1.0, -1.0], &[1, 1, 2]));
        let y = x.conv1d(&w, 0);
        assert_eq!(y.value().as_slice(), &[-1.0, -1.0, -1.0]);
        y.sum().backward();
        // Each interior x gets +1 (as lead) and -1 (as lag); ends get one.
        assert_eq!(x.grad().unwrap().as_slice(), &[1.0, 0.0, 0.0, -1.0]);
        // dW = [sum(x[0..3]), -... ] -> [1+2+3, 2+3+4] with signs from seed 1.
        assert_eq!(w.grad().unwrap().as_slice(), &[6.0, 9.0]);
    }
}
