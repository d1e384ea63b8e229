//! Differentiable 1-D/2-D convolution. The forward is the column-free
//! kernel [`ts3_tensor::conv2d`]; the backward is one call to
//! [`ts3_tensor::conv2d_backward`], which forms the weight gradient
//! `gy · colsᵀ` on gemm over the zero-padded sample and the input
//! gradient as per-tap `C_out`-term chains, with the bits of the
//! `im2col` / `Wᵀ · gy` / `col2im` formulation.
//! [`Var::conv2d_mean`] is the inception stage — the mean of parallel
//! convolutions with their biases — as one tape node.

use crate::var::{reduce_grad_to_shape, Var};

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

    /// `(1/n) · Σ_k (conv2d(x, W_k, pad_k) + b_k)` as one tape node, for
    /// `n` `kernels` of `(weight [Co,Ci,KH,KW], bias [Co], (ph, pw))`
    /// whose outputs share one shape.
    ///
    /// Bit-identical to the chain `conv2d` + `[Co,1,1]` bias `add`,
    /// running `add`, `mul_scalar(1/n)`, for which it stands in: the
    /// forward adds `(((c₀+b₀) + (c₁+b₁)) + …)` plane by plane and then
    /// scales. The backward scales the cotangent once, reduces the bias
    /// gradient once (shared by every bias) and runs
    /// [`ts3_tensor::conv2d_backward`] per kernel. `x` is a parent once
    /// per kernel, last kernel first, so the tape accumulates the input
    /// gradient in the chain's order even when `x` has other consumers.
    ///
    /// # Panics
    /// Panics if `kernels` is empty, a bias length is not `Co`, or the
    /// outputs' shapes differ.
    pub fn conv2d_mean(&self, kernels: &[(Var, Var, (usize, usize))]) -> Var {
        assert!(!kernels.is_empty(), "conv2d_mean needs at least one kernel");
        let n = kernels.len();
        let scale = 1.0 / n as f32;
        let conv = |(w, _, (ph, pw)): &(Var, Var, (usize, usize))| {
            ts3_tensor::conv2d(self.value(), w.value(), *ph, *pw)
        };
        let mut value = conv(&kernels[0]);
        let (co, plane) = (value.shape()[1], value.shape()[2] * value.shape()[3]);
        let bias = |k: usize| {
            let b = kernels[k].1.value().as_slice();
            assert_eq!(b.len(), co, "conv2d_mean: bias length must equal Co");
            b
        };
        // (c₀ + b₀), then `+ (c_k + b_k)` per further kernel, plane by plane.
        let b0 = bias(0);
        for (i, p) in value.as_mut_slice().chunks_exact_mut(plane).enumerate() {
            let bv = b0[i % co];
            p.iter_mut().for_each(|v| *v += bv);
        }
        for (k, kernel) in kernels.iter().enumerate().skip(1) {
            let c = conv(kernel);
            assert_eq!(c.shape(), value.shape(), "conv2d_mean: kernel outputs differ in shape");
            let bk = bias(k);
            let planes = value.as_mut_slice().chunks_exact_mut(plane);
            for (i, (pa, pc)) in planes.zip(c.as_slice().chunks_exact(plane)).enumerate() {
                let bv = bk[i % co];
                pa.iter_mut().zip(pc).for_each(|(a, &c)| *a += c + bv);
            }
        }
        value.as_mut_slice().iter_mut().for_each(|v| *v *= scale);

        let pads: Vec<(usize, usize)> = kernels.iter().map(|k| k.2).collect();
        let mut parents = vec![self.clone(); n];
        parents.extend(kernels.iter().flat_map(|(w, b, _)| [w.clone(), b.clone()]));
        Var::node(
            value,
            parents,
            Box::new(move |g, parents| {
                let gs = g.mul_scalar(scale);
                let gb = reduce_grad_to_shape(&gs, &[co, 1, 1]).reshape(&[co]);
                let x = parents[0].value();
                let mut grads = vec![None; 3 * n];
                for k in (0..n).rev() {
                    let (ph, pw) = pads[k];
                    let (gx, gw) =
                        ts3_tensor::conv2d_backward(x, parents[n + 2 * k].value(), &gs, ph, pw);
                    grads[n - 1 - k] = Some(gx);
                    grads[n + 2 * k] = Some(gw);
                    grads[n + 2 * k + 1] = Some(gb.clone());
                }
                grads
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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The chain [`Var::conv2d_mean`] stands in for: per kernel a conv and
    /// a `[Co,1,1]` bias add, then a running sum and the `1/n` scale.
    fn unfused(x: &Var, kernels: &[(Var, Var, (usize, usize))]) -> Var {
        let mut acc: Option<Var> = None;
        for (w, b, (ph, pw)) in kernels {
            let co = b.shape()[0];
            let y = x.conv2d(w, *ph, *pw).add(&b.reshape(&[co, 1, 1]));
            acc = Some(match acc {
                Some(a) => a.add(&y),
                None => y,
            });
        }
        acc.unwrap().mul_scalar(1.0 / kernels.len() as f32)
    }

    /// One stage's output and its gradients (x, then each weight and
    /// bias) as bits. `x` also feeds one op created before the stage and
    /// one created after it, so its gradient slot is shared and the
    /// order in which the tape adds into it shows in the bits.
    fn stage_bits(fused: bool, shape: [usize; 4], ks: &[usize], seed: u64) -> Vec<Vec<u32>> {
        let co = 4;
        let x = leaf(Tensor::randn(&shape, seed));
        let before = x.mul_scalar(0.7).square().sum();
        let kernels: Vec<_> = ks
            .iter()
            .zip(seed..)
            .map(|(&k, s)| {
                (
                    leaf(Tensor::randn(&[co, shape[1], k, k], s + 100)),
                    leaf(Tensor::randn(&[co], s + 200)),
                    (k / 2, k / 2),
                )
            })
            .collect();
        let y = if fused { x.conv2d_mean(&kernels) } else { unfused(&x, &kernels) };
        let after = x.square().mul_scalar(1.3).sum();
        let r = leaf(Tensor::randn(y.shape(), seed + 300));
        y.mul(&r).sum().add(&before).add(&after).backward();
        let mut out = vec![bits(y.value()), bits(&x.grad().unwrap())];
        for (w, b, _) in &kernels {
            out.push(bits(&w.grad().unwrap()));
            out.push(bits(&b.grad().unwrap()));
        }
        out
    }

    #[test]
    fn conv2d_mean_bitwise_equals_unfused_chain_sweep() {
        let orig_threads = ts3_tensor::par::max_threads();
        let mut seed = 1;
        for threads in [1, 2] {
            ts3_tensor::par::set_max_threads(threads);
            for ks in [&[1, 3, 5][..], &[3], &[1, 5]] {
                for b in [1, 3, 8] {
                    for (h, w) in [(5, 7), (1, 9), (3, 1), (7, 11)] {
                        seed += 1;
                        let shape = [b, 3, h, w];
                        assert_eq!(
                            stage_bits(true, shape, ks, seed),
                            stage_bits(false, shape, ks, seed),
                            "threads {threads}, kernels {ks:?}, shape {shape:?}"
                        );
                    }
                }
            }
        }
        ts3_tensor::par::set_max_threads(orig_threads);
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
