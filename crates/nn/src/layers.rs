//! Core layers: Linear, Conv1d/Conv2d, LayerNorm, Dropout, activations,
//! and MLP.

use crate::module::{Ctx, Module};
use ts3_rng::rngs::StdRng;
use ts3_rng::Rng;
use ts3_autograd::{Param, Var};
use ts3_tensor::Tensor;

/// Fully connected layer `y = x W + b`, applied to the last axis of a
/// rank-2 (`[N, in]`) or rank-3 (`[B, N, in]`) input.
pub struct Linear {
    /// Weight of shape `[in, out]`.
    pub weight: Param,
    /// Optional bias of shape `[out]`.
    pub bias: Option<Param>,
}

impl Linear {
    /// Xavier-initialised linear layer.
    pub fn new(name: &str, in_dim: usize, out_dim: usize, bias: bool, rng: &mut StdRng) -> Self {
        // Xavier over [out, in] then transpose to [in, out] storage.
        let w = Tensor::xavier_uniform(&[out_dim, in_dim], rng).transpose();
        Linear {
            weight: Param::new(format!("{name}.weight"), w),
            bias: if bias {
                Some(Param::new(format!("{name}.bias"), Tensor::zeros(&[out_dim])))
            } else {
                None
            },
        }
    }
}

impl Module for Linear {
    fn forward(&self, x: &Var, _ctx: &mut Ctx) -> Var {
        let y = x.matmul(&self.weight.var());
        match &self.bias {
            Some(b) => y.add(&b.var()),
            None => y,
        }
    }

    fn params(&self) -> Vec<Param> {
        let mut p = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            p.push(b.clone());
        }
        p
    }
}

/// 1-D convolution layer over `[B, C, L]` input with "same" padding.
pub struct Conv1d {
    /// Kernel `[Co, Ci, K]`.
    pub weight: Param,
    /// Bias `[Co]`.
    pub bias: Param,
    /// Symmetric padding producing same-length output for odd `K`.
    pub pad: usize,
}

impl Conv1d {
    /// Kaiming-initialised conv layer with same-length padding (odd `k`).
    pub fn new(name: &str, c_in: usize, c_out: usize, k: usize, rng: &mut StdRng) -> Self {
        assert!(k % 2 == 1, "Conv1d uses odd kernels for same-length output");
        Conv1d {
            weight: Param::new(
                format!("{name}.weight"),
                Tensor::kaiming_normal(&[c_out, c_in, k], rng),
            ),
            bias: Param::new(format!("{name}.bias"), Tensor::zeros(&[c_out])),
            pad: k / 2,
        }
    }
}

impl Module for Conv1d {
    fn forward(&self, x: &Var, _ctx: &mut Ctx) -> Var {
        let y = x.conv1d(&self.weight.var(), self.pad);
        // Bias broadcast over [B, Co, L]: reshape to [Co, 1].
        let co = self.bias.shape()[0];
        y.add(&self.bias.var().reshape(&[co, 1]))
    }

    fn params(&self) -> Vec<Param> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// 2-D convolution layer over `[B, C, H, W]` with "same" padding.
pub struct Conv2d {
    /// Kernel `[Co, Ci, KH, KW]`.
    pub weight: Param,
    /// Bias `[Co]`.
    pub bias: Param,
    /// Padding `(ph, pw)`.
    pub pad: (usize, usize),
}

impl Conv2d {
    /// Kaiming-initialised square-kernel conv with same-size padding.
    pub fn new(name: &str, c_in: usize, c_out: usize, k: usize, rng: &mut StdRng) -> Self {
        assert!(k % 2 == 1, "Conv2d uses odd kernels for same-size output");
        Conv2d {
            weight: Param::new(
                format!("{name}.weight"),
                Tensor::kaiming_normal(&[c_out, c_in, k, k], rng),
            ),
            bias: Param::new(format!("{name}.bias"), Tensor::zeros(&[c_out])),
            pad: (k / 2, k / 2),
        }
    }
}

impl Module for Conv2d {
    fn forward(&self, x: &Var, _ctx: &mut Ctx) -> Var {
        let y = x.conv2d(&self.weight.var(), self.pad.0, self.pad.1);
        let co = self.bias.shape()[0];
        y.add(&self.bias.var().reshape(&[co, 1, 1]))
    }

    fn params(&self) -> Vec<Param> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// Layer normalisation over the last axis.
pub struct LayerNorm {
    /// Gain `[d]`.
    pub gain: Param,
    /// Bias `[d]`.
    pub bias: Param,
    /// Variance epsilon.
    pub eps: f32,
}

impl LayerNorm {
    /// Unit-gain zero-bias layer norm for feature dimension `d`.
    pub fn new(name: &str, d: usize) -> Self {
        LayerNorm {
            gain: Param::new(format!("{name}.gain"), Tensor::ones(&[d])),
            bias: Param::new(format!("{name}.bias"), Tensor::zeros(&[d])),
            eps: 1e-5,
        }
    }
}

impl Module for LayerNorm {
    fn forward(&self, x: &Var, _ctx: &mut Ctx) -> Var {
        x.layer_norm_last(&self.gain.var(), &self.bias.var(), self.eps)
    }

    fn params(&self) -> Vec<Param> {
        vec![self.gain.clone(), self.bias.clone()]
    }
}

/// Inverted dropout: at train time zeroes each element with probability
/// `p` and rescales by `1/(1-p)`; identity at eval time.
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f32,
}

impl Dropout {
    /// Dropout with probability `p`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        Dropout { p }
    }
}

impl Module for Dropout {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        if !ctx.training || self.p == 0.0 {
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let mask = Tensor::from_vec(
            (0..x.value().numel())
                .map(|_| if ctx.rng.gen_f32() < keep { 1.0 / keep } else { 0.0 })
                .collect(),
            x.shape(),
        );
        x.apply_mask(&mask)
    }

    fn params(&self) -> Vec<Param> {
        vec![]
    }
}

/// Activation functions as zero-parameter modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (no-op).
    Identity,
}

impl Module for Activation {
    fn forward(&self, x: &Var, _ctx: &mut Ctx) -> Var {
        match self {
            Activation::Relu => x.relu(),
            Activation::Gelu => x.gelu(),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x.clone(),
        }
    }

    fn params(&self) -> Vec<Param> {
        vec![]
    }
}

/// Two-layer MLP with configurable hidden width, activation and dropout —
/// the prediction-head shape used throughout the paper (Eq. 14–16).
pub struct Mlp {
    /// Input projection.
    pub fc1: Linear,
    /// Output projection.
    pub fc2: Linear,
    /// Activation between the two projections.
    pub act: Activation,
    /// Dropout after the activation.
    pub drop: Dropout,
}

impl Mlp {
    /// Build an `in -> hidden -> out` MLP.
    pub fn new(
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        act: Activation,
        dropout: f32,
        rng: &mut StdRng,
    ) -> Self {
        Mlp {
            fc1: Linear::new(&format!("{name}.fc1"), in_dim, hidden, true, rng),
            fc2: Linear::new(&format!("{name}.fc2"), hidden, out_dim, true, rng),
            act,
            drop: Dropout::new(dropout),
        }
    }
}

impl Module for Mlp {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let h = self.fc1.forward(x, ctx);
        let h = self.act.forward(&h, ctx);
        let h = self.drop.forward(&h, ctx);
        self.fc2.forward(&h, ctx)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.fc1.params();
        p.extend(self.fc2.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_shapes_2d_and_3d() {
        let l = Linear::new("l", 4, 3, true, &mut rng());
        let mut ctx = Ctx::eval();
        let y2 = l.forward(&Var::constant(Tensor::ones(&[5, 4])), &mut ctx);
        assert_eq!(y2.shape(), &[5, 3]);
        let y3 = l.forward(&Var::constant(Tensor::ones(&[2, 5, 4])), &mut ctx);
        assert_eq!(y3.shape(), &[2, 5, 3]);
        assert_eq!(l.num_params(), 15);
    }

    #[test]
    fn linear_no_bias() {
        let l = Linear::new("l", 2, 2, false, &mut rng());
        assert_eq!(l.params().len(), 1);
    }

    #[test]
    fn linear_learns_identity() {
        // Train a 1x1 linear layer to y = 2x.
        let l = Linear::new("l", 1, 1, false, &mut rng());
        let mut ctx = Ctx::train(0);
        for _ in 0..200 {
            let x = Var::constant(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]));
            let t = Tensor::from_vec(vec![2.0, 4.0, 6.0], &[3, 1]);
            let loss = l.forward(&x, &mut ctx).mse_loss(&t);
            for p in l.params() {
                p.zero_grad();
            }
            loss.backward();
            for p in l.params() {
                p.update_with(|v, g| v.axpy(-0.05, g));
            }
        }
        assert!((l.weight.value().item() - 2.0).abs() < 1e-2);
    }

    #[test]
    fn conv1d_same_length() {
        let c = Conv1d::new("c", 3, 5, 3, &mut rng());
        let mut ctx = Ctx::eval();
        let y = c.forward(&Var::constant(Tensor::ones(&[2, 3, 10])), &mut ctx);
        assert_eq!(y.shape(), &[2, 5, 10]);
    }

    #[test]
    fn conv2d_same_size() {
        let c = Conv2d::new("c", 2, 4, 3, &mut rng());
        let mut ctx = Ctx::eval();
        let y = c.forward(&Var::constant(Tensor::ones(&[1, 2, 6, 8])), &mut ctx);
        assert_eq!(y.shape(), &[1, 4, 6, 8]);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let ln = LayerNorm::new("ln", 8);
        let mut ctx = Ctx::eval();
        let x = Var::constant(Tensor::randn(&[4, 8], 3).mul_scalar(5.0).add_scalar(10.0));
        let y = ln.forward(&x, &mut ctx);
        for row in y.value().as_slice().chunks(8) {
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
        }
    }

    #[test]
    fn dropout_eval_is_identity_train_masks() {
        let d = Dropout::new(0.5);
        let x = Var::constant(Tensor::ones(&[1000]));
        let mut ec = Ctx::eval();
        assert_eq!(d.forward(&x, &mut ec).value().as_slice(), x.value().as_slice());
        let mut tc = Ctx::train(7);
        let y = d.forward(&x, &mut tc);
        let zeros = y.value().as_slice().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 350 && zeros < 650, "zeros = {zeros}");
        // Kept values are rescaled by 1/keep = 2.
        assert!(y.value().as_slice().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn activation_variants() {
        let mut ctx = Ctx::eval();
        let x = Var::constant(Tensor::from_vec(vec![-1.0, 1.0], &[2]));
        assert_eq!(Activation::Relu.forward(&x, &mut ctx).value().as_slice(), &[0.0, 1.0]);
        assert_eq!(Activation::Identity.forward(&x, &mut ctx).value().as_slice(), &[-1.0, 1.0]);
        assert!(Activation::Tanh.forward(&x, &mut ctx).value().as_slice()[1] < 1.0);
        assert!(Activation::Gelu.forward(&x, &mut ctx).value().as_slice()[0] < 0.0);
    }

    #[test]
    fn mlp_shape_and_params() {
        let m = Mlp::new("m", 6, 12, 3, Activation::Gelu, 0.1, &mut rng());
        let mut ctx = Ctx::eval();
        let y = m.forward(&Var::constant(Tensor::ones(&[4, 6])), &mut ctx);
        assert_eq!(y.shape(), &[4, 3]);
        assert_eq!(m.params().len(), 4);
        assert_eq!(m.num_params(), 6 * 12 + 12 + 12 * 3 + 3);
    }
}
