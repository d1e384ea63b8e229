//! Inception-style multi-kernel 2-D convolution block — the
//! `ConvBackbone` of the paper's TF-Block (Eq. 13), also used by the
//! TimesNet baseline.

use crate::layers::Conv2d;
use crate::module::{Ctx, Module};
use crate::Activation;
use ts3_rng::rngs::StdRng;
use ts3_autograd::{Param, Var};

/// Parallel same-padded 2-D convolutions with kernel sizes `{1, 3, 5}`
/// whose outputs are averaged, followed by a GELU and a second multi-scale
/// stage projecting back to the input width. Each stage is one
/// [`Var::conv2d_mean`] tape node.
pub struct InceptionBlock {
    stage1: Vec<Conv2d>,
    stage2: Vec<Conv2d>,
}

impl InceptionBlock {
    /// Build a block `c_in -> hidden -> c_in` with the default kernel set.
    pub fn new(name: &str, c_in: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let kernels = [1usize, 3, 5];
        InceptionBlock {
            stage1: kernels
                .iter()
                .map(|&k| Conv2d::new(&format!("{name}.s1.k{k}"), c_in, hidden, k, rng))
                .collect(),
            stage2: kernels
                .iter()
                .map(|&k| Conv2d::new(&format!("{name}.s2.k{k}"), hidden, c_in, k, rng))
                .collect(),
        }
    }

    /// The mean of the parallel convolutions, as one tape node.
    fn multi_scale(convs: &[Conv2d], x: &Var) -> Var {
        let kernels: Vec<_> =
            convs.iter().map(|c| (c.weight.var(), c.bias.var(), c.pad)).collect();
        x.conv2d_mean(&kernels)
    }
}

impl Module for InceptionBlock {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        assert_eq!(x.shape().len(), 4, "InceptionBlock expects [B, C, H, W]");
        let h = Self::multi_scale(&self.stage1, x);
        let h = Activation::Gelu.forward(&h, ctx);
        Self::multi_scale(&self.stage2, &h)
    }

    fn params(&self) -> Vec<Param> {
        self.stage1
            .iter()
            .chain(self.stage2.iter())
            .flat_map(|c| c.params())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_rng::SeedableRng;
    use ts3_tensor::Tensor;

    #[test]
    fn inception_preserves_spatial_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let block = InceptionBlock::new("inc", 4, 6, &mut rng);
        let mut ctx = Ctx::eval();
        let y = block.forward(&Var::constant(Tensor::randn(&[2, 4, 8, 12], 1)), &mut ctx);
        assert_eq!(y.shape(), &[2, 4, 8, 12]);
        assert!(y.value().all_finite());
    }

    #[test]
    fn inception_param_count() {
        let mut rng = StdRng::seed_from_u64(6);
        let block = InceptionBlock::new("inc", 2, 3, &mut rng);
        // stage1: (1+9+25) kernels * 2*3 weights + 3 biases each;
        // stage2 symmetric with 2 out channels.
        let expected = (1 + 9 + 25) * 6 + 3 * 3 + (1 + 9 + 25) * 6 + 3 * 2;
        assert_eq!(block.num_params(), expected);
    }

    #[test]
    fn inception_trains_toward_zero() {
        let mut rng = StdRng::seed_from_u64(7);
        let block = InceptionBlock::new("inc", 2, 2, &mut rng);
        let mut ctx = Ctx::train(0);
        let x = Var::constant(Tensor::randn(&[1, 2, 4, 6], 2).mul_scalar(0.5));
        let target = Tensor::zeros(&[1, 2, 4, 6]);
        let losses: Vec<f32> = (0..5)
            .map(|_| {
                let loss = block.forward(&x, &mut ctx).mse_loss(&target);
                for p in block.params() {
                    p.zero_grad();
                }
                loss.backward();
                for p in block.params() {
                    p.update_with(|v, g| v.axpy(-0.1, g));
                }
                loss.value().item()
            })
            .collect();
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }
}
