//! Series embedding: value projection plus fixed sinusoidal positional
//! encoding — the "same input embedding for all base models" the paper's
//! experimental protocol prescribes.

use crate::layers::{Dropout, Linear};
use crate::module::{Ctx, Module};
use ts3_rng::rngs::StdRng;
use ts3_autograd::{Param, Var};
use ts3_tensor::Tensor;

/// Classic sinusoidal positional table of shape `[len, d_model]`.
fn sinusoidal_encoding(len: usize, d_model: usize) -> Tensor {
    let mut data = vec![0.0f32; len * d_model];
    for pos in 0..len {
        for i in 0..d_model {
            let div = (10000f64).powf((2 * (i / 2)) as f64 / d_model as f64);
            let ang = pos as f64 / div;
            data[pos * d_model + i] = if i % 2 == 0 { ang.sin() } else { ang.cos() } as f32;
        }
    }
    Tensor::from_vec(data, &[len, d_model])
}

/// Value + positional embedding of a `[B, T, C]` series into `[B, T, D]`.
pub struct DataEmbedding {
    /// Per-timestep value projection `C -> D`.
    pub value: Linear,
    /// Dropout after embedding.
    pub drop: Dropout,
    /// Model width.
    pub d_model: usize,
}

impl DataEmbedding {
    /// Build an embedding for `c_in` channels into width `d_model`.
    pub fn new(name: &str, c_in: usize, d_model: usize, dropout: f32, rng: &mut StdRng) -> Self {
        DataEmbedding {
            value: Linear::new(&format!("{name}.value"), c_in, d_model, true, rng),
            drop: Dropout::new(dropout),
            d_model,
        }
    }
}

impl Module for DataEmbedding {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        assert_eq!(x.shape().len(), 3, "DataEmbedding expects [B, T, C]");
        let t = x.shape()[1];
        let v = self.value.forward(x, ctx);
        let pe = Var::constant(sinusoidal_encoding(t, self.d_model));
        let y = v.add(&pe); // broadcast over batch
        self.drop.forward(&y, ctx)
    }

    fn params(&self) -> Vec<Param> {
        self.value.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_rng::SeedableRng;

    #[test]
    fn sinusoidal_encoding_properties() {
        let pe = sinusoidal_encoding(16, 8);
        assert_eq!(pe.shape(), &[16, 8]);
        // Position 0: sin(0)=0 on even dims, cos(0)=1 on odd dims.
        assert_eq!(pe.at(&[0, 0]), 0.0);
        assert_eq!(pe.at(&[0, 1]), 1.0);
        // All values bounded by 1.
        assert!(pe.abs().max() <= 1.0 + 1e-6);
        // Rows differ.
        assert!(pe.index_axis(0, 1).max_abs_diff(&pe.index_axis(0, 5)) > 1e-3);
    }

    #[test]
    fn data_embedding_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let emb = DataEmbedding::new("emb", 7, 16, 0.0, &mut rng);
        let mut ctx = Ctx::eval();
        let y = emb.forward(&Var::constant(Tensor::ones(&[2, 24, 7])), &mut ctx);
        assert_eq!(y.shape(), &[2, 24, 16]);
    }

    #[test]
    fn data_embedding_is_differentiable() {
        let mut rng = StdRng::seed_from_u64(2);
        let emb = DataEmbedding::new("emb", 3, 4, 0.0, &mut rng);
        let mut ctx = Ctx::train(0);
        let x = Var::constant(Tensor::randn(&[1, 8, 3], 5));
        let loss = emb.forward(&x, &mut ctx).square().sum();
        for p in emb.params() {
            p.zero_grad();
        }
        loss.backward();
        assert!(emb.value.weight.grad_norm() > 0.0);
    }
}
