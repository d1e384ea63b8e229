//! Multi-head scaled dot-product attention and the standard Transformer
//! encoder layer — the backbone shared by the Transformer-family baselines
//! (Informer, Pyraformer, Non-stationary Transformer, PatchTST, TSD-Trans).

use crate::layers::{Dropout, LayerNorm, Linear, Mlp};
use crate::module::{Ctx, Module};
use crate::Activation;
use ts3_rng::rngs::StdRng;
use ts3_autograd::{Param, Var};
use ts3_tensor::Tensor;

/// Variants of the attention score computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionKind {
    /// Full O(L^2) attention.
    Full,
    /// ProbSparse-style attention (Informer): only the top-u most "active"
    /// queries attend; the rest copy the mean of values. `u = ceil(ln L)
    /// * factor`.
    ProbSparse {
        /// Sparsity factor (Informer uses 5).
        factor: usize,
    },
    /// Pyramidal-style attention (Pyraformer, simplified): each query
    /// attends only to a local window plus a coarse set of strided
    /// "summary" positions.
    Pyramidal {
        /// Local window half-size.
        window: usize,
        /// Stride of the coarse level.
        stride: usize,
    },
}

/// Multi-head attention over `[B, L, D]` inputs.
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    kind: AttentionKind,
    drop: Dropout,
}

impl MultiHeadAttention {
    /// Build an attention layer of width `d_model` with `heads` heads.
    pub fn new(
        name: &str,
        d_model: usize,
        heads: usize,
        kind: AttentionKind,
        dropout: f32,
        rng: &mut StdRng,
    ) -> Self {
        assert!(d_model.is_multiple_of(heads), "d_model must be divisible by heads");
        MultiHeadAttention {
            wq: Linear::new(&format!("{name}.wq"), d_model, d_model, true, rng),
            wk: Linear::new(&format!("{name}.wk"), d_model, d_model, true, rng),
            wv: Linear::new(&format!("{name}.wv"), d_model, d_model, true, rng),
            wo: Linear::new(&format!("{name}.wo"), d_model, d_model, true, rng),
            heads,
            kind,
            drop: Dropout::new(dropout),
        }
    }

    /// Cross-attention forward (`q` comes from `x`, `k`/`v` from `mem`).
    fn forward_kv(&self, x: &Var, mem: &Var, ctx: &mut Ctx) -> Var {
        let (b, lq, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let lk = mem.shape()[1];
        let h = self.heads;
        let dh = d / h;
        let split = |v: &Var, l: usize| -> Var {
            // [B, L, D] -> [B*h, L, dh]
            v.reshape(&[b, l, h, dh])
                .permute(&[0, 2, 1, 3])
                .reshape(&[b * h, l, dh])
        };
        let q = split(&self.wq.forward(x, ctx), lq);
        let k = split(&self.wk.forward(mem, ctx), lk);
        let v = split(&self.wv.forward(mem, ctx), lk);
        let scale = 1.0 / (dh as f32).sqrt();
        let scores = q.matmul_tb(&k).mul_scalar(scale); // [B*h, Lq, Lk]
        let scores = self.mask_scores(scores, lq, lk);
        let attn = scores.softmax_last();
        let attn = self.drop.forward(&attn, ctx);
        let out = attn.matmul(&v); // [B*h, Lq, dh]
        let merged = out
            .reshape(&[b, h, lq, dh])
            .permute(&[0, 2, 1, 3])
            .reshape(&[b, lq, d]);
        self.wo.forward(&merged, ctx)
    }

    /// Apply the kind-specific sparsity pattern by adding a large negative
    /// constant to masked score entries.
    fn mask_scores(&self, scores: Var, lq: usize, lk: usize) -> Var {
        match self.kind {
            AttentionKind::Full => scores,
            AttentionKind::ProbSparse { factor } => {
                // Keep the top-u queries by score "activity" (max - mean of
                // the score row, measured on the current values, treated as
                // a constant selection); inactive queries attend uniformly.
                let u = (((lq as f32).ln().ceil() as usize) * factor).clamp(1, lq);
                let val = scores.value();
                let bh = val.shape()[0];
                let mut mask = Tensor::zeros(val.shape());
                for bi in 0..bh {
                    // Activity score per query row.
                    let mut act: Vec<(usize, f32)> = (0..lq)
                        .map(|qi| {
                            let row: Vec<f32> =
                                (0..lk).map(|ki| val.at(&[bi, qi, ki])).collect();
                            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                            let mean: f32 = row.iter().sum::<f32>() / lk as f32;
                            (qi, max - mean)
                        })
                        .collect();
                    act.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                    // Queries outside the top-u are flattened to uniform
                    // attention by zeroing their scores via the mask.
                    for &(qi, _) in act.iter().skip(u) {
                        for ki in 0..lk {
                            mask.set(&[bi, qi, ki], 1.0);
                        }
                    }
                }
                // masked rows -> all scores equal -> uniform softmax.
                let keep = mask.map(|m| 1.0 - m);
                scores.apply_mask(&keep)
            }
            AttentionKind::Pyramidal { window, stride } => {
                let mut bias = Tensor::zeros(&[lq, lk]);
                for qi in 0..lq {
                    for ki in 0..lk {
                        let local = ki + window >= qi && ki <= qi + window;
                        let coarse = ki % stride.max(1) == 0;
                        if !(local || coarse) {
                            bias.set(&[qi, ki], -1e9);
                        }
                    }
                }
                scores.add(&Var::constant(bias))
            }
        }
    }
}

impl Module for MultiHeadAttention {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        self.forward_kv(x, x, ctx)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.wq.params();
        p.extend(self.wk.params());
        p.extend(self.wv.params());
        p.extend(self.wo.params());
        p
    }
}

/// Pre-norm Transformer encoder layer: attention + feed-forward with
/// residual connections.
pub struct EncoderLayer {
    /// Self-attention.
    pub attn: MultiHeadAttention,
    /// Feed-forward network.
    pub ffn: Mlp,
    norm1: LayerNorm,
    norm2: LayerNorm,
}

impl EncoderLayer {
    /// Build an encoder layer with hidden FFN width `d_ff`.
    pub fn new(
        name: &str,
        d_model: usize,
        heads: usize,
        d_ff: usize,
        kind: AttentionKind,
        dropout: f32,
        rng: &mut StdRng,
    ) -> Self {
        EncoderLayer {
            attn: MultiHeadAttention::new(&format!("{name}.attn"), d_model, heads, kind, dropout, rng),
            ffn: Mlp::new(&format!("{name}.ffn"), d_model, d_ff, d_model, Activation::Gelu, dropout, rng),
            norm1: LayerNorm::new(&format!("{name}.norm1"), d_model),
            norm2: LayerNorm::new(&format!("{name}.norm2"), d_model),
        }
    }
}

impl Module for EncoderLayer {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let h = x.add(&self.attn.forward(&self.norm1.forward(x, ctx), ctx));
        h.add(&self.ffn.forward(&self.norm2.forward(&h, ctx), ctx))
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.attn.params();
        p.extend(self.ffn.params());
        p.extend(self.norm1.params());
        p.extend(self.norm2.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn full_attention_shape() {
        let a = MultiHeadAttention::new("a", 8, 2, AttentionKind::Full, 0.0, &mut rng());
        let mut ctx = Ctx::eval();
        let y = a.forward(&Var::constant(Tensor::randn(&[2, 10, 8], 1)), &mut ctx);
        assert_eq!(y.shape(), &[2, 10, 8]);
        assert!(y.value().all_finite());
    }

    #[test]
    fn probsparse_attention_shape() {
        let a = MultiHeadAttention::new(
            "a",
            8,
            2,
            AttentionKind::ProbSparse { factor: 2 },
            0.0,
            &mut rng(),
        );
        let mut ctx = Ctx::eval();
        let y = a.forward(&Var::constant(Tensor::randn(&[1, 12, 8], 2)), &mut ctx);
        assert_eq!(y.shape(), &[1, 12, 8]);
        assert!(y.value().all_finite());
    }

    #[test]
    fn pyramidal_attention_shape() {
        let a = MultiHeadAttention::new(
            "a",
            8,
            2,
            AttentionKind::Pyramidal { window: 2, stride: 4 },
            0.0,
            &mut rng(),
        );
        let mut ctx = Ctx::eval();
        let y = a.forward(&Var::constant(Tensor::randn(&[1, 16, 8], 3)), &mut ctx);
        assert_eq!(y.shape(), &[1, 16, 8]);
        assert!(y.value().all_finite());
    }

    #[test]
    fn cross_attention_uses_memory_length() {
        let a = MultiHeadAttention::new("a", 8, 2, AttentionKind::Full, 0.0, &mut rng());
        let mut ctx = Ctx::eval();
        let x = Var::constant(Tensor::randn(&[1, 5, 8], 4));
        let mem = Var::constant(Tensor::randn(&[1, 9, 8], 5));
        let y = a.forward_kv(&x, &mem, &mut ctx);
        assert_eq!(y.shape(), &[1, 5, 8]);
    }

    #[test]
    fn encoder_layer_trains() {
        let layer = EncoderLayer::new("e", 8, 2, 16, AttentionKind::Full, 0.0, &mut rng());
        let mut ctx = Ctx::train(0);
        let x = Var::constant(Tensor::randn(&[2, 6, 8], 6).mul_scalar(0.5));
        let target = Tensor::zeros(&[2, 6, 8]);
        let l0 = {
            let loss = layer.forward(&x, &mut ctx).mse_loss(&target);
            for p in layer.params() {
                p.zero_grad();
            }
            loss.backward();
            loss.value().item()
        };
        for p in layer.params() {
            p.update_with(|v, g| v.axpy(-0.05, g));
        }
        let l1 = layer.forward(&x, &mut ctx).mse_loss(&target).value().item();
        assert!(l1 < l0, "loss did not decrease: {l0} -> {l1}");
    }

    #[test]
    fn attention_rows_sum_to_one_through_uniformity_check() {
        // With identical tokens the attention output must equal the value
        // projection of that token (softmax uniform over identical keys).
        let a = MultiHeadAttention::new("a", 4, 1, AttentionKind::Full, 0.0, &mut rng());
        let mut ctx = Ctx::eval();
        let row = Tensor::randn(&[1, 1, 4], 7);
        let x = Var::constant(row.repeat_axis(1, 6));
        let y = a.forward(&x, &mut ctx);
        let first = y.value().narrow(1, 0, 1);
        for i in 1..6 {
            assert!(y.value().narrow(1, i, 1).allclose(&first, 1e-4));
        }
    }
}
