//! The Temporal-Frequency Block (paper Eq. 13 / Fig. 2): a multi-branch
//! structure that expands the series into 2-D temporal-frequency
//! distributions under different wavelet generating functions, learns 2-D
//! representations with an inception conv backbone, folds them back to
//! 1-D, and merges the branches with learned softmax weights plus a
//! residual connection.

use crate::ops::cwt_amplitude;
use ts3_rng::rngs::StdRng;
use std::rc::Rc;
use ts3_autograd::{Param, Var};
use ts3_nn::{Ctx, InceptionBlock, Linear, Module};
use ts3_signal::{CwtPlan, WaveletKind};
use ts3_tensor::Tensor;

/// One wavelet branch: TF expansion -> conv backbone -> feed-forward fold.
struct Branch {
    plan: Rc<CwtPlan>,
    conv: InceptionBlock,
    fold: Linear,
}

impl Branch {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let (b, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let lambda = self.plan.lambda;
        // TF Learning Layer (Eq. 13, line 2): 1-D -> 2-D expansion.
        let tf = {
            let _s = ts3_obs::span("tfblock.cwt");
            cwt_amplitude(x, &self.plan) // [B, D, lambda, T]
        };
        // ConvBackbone (inception over the TF plane).
        let h = {
            let _s = ts3_obs::span("tfblock.conv");
            self.conv.forward(&tf, ctx) // [B, D, lambda, T]
        };
        // FeedForward Layer: fold (D, lambda) per timestep back to D.
        let _s = ts3_obs::span("tfblock.fold");
        let h = h.permute(&[0, 3, 1, 2]); // [B, T, D, lambda]
        let h = h.reshape(&[b, t, d * lambda]);
        self.fold.forward(&h, ctx) // [B, T, D]
    }
}

/// The TF-Block: `m` wavelet branches merged by learned softmax weights,
/// with a residual connection (Eq. 12–13).
pub struct TfBlock {
    branches: Vec<Branch>,
    merge_logits: Param,
}

impl TfBlock {
    /// Build a TF-Block for `[B, T, d_model]` inputs.
    ///
    /// `plans` supplies one prepared CWT plan per branch (they may differ
    /// in wavelet kind; all must share `T` and `lambda`).
    pub fn new(
        name: &str,
        plans: &[Rc<CwtPlan>],
        d_model: usize,
        d_hidden: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(!plans.is_empty(), "TfBlock needs at least one branch");
        let branches = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| Branch {
                plan: plan.clone(),
                conv: InceptionBlock::new(&format!("{name}.b{i}.conv"), d_model, d_hidden, rng),
                fold: Linear::new(
                    &format!("{name}.b{i}.fold"),
                    d_model * plan.lambda,
                    d_model,
                    true,
                    rng,
                ),
            })
            .collect();
        TfBlock {
            branches,
            merge_logits: Param::new(
                format!("{name}.merge"),
                Tensor::zeros(&[plans.len()]),
            ),
        }
    }

    /// Number of branches `m`.
    pub fn num_branches(&self) -> usize {
        self.branches.len()
    }
}

impl Module for TfBlock {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let outs: Vec<Var> = self.branches.iter().map(|br| br.forward(x, ctx)).collect();
        let _s = ts3_obs::span("tfblock.merge");
        // Weight-learned Merge Layer: softmax over branch logits.
        let weights = self.merge_logits.var().softmax_last(); // [m]
        let mut merged: Option<Var> = None;
        for (i, out) in outs.iter().enumerate() {
            let w = weights.narrow(0, i, 1); // [1], broadcasts over [B,T,D]
            let term = out.mul(&w);
            merged = Some(match merged {
                Some(acc) => acc.add(&term),
                None => term,
            });
        }
        // Residual connection (Eq. 12).
        // ts3-lint: allow(no-unwrap-in-lib) the branch list is non-empty by construction, so the fold always produces a value
        merged.expect("at least one branch").add(x)
    }

    fn params(&self) -> Vec<Param> {
        let mut p: Vec<Param> = self
            .branches
            .iter()
            .flat_map(|b| {
                let mut v = b.conv.params();
                v.extend(b.fold.params());
                v
            })
            .collect();
        p.push(self.merge_logits.clone());
        p
    }
}

/// Build one CWT plan per requested wavelet kind.
pub fn branch_plans(t: usize, lambda: usize, kinds: &[WaveletKind]) -> Vec<Rc<CwtPlan>> {
    kinds
        .iter()
        .map(|&k| Rc::new(CwtPlan::new(t, lambda, k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(21)
    }

    fn block(t: usize, lambda: usize, d: usize, m: usize) -> TfBlock {
        let kinds = &WaveletKind::ALL[..m];
        let plans = branch_plans(t, lambda, kinds);
        TfBlock::new("tf", &plans, d, 4, &mut rng())
    }

    #[test]
    fn tf_block_preserves_shape() {
        let b = block(24, 4, 6, 2);
        let mut ctx = Ctx::eval();
        let x = Var::constant(Tensor::randn(&[2, 24, 6], 1));
        let y = b.forward(&x, &mut ctx);
        assert_eq!(y.shape(), &[2, 24, 6]);
        assert!(y.value().all_finite());
        assert_eq!(b.num_branches(), 2);
    }

    #[test]
    fn tf_block_initial_output_is_residual_plus_learned() {
        // With zero merge logits the weights are uniform; output must not
        // equal the input (the branches contribute).
        let b = block(16, 3, 4, 2);
        let mut ctx = Ctx::eval();
        let x = Var::constant(Tensor::randn(&[1, 16, 4], 2));
        let y = b.forward(&x, &mut ctx);
        assert!(y.value().max_abs_diff(x.value()) > 1e-4);
    }

    #[test]
    fn tf_block_gradients_reach_all_params() {
        let b = block(16, 3, 4, 2);
        let mut ctx = Ctx::train(0);
        let x = Var::constant(Tensor::randn(&[1, 16, 4], 3).mul_scalar(0.5));
        let loss = b.forward(&x, &mut ctx).square().sum();
        for p in b.params() {
            p.zero_grad();
        }
        loss.backward();
        for p in b.params() {
            assert!(
                p.grad_norm() > 0.0,
                "parameter {} received no gradient",
                p.name()
            );
        }
    }

    #[test]
    fn tf_block_trains_toward_target() {
        let b = block(12, 3, 4, 1);
        let mut ctx = Ctx::train(0);
        let x = Var::constant(Tensor::randn(&[1, 12, 4], 4).mul_scalar(0.3));
        let target = Tensor::zeros(&[1, 12, 4]);
        let mut last = f32::INFINITY;
        let mut first = 0.0;
        for step in 0..6 {
            let loss = b.forward(&x, &mut ctx).mse_loss(&target);
            if step == 0 {
                first = loss.value().item();
            }
            last = loss.value().item();
            for p in b.params() {
                p.zero_grad();
            }
            loss.backward();
            for p in b.params() {
                p.update_with(|v, g| v.axpy(-0.05, g));
            }
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn single_branch_weight_is_one() {
        let b = block(12, 2, 3, 1);
        // softmax of a single logit is 1.0 regardless of value.
        let w = b.merge_logits.var().softmax_last();
        assert_eq!(w.value().as_slice(), &[1.0]);
    }
}
