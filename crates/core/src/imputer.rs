//! TS3Net for the imputation task (paper Table V): reconstruct randomly
//! masked points of a length-96 window using the same S-GD + TF-Block
//! backbone, with the reconstruction projected back to the channel space.

use crate::config::TS3NetConfig;
use crate::heads::PredictionHead;
use crate::ops::iwt;
use crate::sgd_layer::SgdLayer;
use crate::tf_block::{branch_plans, TfBlock};
use crate::traits::ImputationModel;
use ts3_rng::rngs::StdRng;
use ts3_rng::SeedableRng;
use std::rc::Rc;
use ts3_autograd::{Param, Var};
use ts3_nn::{Ctx, DataEmbedding, Module};
use ts3_signal::{dominant_period, CwtPlan};
use ts3_tensor::Tensor;

/// TS3Net imputer: embedding -> (S-GD + TF-Block) x N -> channel
/// projection, with a parallel fluctuant reconstruction path.
pub struct TS3NetImputer {
    /// Model configuration (horizon is ignored; output length = lookback).
    pub cfg: TS3NetConfig,
    embed: DataEmbedding,
    plans: Vec<Rc<CwtPlan>>,
    sgd: SgdLayer,
    blocks: Vec<TfBlock>,
    head: PredictionHead,
    head_fluct: PredictionHead,
}

impl TS3NetImputer {
    /// Build the imputer, seeded deterministically. The sub-band count is
    /// clamped exactly as in [`crate::TS3Net::new`].
    pub fn new(mut cfg: TS3NetConfig, seed: u64) -> Self {
        cfg.lambda = cfg.lambda.min((cfg.lookback / 6).max(2));
        let mut rng = StdRng::seed_from_u64(seed);
        let plans = branch_plans(cfg.lookback, cfg.lambda, &cfg.branches);
        let embed =
            DataEmbedding::new("ts3i.embed", cfg.c_in, cfg.d_model, cfg.dropout, &mut rng);
        let sgd = SgdLayer::new(plans[0].clone());
        let blocks = (0..cfg.n_blocks)
            .map(|l| {
                TfBlock::new(&format!("ts3i.block{l}"), &plans, cfg.d_model, cfg.d_hidden, &mut rng)
            })
            .collect();
        // Zero-initialised time-mixing correction heads (Eq. 14 shape,
        // T -> T): the model starts exactly at the mean-fill
        // reconstruction and learns residual corrections.
        let head = PredictionHead::new(
            "ts3i.head",
            cfg.lookback,
            cfg.lookback,
            cfg.d_model,
            cfg.c_in,
            &mut rng,
        );
        head.zero_init_output();
        let head_fluct = PredictionHead::new(
            "ts3i.head_f",
            cfg.lookback,
            cfg.lookback,
            cfg.d_model,
            cfg.c_in,
            &mut rng,
        );
        head_fluct.zero_init_output();
        TS3NetImputer { cfg, embed, plans, sgd, blocks, head, head_fluct }
    }
}

impl ImputationModel for TS3NetImputer {
    fn impute(&self, masked: &Tensor, mask: &Tensor, ctx: &mut Ctx) -> Var {
        assert_eq!(masked.rank(), 3, "imputer expects [B, T, C]");
        assert_eq!(masked.shape(), mask.shape(), "mask shape mismatch");
        let mut _s = ts3_obs::span("ts3net.impute");
        if _s.active() {
            _s.field("b", masked.shape()[0]);
            _s.field("t", masked.shape()[1]);
            _s.field("c", masked.shape()[2]);
            ts3_obs::counter_add("ts3net.impute.calls", 1);
        }
        // Observed-mean fill: replace hidden zeros with each channel's
        // observed mean so the spectral analysis is not biased toward 0.
        let t = masked.shape()[1];
        let filled = ts3_nn::mean_fill(masked, mask);
        // Clamp to T/2 so the spectrum gradient has >= 2 chunks to
        // difference (see TS3Net::forecast).
        let t_f = dominant_period(&filled).clamp(2, (t / 2).max(2));
        let h0 = self.embed.forward(&Var::constant(filled.clone()), ctx);
        let mut h = h0;
        let mut fluct_sum: Option<Var> = None;
        for block in &self.blocks {
            let out = self.sgd.forward(&h, t_f);
            fluct_sum = Some(match fluct_sum {
                Some(acc) => acc.add(&out.fluctuant_2d),
                None => out.fluctuant_2d,
            });
            h = block.forward(&out.regular, ctx);
        }
        // Residual reconstruction: start from the mean-filled input and
        // learn corrections — observed points only need the identity.
        let mut y = Var::constant(filled).add(&self.head.forward(&h, ctx));
        if let Some(f2d) = fluct_sum {
            let f1d = iwt(&f2d, &self.plans[0]);
            y = y.add(&self.head_fluct.forward(&f1d, ctx));
        }
        y
    }

    fn parameters(&self) -> Vec<Param> {
        let mut p = self.embed.params();
        for b in &self.blocks {
            p.extend(b.params());
        }
        p.extend(self.head.params());
        p.extend(self.head_fluct.params());
        p
    }

    fn name(&self) -> &str {
        "TS3Net"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TS3NetConfig;

    fn cfg() -> TS3NetConfig {
        let mut c = TS3NetConfig::scaled(2, 24, 24);
        c.lambda = 4;
        c.d_model = 4;
        c.d_hidden = 4;
        c.n_blocks = 1;
        c.dropout = 0.0; // deterministic loss for the training test
        c
    }

    fn masked_pair(b: usize, t: usize, c: usize) -> (Tensor, Tensor) {
        let mut x = Vec::new();
        for _ in 0..b {
            for ti in 0..t {
                for ci in 0..c {
                    x.push((std::f32::consts::TAU * ti as f32 / 8.0 + ci as f32).sin());
                }
            }
        }
        let x = Tensor::from_vec(x, &[b, t, c]);
        let mask = Tensor::from_vec(
            (0..b * t * c).map(|i| if i % 4 == 0 { 1.0 } else { 0.0 }).collect(),
            &[b, t, c],
        );
        let keep = mask.map(|m| 1.0 - m);
        (x.mul(&keep), mask)
    }

    #[test]
    fn impute_output_shape() {
        let model = TS3NetImputer::new(cfg(), 1);
        let (masked, mask) = masked_pair(2, 24, 2);
        let mut ctx = Ctx::eval();
        let y = model.impute(&masked, &mask, &mut ctx);
        assert_eq!(y.shape(), &[2, 24, 2]);
        assert!(y.value().all_finite());
    }

    #[test]
    fn imputer_trains_on_masked_loss() {
        let model = TS3NetImputer::new(cfg(), 2);
        let (masked, mask) = masked_pair(1, 24, 2);
        let target = {
            // Reconstruct the original (periodic) series.
            let mut x = Vec::new();
            for ti in 0..24 {
                for ci in 0..2 {
                    x.push((std::f32::consts::TAU * ti as f32 / 8.0 + ci as f32).sin());
                }
            }
            Tensor::from_vec(x, &[1, 24, 2])
        };
        let mut ctx = Ctx::train(0);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..10 {
            let loss = model
                .impute(&masked, &mask, &mut ctx)
                .masked_mse_loss(&target, &mask);
            if step == 0 {
                first = loss.value().item();
            }
            last = loss.value().item();
            for p in model.parameters() {
                p.zero_grad();
            }
            loss.backward();
            for p in model.parameters() {
                p.update_with(|v, g| v.axpy(-0.005, g));
            }
        }
        assert!(last < first, "masked loss {first} -> {last}");
    }

    #[test]
    fn parameters_are_nonempty_and_named() {
        let model = TS3NetImputer::new(cfg(), 3);
        let params = model.parameters();
        assert!(params.len() > 4);
        assert_eq!(model.name(), "TS3Net");
    }
}
