//! The full TS3Net forecaster (paper Algorithm 1 / Section III-D): triple
//! decomposition, stacked TF-Blocks with interleaved S-GD, and three
//! prediction heads whose outputs sum into the final forecast (Eq. 17).

use crate::config::TS3NetConfig;
use crate::heads::{Autoregression, PredictionHead};
use crate::ops::iwt;
use crate::sgd_layer::SgdLayer;
use crate::tf_block::{branch_plans, TfBlock};
use crate::traits::ForecastModel;
use ts3_rng::rngs::StdRng;
use ts3_rng::SeedableRng;
use std::rc::Rc;
use ts3_autograd::{Param, Var};
use ts3_nn::{Activation, Ctx, DataEmbedding, Mlp, Module};
use ts3_signal::decompose::DEFAULT_TREND_KERNELS;
use ts3_signal::{dominant_period, CwtPlan};
use ts3_tensor::{moving_avg_same, Tensor};

/// Compute the dominant period of a `[B, T, C]` batch by averaging FFT
/// amplitudes over batch and channels (Eq. 2's top-1).
pub fn batch_dominant_period(x: &Tensor) -> usize {
    let (b, t, c) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    // View as [T, B*C]: permute batch/channel lanes into columns.
    let flat = x.permute(&[1, 0, 2]).reshape(&[t, b * c]);
    dominant_period(&flat)
}

/// Multi-kernel moving-average trend split on a `[B, T, C]` batch
/// (Eq. 1), on plain tensors (the input is data, not a learned quantity).
pub fn batch_trend_split(x: &Tensor, kernels: &[usize]) -> (Tensor, Tensor) {
    let mut trend = Tensor::zeros(x.shape());
    for &k in kernels {
        trend.add_assign(&moving_avg_same(x, 1, k));
    }
    let trend = trend.div_scalar(kernels.len() as f32);
    let seasonal = x.sub(&trend);
    (trend, seasonal)
}

/// The TS3Net model.
pub struct TS3Net {
    /// Model configuration.
    pub cfg: TS3NetConfig,
    embed: DataEmbedding,
    plans: Vec<Rc<CwtPlan>>,
    sgd: SgdLayer,
    blocks: Vec<TfBlock>,
    mlp_blocks: Vec<Mlp>,
    regular_head: PredictionHead,
    fluct_head: PredictionHead,
    trend_head: Autoregression,
    display_name: String,
    /// Serving-timeline stage name of each backbone step (`block{l}`).
    block_stages: Vec<String>,
}

impl TS3Net {
    /// Build a TS3Net from its configuration, seeded deterministically.
    ///
    /// The effective number of sub-bands is clamped to `lookback / 6`:
    /// beyond that the largest-scale wavelets (support `8 * s_1 = 16
    /// lambda` samples) are entirely boundary-dominated for the window
    /// and only add noise — the short-lookback ILI setting is where this
    /// matters.
    pub fn new(mut cfg: TS3NetConfig, seed: u64) -> Self {
        cfg.lambda = cfg.lambda.min((cfg.lookback / 6).max(2));
        let mut rng = StdRng::seed_from_u64(seed);
        let plans = branch_plans(cfg.lookback, cfg.lambda, &cfg.branches);
        let embed = DataEmbedding::new("ts3.embed", cfg.c_in, cfg.d_model, cfg.dropout, &mut rng);
        let sgd = SgdLayer::new(plans[0].clone());
        let mut blocks = Vec::new();
        let mut mlp_blocks = Vec::new();
        for l in 0..cfg.n_blocks {
            if cfg.ablation.without_tf_block {
                mlp_blocks.push(Mlp::new(
                    &format!("ts3.mlp{l}"),
                    cfg.d_model,
                    cfg.d_model * 2,
                    cfg.d_model,
                    Activation::Gelu,
                    cfg.dropout,
                    &mut rng,
                ));
            } else {
                blocks.push(TfBlock::new(
                    &format!("ts3.block{l}"),
                    &plans,
                    cfg.d_model,
                    cfg.d_hidden,
                    &mut rng,
                ));
            }
        }
        let regular_head = PredictionHead::new(
            "ts3.head_r",
            cfg.lookback,
            cfg.horizon,
            cfg.d_model,
            cfg.c_in,
            &mut rng,
        );
        let fluct_head = PredictionHead::new(
            "ts3.head_f",
            cfg.lookback,
            cfg.horizon,
            cfg.d_model,
            cfg.c_in,
            &mut rng,
        );
        let trend_head = Autoregression::new(
            "ts3.head_t",
            cfg.lookback,
            cfg.horizon,
            cfg.lookback.max(32),
            &mut rng,
        );
        let display_name = match (cfg.ablation.without_td, cfg.ablation.without_tf_block) {
            (false, false) => "TS3Net".to_string(),
            (true, false) => "TS3Net w/o TD".to_string(),
            (false, true) => "TS3Net w/o TF-Block".to_string(),
            (true, true) => "TS3Net w/o Both".to_string(),
        };
        let block_stages = (0..cfg.n_blocks).map(|l| format!("block{l}")).collect();
        TS3Net {
            cfg,
            embed,
            plans,
            sgd,
            blocks,
            mlp_blocks,
            regular_head,
            fluct_head,
            trend_head,
            display_name,
            block_stages,
        }
    }

    /// Run the backbone (S-GD + TF-Blocks) on an embedded representation,
    /// returning the final features and the accumulated fluctuant parts.
    fn backbone(&self, h0: Var, t_f: usize, ctx: &mut Ctx) -> (Var, Option<Var>) {
        let mut h = h0;
        let mut fluct_sum: Option<Var> = None;
        for (l, stage) in self.block_stages.iter().enumerate() {
            let _tl = ts3_obs::stage_scope(stage);
            let h_in = if self.cfg.ablation.without_td {
                h.clone()
            } else {
                let out = self.sgd.forward(&h, t_f);
                fluct_sum = Some(match fluct_sum {
                    Some(acc) => acc.add(&out.fluctuant_2d),
                    None => out.fluctuant_2d,
                });
                out.regular
            };
            h = if self.cfg.ablation.without_tf_block {
                self.mlp_blocks[l].forward(&h_in, ctx).add(&h_in)
            } else {
                self.blocks[l].forward(&h_in, ctx)
            };
        }
        (h, fluct_sum)
    }

    /// The CWT plans (exposed for the imputer and diagnostics).
    pub fn plans(&self) -> &[Rc<CwtPlan>] {
        &self.plans
    }
}

impl ForecastModel for TS3Net {
    fn forecast(&self, x: &Tensor, ctx: &mut Ctx) -> Var {
        assert_eq!(x.rank(), 3, "TS3Net expects [B, T, C]");
        assert_eq!(x.shape()[1], self.cfg.lookback, "lookback mismatch");
        assert_eq!(x.shape()[2], self.cfg.c_in, "channel mismatch");
        let mut _s = ts3_obs::span("ts3net.forecast");
        if _s.active() {
            _s.field("b", x.shape()[0]);
            _s.field("lookback", self.cfg.lookback);
            _s.field("horizon", self.cfg.horizon);
            // Counts taped forecasts only: a served run (no-grad, inside
            // `CompiledPlan::run`) is counted by `plan.run.calls`.
            if ts3_autograd::is_recording() {
                ts3_obs::counter_add("ts3net.forecast.calls", 1);
            }
        }
        // Each `stage_scope` files one execute segment into the serving
        // timeline when a batch scope is open on this thread (a served
        // `CompiledPlan::run`); everywhere else it is a single gate load.
        if self.cfg.ablation.without_td {
            // Ablation: no decomposition at all — plain backbone + head.
            let h0 = {
                let _tl = ts3_obs::stage_scope("embed");
                self.embed.forward(&Var::constant(x.clone()), ctx)
            };
            let (h, _) = self.backbone(h0, 0, ctx);
            let _tl = ts3_obs::stage_scope("heads");
            return self.regular_head.forward(&h, ctx);
        }
        // (1) Trend decomposition (Eq. 1).
        let (trend, seasonal) = {
            let _tl = ts3_obs::stage_scope("trend_split");
            batch_trend_split(x, &DEFAULT_TREND_KERNELS)
        };
        // (2) Dominant sub-series length T_f (Eq. 2). Clamped to T/2: the
        // spectrum gradient needs u = T / T_f >= 2 sub-series to have any
        // chunk difference at all.
        let t_f = {
            let _tl = ts3_obs::stage_scope("select_t_f");
            self.cfg
                .t_f
                .unwrap_or_else(|| batch_dominant_period(&seasonal))
                .clamp(2, (self.cfg.lookback / 2).max(2))
        };
        // (3) Seasonal branch through the S-GD / TF-Block stack.
        let h0 = {
            let _tl = ts3_obs::stage_scope("embed");
            self.embed.forward(&Var::constant(seasonal), ctx)
        };
        let (h, fluct_sum) = self.backbone(h0, t_f, ctx);
        // (4) Heads (Eq. 14-16).
        let _tl = ts3_obs::stage_scope("heads");
        let y_regular = self.regular_head.forward(&h, ctx);
        let y_trend = self.trend_head.forward(&Var::constant(trend), ctx);
        let mut y = y_regular.add(&y_trend);
        if let Some(f2d) = fluct_sum {
            let f1d = iwt(&f2d, &self.plans[0]);
            let y_fluct = self.fluct_head.forward(&f1d, ctx);
            y = y.add(&y_fluct);
        }
        // (5) Eq. 17: sum of the three component forecasts.
        y
    }

    fn parameters(&self) -> Vec<Param> {
        let mut p = self.embed.params();
        for b in &self.blocks {
            p.extend(b.params());
        }
        for m in &self.mlp_blocks {
            p.extend(m.params());
        }
        p.extend(self.regular_head.params());
        if !self.cfg.ablation.without_td {
            p.extend(self.fluct_head.params());
            p.extend(self.trend_head.params());
        }
        p
    }

    fn name(&self) -> &str {
        &self.display_name
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ablation;

    fn small_cfg() -> TS3NetConfig {
        let mut cfg = TS3NetConfig::scaled(3, 24, 12);
        cfg.lambda = 4;
        cfg.d_model = 4;
        cfg.d_hidden = 4;
        cfg
    }

    fn batch(b: usize, t: usize, c: usize, seed: u64) -> Tensor {
        // Periodic + trend mixture so decomposition paths are exercised.
        let mut data = Vec::with_capacity(b * t * c);
        for bi in 0..b {
            for ti in 0..t {
                for ci in 0..c {
                    let tf = ti as f32 + seed as f32;
                    data.push(
                        0.02 * tf
                            + (std::f32::consts::TAU * tf / 8.0 + bi as f32 + ci as f32).sin(),
                    );
                }
            }
        }
        Tensor::from_vec(data, &[b, t, c])
    }

    #[test]
    fn forecast_shape() {
        let model = TS3Net::new(small_cfg(), 1);
        let mut ctx = Ctx::eval();
        let y = model.forecast(&batch(2, 24, 3, 0), &mut ctx);
        assert_eq!(y.shape(), &[2, 12, 3]);
        assert!(y.value().all_finite());
    }

    #[test]
    fn batch_dominant_period_finds_cycle() {
        let t = 48;
        let mut data = Vec::new();
        for _b in 0..2 {
            for ti in 0..t {
                data.push((std::f32::consts::TAU * ti as f32 / 12.0).sin());
            }
        }
        let x = Tensor::from_vec(data, &[2, t, 1]);
        assert_eq!(batch_dominant_period(&x), 12);
    }

    #[test]
    fn batch_trend_split_is_exact() {
        let x = batch(2, 30, 2, 3);
        let (trend, seasonal) = batch_trend_split(&x, &[13, 17]);
        assert!(trend.add(&seasonal).allclose(&x, 1e-4));
    }

    #[test]
    fn all_parameters_receive_gradients() {
        let model = TS3Net::new(small_cfg(), 2);
        let mut ctx = Ctx::train(0);
        let x = batch(1, 24, 3, 1);
        let target = Tensor::zeros(&[1, 12, 3]);
        let loss = model.forecast(&x, &mut ctx).mse_loss(&target);
        for p in model.parameters() {
            p.zero_grad();
        }
        loss.backward();
        for p in model.parameters() {
            assert!(p.grad_norm() > 0.0, "no gradient for {}", p.name());
        }
    }

    #[test]
    fn training_reduces_loss() {
        let model = TS3Net::new(small_cfg(), 3);
        let mut ctx = Ctx::train(0);
        let x = batch(2, 24, 3, 2);
        let target = batch(2, 12, 3, 9).mul_scalar(0.5);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..5 {
            let loss = model.forecast(&x, &mut ctx).mse_loss(&target);
            if step == 0 {
                first = loss.value().item();
            }
            last = loss.value().item();
            for p in model.parameters() {
                p.zero_grad();
            }
            loss.backward();
            for p in model.parameters() {
                p.update_with(|v, g| v.axpy(-0.01, g));
            }
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn ablations_build_and_run() {
        for ab in [Ablation::NO_TD, Ablation::NO_TF, Ablation::NO_BOTH] {
            let cfg = small_cfg().with_ablation(ab);
            let model = TS3Net::new(cfg, 4);
            let mut ctx = Ctx::eval();
            let y = model.forecast(&batch(1, 24, 3, 0), &mut ctx);
            assert_eq!(y.shape(), &[1, 12, 3], "{ab:?}");
            assert!(y.value().all_finite(), "{ab:?}");
        }
    }

    #[test]
    fn ablation_names_are_distinct() {
        let names: Vec<String> = [
            Ablation::FULL,
            Ablation::NO_TD,
            Ablation::NO_TF,
            Ablation::NO_BOTH,
        ]
        .iter()
        .map(|&ab| TS3Net::new(small_cfg().with_ablation(ab), 0).name().to_string())
        .collect();
        assert_eq!(names.len(), 4);
        for i in 0..4 {
            for j in i + 1..4 {
                assert_ne!(names[i], names[j]);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TS3Net::new(small_cfg(), 5);
        let b = TS3Net::new(small_cfg(), 5);
        let mut ctx1 = Ctx::eval();
        let mut ctx2 = Ctx::eval();
        let x = batch(1, 24, 3, 4);
        let ya = a.forecast(&x, &mut ctx1);
        let yb = b.forecast(&x, &mut ctx2);
        assert!(ya.value().allclose(yb.value(), 1e-6));
    }
}
