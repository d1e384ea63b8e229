//! **TimesNet** (Wu et al., ICLR 2023): fold the series by its top-k FFT
//! periods into 2-D (intra-period x inter-period) grids, learn with an
//! inception conv backbone, and aggregate the period branches weighted by
//! their FFT amplitudes. The paper's strongest general baseline and the
//! architecture TS3Net's TF-Block generalises.

use crate::config::BaselineConfig;
use ts3_rng::rngs::StdRng;
use ts3_rng::SeedableRng;
use ts3_autograd::{Param, Var};
use ts3_nn::{Ctx, DataEmbedding, InceptionBlock, Module};
use ts3_signal::topk_periods_multi;
use ts3_tensor::Tensor;
use ts3net_core::{ForecastModel, PredictionHead};

/// One TimesBlock: period folding + 2-D inception + amplitude-weighted
/// aggregation, with residual.
struct TimesBlock {
    conv: InceptionBlock,
    top_k: usize,
}

impl TimesBlock {
    fn forward(&self, x: &Var, ctx: &mut Ctx) -> Var {
        let (b, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        // Period detection on the current features (mean over batch &
        // feature lanes), treated as a data-dependent constant.
        let comps = topk_periods_multi(x.value(), self.top_k);
        let mut outs: Vec<Var> = Vec::new();
        let mut weights: Vec<f32> = Vec::new();
        for comp in &comps {
            let p = comp.period.clamp(2, t);
            let rows = t.div_ceil(p);
            let padded_len = rows * p;
            // Pad along time, fold to [B, D, rows, p].
            let h = if padded_len > t {
                x.pad_axis(1, 0, padded_len - t)
            } else {
                x.clone()
            };
            let grid = h
                .permute(&[0, 2, 1]) // [B, D, T']
                .reshape(&[b, d, rows, p]);
            let conv = self.conv.forward(&grid, ctx);
            let back = conv.reshape(&[b, d, padded_len]).permute(&[0, 2, 1]);
            outs.push(back.narrow(1, 0, t));
            weights.push(comp.amplitude.max(1e-6));
        }
        if outs.is_empty() {
            return x.clone();
        }
        // Amplitude-softmax aggregation (constants).
        let wmax = weights.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = weights.iter().map(|w| (w - wmax).exp()).collect();
        let z: f32 = exps.iter().sum();
        let mut agg: Option<Var> = None;
        for (o, w) in outs.iter().zip(exps) {
            let term = o.mul_scalar(w / z);
            agg = Some(match agg {
                Some(a) => a.add(&term),
                None => term,
            });
        }
        // ts3-lint: allow(no-unwrap-in-lib) top_k >= 1 guarantees at least one aggregated period
        agg.expect("nonempty").add(x)
    }
}

/// The TimesNet forecaster.
pub struct TimesNet {
    embed: DataEmbedding,
    blocks: Vec<TimesBlock>,
    head: PredictionHead,
    horizon: usize,
}

impl TimesNet {
    /// Build a TimesNet baseline (top-2 periods at the scaled profile).
    pub fn new(cfg: &BaselineConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let embed = DataEmbedding::new("timesnet.embed", cfg.c_in, cfg.d_model, cfg.dropout, &mut rng);
        let blocks = (0..cfg.layers)
            .map(|l| TimesBlock {
                conv: InceptionBlock::new(
                    &format!("timesnet.block{l}"),
                    cfg.d_model,
                    cfg.d_model,
                    &mut rng,
                ),
                top_k: 2,
            })
            .collect();
        let head = PredictionHead::new(
            "timesnet.head",
            cfg.lookback,
            cfg.horizon,
            cfg.d_model,
            cfg.c_in,
            &mut rng,
        );
        TimesNet { embed, blocks, head, horizon: cfg.horizon }
    }
}

impl ForecastModel for TimesNet {
    fn forecast(&self, x: &Tensor, ctx: &mut Ctx) -> Var {
        // Instance normalisation (the Non-stationary trick the official
        // TimesNet applies around its backbone).
        let horizon = self.horizon;
        let mean = x.mean_axis_keepdim(1);
        let std = x.sub(&mean).square().mean_axis_keepdim(1).add_scalar(1e-5).sqrt();
        let normed = x.sub(&mean).div(&std);
        let mut h = self.embed.forward(&Var::constant(normed), ctx);
        for block in &self.blocks {
            h = block.forward(&h, ctx);
        }
        let y = self.head.forward(&h, ctx);
        let mean_h = mean.repeat_axis(1, horizon);
        let std_h = std.repeat_axis(1, horizon);
        y.mul(&Var::constant(std_h)).add(&Var::constant(mean_h))
    }

    fn parameters(&self) -> Vec<Param> {
        let mut p = self.embed.params();
        for b in &self.blocks {
            p.extend(b.conv.params());
        }
        p.extend(self.head.params());
        p
    }

    fn name(&self) -> &str {
        "TimesNet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BaselineConfig {
        BaselineConfig::scaled(3, 24, 12)
    }

    fn periodic_batch() -> Tensor {
        let mut v = Vec::new();
        for bi in 0..2 {
            for ti in 0..24 {
                for ci in 0..3 {
                    v.push(
                        (std::f32::consts::TAU * ti as f32 / 8.0 + (bi + ci) as f32).sin(),
                    );
                }
            }
        }
        Tensor::from_vec(v, &[2, 24, 3])
    }

    #[test]
    fn timesnet_shape_and_finite() {
        let m = TimesNet::new(&cfg(), 1);
        let mut ctx = Ctx::eval();
        let y = m.forecast(&periodic_batch(), &mut ctx);
        assert_eq!(y.shape(), &[2, 12, 3]);
        assert!(y.value().all_finite());
        assert_eq!(m.name(), "TimesNet");
    }

    #[test]
    fn timesnet_gradients_flow() {
        let m = TimesNet::new(&cfg(), 2);
        let mut ctx = Ctx::train(0);
        let loss = m
            .forecast(&periodic_batch(), &mut ctx)
            .mse_loss(&Tensor::zeros(&[2, 12, 3]));
        for p in m.parameters() {
            p.zero_grad();
        }
        loss.backward();
        let live = m.parameters().iter().filter(|p| p.grad_norm() > 0.0).count();
        assert!(live > m.parameters().len() / 2, "{live}");
    }

    #[test]
    fn timesnet_trains() {
        let m = TimesNet::new(&cfg(), 3);
        let mut ctx = Ctx::train(0);
        let x = periodic_batch();
        let t = Tensor::zeros(&[2, 12, 3]);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..5 {
            let loss = m.forecast(&x, &mut ctx).mse_loss(&t);
            if step == 0 {
                first = loss.value().item();
            }
            last = loss.value().item();
            for p in m.parameters() {
                p.zero_grad();
            }
            loss.backward();
            for p in m.parameters() {
                p.update_with(|v, g| v.axpy(-0.02, g));
            }
        }
        assert!(last < first);
    }
}
