//! MLP/linear-family baselines: **DLinear** (Zeng et al., AAAI 2023) and
//! **LightTS** (Zhang et al., 2022).

use crate::config::BaselineConfig;
use ts3_rng::rngs::StdRng;
use ts3_rng::SeedableRng;
use ts3_autograd::{Param, Var};
use ts3_nn::{Activation, Ctx, Mlp, Module};
use ts3_tensor::{moving_avg_same, Tensor};
use ts3net_core::{ForecastModel, TimeLinear};

/// DLinear: decompose into trend (moving average, kernel 25) + remainder
/// and forecast each part with a single linear layer over the time axis.
pub struct DLinear {
    trend: TimeLinear,
    seasonal: TimeLinear,
    kernel: usize,
}

impl DLinear {
    /// Build a DLinear baseline.
    pub fn new(cfg: &BaselineConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        DLinear {
            trend: TimeLinear::new("dlinear.trend", cfg.lookback, cfg.horizon, &mut rng),
            seasonal: TimeLinear::new("dlinear.seasonal", cfg.lookback, cfg.horizon, &mut rng),
            kernel: 25.min(cfg.lookback | 1),
        }
    }
}

impl ForecastModel for DLinear {
    fn forecast(&self, x: &Tensor, ctx: &mut Ctx) -> Var {
        // Stage spans; inside a served batch they also file its timeline.
        let (trend, seasonal) = {
            let _stage = ts3_obs::stage("dlinear.decompose");
            let trend = moving_avg_same(x, 1, self.kernel);
            let seasonal = x.sub(&trend);
            (trend, seasonal)
        };
        let yt = {
            let _stage = ts3_obs::stage("dlinear.trend_linear");
            self.trend.forward(&Var::constant(trend), ctx)
        };
        let _stage = ts3_obs::stage("dlinear.seasonal_linear");
        let ys = self.seasonal.forward(&Var::constant(seasonal), ctx);
        yt.add(&ys)
    }

    fn parameters(&self) -> Vec<Param> {
        let mut p = self.trend.params();
        p.extend(self.seasonal.params());
        p
    }

    fn name(&self) -> &str {
        "DLinear"
    }
}

/// LightTS: light sampling-oriented MLPs. The lookback window is viewed
/// as a `[chunks, w]` grid; a **continuous** path applies a tiny shared
/// MLP over each contiguous chunk (local detail) and an **interval** path
/// applies a tiny shared MLP over each strided column (one sample per
/// chunk — the downsampled skeleton). Both paths stay "light": no
/// full-length dense layer ever touches the raw window, exactly the
/// sampling-oriented design of the original paper.
pub struct LightTS {
    continuous: Mlp,
    interval: Mlp,
    merge: TimeLinear,
    chunk: usize,
    lookback: usize,
}

impl LightTS {
    /// Build a LightTS baseline (chunk width 8 or smaller).
    pub fn new(cfg: &BaselineConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let chunk = 8.min(cfg.lookback).max(1);
        let n_chunks = cfg.lookback.div_ceil(chunk);
        LightTS {
            continuous: Mlp::new(
                "lightts.cont",
                chunk,
                chunk,
                chunk,
                Activation::Gelu,
                cfg.dropout,
                &mut rng,
            ),
            interval: Mlp::new(
                "lightts.int",
                n_chunks,
                n_chunks,
                n_chunks,
                Activation::Gelu,
                cfg.dropout,
                &mut rng,
            ),
            merge: TimeLinear::new("lightts.merge", cfg.lookback, cfg.horizon, &mut rng),
            chunk,
            lookback: cfg.lookback,
        }
    }
}

impl ForecastModel for LightTS {
    fn forecast(&self, x: &Tensor, ctx: &mut Ctx) -> Var {
        assert_eq!(x.shape()[1], self.lookback, "lookback mismatch");
        let (b, t, c) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let n_chunks = t.div_ceil(self.chunk);
        let padded_len = n_chunks * self.chunk;
        let xv = Var::constant(x.clone());
        let xt = xv.permute(&[0, 2, 1]); // [B, C, T]
        let xt = if padded_len > t {
            xt.pad_axis(2, 0, padded_len - t)
        } else {
            xt
        };
        // Continuous path: shared tiny MLP within each chunk.
        let grid = xt.reshape(&[b, c * n_chunks, self.chunk]);
        let cont = self
            .continuous
            .forward(&grid, ctx)
            .reshape(&[b, c, padded_len])
            .narrow(2, 0, t);
        // Interval path: shared tiny MLP across chunks at fixed offset.
        let cols = xt
            .reshape(&[b, c, n_chunks, self.chunk])
            .permute(&[0, 1, 3, 2]) // [B, C, w, chunks]
            .reshape(&[b, c * self.chunk, n_chunks]);
        let inter = self
            .interval
            .forward(&cols, ctx)
            .reshape(&[b, c, self.chunk, n_chunks])
            .permute(&[0, 1, 3, 2])
            .reshape(&[b, c, padded_len])
            .narrow(2, 0, t);
        let h = cont.add(&inter).permute(&[0, 2, 1]); // [B, T, C]
        self.merge.forward(&h, ctx)
    }

    fn parameters(&self) -> Vec<Param> {
        let mut p = self.continuous.params();
        p.extend(self.interval.params());
        p.extend(self.merge.params());
        p
    }

    fn name(&self) -> &str {
        "LightTS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BaselineConfig {
        BaselineConfig::scaled(3, 24, 12)
    }

    fn batch() -> Tensor {
        Tensor::randn(&[2, 24, 3], 1)
    }

    #[test]
    fn dlinear_shape_and_grad() {
        let m = DLinear::new(&cfg(), 1);
        let mut ctx = Ctx::eval();
        let y = m.forecast(&batch(), &mut ctx);
        assert_eq!(y.shape(), &[2, 12, 3]);
        let loss = y.square().sum();
        for p in m.parameters() {
            p.zero_grad();
        }
        loss.backward();
        assert!(m.parameters().iter().all(|p| p.grad_norm() > 0.0));
        assert_eq!(m.name(), "DLinear");
    }

    #[test]
    fn dlinear_learns_persistence() {
        // A constant series forecast: DLinear should fit quickly.
        let m = DLinear::new(&cfg(), 2);
        let x = Tensor::full(&[1, 24, 3], 2.0);
        let t = Tensor::full(&[1, 12, 3], 2.0);
        let mut ctx = Ctx::train(0);
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..40 {
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
                p.update_with(|v, g| v.axpy(-0.05, g));
            }
        }
        assert!(last < first * 0.2, "{first} -> {last}");
    }

    #[test]
    fn lightts_shape_and_grad() {
        let m = LightTS::new(&cfg(), 3);
        let mut ctx = Ctx::eval();
        let y = m.forecast(&batch(), &mut ctx);
        assert_eq!(y.shape(), &[2, 12, 3]);
        assert!(y.value().all_finite());
        let loss = y.square().sum();
        for p in m.parameters() {
            p.zero_grad();
        }
        loss.backward();
        assert!(m.parameters().iter().all(|p| p.grad_norm() > 0.0));
    }

    #[test]
    fn models_have_param_counts() {
        assert!(DLinear::new(&cfg(), 0).num_parameters() > 0);
        // LightTS is "light": its sampling MLPs are tiny, so it carries
        // fewer weights than DLinear's two full time-linear maps.
        assert!(LightTS::new(&cfg(), 0).num_parameters() < DLinear::new(&cfg(), 0).num_parameters());
    }
}
