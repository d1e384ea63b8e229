//! Imputation adapter: turn any forecaster with `horizon == lookback`
//! into a pointwise imputer by mean-filling the hidden positions and
//! reconstructing the full window — the protocol TimesNet uses to run
//! forecasting architectures on the imputation benchmark.

use ts3_autograd::{Param, Var};
use ts3_nn::Ctx;
use ts3_tensor::Tensor;
use ts3net_core::{ForecastModel, ImputationModel};

/// Wraps a `T -> T` forecaster as an imputer.
pub struct ReconstructionAdapter {
    inner: Box<dyn ForecastModel>,
}

impl ReconstructionAdapter {
    /// Wrap a forecaster whose horizon equals its lookback.
    pub fn new(inner: Box<dyn ForecastModel>) -> Self {
        ReconstructionAdapter { inner }
    }

    /// Access the wrapped model.
    pub fn inner(&self) -> &dyn ForecastModel {
        &*self.inner
    }
}

/// Mean-fill hidden positions per (batch, channel) from observed values
/// (re-export of the canonical helper in `ts3_nn::metrics`).
pub use ts3_nn::mean_fill;

impl ImputationModel for ReconstructionAdapter {
    fn impute(&self, masked: &Tensor, mask: &Tensor, ctx: &mut Ctx) -> Var {
        let filled = mean_fill(masked, mask);
        let y = self.inner.forecast(&filled, ctx);
        assert_eq!(
            y.shape(),
            masked.shape(),
            "ReconstructionAdapter requires horizon == lookback (model {})",
            self.inner.name()
        );
        y
    }

    fn parameters(&self) -> Vec<Param> {
        self.inner.parameters()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BaselineConfig;
    use crate::linear_models::DLinear;

    #[test]
    fn mean_fill_uses_observed_mean() {
        let x = Tensor::from_vec(vec![1.0, 0.0, 3.0], &[1, 3, 1]);
        let mask = Tensor::from_vec(vec![0.0, 1.0, 0.0], &[1, 3, 1]);
        let f = mean_fill(&x, &mask);
        assert_eq!(f.at(&[0, 1, 0]), 2.0);
        assert_eq!(f.at(&[0, 0, 0]), 1.0);
    }

    #[test]
    fn mean_fill_all_masked_channel_is_zero() {
        let x = Tensor::zeros(&[1, 2, 1]);
        let mask = Tensor::ones(&[1, 2, 1]);
        let f = mean_fill(&x, &mask);
        assert_eq!(f.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn adapter_reconstructs_full_window() {
        let cfg = BaselineConfig::scaled(2, 16, 16);
        let m = ReconstructionAdapter::new(Box::new(DLinear::new(&cfg, 1)));
        let x = Tensor::randn(&[1, 16, 2], 1);
        let mask = Tensor::zeros(&[1, 16, 2]);
        let mut ctx = Ctx::eval();
        let y = m.impute(&x, &mask, &mut ctx);
        assert_eq!(y.shape(), &[1, 16, 2]);
        assert_eq!(m.name(), "DLinear");
        assert!(!m.parameters().is_empty());
    }

    #[test]
    #[should_panic(expected = "horizon == lookback")]
    fn adapter_rejects_mismatched_horizon() {
        let cfg = BaselineConfig::scaled(2, 16, 8);
        let m = ReconstructionAdapter::new(Box::new(DLinear::new(&cfg, 1)));
        let x = Tensor::zeros(&[1, 16, 2]);
        let mask = Tensor::zeros(&[1, 16, 2]);
        let mut ctx = Ctx::eval();
        let _ = m.impute(&x, &mask, &mut ctx);
    }
}
