//! Task-level model interfaces shared by TS3Net and every baseline.

use ts3_autograd::{Param, Var};
use ts3_nn::Ctx;
use ts3_tensor::Tensor;

/// A multivariate forecaster: `[B, T, C] -> [B, H, C]`.
pub trait ForecastModel {
    /// Produce the forecast as a graph node (so training and evaluation
    /// share one code path).
    fn forecast(&self, x: &Tensor, ctx: &mut Ctx) -> Var;

    /// Trainable parameters.
    fn parameters(&self) -> Vec<Param>;

    /// Display name for result tables.
    fn name(&self) -> &str;

    /// Total scalar weight count.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|p| p.numel()).sum()
    }
}

/// A pointwise imputer: reconstruct `[B, T, C]` from a masked input.
pub trait ImputationModel {
    /// Reconstruct the series. `masked` has hidden points zeroed; `mask`
    /// is 1 at hidden points.
    fn impute(&self, masked: &Tensor, mask: &Tensor, ctx: &mut Ctx) -> Var;

    /// Trainable parameters.
    fn parameters(&self) -> Vec<Param>;

    /// Display name for result tables.
    fn name(&self) -> &str;
}
