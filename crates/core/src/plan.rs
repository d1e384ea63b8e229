//! Compiled inference plans: freeze a trained [`ForecastModel`] into
//! snapshotted weights plus its eager forward run without an autograd
//! tape.
//!
//! Training wants the tape; serving does not. A [`CompiledPlan`]
//! snapshots every parameter tensor and runs the model's own
//! [`ForecastModel::forecast`] under [`ts3_autograd::NoGradGuard`] — each
//! op returns a parentless leaf, so no graph, no backward closures, and
//! no per-call tape allocation exist on the serving path. Per-stage
//! serving timelines come from the `ts3_obs::stage_scope` seams inside
//! the eager forwards (TS3Net: `trend_split`, `select_t_f`, `embed`,
//! `block{l}`, `heads`; DLinear: `decompose`, `trend_linear`,
//! `seasonal_linear`).
//!
//! Two contracts, both enforced:
//!
//! * **Bitwise equivalence.** Every `Var` op computes its value eagerly
//!   before touching the tape, so suppressing the tape cannot change a
//!   single bit. [`CompiledPlan::freeze`] still *verifies* this on the
//!   calibration batch (guarding the weight swap and the no-grad guard)
//!   and refuses to build a plan whose output differs from the eager
//!   forward ([`PlanError::Diverged`]).
//! * **Frozen weights.** The plan owns a snapshot of every parameter and
//!   swaps it in (O(1) pointer swaps, no copies) around each execution,
//!   so a model that keeps training between plan runs does not perturb
//!   plans frozen earlier; re-freezing captures the new weights.
//!
//! ```
//! use std::rc::Rc;
//! use ts3net_core::{CompiledPlan, ForecastModel, TS3Net, TS3NetConfig};
//! use ts3_nn::Ctx;
//! use ts3_tensor::Tensor;
//!
//! let cfg = TS3NetConfig::scaled(/*channels*/ 2, /*lookback*/ 24, /*horizon*/ 12);
//! let model = TS3Net::new(cfg, /*seed*/ 0);
//! let calib = Tensor::randn(&[4, 24, 2], 1);
//! let eager = model.forecast(&calib, &mut Ctx::eval()).value().clone();
//!
//! let plan = CompiledPlan::freeze(Rc::new(model), &calib).unwrap();
//! let served = plan.run(&calib).unwrap();
//! assert_eq!(served.as_slice(), eager.as_slice()); // bitwise, not approximate
//! ```

use crate::traits::ForecastModel;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use ts3_autograd::{NoGradGuard, Param};
use ts3_nn::Ctx;
use ts3_tensor::Tensor;

/// Why a plan could not be built or executed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The input shape does not match the plan's frozen geometry.
    ShapeMismatch {
        /// `[lookback, c_in]` the plan was frozen for.
        expected: [usize; 2],
        /// The offending input shape.
        got: Vec<usize>,
    },
    /// The calibration batch is not a rank-3 `[B, T, C]` tensor.
    CalibShape {
        /// The offending calibration shape.
        got: Vec<usize>,
    },
    /// Freeze-time verification found the plan output differing from the
    /// eager forward at the same weights.
    Diverged {
        /// Largest absolute element difference observed.
        max_abs_diff: f32,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ShapeMismatch { expected, got } => write!(
                f,
                "plan expects [B, {}, {}] input, got {:?}",
                expected[0], expected[1], got
            ),
            PlanError::CalibShape { got } => {
                write!(f, "calibration batch must be [B, T, C], got {got:?}")
            }
            PlanError::Diverged { max_abs_diff } => write!(
                f,
                "compiled plan diverged from the eager forward (max |diff| = {max_abs_diff:e})"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Restores the swapped-in snapshot on drop, so a panicking forward cannot
/// leave frozen weights live in the shared parameters.
struct WeightSwap<'a> {
    snapshot: &'a mut [(Param, Tensor)],
}

impl<'a> WeightSwap<'a> {
    fn engage(snapshot: &'a mut [(Param, Tensor)]) -> WeightSwap<'a> {
        for (p, frozen) in snapshot.iter_mut() {
            p.swap_value(frozen);
        }
        WeightSwap { snapshot }
    }
}

impl Drop for WeightSwap<'_> {
    fn drop(&mut self) {
        // swap is its own inverse: this puts the live weights back.
        for (p, frozen) in self.snapshot.iter_mut() {
            p.swap_value(frozen);
        }
    }
}

/// A model frozen for inference: snapshotted weights plus the eager
/// forward under no-grad. Built by [`CompiledPlan::freeze`]; run with
/// [`CompiledPlan::run`]. `!Send` by construction (models are `Rc`-based
/// graphs); a serving layer owns plans on one executor thread.
pub struct CompiledPlan {
    model: Rc<dyn ForecastModel>,
    snapshot: RefCell<Vec<(Param, Tensor)>>,
    lookback: usize,
    c_in: usize,
    name: String,
}

impl CompiledPlan {
    /// Freeze `model` into a plan, verifying on `calib` (a representative
    /// `[B, T, C]` batch) that the plan's output is bitwise identical to
    /// the taped eager forward at the current weights.
    ///
    /// The model's parameters are snapshotted: training the model further
    /// does not change this plan's outputs.
    ///
    /// A calibration batch with `B == 0` still fixes the plan's
    /// `[lookback, c_in]` geometry but skips the self-check (there is
    /// nothing to compare). This is the cheap-refreeze path: a serving
    /// layer that swaps updated weights in and refreezes on a live
    /// executor thread can do so without paying a forward pass.
    pub fn freeze(model: Rc<dyn ForecastModel>, calib: &Tensor) -> Result<CompiledPlan, PlanError> {
        if calib.rank() != 3 {
            return Err(PlanError::CalibShape { got: calib.shape().to_vec() });
        }
        let mut span = ts3_obs::span("plan.freeze");
        if span.active() {
            span.field("model", model.name().to_string());
        }
        let snapshot: Vec<(Param, Tensor)> = model
            .parameters()
            .into_iter()
            .map(|p| {
                let frozen = p.value().clone();
                (p, frozen)
            })
            .collect();
        let plan = CompiledPlan {
            lookback: calib.shape()[1],
            c_in: calib.shape()[2],
            name: model.name().to_string(),
            model,
            snapshot: RefCell::new(snapshot),
        };
        if calib.shape()[0] == 0 {
            return Ok(plan);
        }
        // Reference output at the frozen weights, with the tape on — the
        // exact computation training and evaluation run.
        let eager = plan
            .model
            .forecast(calib, &mut Ctx::eval())
            .value()
            .clone();
        let served = plan.run(calib)?;
        if served.as_slice() != eager.as_slice() {
            let max_abs_diff = served
                .as_slice()
                .iter()
                .zip(eager.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            return Err(PlanError::Diverged { max_abs_diff });
        }
        Ok(plan)
    }

    /// Execute the plan on a `[B, lookback, c_in]` batch (any `B`).
    ///
    /// Swaps the frozen weights in, runs the eager forward under a
    /// [`NoGradGuard`], and swaps the live weights back — even if the
    /// forward panics.
    pub fn run(&self, x: &Tensor) -> Result<Tensor, PlanError> {
        if x.rank() != 3 || x.shape()[1] != self.lookback || x.shape()[2] != self.c_in {
            return Err(PlanError::ShapeMismatch {
                expected: [self.lookback, self.c_in],
                got: x.shape().to_vec(),
            });
        }
        let mut span = ts3_obs::span("plan.run");
        if span.active() {
            span.field("model", self.name.clone());
            span.field("b", x.shape()[0]);
            ts3_obs::counter_add("plan.run.calls", 1);
        }
        let mut snapshot = self.snapshot.borrow_mut();
        let _weights = WeightSwap::engage(&mut snapshot);
        let _no_grad = NoGradGuard::new();
        Ok(self.model.forecast(x, &mut Ctx::eval()).value().clone())
    }

    /// The frozen model's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The frozen model (parameters are shared with the live model, so
    /// a trainer can keep stepping them between freezes).
    pub fn model(&self) -> &dyn ForecastModel {
        &*self.model
    }

    /// `[lookback, c_in]` geometry the plan accepts.
    pub fn geometry(&self) -> [usize; 2] {
        [self.lookback, self.c_in]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TS3NetConfig;
    use crate::forecaster::TS3Net;

    fn small_model() -> TS3Net {
        let mut cfg = TS3NetConfig::scaled(2, 24, 12);
        cfg.lambda = 4;
        cfg.d_model = 4;
        cfg.d_hidden = 4;
        TS3Net::new(cfg, 3)
    }

    #[test]
    fn freeze_and_run_matches_eager_bitwise() {
        let model = small_model();
        let x = Tensor::randn(&[3, 24, 2], 11);
        let eager = model.forecast(&x, &mut Ctx::eval()).value().clone();
        let plan = CompiledPlan::freeze(Rc::new(model), &x).expect("freeze");
        let y = plan.run(&x).expect("run");
        assert_eq!(y.as_slice(), eager.as_slice());
    }

    #[test]
    fn run_rejects_wrong_geometry() {
        let plan =
            CompiledPlan::freeze(Rc::new(small_model()), &Tensor::randn(&[2, 24, 2], 0)).unwrap();
        let err = plan.run(&Tensor::randn(&[2, 48, 2], 0)).unwrap_err();
        assert!(matches!(err, PlanError::ShapeMismatch { .. }), "{err}");
        // Batch size is free.
        assert!(plan.run(&Tensor::randn(&[7, 24, 2], 0)).is_ok());
        // A calibration batch that is not [B, T, C] is a typed error,
        // not an index panic.
        let err = CompiledPlan::freeze(Rc::new(small_model()), &Tensor::randn(&[24, 2], 0))
            .err()
            .expect("rank-2 calib must be rejected");
        assert!(matches!(err, PlanError::CalibShape { .. }), "{err}");
    }

    #[test]
    fn frozen_weights_survive_training_updates() {
        let model = small_model();
        let x = Tensor::randn(&[2, 24, 2], 5);
        let params = model.parameters();
        let plan = CompiledPlan::freeze(Rc::new(model), &x).unwrap();
        let before = plan.run(&x).unwrap();
        // "Train": perturb every shared parameter.
        for p in &params {
            let bumped = p.value().map(|v| v + 0.125);
            p.set_value(bumped);
        }
        let after = plan.run(&x).unwrap();
        assert_eq!(before.as_slice(), after.as_slice(), "plan must use frozen weights");
        // And the live weights are restored after each run (swap-out).
        let eager_now = plan.model().forecast(&x, &mut Ctx::eval()).value().clone();
        assert_ne!(eager_now.as_slice(), before.as_slice());
    }
}
