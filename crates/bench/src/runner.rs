//! The train/evaluate protocol shared by every experiment. One fit loop
//! (`fit`: Adam with the paper's halving schedule, early stopping on
//! validation MSE) trains both forecasters and imputers, and one scoring
//! loop (`score`: batch-weighted MSE/MAE over a split) backs both
//! evaluators and both reference baselines. The public functions differ
//! only in the batch loss, the per-batch metric and their seeds.

use crate::profile::RunProfile;
use ts3_autograd::{Param, Var};
use ts3_data::{mask_batch, ForecastTask, SeriesSpec, Split};
use ts3_nn::{lr_type1, mae, masked_mae, masked_mse, mse, Adam, Average, Ctx, Optimizer};
use ts3_tensor::Tensor;
use ts3net_core::{ForecastModel, ImputationModel};

/// Result of one (model, dataset, horizon) cell.
#[derive(Debug, Clone, Copy)]
pub struct CellResult {
    /// Test mean squared error.
    pub mse: f32,
    /// Test mean absolute error.
    pub mae: f32,
}

/// Prepare a forecasting task from a dataset spec under a profile:
/// generate (or load) the raw series, cap wide channel counts, and window
/// it.
pub fn prepare_task(
    spec: &SeriesSpec,
    lookback: usize,
    horizon: usize,
    profile: &RunProfile,
) -> ForecastTask {
    let mut spec = spec.clone();
    // Every split must host at least one (lookback + horizon) window; the
    // validation/test regions are extended backwards by `lookback`, so
    // they need `horizon + 1` own points. Add 30% margin for real
    // batches.
    let (ft, fv, fte) = spec.split;
    let needed = [
        (lookback + horizon + 1) as f32 / ft,
        (horizon + 1) as f32 / fv,
        (horizon + 1) as f32 / fte,
    ]
    .into_iter()
    .fold(0.0f32, f32::max)
        * 1.3;
    spec.len = ((spec.len as f32 * profile.data_scale) as usize).max(needed.ceil() as usize);
    let raw = match ts3_data::try_load_benchmark(spec.name) {
        Some(real) => real,
        None => spec.generate(profile.seed),
    };
    let raw = if raw.shape()[1] > profile.max_channels {
        raw.narrow(1, 0, profile.max_channels)
    } else {
        raw
    };
    ForecastTask::new(&raw, lookback, horizon, spec.split)
}

/// Evaluate a forecaster on one split.
pub fn eval_forecaster(
    model: &dyn ForecastModel,
    task: &ForecastTask,
    split: Split,
    profile: &RunProfile,
) -> CellResult {
    let _s = ts3_obs::span("bench.eval_forecaster");
    let mut ctx = Ctx::eval();
    score(task, split, profile, |_, x, y| {
        let pred = model.forecast(&x, &mut ctx);
        (mse(pred.value(), &y), mae(pred.value(), &y))
    })
}

/// Train a forecaster with early stopping and return test metrics.
pub fn train_forecaster(
    model: &dyn ForecastModel,
    task: &ForecastTask,
    profile: &RunProfile,
) -> CellResult {
    let mut _s = ts3_obs::span("bench.train_forecaster");
    if _s.active() {
        _s.field("epochs", profile.epochs);
        _s.field("lr", profile.lr);
    }
    fit(
        model.parameters(),
        task,
        profile,
        |epoch| profile.seed + epoch as u64,
        |_, _, idx, ctx| {
            let (x, y) = task.batch(Split::Train, idx);
            model.forecast(&x, ctx).mse_loss(&y)
        },
        || eval_forecaster(model, task, Split::Val, profile).mse,
    );
    eval_forecaster(model, task, Split::Test, profile)
}

/// Evaluate an imputer on one split at a mask ratio.
pub fn eval_imputer(
    model: &dyn ImputationModel,
    task: &ForecastTask,
    split: Split,
    ratio: f32,
    profile: &RunProfile,
) -> CellResult {
    let _s = ts3_obs::span("bench.eval_imputer");
    let mut ctx = Ctx::eval();
    score(task, split, profile, |bi, x, _| {
        let mb = mask_batch(&x, ratio, profile.seed + bi as u64);
        let pred = model.impute(&mb.masked, &mb.mask, &mut ctx);
        (
            masked_mse(pred.value(), &mb.target, &mb.mask),
            masked_mae(pred.value(), &mb.target, &mb.mask),
        )
    })
}

/// Train an imputer at a mask ratio and return masked test metrics.
pub fn train_imputer(
    model: &dyn ImputationModel,
    task: &ForecastTask,
    ratio: f32,
    profile: &RunProfile,
) -> CellResult {
    let mut _s = ts3_obs::span("bench.train_imputer");
    if _s.active() {
        _s.field("epochs", profile.epochs);
        _s.field("lr", profile.lr);
        _s.field("ratio", ratio);
    }
    fit(
        model.parameters(),
        task,
        profile,
        |epoch| profile.seed + 31 * epoch as u64,
        |epoch, bi, idx, ctx| {
            let (x, _) = task.batch(Split::Train, idx);
            let mb = mask_batch(&x, ratio, profile.seed + (epoch * 1000 + bi) as u64);
            model.impute(&mb.masked, &mb.mask, ctx).masked_mse_loss(&mb.target, &mb.mask)
        },
        || eval_imputer(model, task, Split::Val, ratio, profile).mse,
    );
    eval_imputer(model, task, Split::Test, ratio, profile)
}

/// Mean-fill reference error for imputation (the "do nothing smart"
/// floor used in sanity tests).
pub fn mean_fill_baseline(task: &ForecastTask, ratio: f32, profile: &RunProfile) -> CellResult {
    score(task, Split::Test, profile, |bi, x, _| {
        let mb = mask_batch(&x, ratio, profile.seed + bi as u64);
        let filled = ts3_baselines::mean_fill(&mb.masked, &mb.mask);
        (
            masked_mse(&filled, &mb.target, &mb.mask),
            masked_mae(&filled, &mb.target, &mb.mask),
        )
    })
}

/// Persistence (repeat-last-value) forecasting reference.
pub fn persistence_baseline(task: &ForecastTask, profile: &RunProfile) -> CellResult {
    score(task, Split::Test, profile, |_, x, y| {
        let last = x.narrow(1, x.shape()[1] - 1, 1);
        let pred: Tensor = last.repeat_axis(1, task.horizon);
        (mse(&pred, &y), mae(&pred, &y))
    })
}

/// The paper's training protocol, written once: Adam from `profile.lr`,
/// halved each epoch (`lr_type1`), gradient norms clipped at 5, and
/// early stopping once `val_mse()` has not beaten its best by 1e-6 for
/// `profile.patience` epochs in a row. Epoch `e` walks the train
/// batches shuffled with seed `shuffle_seed(e)`, and
/// `batch_loss(e, bi, idx, ctx)` is batch `bi`'s loss. Emits one
/// `epoch` event per epoch and one `early_stop` event at the end.
fn fit(
    params: Vec<Param>,
    task: &ForecastTask,
    profile: &RunProfile,
    shuffle_seed: impl Fn(usize) -> u64,
    mut batch_loss: impl FnMut(usize, usize, &[usize], &mut Ctx) -> Var,
    mut val_mse: impl FnMut() -> f32,
) {
    let mut opt = Adam::new(params, profile.lr);
    let mut ctx = Ctx::train(profile.seed);
    let mut best_val = f32::INFINITY;
    let mut bad_epochs = 0usize;
    let mut stop_reason = "epochs_exhausted";
    let mut stop_epoch = 0usize;
    for epoch in 0..profile.epochs {
        stop_epoch = epoch;
        let lr = lr_type1(profile.lr, epoch);
        opt.set_lr(lr);
        let batches = task.epoch_batches(
            Split::Train,
            profile.batch_size,
            shuffle_seed(epoch),
            profile.max_train_batches,
        );
        let mut train_loss = Average::new();
        for (bi, idx) in batches.iter().enumerate() {
            let loss = batch_loss(epoch, bi, idx, &mut ctx);
            train_loss.push_weighted(loss.value().item(), idx.len() as f32);
            opt.zero_grad();
            loss.backward();
            opt.clip_grad_norm(5.0);
            opt.step();
        }
        let val = val_mse();
        if val < best_val - 1e-6 {
            best_val = val;
            bad_epochs = 0;
        } else {
            bad_epochs += 1;
        }
        ts3_obs::event("epoch", |f| {
            f.set("epoch", epoch);
            f.set("loss", train_loss.mean());
            f.set("lr", lr);
            f.set("val_mse", val);
            f.set("bad_epochs", bad_epochs);
        });
        if bad_epochs >= profile.patience {
            stop_reason = "patience"; // early stopping (paper: patience 3)
            break;
        }
    }
    ts3_obs::event("early_stop", |f| {
        f.set("reason", stop_reason);
        f.set("epoch", stop_epoch);
        f.set("best_val", best_val);
    });
}

/// The one scoring loop: the first `profile.max_eval_batches` batches
/// of `split` in order, each scored `(mse, mae)` by `batch(bi, x, y)`
/// and averaged weighted by batch size.
fn score(
    task: &ForecastTask,
    split: Split,
    profile: &RunProfile,
    mut batch: impl FnMut(usize, Tensor, Tensor) -> (f32, f32),
) -> CellResult {
    let mut m1 = Average::new();
    let mut m2 = Average::new();
    let batches = task.epoch_batches(split, profile.batch_size, 0, profile.max_eval_batches);
    for (bi, idx) in batches.iter().enumerate() {
        let (x, y) = task.batch(split, idx);
        let (mse, mae) = batch(bi, x, y);
        m1.push_weighted(mse, idx.len() as f32);
        m2.push_weighted(mae, idx.len() as f32);
    }
    CellResult { mse: m1.mean(), mae: m2.mean() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_baselines::{BaselineConfig, DLinear};
    use ts3_data::spec_by_name;

    #[test]
    fn prepare_task_caps_channels_and_scales_length() {
        let spec = spec_by_name("Electricity").unwrap();
        let profile = RunProfile::smoke();
        let task = prepare_task(&spec, 24, 12, &profile);
        assert!(task.channels() <= profile.max_channels);
        assert!(!task.is_empty(Split::Test));
    }

    #[test]
    fn train_forecaster_beats_untrained() {
        let spec = spec_by_name("ETTh1").unwrap();
        let mut profile = RunProfile::smoke();
        profile.max_train_batches = Some(10);
        profile.epochs = 2;
        let task = prepare_task(&spec, 24, 12, &profile);
        let cfg = BaselineConfig::scaled(task.channels(), 24, 12);
        let model = DLinear::new(&cfg, 7);
        let before = eval_forecaster(&model, &task, Split::Test, &profile);
        let after = train_forecaster(&model, &task, &profile);
        assert!(
            after.mse < before.mse,
            "training did not help: {} -> {}",
            before.mse,
            after.mse
        );
    }

    #[test]
    fn persistence_baseline_is_finite() {
        let spec = spec_by_name("Exchange").unwrap();
        let profile = RunProfile::smoke();
        let task = prepare_task(&spec, 24, 12, &profile);
        let r = persistence_baseline(&task, &profile);
        assert!(r.mse.is_finite() && r.mae.is_finite());
        assert!(r.mse > 0.0);
    }

    #[test]
    fn mean_fill_baseline_is_finite() {
        let spec = spec_by_name("ETTh1").unwrap();
        let profile = RunProfile::smoke();
        let task = prepare_task(&spec, 24, 24, &profile);
        let r = mean_fill_baseline(&task, 0.25, &profile);
        assert!(r.mse.is_finite());
        assert!(r.mse > 0.0);
    }
}
