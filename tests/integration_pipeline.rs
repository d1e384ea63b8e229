//! Cross-crate integration tests: the full data -> decomposition ->
//! model -> training pipeline, exercised end-to-end at tiny scale.

use ts3_data::{spec_by_name, ForecastTask, Split};
use ts3_nn::{mse, Adam, Ctx, Optimizer};
use ts3_signal::{triple_decompose, TripleConfig};
use ts3_tensor::Tensor;
use ts3net_core::{Ablation, ForecastModel, TS3Net, TS3NetConfig};

fn tiny_cfg(c: usize, lookback: usize, horizon: usize) -> TS3NetConfig {
    let mut cfg = TS3NetConfig::scaled(c, lookback, horizon);
    cfg.lambda = 4;
    cfg.d_model = 4;
    cfg.d_hidden = 4;
    cfg.dropout = 0.0;
    cfg
}

fn tiny_task() -> ForecastTask {
    let mut spec = spec_by_name("ETTh1").unwrap();
    spec.len = 420;
    spec.dims = 2;
    let raw = spec.generate(9);
    ForecastTask::new(&raw, 32, 16, spec.split)
}

#[test]
fn end_to_end_training_reduces_test_error() {
    let task = tiny_task();
    let model = TS3Net::new(tiny_cfg(task.channels(), 32, 16), 1);
    let mut ctx = Ctx::train(0);
    let eval = |model: &TS3Net| {
        let mut ectx = Ctx::eval();
        let idx: Vec<usize> = (0..task.len(Split::Test).min(8)).collect();
        let (x, y) = task.batch(Split::Test, &idx);
        let pred = model.forecast(&x, &mut ectx);
        mse(pred.value(), &y)
    };
    let before = eval(&model);
    let mut opt = Adam::new(model.parameters(), 5e-3);
    for step in 0..30 {
        let batches = task.epoch_batches(Split::Train, 4, step, Some(1));
        let (x, y) = task.batch(Split::Train, &batches[0]);
        let loss = model.forecast(&x, &mut ctx).mse_loss(&y);
        opt.zero_grad();
        loss.backward();
        opt.clip_grad_norm(5.0);
        opt.step();
    }
    let after = eval(&model);
    assert!(
        after < before,
        "training did not reduce test error: {before} -> {after}"
    );
}

#[test]
fn training_is_deterministic_under_fixed_seed() {
    let task = tiny_task();
    let run = || {
        let model = TS3Net::new(tiny_cfg(task.channels(), 32, 16), 3);
        let mut opt = Adam::new(model.parameters(), 2e-3);
        let mut ctx = Ctx::train(5);
        for step in 0..4 {
            let batches = task.epoch_batches(Split::Train, 4, step, Some(1));
            let (x, y) = task.batch(Split::Train, &batches[0]);
            let loss = model.forecast(&x, &mut ctx).mse_loss(&y);
            opt.zero_grad();
            loss.backward();
            opt.step();
        }
        let mut ectx = Ctx::eval();
        let (x, _) = task.batch(Split::Test, &[0]);
        model.forecast(&x, &mut ectx).value().clone()
    };
    let a = run();
    let b = run();
    assert!(a.allclose(&b, 1e-6), "two identical runs diverged");
}

#[test]
fn decomposition_feeds_model_consistently() {
    // The model's internal trend split must agree with the library-level
    // triple decomposition on the same window.
    let task = tiny_task();
    let (x, _) = task.window(Split::Train, 0);
    let d = triple_decompose(
        &x,
        &TripleConfig { lambda: 4, ..Default::default() },
    );
    let xb = x.reshape(&[1, 32, task.channels()]);
    let (trend, seasonal) = ts3_signal::trend_decompose(
        &xb,
        &ts3_signal::decompose::DEFAULT_TREND_KERNELS,
    );
    assert!(trend
        .reshape(&[32, task.channels()])
        .allclose(&d.trend, 1e-4));
    assert!(seasonal
        .reshape(&[32, task.channels()])
        .allclose(&d.seasonal, 1e-4));
}

#[test]
fn full_model_beats_no_decomposition_ablation_on_fluctuant_data() {
    // On a series with strong amplitude modulation, the full TS3Net
    // should not do worse than the w/o-Both ablation after equal
    // training. (Weak form of the paper's Table VI claim at tiny scale.)
    let t_total = 360usize;
    let data: Vec<f32> = (0..t_total)
        .map(|t| {
            let tf = t as f32;
            let env = 1.0 + 0.8 * (std::f32::consts::TAU * tf / 90.0).sin();
            env * (std::f32::consts::TAU * tf / 12.0).sin() + 0.01 * tf
        })
        .collect();
    let raw = Tensor::from_vec(data, &[t_total, 1]);
    let task = ForecastTask::new(&raw, 32, 16, (0.6, 0.2, 0.2));
    let train_and_eval = |ablation: Ablation| {
        let model = TS3Net::new(tiny_cfg(1, 32, 16).with_ablation(ablation), 2);
        let mut opt = Adam::new(model.parameters(), 5e-3);
        let mut ctx = Ctx::train(1);
        for step in 0..15 {
            let batches = task.epoch_batches(Split::Train, 4, step, Some(1));
            let (x, y) = task.batch(Split::Train, &batches[0]);
            let loss = model.forecast(&x, &mut ctx).mse_loss(&y);
            opt.zero_grad();
            loss.backward();
            opt.step();
        }
        let mut ectx = Ctx::eval();
        let idx: Vec<usize> = (0..task.len(Split::Test).min(8)).collect();
        let (x, y) = task.batch(Split::Test, &idx);
        mse(model.forecast(&x, &mut ectx).value(), &y)
    };
    let full = train_and_eval(Ablation::FULL);
    let none = train_and_eval(Ablation::NO_BOTH);
    assert!(
        full < none * 1.5,
        "full model ({full}) collapsed relative to the ablation ({none})"
    );
}

#[test]
fn scaler_windows_and_metrics_compose() {
    // Metrics on standardized space match manual computation through the
    // whole pipeline.
    let task = tiny_task();
    let (x, y) = task.window(Split::Val, 1);
    assert_eq!(x.shape()[0], 32);
    assert_eq!(y.shape()[0], 16);
    let zero = Tensor::zeros(y.shape());
    let m = mse(&zero, &y);
    let manual: f32 =
        y.as_slice().iter().map(|v| v * v).sum::<f32>() / y.numel() as f32;
    assert!((m - manual).abs() < 1e-5);
}

#[test]
fn checkpoint_round_trips_a_trained_model() {
    use ts3_nn::Checkpoint;
    let task = tiny_task();
    let model = TS3Net::new(tiny_cfg(task.channels(), 32, 16), 8);
    let mut ctx = Ctx::train(0);
    let mut opt = Adam::new(model.parameters(), 2e-3);
    for step in 0..3 {
        let batches = task.epoch_batches(Split::Train, 4, step, Some(1));
        let (x, y) = task.batch(Split::Train, &batches[0]);
        let loss = model.forecast(&x, &mut ctx).mse_loss(&y);
        opt.zero_grad();
        loss.backward();
        opt.step();
    }
    let snapshot = Checkpoint::capture(&model.parameters()).expect("capture");
    let mut ectx = Ctx::eval();
    let (x, _) = task.batch(Split::Test, &[0]);
    let before = model.forecast(&x, &mut ectx).value().clone();
    // A fresh model with different seed restores to identical behavior.
    let fresh = TS3Net::new(tiny_cfg(task.channels(), 32, 16), 999);
    snapshot.restore(&fresh.parameters()).expect("restore");
    let after = fresh.forecast(&x, &mut ectx).value().clone();
    assert!(
        before.allclose(&after, 1e-6),
        "restored model diverges: {}",
        before.max_abs_diff(&after)
    );
}
