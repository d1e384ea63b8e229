//! Harness integration tests: every (dataset, horizon) combination of
//! the paper's grid must produce a well-formed task even at smoke scale,
//! and the training loop must beat naive references where learning is
//! possible.

use ts3_bench::{
    lookback_for, paper_horizons, persistence_baseline, prepare_task, run_forecast_cell,
    RunProfile, TABLE4_DATASETS,
};
use ts3_data::{spec_by_name, Split};

#[test]
fn every_dataset_horizon_pair_windows_cleanly() {
    // Includes the paper's longest horizon (720), which forces the
    // length floor logic in prepare_task.
    let profile = RunProfile::smoke();
    for dataset in TABLE4_DATASETS {
        let spec = spec_by_name(dataset).unwrap();
        let lookback = lookback_for(dataset);
        for h in paper_horizons(dataset) {
            let task = prepare_task(&spec, lookback, h, &profile);
            for split in [Split::Train, Split::Val, Split::Test] {
                assert!(
                    task.len(split) >= 1,
                    "{dataset} H={h}: empty {split:?} split"
                );
            }
            let (x, y) = task.window(Split::Test, 0);
            assert_eq!(x.shape(), &[lookback, task.channels()]);
            assert_eq!(y.shape(), &[h, task.channels()]);
        }
    }
}

#[test]
fn trained_linear_model_beats_persistence_on_periodic_data() {
    let mut profile = RunProfile::smoke();
    profile.max_train_batches = Some(12);
    profile.epochs = 2;
    let spec = spec_by_name("Electricity").unwrap();
    let task = prepare_task(&spec, 96, 96, &profile);
    let floor = persistence_baseline(&task, &profile);
    let trained = run_forecast_cell("DLinear", "Electricity", 96, &profile);
    assert!(
        trained.mse < floor.mse,
        "DLinear ({}) should beat persistence ({}) on strongly periodic data",
        trained.mse,
        floor.mse
    );
}

#[test]
fn profile_is_the_first_flag_preset_unmodified() {
    // The first profile flag, wherever it sits among the positional
    // arguments, picks the preset; nothing overrides its fields.
    for (flag, preset) in [
        ("--smoke", RunProfile::smoke()),
        ("--quick", RunProfile::quick()),
        ("--full", RunProfile::full()),
    ] {
        let args: Vec<String> =
            ["table4", flag, "ETTh1", "--smoke"].iter().map(|a| a.to_string()).collect();
        let p = RunProfile::from_args(&args);
        assert_eq!(p.name, preset.name);
        assert_eq!(p.epochs, preset.epochs);
        assert_eq!(p.lr.to_bits(), preset.lr.to_bits());
        assert_eq!(p.max_train_batches, preset.max_train_batches);
    }
}

#[test]
fn cell_runner_is_deterministic() {
    let profile = RunProfile::smoke();
    let a = run_forecast_cell("DLinear", "ETTh1", 24, &profile);
    let b = run_forecast_cell("DLinear", "ETTh1", 24, &profile);
    assert_eq!(a.mse, b.mse);
    assert_eq!(a.mae, b.mae);
}
