//! # ts3-bench
//!
//! Experiment harness for the TS3Net reproduction. The `ts3` binary
//! regenerates any table or figure of the paper's evaluation section
//! (`ts3 <experiment> [--smoke|--quick|--full] [dataset...]`); the pieces
//! live here:
//!
//! * [`experiments`] — the experiment table ([`EXPERIMENTS`]), the
//!   command-line parser ([`parse_args`]) and the dataset/horizon grids;
//! * [`profile`] — smoke / quick / full compute profiles;
//! * [`runner`] — the train/early-stop/evaluate loop (Adam, patience 3,
//!   MSE/MAE) for forecasting and imputation, with per-epoch `ts3-obs`
//!   events;
//! * [`report`] — aligned console tables + CSV/JSON persistence into
//!   `results/`, and the shared [`report::Progress`] reporter;
//! * [`manifest`] — the `results/<stem>.trace.json` run-manifest writer
//!   (active when `TS3_TRACE>=1`);
//! * [`timing`] — the wall-clock harness behind the opt-in `benches/`
//!   targets (`--features bench-harness`);
//! * [`viz`] — ASCII line plots and heat maps for the figures.

pub mod experiments;
pub mod manifest;
pub mod profile;
pub mod report;
pub mod runner;
pub mod timing;
pub mod viz;

pub use experiments::{
    cell_configs, horizons_for, lookback_for, paper_horizons, parse_args, run_forecast_cell, spec,
    sweep_horizons, Experiment, Run, EXPERIMENTS, TABLE4_DATASETS, TABLE5_DATASETS,
};
pub use manifest::{write_trace_manifest, TRACE_SCHEMA};
pub use profile::RunProfile;
pub use report::{csv_stem, fmt_metric, results_dir, save_result, workspace_root, Progress, Table};
pub use runner::{
    eval_forecaster, eval_imputer, mean_fill_baseline, persistence_baseline, prepare_task,
    train_forecaster, train_imputer, CellResult,
};
