//! The paper's evaluation section as data: every table and figure is one
//! [`Experiment`] in [`EXPERIMENTS`], run by the `ts3` binary as
//! `ts3 <experiment> [--smoke|--quick|--full] [dataset…]`. The entries
//! sit on three shared shapes — the model grid (Tables IV, V), the sweep
//! grid (Tables VI–IX) and the forecast showcase (Figs. 3, 4) — while
//! Tables II, III and Fig. 5 are small bespoke entries. Also here: the
//! dataset/horizon grids and the one-call forecasting cell.

use crate::profile::RunProfile;
use crate::report::{csv_stem, fmt_metric, save_result, Progress, Table};
use crate::runner::{eval_imputer, prepare_task, train_forecaster, train_imputer, CellResult};
use crate::viz::{downsample_grid, heat_map, line_plot};
use std::io;
use ts3_baselines::{build_forecaster, build_imputer, BaselineConfig, TABLE4_MODELS};
use ts3_data::{inject_noise, spec_by_name, ForecastTask, SeriesSpec, Split};
use ts3_nn::Ctx;
use ts3_signal::{triple_decompose, TripleConfig};
use ts3_tensor::Tensor;
use ts3net_core::{ForecastModel, TS3NetConfig};

/// The forecasting benchmark list of Table IV (ILI uses lookback 36 and
/// short horizons, everything else lookback 96).
pub const TABLE4_DATASETS: [&str; 9] = [
    "ETTm1", "ETTm2", "ETTh1", "ETTh2", "Electricity", "Traffic", "Weather", "Exchange", "ILI",
];

/// The imputation benchmark list of Table V.
pub const TABLE5_DATASETS: [&str; 5] = ["ETTm1", "ETTm2", "ETTh1", "ETTh2", "Weather"];

/// Lookback for a dataset (paper: 36 for ILI, 96 otherwise).
pub fn lookback_for(dataset: &str) -> usize {
    if dataset == "ILI" {
        36
    } else {
        96
    }
}

/// The paper's horizon grid for a dataset.
pub fn paper_horizons(dataset: &str) -> Vec<usize> {
    if dataset == "ILI" {
        vec![24, 36, 48, 60]
    } else {
        vec![96, 192, 336, 720]
    }
}

/// The horizon grid actually run under a profile (quick trims to the
/// ends of the range; full runs the paper grid).
pub fn horizons_for(dataset: &str, profile: &RunProfile) -> Vec<usize> {
    let all = paper_horizons(dataset);
    match profile.name {
        "smoke" => vec![all[0]],
        "quick" => vec![all[0], all[2]],
        _ => all,
    }
}

/// Horizon grid for the TS3Net-only sweep tables (VIII, IX): these grids
/// multiply rows x rhos/lambdas, so `quick` keeps a single horizon
/// (use `--full` for the paper grid).
pub fn sweep_horizons(dataset: &str, profile: &RunProfile) -> Vec<usize> {
    let all = horizons_for(dataset, profile);
    if profile.name == "quick" {
        vec![all[0]]
    } else {
        all
    }
}

/// Build the per-cell model configurations for a dataset with `c`
/// channels under a profile.
pub fn cell_configs(
    c: usize,
    lookback: usize,
    horizon: usize,
    profile: &RunProfile,
) -> (BaselineConfig, TS3NetConfig) {
    if profile.name == "full" {
        let mut ts3 = TS3NetConfig::scaled(c, lookback, horizon);
        ts3.lambda = 12;
        ts3.d_model = TS3NetConfig::paper_d_model(c, 8, 32);
        (BaselineConfig::scaled(c, lookback, horizon), ts3)
    } else {
        (
            BaselineConfig::scaled(c, lookback, horizon),
            TS3NetConfig::scaled(c, lookback, horizon),
        )
    }
}

/// Dataset spec by name (panics on unknown — the lists above are fixed).
pub fn spec(dataset: &str) -> SeriesSpec {
    // ts3-lint: allow(no-unwrap-in-lib) dataset names come from the fixed spec list; unknown names are a documented # Panics contract
    spec_by_name(dataset).unwrap_or_else(|| panic!("unknown dataset `{dataset}`"))
}

/// Train + evaluate one (model, dataset, horizon) forecasting cell.
pub fn run_forecast_cell(
    model_name: &str,
    dataset: &str,
    horizon: usize,
    profile: &RunProfile,
) -> CellResult {
    let task = prepare_task(&spec(dataset), lookback_for(dataset), horizon, profile);
    fit(model_name, &task, profile, None).1
}

/// Build `model_name` sized for `task` and train it; `lambda` overrides
/// TS3Net's sub-band count.
fn fit(
    model_name: &str,
    task: &ForecastTask,
    profile: &RunProfile,
    lambda: Option<usize>,
) -> (Box<dyn ForecastModel>, CellResult) {
    let (cfg, mut ts3) = cell_configs(task.channels(), task.lookback, task.horizon, profile);
    if let Some(lambda) = lambda {
        ts3 = ts3.with_lambda(lambda);
    }
    let model = build_forecaster(model_name, &cfg, &ts3, profile.seed);
    let r = train_forecaster(model.as_ref(), task, profile);
    (model, r)
}

/// What an experiment produced: a table for the harness to render and
/// persist, or `None` when it wrote its own files (the figures).
type Outcome = io::Result<Option<Table>>;

type Runner = fn(&Run, &Progress) -> Outcome;

/// One table or figure of the paper's evaluation section.
#[derive(Debug)]
pub struct Experiment {
    /// CLI name, also the `results/` file stem.
    pub name: &'static str,
    /// Banner headline.
    pub title: &'static str,
    /// Datasets a positional argument may select; empty when the
    /// experiment takes no dataset arguments.
    pub filter: &'static [&'static str],
    run: Runner,
}

/// An experiment that takes no dataset arguments.
const fn exp(name: &'static str, title: &'static str, run: Runner) -> Experiment {
    Experiment { name, title, filter: &[], run }
}

/// Every experiment `ts3` runs, in paper order.
pub const EXPERIMENTS: [Experiment; 11] = [
    exp("table2", "Table II (dataset descriptions)", table2),
    exp("table3", "Table III (experiment configuration)", table3),
    Experiment {
        filter: &TABLE4_DATASETS,
        ..exp("table4", "Table IV (long-term forecasting)", table4)
    },
    exp("table5", "Table V (imputation, length-96 windows)", table5),
    exp("table6", "Table VI (architecture ablations)", table6),
    exp("table7", "Table VII (triple vs trend-seasonal decomposition)", table7),
    exp("table8", "Table VIII (noise robustness)", table8),
    exp(
        "table9",
        "Table IX (lambda sensitivity; paper {50,100,150,200} -> scaled {4,8,12,16})",
        table9,
    ),
    exp("fig3", "fig3 (ETTm1 forecast showcase)", |run, progress| {
        forecast_figure(run, progress, "ETTm1", false)
    }),
    exp("fig4", "fig4 (ETTm2 OT forecast showcase)", |run, progress| {
        forecast_figure(run, progress, "ETTm2", true)
    }),
    exp("fig5", "fig5 (triple decomposition visualisation)", fig5),
];

/// A parsed `ts3` command line: which experiment, under which profile,
/// on which datasets.
#[derive(Debug)]
pub struct Run {
    /// The experiment to run.
    pub experiment: &'static Experiment,
    /// The compute profile (`--smoke` / `--quick` / `--full`, else quick).
    pub profile: RunProfile,
    /// Datasets selected by positional arguments (empty: all of them).
    pub datasets: Vec<&'static str>,
}

impl Run {
    /// The `results/` stem of this run (see [`csv_stem`]).
    pub fn stem(&self) -> String {
        csv_stem(self.experiment.name, self.profile.name)
    }

    /// Run the experiment: banner, progress lines, then the rendered
    /// table with its CSV/JSON files and, when tracing, the manifest.
    /// Fails if any result file cannot be written.
    pub fn execute(&self) -> io::Result<()> {
        let progress = Progress::new();
        progress.banner(self.experiment.title, &self.profile);
        let name = self.experiment.name;
        match (self.experiment.run)(self, &progress)? {
            Some(table) => progress.finish_table(&table, name, &self.profile),
            None => progress.finish_trace(name, &self.profile),
        }
    }

    /// `all`, narrowed to the datasets named on the command line.
    fn selected(&self, all: &[&'static str]) -> Vec<&'static str> {
        all.iter()
            .copied()
            .filter(|d| self.datasets.is_empty() || self.datasets.contains(d))
            .collect()
    }
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: ts3 <experiment> [--smoke|--quick|--full] [dataset...]\nexperiments: {}",
        names.join(", ")
    )
}

/// Parse the `ts3` arguments (program name excluded). The first
/// positional argument names the experiment and any later ones are
/// datasets for its filter; profile flags may sit anywhere (the first
/// one wins). Errors carry a message for the user; the binary exits 2
/// on them.
pub fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut experiment: Option<&'static Experiment> = None;
    let mut datasets = Vec::new();
    for arg in args {
        if arg.starts_with("--") {
            if !matches!(arg.as_str(), "--smoke" | "--quick" | "--full") {
                return Err(format!("unknown option `{arg}`\n{}", usage()));
            }
        } else if let Some(exp) = experiment {
            if exp.filter.is_empty() {
                return Err(format!("`{}` takes no dataset arguments (got `{arg}`)", exp.name));
            }
            let Some(&d) = exp.filter.iter().find(|d| d.eq_ignore_ascii_case(arg)) else {
                return Err(format!(
                    "unknown dataset `{arg}` (expected one of: {})",
                    exp.filter.join(", ")
                ));
            };
            datasets.push(d);
        } else {
            let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == arg) else {
                return Err(format!("unknown experiment `{arg}`\n{}", usage()));
            };
            experiment = Some(exp);
        }
    }
    let experiment = experiment.ok_or_else(usage)?;
    Ok(Run { experiment, profile: RunProfile::from_args(args), datasets })
}

/// Multi-dataset tables run only their first dataset at smoke.
fn smoke_trim(datasets: &[&'static str], profile: &RunProfile) -> Vec<&'static str> {
    let n = if profile.name == "smoke" { 1 } else { datasets.len() };
    datasets[..n].to_vec()
}

/// Table II — dataset descriptions: the paper's columns for the
/// generated (or real, if CSVs are present) benchmarks, with the
/// (train, val, test) sizes produced under the active profile.
fn table2(run: &Run, _: &Progress) -> Outcome {
    let profile = &run.profile;
    let mut table = Table::new(
        "Table II: Description of datasets (synthetic stand-ins; sizes under this profile)",
        &[
            "Dataset",
            "Dim",
            "SeriesLength(horizons)",
            "DatasetSize(train,val,test windows)",
            "Information(Frequency)",
        ],
    );
    for name in TABLE4_DATASETS {
        let spec = spec(name);
        let horizon = horizons_for(name, profile)[0];
        let task = prepare_task(&spec, lookback_for(name), horizon, profile);
        let sizes = format!(
            "({}, {}, {})",
            task.len(Split::Train),
            task.len(Split::Val),
            task.len(Split::Test)
        );
        let horizons: Vec<String> = paper_horizons(name).iter().map(|h| h.to_string()).collect();
        table.push_row(vec![
            name.to_string(),
            task.channels().to_string(),
            format!("{{{}}}", horizons.join(", ")),
            sizes,
            format!("{} ({})", spec.info_label, spec.freq_label),
        ]);
    }
    Ok(Some(table))
}

/// Table III — the experiment configuration of TS3Net, paper scale vs
/// the active reproduction profile.
fn table3(run: &Run, _: &Progress) -> Outcome {
    let profile = &run.profile;
    let scaled = TS3NetConfig::scaled(7, 96, 96);
    let paper = TS3NetConfig::paper(7, 96, 96);
    let mut table = Table::new(
        "Table III: Experiment configuration of TS3Net (Adam beta = (0.9, 0.999))",
        &["Setting", "Paper (forecasting)", "Paper (imputation)", "This run"],
    );
    let rows: Vec<(&str, String, String, String)> = vec![
        ("lambda", paper.lambda.to_string(), "100".into(), scaled.lambda.to_string()),
        ("Layers (TF-Blocks)", paper.n_blocks.to_string(), "2".into(), scaled.n_blocks.to_string()),
        ("d_min", "32".into(), "64".into(), "8".into()),
        ("d_max", "512".into(), "128".into(), "16".into()),
        ("LR", "1e-4".into(), "1e-3".into(), format!("{:.0e}", profile.lr)),
        ("Loss", "MSE".into(), "MSE".into(), "MSE".into()),
        ("Batch size", "32".into(), "16".into(), profile.batch_size.to_string()),
        ("Epochs", "10".into(), "10".into(), profile.epochs.to_string()),
        ("Patience", "3".into(), "3".into(), profile.patience.to_string()),
        ("Branches (wavelets)", "m".into(), "m".into(), scaled.branches.len().to_string()),
    ];
    for (k, a, b, c) in rows {
        table.push_row(vec![k.to_string(), a, b, c]);
    }
    Ok(Some(table))
}

/// The Tables IV/V layout: `Dataset`, a row key, then an MSE and an MAE
/// column per model. Each dataset's rows end in an Avg row, and the
/// table in the paper's "1st Count" row (MSE and MAE wins counted
/// separately).
struct ModelGrid {
    table: Table,
    first_counts: Vec<usize>,
}

impl ModelGrid {
    fn new(title: &str, key: &str, models: &[&str]) -> Self {
        let mut columns = vec!["Dataset".to_string(), key.to_string()];
        for m in models {
            columns.push(format!("{m} MSE"));
            columns.push(format!("{m} MAE"));
        }
        ModelGrid { table: Table::new(title, &columns), first_counts: vec![0; models.len()] }
    }

    /// One dataset's block: each row pairs its label with one result per
    /// model, in model order.
    fn push_dataset(&mut self, dataset: &str, rows: &[(String, Vec<CellResult>)]) {
        let mut avg = vec![(0.0f32, 0.0f32); self.first_counts.len()];
        for (label, cells) in rows {
            let best_mse = cells.iter().map(|c| c.mse).fold(f32::INFINITY, f32::min);
            let best_mae = cells.iter().map(|c| c.mae).fold(f32::INFINITY, f32::min);
            let mut row = vec![dataset.to_string(), label.clone()];
            for (mi, c) in cells.iter().enumerate() {
                row.push(fmt_metric(c.mse));
                row.push(fmt_metric(c.mae));
                avg[mi].0 += c.mse / rows.len() as f32;
                avg[mi].1 += c.mae / rows.len() as f32;
                self.first_counts[mi] +=
                    usize::from(c.mse <= best_mse + 1e-6) + usize::from(c.mae <= best_mae + 1e-6);
            }
            self.table.push_row(row);
        }
        let mut row = vec![dataset.to_string(), "Avg".to_string()];
        for (mse, mae) in &avg {
            row.push(fmt_metric(*mse));
            row.push(fmt_metric(*mae));
        }
        self.table.push_row(row);
    }

    fn finish(mut self) -> Table {
        let mut row = vec!["1st".to_string(), "Count".to_string()];
        for c in &self.first_counts {
            row.push(c.to_string());
            row.push(String::new());
        }
        self.table.push_row(row);
        self.table
    }
}

/// Table IV — long-term forecasting MSE/MAE for all nine benchmarks
/// (or those named on the command line) and all eleven models. The quick
/// profile runs two horizons per dataset; `--full` runs the paper's four.
fn table4(run: &Run, progress: &Progress) -> Outcome {
    let profile = &run.profile;
    progress.info(&format!("models: {}\n", TABLE4_MODELS.join(", ")));
    let mut grid =
        ModelGrid::new("Table IV: Long-term forecasting (MSE / MAE)", "H", &TABLE4_MODELS);
    for dataset in run.selected(&TABLE4_DATASETS) {
        let mut rows = Vec::new();
        for h in horizons_for(dataset, profile) {
            let cells = TABLE4_MODELS
                .iter()
                .map(|model| {
                    let r = run_forecast_cell(model, dataset, h, profile);
                    progress.step(&format!(
                        "{dataset} H={h} {model}: mse={:.3} mae={:.3}",
                        r.mse, r.mae
                    ));
                    r
                })
                .collect();
            rows.push((h.to_string(), cells));
        }
        grid.push_dataset(dataset, &rows);
    }
    Ok(Some(grid.finish()))
}

/// Table V — imputation MSE/MAE on length-96 windows with mask ratios
/// {12.5%, 25%, 37.5%, 50%}, for all eleven models.
///
/// Budget note (documented in DESIGN.md): each model is trained once per
/// dataset at the middle mask ratio (25%) and evaluated at all four
/// ratios with fresh masks; the paper trains one model per ratio. The
/// pointwise-masking objective is ratio-agnostic, so the comparison shape
/// is preserved.
fn table5(run: &Run, progress: &Progress) -> Outcome {
    const RATIOS: [f32; 4] = [0.125, 0.25, 0.375, 0.5];
    const WINDOW: usize = 96;
    let mut profile = run.profile.clone();
    // Table III prescribes LR 1e-3 for the imputation task (vs the
    // forecasting rows' rate); keep that cap here.
    profile.lr = profile.lr.min(1e-3);
    let mut grid = ModelGrid::new(
        "Table V: Imputation (MSE / MAE on masked points)",
        "MaskRatio",
        &TABLE4_MODELS,
    );
    for dataset in smoke_trim(&TABLE5_DATASETS, &profile) {
        let task = prepare_task(&spec(dataset), WINDOW, WINDOW, &profile);
        let (cfg, ts3) = cell_configs(task.channels(), WINDOW, WINDOW, &profile);
        // Train each model once at the middle ratio, then sweep ratios.
        let per_model: Vec<Vec<CellResult>> = TABLE4_MODELS
            .iter()
            .map(|model_name| {
                let model = build_imputer(model_name, &cfg, &ts3, profile.seed);
                train_imputer(model.as_ref(), &task, 0.25, &profile);
                let results: Vec<CellResult> = RATIOS
                    .iter()
                    .map(|&ratio| eval_imputer(model.as_ref(), &task, Split::Test, ratio, &profile))
                    .collect();
                let summary: Vec<String> =
                    results.iter().map(|r| format!("{:.3}/{:.3}", r.mse, r.mae)).collect();
                progress.step(&format!("{dataset} {model_name}: {}", summary.join("  ")));
                results
            })
            .collect();
        let rows: Vec<(String, Vec<CellResult>)> = RATIOS
            .iter()
            .enumerate()
            .map(|(ri, ratio)| {
                (format!("{:.1}%", ratio * 100.0), per_model.iter().map(|m| m[ri]).collect())
            })
            .collect();
        grid.push_dataset(dataset, &rows);
    }
    Ok(Some(grid.finish()))
}

/// The Tables VI–IX layout: every row label gets an MSE row and an MAE
/// row; the columns are `<group>-<horizon>` per column group, closed by
/// `<group>-Avg`. `horizons(row, group)` is the horizon grid of one
/// group within one row (the header shows row 0's), and
/// `cell(row, group, horizon)` trains and scores one cell.
fn sweep_grid(
    progress: &Progress,
    title: &str,
    key: &str,
    rows: &[impl AsRef<str>],
    groups: &[&str],
    horizons: impl Fn(usize, usize) -> Vec<usize>,
    mut cell: impl FnMut(usize, usize, usize) -> CellResult,
) -> Table {
    let mut columns = vec![key.to_string(), "Metric".to_string()];
    for (g, group) in groups.iter().enumerate() {
        for h in horizons(0, g) {
            columns.push(format!("{group}-{h}"));
        }
        columns.push(format!("{group}-Avg"));
    }
    let mut table = Table::new(title, &columns);
    for (r, label) in rows.iter().map(AsRef::as_ref).enumerate() {
        let mut mse_row = vec![label.to_string(), "MSE".to_string()];
        let mut mae_row = vec![label.to_string(), "MAE".to_string()];
        for (g, group) in groups.iter().enumerate() {
            let hs = horizons(r, g);
            let mut sum = (0.0f32, 0.0f32);
            for &h in &hs {
                let res = cell(r, g, h);
                progress.step(&format!(
                    "{label} {group} H={h}: mse={:.3} mae={:.3}",
                    res.mse, res.mae
                ));
                mse_row.push(fmt_metric(res.mse));
                mae_row.push(fmt_metric(res.mae));
                sum.0 += res.mse / hs.len() as f32;
                sum.1 += res.mae / hs.len() as f32;
            }
            mse_row.push(fmt_metric(sum.0));
            mae_row.push(fmt_metric(sum.1));
        }
        table.push_row(mse_row);
        table.push_row(mae_row);
    }
    table
}

/// Table VI — architecture ablations: TS3Net vs `w/o TD`,
/// `w/o TF-Block` and `w/o Both` on ETTm1, Electricity, Traffic and
/// Exchange.
fn table6(run: &Run, progress: &Progress) -> Outcome {
    const DATASETS: [&str; 4] = ["ETTm1", "Electricity", "Traffic", "Exchange"];
    const VARIANTS: [&str; 4] =
        ["TS3Net w/o TD", "TS3Net w/o TF-Block", "TS3Net w/o Both", "TS3Net"];
    let profile = &run.profile;
    let datasets = smoke_trim(&DATASETS, profile);
    Ok(Some(sweep_grid(
        progress,
        "Table VI: Ablations on model architecture",
        "Variant",
        &VARIANTS,
        &datasets,
        |_, g| horizons_for(datasets[g], profile),
        |r, g, h| run_forecast_cell(VARIANTS[r], datasets[g], h, profile),
    )))
}

/// Table VII — triple decomposition vs the conventional trend-seasonal
/// decomposition: TSD-CNN and TSD-Trans against TS3Net on ETTm1, ETTm2
/// and Exchange. The sweep grid transposed: datasets are the rows,
/// models the column groups.
fn table7(run: &Run, progress: &Progress) -> Outcome {
    const DATASETS: [&str; 3] = ["ETTm1", "ETTm2", "Exchange"];
    const MODELS: [&str; 3] = ["TSD-CNN", "TSD-Trans", "TS3Net"];
    let profile = &run.profile;
    let datasets = smoke_trim(&DATASETS, profile);
    Ok(Some(sweep_grid(
        progress,
        "Table VII: Triple Decomposition vs Trend-Seasonal Decomposition",
        "Dataset",
        &datasets,
        &MODELS,
        |r, _| horizons_for(datasets[r], profile),
        |r, g, h| run_forecast_cell(MODELS[g], datasets[r], h, profile),
    )))
}

/// Table VIII — robustness to noise injection: TS3Net trained on series
/// where a fraction rho of the points carries injected noise matching
/// the signal's own distribution (ETTh1, ETTh2, Exchange).
fn table8(run: &Run, progress: &Progress) -> Outcome {
    const DATASETS: [&str; 3] = ["ETTh1", "ETTh2", "Exchange"];
    const RHOS: [f32; 4] = [0.0, 0.01, 0.05, 0.10];
    let profile = &run.profile;
    let datasets = smoke_trim(&DATASETS, profile);
    let rows: Vec<String> = RHOS.iter().map(|rho| format!("{:.0}%", rho * 100.0)).collect();
    Ok(Some(sweep_grid(
        progress,
        "Table VIII: Robustness analysis (noise injection)",
        "rho",
        &rows,
        &datasets,
        |_, g| sweep_horizons(datasets[g], profile),
        |r, g, h| {
            // Generate the scaled series, inject noise, re-window. Always
            // synthetic, with its own length floor of 13 windows.
            let lookback = lookback_for(datasets[g]);
            let mut sp = spec(datasets[g]);
            sp.len = ((sp.len as f32 * profile.data_scale) as usize)
                .max(((lookback + h + 1) as f32 * 13.0).ceil() as usize);
            let raw = sp.generate(profile.seed);
            let raw = if raw.shape()[1] > profile.max_channels {
                raw.narrow(1, 0, profile.max_channels)
            } else {
                raw
            };
            let noisy = inject_noise(&raw, RHOS[r], profile.seed + 77);
            let task = ForecastTask::new(&noisy, lookback, h, sp.split);
            fit("TS3Net", &task, profile, None).1
        },
    )))
}

/// Table IX — sensitivity to the number of spectral sub-bands lambda.
/// The paper sweeps {50, 100, 150, 200} at scale; the CPU-scaled analog
/// sweeps {4, 8, 12, 16} (same x2 spacing around the default),
/// verifying the same plateau.
fn table9(run: &Run, progress: &Progress) -> Outcome {
    const DATASETS: [&str; 3] = ["ETTh1", "ETTh2", "Exchange"];
    const LAMBDAS: [usize; 4] = [4, 8, 12, 16];
    let profile = &run.profile;
    let datasets = smoke_trim(&DATASETS, profile);
    let rows: Vec<String> = LAMBDAS
        .iter()
        .map(|&l| if l == 8 { format!("{l} (default)") } else { l.to_string() })
        .collect();
    Ok(Some(sweep_grid(
        progress,
        "Table IX: Hyper-parameter sensitivity (lambda)",
        "lambda",
        &rows,
        &datasets,
        |_, g| sweep_horizons(datasets[g], profile),
        |r, g, h| {
            let dataset = datasets[g];
            let task = prepare_task(&spec(dataset), lookback_for(dataset), h, profile);
            fit("TS3Net", &task, profile, Some(LAMBDAS[r])).1
        },
    )))
}

/// Figures 3 and 4 — long-horizon forecast showcase: TS3Net trained at
/// the profile's longest horizon, its prediction for the middle test
/// window plotted against the truth, and `results/<stem>.csv`. Fig. 3
/// shows channel 0 after its history (`t,series,prediction`); Fig. 4
/// the normalised OT variate, the last channel, alone
/// (`t,truth,prediction`).
fn forecast_figure(run: &Run, progress: &Progress, dataset: &str, ot_variate: bool) -> Outcome {
    let profile = &run.profile;
    let lookback = lookback_for(dataset);
    let horizons = horizons_for(dataset, profile);
    let horizon = horizons[horizons.len() - 1];
    let task = prepare_task(&spec(dataset), lookback, horizon, profile);
    let channel = if ot_variate { task.channels() - 1 } else { 0 };
    let (model, r) = fit("TS3Net", &task, profile, None);
    progress.step(&format!(
        "trained TS3Net on {dataset} H={horizon}: test mse={:.3} mae={:.3}",
        r.mse, r.mae
    ));
    let (x, y) = task.window(Split::Test, task.len(Split::Test) / 2);
    let pred = model.forecast(&x.reshape(&[1, lookback, task.channels()]), &mut Ctx::eval());
    let truth: Vec<f32> = (0..horizon).map(|t| y.at(&[t, channel])).collect();
    let predicted: Vec<f32> = (0..horizon).map(|t| pred.value().at(&[0, t, channel])).collect();
    println!("{}", line_plot(&[("GroundTruth", &truth), ("Prediction", &predicted)], 14));
    let (mut csv, t0) = if ot_variate {
        (String::from("t,truth,prediction\n"), 0)
    } else {
        let mut csv = String::from("t,series,prediction\n");
        for t in 0..lookback {
            csv.push_str(&format!("{t},{},\n", x.at(&[t, channel])));
        }
        (csv, lookback)
    };
    for t in 0..horizon {
        csv.push_str(&format!("{},{},{}\n", t0 + t, truth[t], predicted[t]));
    }
    save_result(&format!("{}.csv", run.stem()), &csv)?;
    Ok(None)
}

/// Figure 5 — the triple-decomposition visualisation: for ETTh1-like
/// and ETTh2-like windows of length 192, the original series, the TF
/// distribution (warm heat map in the paper), the spectrum gradient
/// (cool heat map) and the three parts (trend / regular / fluctuant),
/// as ASCII renderings plus CSV dumps.
fn fig5(run: &Run, progress: &Progress) -> Outcome {
    const WINDOW: usize = 192;
    for dataset in ["ETTh1", "ETTh2"] {
        let raw = spec(dataset).generate(run.profile.seed);
        // A window from the middle of the series, channel 0, standardised.
        let start = raw.shape()[0] / 2;
        let col: Vec<f32> = (0..WINDOW).map(|t| raw.at(&[start + t, 0])).collect();
        let mean: f32 = col.iter().sum::<f32>() / WINDOW as f32;
        let std = (col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / WINDOW as f32)
            .sqrt()
            .max(1e-6);
        let col: Vec<f32> = col.iter().map(|v| (v - mean) / std).collect();
        let x = Tensor::from_vec(col.clone(), &[WINDOW, 1]);
        let cfg = TripleConfig { lambda: 16, ..Default::default() };
        let d = triple_decompose(&x, &cfg);
        println!("--- {dataset}: original series (length {WINDOW}, T_f = {}) ---", d.t_f);
        println!("{}", line_plot(&[("original", &col)], 10));
        let (g, r, c) = downsample_grid(d.tf.as_slice(), cfg.lambda, WINDOW, 16, 96);
        println!("--- {dataset}: TF distribution Amp(WT(seasonal)) [lambda x T] ---");
        println!("{}", heat_map(&g, r, c));
        let sg: Vec<f32> = d.fluctuant_2d.as_slice().iter().map(|v| v.abs()).collect();
        let (g, r, c) = downsample_grid(&sg, cfg.lambda, WINDOW, 16, 96);
        println!("--- {dataset}: |spectrum gradient| [lambda x T] ---");
        println!("{}", heat_map(&g, r, c));
        let trend: Vec<f32> = (0..WINDOW).map(|t| d.trend.at(&[t, 0])).collect();
        let regular: Vec<f32> = (0..WINDOW).map(|t| d.regular.at(&[t, 0])).collect();
        let fluct: Vec<f32> = (0..WINDOW).map(|t| d.fluctuant_1d.at(&[t, 0])).collect();
        println!("--- {dataset}: decomposed parts ---");
        println!(
            "{}",
            line_plot(&[("trend", &trend), ("regular", &regular), ("fluctuant", &fluct)], 12)
        );
        let mut csv = String::from("t,original,trend,regular,fluctuant\n");
        for t in 0..WINDOW {
            csv.push_str(&format!("{t},{},{},{},{}\n", col[t], trend[t], regular[t], fluct[t]));
        }
        save_result(&format!("{}_{}.csv", run.stem(), dataset.to_lowercase()), &csv)?;
        progress.step(&format!("decomposed {dataset}"));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn horizon_grids_match_paper() {
        assert_eq!(paper_horizons("ETTh1"), vec![96, 192, 336, 720]);
        assert_eq!(paper_horizons("ILI"), vec![24, 36, 48, 60]);
        assert_eq!(lookback_for("ILI"), 36);
        assert_eq!(lookback_for("Traffic"), 96);
    }

    #[test]
    fn quick_profile_trims_horizons() {
        let q = RunProfile::quick();
        assert_eq!(horizons_for("ETTh1", &q), vec![96, 336]);
        let f = RunProfile::full();
        assert_eq!(horizons_for("ETTh1", &f).len(), 4);
        let s = RunProfile::smoke();
        assert_eq!(horizons_for("ILI", &s), vec![24]);
    }

    #[test]
    fn smoke_cell_runs_end_to_end() {
        let profile = RunProfile::smoke();
        let r = run_forecast_cell("DLinear", "ETTh1", 24, &profile);
        assert!(r.mse.is_finite() && r.mse > 0.0);
    }

    #[test]
    fn experiment_names_are_the_result_stems_in_paper_order() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            [
                "table2", "table3", "table4", "table5", "table6", "table7", "table8", "table9",
                "fig3", "fig4", "fig5"
            ]
        );
    }

    #[test]
    fn unknown_experiment_lists_the_valid_names() {
        let err = parse_args(&args(&["table10", "--smoke"])).unwrap_err();
        assert!(err.contains("unknown experiment `table10`"), "{err}");
        for e in &EXPERIMENTS {
            assert!(err.contains(e.name), "`{}` missing from: {err}", e.name);
        }
        assert!(parse_args(&args(&["--smoke"])).unwrap_err().contains("table4"));
        assert!(parse_args(&[]).unwrap_err().starts_with("usage: ts3"));
    }

    #[test]
    fn unknown_dataset_is_an_error() {
        let err = parse_args(&args(&["table4", "--smoke", "NoSuchSet"])).unwrap_err();
        assert!(err.contains("unknown dataset `NoSuchSet`"), "{err}");
        assert!(err.contains("ETTh1"), "{err}");
    }

    #[test]
    fn dataset_argument_without_a_filter_is_an_error() {
        for name in ["table2", "table5", "table9", "fig3", "fig5"] {
            let err = parse_args(&args(&[name, "ETTh1"])).unwrap_err();
            assert!(err.contains("takes no dataset arguments"), "{name}: {err}");
        }
    }

    #[test]
    fn unknown_option_is_an_error() {
        let err = parse_args(&args(&["table2", "--fast"])).unwrap_err();
        assert!(err.contains("unknown option `--fast`"), "{err}");
    }

    #[test]
    fn profile_flag_and_datasets_parse_in_either_order() {
        for order in [["table4", "--smoke", "etth1"], ["table4", "etth1", "--smoke"]] {
            let run = parse_args(&args(&order)).unwrap();
            assert_eq!(run.experiment.name, "table4");
            assert_eq!(run.profile.name, "smoke");
            assert_eq!(run.datasets, ["ETTh1"]);
            assert_eq!(run.stem(), "table4_smoke");
            assert_eq!(run.selected(&TABLE4_DATASETS), ["ETTh1"]);
        }
        let run = parse_args(&args(&["table4", "--full"])).unwrap();
        assert_eq!(run.profile.name, "full");
        assert_eq!(run.selected(&TABLE4_DATASETS), TABLE4_DATASETS);
    }
}
