//! Model factory: construct any model in the zoo by its paper name, so
//! the bench harness iterates over the full Table IV/V column set with
//! one code path.

use crate::adapter::ReconstructionAdapter;
use crate::config::BaselineConfig;
use crate::decomposition_transformers::{Autoformer, FedFormer};
use crate::linear_models::{DLinear, LightTS};
use crate::micn::Micn;
use crate::timesnet::TimesNet;
use crate::transformers::{Informer, PatchTst, Pyraformer, Stationary};
use crate::tsd::TsdModel;
use ts3net_core::{
    Ablation, ForecastModel, ImputationModel, TS3Net, TS3NetConfig, TS3NetImputer,
};

/// The Table IV column order (ours first, then the ten baselines).
pub const TABLE4_MODELS: [&str; 11] = [
    "TS3Net",
    "PatchTST",
    "TimesNet",
    "MICN",
    "LightTS",
    "DLinear",
    "FEDformer",
    "Stationary",
    "Autoformer",
    "Pyraformer",
    "Informer",
];

/// Build a forecaster by paper name. `ts3_cfg` parameterises TS3Net (and
/// its ablations); everything else is built from `cfg`.
///
/// # Panics
/// Panics on an unknown model name.
pub fn build_forecaster(
    name: &str,
    cfg: &BaselineConfig,
    ts3_cfg: &TS3NetConfig,
    seed: u64,
) -> Box<dyn ForecastModel> {
    match name {
        "TS3Net" => Box::new(TS3Net::new(ts3_cfg.clone(), seed)),
        "TS3Net w/o TD" => {
            Box::new(TS3Net::new(ts3_cfg.clone().with_ablation(Ablation::NO_TD), seed))
        }
        "TS3Net w/o TF-Block" => {
            Box::new(TS3Net::new(ts3_cfg.clone().with_ablation(Ablation::NO_TF), seed))
        }
        "TS3Net w/o Both" => {
            Box::new(TS3Net::new(ts3_cfg.clone().with_ablation(Ablation::NO_BOTH), seed))
        }
        "PatchTST" => Box::new(PatchTst::new(cfg, seed)),
        "TimesNet" => Box::new(TimesNet::new(cfg, seed)),
        "MICN" => Box::new(Micn::new(cfg, seed)),
        "LightTS" => Box::new(LightTS::new(cfg, seed)),
        "DLinear" => Box::new(DLinear::new(cfg, seed)),
        "FEDformer" => Box::new(FedFormer::new(cfg, seed)),
        "Stationary" => Box::new(Stationary::new(cfg, seed)),
        "Autoformer" => Box::new(Autoformer::new(cfg, seed)),
        "Pyraformer" => Box::new(Pyraformer::new(cfg, seed)),
        "Informer" => Box::new(Informer::new(cfg, seed)),
        "TSD-CNN" => Box::new(TsdModel::cnn(cfg, ts3_cfg.lambda, seed)),
        "TSD-Trans" => Box::new(TsdModel::transformer(cfg, seed)),
        // ts3-lint: allow(no-unwrap-in-lib) model names come from the fixed benchmark lists; unknown names are a documented # Panics contract
        other => panic!("unknown model name `{other}`"),
    }
}

/// Build an imputer by paper name: TS3Net uses its dedicated imputer;
/// every other [`build_forecaster`] model is wrapped through the
/// reconstruction adapter (requires `horizon == lookback` in `cfg`).
///
/// # Panics
/// Panics on an unknown model name.
pub fn build_imputer(
    name: &str,
    cfg: &BaselineConfig,
    ts3_cfg: &TS3NetConfig,
    seed: u64,
) -> Box<dyn ImputationModel> {
    assert_eq!(
        cfg.lookback, cfg.horizon,
        "imputation requires horizon == lookback"
    );
    if name == "TS3Net" {
        return Box::new(TS3NetImputer::new(ts3_cfg.clone(), seed));
    }
    Box::new(ReconstructionAdapter::new(build_forecaster(name, cfg, ts3_cfg, seed)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_nn::Ctx;
    use ts3_tensor::Tensor;

    fn cfgs() -> (BaselineConfig, TS3NetConfig) {
        let cfg = BaselineConfig::scaled(3, 24, 12);
        let mut ts3 = TS3NetConfig::scaled(3, 24, 12);
        ts3.lambda = 4;
        ts3.d_model = 4;
        ts3.d_hidden = 4;
        (cfg, ts3)
    }

    #[test]
    fn every_table4_model_builds_and_runs() {
        let (cfg, ts3) = cfgs();
        let x = Tensor::randn(&[1, 24, 3], 9);
        for name in TABLE4_MODELS {
            let m = build_forecaster(name, &cfg, &ts3, 0);
            assert_eq!(m.name(), name);
            let mut ctx = Ctx::eval();
            let y = m.forecast(&x, &mut ctx);
            assert_eq!(y.shape(), &[1, 12, 3], "{name}");
            assert!(y.value().all_finite(), "{name}");
        }
    }

    #[test]
    fn tsd_models_build() {
        let (cfg, ts3) = cfgs();
        for name in ["TSD-CNN", "TSD-Trans"] {
            let m = build_forecaster(name, &cfg, &ts3, 1);
            assert_eq!(m.name(), name);
        }
    }

    #[test]
    fn ablation_variants_build() {
        let (cfg, ts3) = cfgs();
        for name in ["TS3Net w/o TD", "TS3Net w/o TF-Block", "TS3Net w/o Both"] {
            let m = build_forecaster(name, &cfg, &ts3, 2);
            assert_eq!(m.name(), name);
        }
    }

    #[test]
    fn every_model_builds_as_imputer() {
        let cfg = BaselineConfig::scaled(2, 16, 16);
        let mut ts3 = TS3NetConfig::scaled(2, 16, 16);
        ts3.lambda = 4;
        ts3.d_model = 4;
        ts3.d_hidden = 4;
        let x = Tensor::randn(&[1, 16, 2], 9);
        let mask = Tensor::zeros(&[1, 16, 2]);
        for name in TABLE4_MODELS {
            let m = build_imputer(name, &cfg, &ts3, 0);
            let mut ctx = Ctx::eval();
            let y = m.impute(&x, &mask, &mut ctx);
            assert_eq!(y.shape(), &[1, 16, 2], "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown model")]
    fn unknown_name_panics() {
        let (cfg, ts3) = cfgs();
        let _ = build_forecaster("NotAModel", &cfg, &ts3, 0);
    }
}
