//! # ts3net-core
//!
//! The paper's primary contribution: **TS3Net — Triple Decomposition with
//! Spectrum Gradient for Long-Term Time Series Analysis** (ICDE 2024),
//! implemented from scratch on the `ts3-tensor` / `ts3-autograd` /
//! `ts3-nn` / `ts3-signal` substrates.
//!
//! * [`ops`] — differentiable `Amp(WT(.))` and `IWT(.)` operators with
//!   hand-written adjoints (Eq. 5–9);
//! * [`sgd_layer`] — the Spectrum-Gradient Decomposition layer
//!   (Eq. 9–11);
//! * [`tf_block`] — the multi-branch Temporal-Frequency Block (Eq. 13);
//! * [`heads`] — prediction heads and the trend Autoregression (Eq.
//!   14–16);
//! * [`forecaster`] — the full TS3Net (Algorithm 1, Eq. 17) with the
//!   ablation variants of Table VI;
//! * [`imputer`] — the imputation-task variant (Table V);
//! * [`config`] — hyper-parameters (Table III) at paper scale and at the
//!   CPU-scaled reproduction profile;
//! * [`traits`] — the [`ForecastModel`] / [`ImputationModel`] interfaces
//!   shared with every baseline;
//! * [`plan`] — compiled inference plans ([`CompiledPlan`]): snapshotted
//!   weights plus the model's own eager forward run under no-grad,
//!   bitwise identical to the taped forward. Per-stage serving timelines
//!   come from `ts3_obs::stage_scope` seams inside the forwards.
//!
//! ```
//! use ts3net_core::{TS3Net, TS3NetConfig, ForecastModel};
//! use ts3_nn::Ctx;
//! use ts3_tensor::Tensor;
//!
//! let mut cfg = TS3NetConfig::scaled(3, 24, 12);
//! cfg.lambda = 4; cfg.d_model = 4; cfg.d_hidden = 4;
//! let model = TS3Net::new(cfg, 0);
//! let x = Tensor::randn(&[1, 24, 3], 7);
//! let y = model.forecast(&x, &mut Ctx::eval());
//! assert_eq!(y.shape(), &[1, 12, 3]);
//! ```

pub mod config;
pub mod forecaster;
pub mod heads;
pub mod imputer;
pub mod ops;
pub mod plan;
pub mod sgd_layer;
pub mod tf_block;
pub mod traits;

pub use config::{Ablation, TS3NetConfig};
pub use forecaster::{batch_dominant_period, batch_trend_split, TS3Net};
pub use heads::{Autoregression, PredictionHead, TimeLinear};
pub use imputer::TS3NetImputer;
pub use ops::{cwt_amplitude, iwt};
pub use plan::{CompiledPlan, PlanError};
pub use sgd_layer::{SgdLayer, SgdOutput};
pub use tf_block::{branch_plans, TfBlock};
pub use traits::{ForecastModel, ImputationModel};
