//! # ts3-nn
//!
//! Neural-network layers, optimisers, losses and metrics built on
//! [`ts3_autograd`] — everything the TS3Net model and its eleven baselines
//! need:
//!
//! * [`module`] — the [`Module`] trait, forward [`Ctx`] and [`Sequential`];
//! * [`layers`] — Linear, Conv1d/Conv2d, LayerNorm, Dropout, activations,
//!   MLP;
//! * [`embedding`] — value + sinusoidal positional series embedding;
//! * [`attention`] — multi-head attention (full / ProbSparse / pyramidal)
//!   and the Transformer encoder layer;
//! * [`frequency`] — Fourier-enhanced block (FEDformer) and
//!   auto-correlation aggregation (Autoformer);
//! * [`inception`] — the multi-kernel 2-D conv backbone (TF-Block /
//!   TimesNet);
//! * [`optim`] — Adam, gradient clipping, the `type1` LR schedule;
//! * [`metrics`] — MSE / MAE (plain and masked) and streaming averages.

pub mod attention;
pub mod checkpoint;
pub mod embedding;
pub mod frequency;
pub mod inception;
pub mod layers;
pub mod metrics;
pub mod module;
pub mod optim;

pub use attention::{AttentionKind, EncoderLayer, MultiHeadAttention};
pub use checkpoint::{Checkpoint, TensorRecord};
pub use embedding::DataEmbedding;
pub use frequency::{AutoCorrelationBlock, FourierBlock};
pub use inception::InceptionBlock;
pub use layers::{Activation, Conv1d, Conv2d, Dropout, LayerNorm, Linear, Mlp};
pub use metrics::{mae, masked_mae, masked_mse, mean_fill, mse, Average};
pub use module::{Ctx, Module, Sequential};
pub use optim::{lr_type1, Adam, Optimizer};
