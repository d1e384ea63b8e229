//! Run profiles: how much compute each table regeneration spends.
//!
//! The paper trains on a V100; this reproduction runs on whatever CPU is
//! available, so every `ts3` experiment accepts three profiles:
//!
//! * `smoke` — seconds; CI-grade sanity (tiny data, one epoch, few steps);
//! * `quick` — the default; minutes per table, preserves orderings;
//! * `full`  — closest to the paper's protocol that the CPU budget allows.
//!
//! Select with the `--smoke` / `--quick` / `--full` CLI flags.

/// Compute/duration profile for experiment runs.
#[derive(Debug, Clone)]
pub struct RunProfile {
    /// Human-readable profile name.
    pub name: &'static str,
    /// Synthetic data length multiplier (1.0 = default catalog sizes).
    pub data_scale: f32,
    /// Training epochs (paper: 10 with patience 3).
    pub epochs: usize,
    /// Early-stopping patience (paper: 3).
    pub patience: usize,
    /// Cap on train batches per epoch (None = full epoch).
    pub max_train_batches: Option<usize>,
    /// Cap on eval batches (None = full split).
    pub max_eval_batches: Option<usize>,
    /// Mini-batch size (paper: 32 forecasting / 16 imputation).
    pub batch_size: usize,
    /// Initial learning rate (paper: 1e-4 forecasting / 1e-3 imputation;
    /// the scaled models are far smaller so a larger rate converges in
    /// the step budget).
    pub lr: f32,
    /// Channel cap applied to wide datasets (compute guard).
    pub max_channels: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl RunProfile {
    /// CI-grade smoke profile.
    pub fn smoke() -> Self {
        RunProfile {
            name: "smoke",
            data_scale: 0.08,
            epochs: 1,
            patience: 1,
            max_train_batches: Some(2),
            max_eval_batches: Some(2),
            batch_size: 4,
            lr: 2e-3,
            max_channels: 4,
            seed: 2024,
        }
    }

    /// Default profile: minutes per table, orderings preserved.
    pub fn quick() -> Self {
        RunProfile {
            name: "quick",
            data_scale: 0.35,
            epochs: 3,
            patience: 2,
            max_train_batches: Some(30),
            max_eval_batches: Some(12),
            batch_size: 8,
            lr: 5e-3,
            max_channels: 8,
            seed: 2024,
        }
    }

    /// Heaviest profile the CPU budget supports.
    pub fn full() -> Self {
        RunProfile {
            name: "full",
            data_scale: 1.0,
            epochs: 6,
            patience: 3,
            max_train_batches: Some(120),
            max_eval_batches: Some(60),
            batch_size: 16,
            lr: 1e-3,
            max_channels: 16,
            seed: 2024,
        }
    }

    /// Resolve the profile from the CLI flags (default: quick).
    pub fn from_args(args: &[String]) -> Self {
        let flag = args.iter().find_map(|a| match a.as_str() {
            "--smoke" => Some(Self::smoke()),
            "--quick" => Some(Self::quick()),
            "--full" => Some(Self::full()),
            _ => None,
        });
        flag.unwrap_or_else(Self::quick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_order_by_cost() {
        let s = RunProfile::smoke();
        let q = RunProfile::quick();
        let f = RunProfile::full();
        assert!(s.data_scale < q.data_scale && q.data_scale < f.data_scale);
        assert!(s.epochs <= q.epochs && q.epochs <= f.epochs);
    }

    #[test]
    fn from_args_flags() {
        assert_eq!(RunProfile::from_args(&["--smoke".into()]).name, "smoke");
        assert_eq!(RunProfile::from_args(&["--full".into()]).name, "full");
        assert_eq!(RunProfile::from_args(&[]).name, "quick");
    }
}
