//! Sliding-window forecasting datasets: train/val/test splits, window
//! extraction and mini-batching, following the TimesNet evaluation
//! protocol the paper adopts (lookback 96, horizons {96, 192, 336, 720}).

use crate::scaler::StandardScaler;
use ts3_rng::rngs::StdRng;
use ts3_rng::{Rng, SeedableRng};
use ts3_tensor::Tensor;

/// Which split of a dataset to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Training windows.
    Train,
    /// Validation windows (early stopping).
    Val,
    /// Test windows (reported metrics).
    Test,
}

/// A forecasting task over one raw series: standardised windows of
/// `(lookback, horizon)` with split borders.
pub struct ForecastTask {
    /// Standardised full series `[N, C]`.
    pub data: Tensor,
    /// Scaler fitted on the train slice.
    pub scaler: StandardScaler,
    /// Lookback window length `T`.
    pub lookback: usize,
    /// Prediction horizon `H`.
    pub horizon: usize,
    borders: [(usize, usize); 3],
}

impl ForecastTask {
    /// Build a task from a raw `[N, C]` series with split fractions
    /// `(train, val, test)`. Val/test slices are extended backwards by the
    /// lookback so their first windows are usable, mirroring the reference
    /// protocol.
    pub fn new(
        raw: &Tensor,
        lookback: usize,
        horizon: usize,
        split: (f32, f32, f32),
    ) -> ForecastTask {
        assert_eq!(raw.rank(), 2, "ForecastTask expects [N, C]");
        let n = raw.shape()[0];
        let n_train = (n as f32 * split.0) as usize;
        let n_test = (n as f32 * split.2) as usize;
        let n_val = n - n_train - n_test;
        assert!(
            n_train > lookback + horizon && n_val + lookback > lookback + horizon,
            "series too short for lookback {lookback} + horizon {horizon} (n = {n})"
        );
        let train_slice = raw.narrow(0, 0, n_train);
        let scaler = StandardScaler::fit(&train_slice);
        let data = scaler.transform(raw);
        let borders = [
            (0, n_train),
            (n_train - lookback, n_train + n_val),
            (n - n_test - lookback, n),
        ];
        ForecastTask { data, scaler, lookback, horizon, borders }
    }

    /// Number of windows available in a split.
    pub fn len(&self, split: Split) -> usize {
        let (lo, hi) = self.borders[split_index(split)];
        (hi - lo).saturating_sub(self.lookback + self.horizon) + 1
    }

    /// True if the split holds no complete window.
    pub fn is_empty(&self, split: Split) -> bool {
        self.len(split) == 0
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.data.shape()[1]
    }

    /// Fetch window `i` of a split: `(x [T, C], y [H, C])`.
    pub fn window(&self, split: Split, i: usize) -> (Tensor, Tensor) {
        let (lo, _) = self.borders[split_index(split)];
        assert!(i < self.len(split), "window index out of range");
        let start = lo + i;
        let x = self.data.narrow(0, start, self.lookback);
        let y = self.data.narrow(0, start + self.lookback, self.horizon);
        (x, y)
    }

    /// Assemble a batch of windows into `(x [B, T, C], y [B, H, C])`.
    pub fn batch(&self, split: Split, indices: &[usize]) -> (Tensor, Tensor) {
        let mut xs = Vec::with_capacity(indices.len());
        let mut ys = Vec::with_capacity(indices.len());
        for &i in indices {
            let (x, y) = self.window(split, i);
            xs.push(x);
            ys.push(y);
        }
        let xr: Vec<&Tensor> = xs.iter().collect();
        let yr: Vec<&Tensor> = ys.iter().collect();
        (Tensor::stack(&xr, 0), Tensor::stack(&yr, 0))
    }

    /// Shuffled batch index lists for one epoch, optionally capped at
    /// `max_batches` (the scaled training profile).
    pub fn epoch_batches(
        &self,
        split: Split,
        batch_size: usize,
        seed: u64,
        max_batches: Option<usize>,
    ) -> Vec<Vec<usize>> {
        let n = self.len(split);
        let mut order: Vec<usize> = (0..n).collect();
        if split == Split::Train {
            let mut rng = StdRng::seed_from_u64(seed);
            rng.shuffle(&mut order);
        }
        let mut batches: Vec<Vec<usize>> = order
            .chunks(batch_size)
            .filter(|c| c.len() == batch_size || split != Split::Train)
            .map(|c| c.to_vec())
            .collect();
        if let Some(m) = max_batches {
            batches.truncate(m);
        }
        batches
    }
}

fn split_index(split: Split) -> usize {
    match split {
        Split::Train => 0,
        Split::Val => 1,
        Split::Test => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, c: usize) -> Tensor {
        Tensor::from_vec((0..n * c).map(|v| v as f32).collect(), &[n, c])
    }

    #[test]
    fn splits_are_disjoint_in_targets() {
        // Train targets end before test targets start.
        let raw = ramp(1000, 1);
        let task = ForecastTask::new(&raw, 24, 12, (0.6, 0.2, 0.2));
        let (_, train_last_y) = task.window(Split::Train, task.len(Split::Train) - 1);
        let (_, test_first_y) = task.window(Split::Test, 0);
        // De-standardise mentally: raw is increasing, so compare transforms.
        assert!(train_last_y.max() <= test_first_y.min());
    }

    #[test]
    fn window_alignment_x_precedes_y() {
        let raw = ramp(500, 1);
        let task = ForecastTask::new(&raw, 10, 5, (0.7, 0.1, 0.2));
        let (x, y) = task.window(Split::Train, 3);
        assert_eq!(x.shape(), &[10, 1]);
        assert_eq!(y.shape(), &[5, 1]);
        // y follows x immediately: standardisation preserves order and
        // equal spacing on a ramp.
        let step = x.at(&[1, 0]) - x.at(&[0, 0]);
        assert!((y.at(&[0, 0]) - (x.at(&[9, 0]) + step)).abs() < 1e-4);
    }

    #[test]
    fn len_counts_complete_windows() {
        let raw = ramp(200, 2);
        let task = ForecastTask::new(&raw, 20, 10, (0.6, 0.2, 0.2));
        // Train region: [0, 120) -> 120 - 30 + 1 = 91 windows.
        assert_eq!(task.len(Split::Train), 91);
        assert!(!task.is_empty(Split::Val));
        assert!(!task.is_empty(Split::Test));
        assert_eq!(task.channels(), 2);
    }

    #[test]
    fn batch_stacks_windows() {
        let raw = ramp(300, 2);
        let task = ForecastTask::new(&raw, 16, 8, (0.6, 0.2, 0.2));
        let (x, y) = task.batch(Split::Train, &[0, 5, 7]);
        assert_eq!(x.shape(), &[3, 16, 2]);
        assert_eq!(y.shape(), &[3, 8, 2]);
    }

    #[test]
    fn epoch_batches_shuffle_and_cap() {
        let raw = ramp(400, 1);
        let task = ForecastTask::new(&raw, 16, 8, (0.6, 0.2, 0.2));
        let b1 = task.epoch_batches(Split::Train, 8, 1, None);
        let b2 = task.epoch_batches(Split::Train, 8, 2, None);
        assert_ne!(b1[0], b2[0], "different seeds should shuffle differently");
        // All train batches are full.
        assert!(b1.iter().all(|b| b.len() == 8));
        let capped = task.epoch_batches(Split::Train, 8, 1, Some(3));
        assert_eq!(capped.len(), 3);
        // Eval batches keep the ragged tail and are ordered.
        let ev = task.epoch_batches(Split::Test, 7, 0, None);
        let total: usize = ev.iter().map(|b| b.len()).sum();
        assert_eq!(total, task.len(Split::Test));
        assert_eq!(ev[0][0], 0);
    }

    #[test]
    fn training_data_is_standardised() {
        let raw = ramp(500, 1).mul_scalar(3.0).add_scalar(100.0);
        let task = ForecastTask::new(&raw, 24, 12, (0.6, 0.2, 0.2));
        let train = task.data.narrow(0, 0, 300);
        assert!(train.mean().abs() < 1e-3);
        assert!((train.std() - 1.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn too_short_series_panics() {
        let raw = ramp(50, 1);
        let _ = ForecastTask::new(&raw, 96, 96, (0.6, 0.2, 0.2));
    }
}
