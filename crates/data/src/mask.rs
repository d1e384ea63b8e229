//! Imputation masking (paper Table V): randomly hide a ratio of time
//! points in length-96 windows; the model reconstructs them.

use ts3_rng::rngs::StdRng;
use ts3_rng::{normal_f32, Rng, SeedableRng};
use ts3_tensor::Tensor;

/// A masked batch for the imputation task.
#[derive(Debug, Clone)]
pub struct MaskedBatch {
    /// Input with masked positions zeroed, same shape as the original.
    pub masked: Tensor,
    /// Mask tensor: 1 where the value was **hidden** (loss positions),
    /// 0 where it was observed.
    pub mask: Tensor,
    /// The original (ground-truth) values.
    pub target: Tensor,
}

/// Mask `ratio` of the points of a `[B, T, C]` batch (pointwise masking,
/// the TimesNet protocol). Deterministic per seed.
pub fn mask_batch(x: &Tensor, ratio: f32, seed: u64) -> MaskedBatch {
    assert!((0.0..1.0).contains(&ratio), "mask ratio must be in [0, 1)");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mask = Tensor::zeros(x.shape());
    for m in mask.as_mut_slice() {
        if rng.gen_f32() < ratio {
            *m = 1.0;
        }
    }
    let keep = mask.map(|m| 1.0 - m);
    MaskedBatch {
        masked: x.mul(&keep),
        mask,
        target: x.clone(),
    }
}

/// Inject noise into `ratio` of the points of a `[N, C]` series, drawing
/// noise from the per-channel standard deviation of the original signal
/// (the robustness experiment of Table VIII).
pub fn inject_noise(x: &Tensor, ratio: f32, seed: u64) -> Tensor {
    assert_eq!(x.rank(), 2, "inject_noise expects [N, C]");
    assert!((0.0..=1.0).contains(&ratio), "noise ratio must be in [0, 1]");
    if ratio == 0.0 {
        return x.clone();
    }
    let (n, c) = (x.shape()[0], x.shape()[1]);
    // Per-channel std of the source series: noise "follows the
    // distribution characteristics of the original signal".
    let mut std = vec![0.0f32; c];
    #[allow(clippy::needless_range_loop)] // per-channel stats gather
    for ch in 0..c {
        let col: Vec<f32> = (0..n).map(|i| x.at(&[i, ch])).collect();
        let mean: f32 = col.iter().sum::<f32>() / n as f32;
        std[ch] = (col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32).sqrt();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = x.clone();
    for i in 0..n {
        #[allow(clippy::needless_range_loop)] // paired (i, ch) indexing
        for ch in 0..c {
            if rng.gen_f32() < ratio {
                let g = normal_f32(&mut rng);
                let v = out.at(&[i, ch]);
                out.set(&[i, ch], v + g * std[ch]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_ratio_is_respected() {
        let x = Tensor::ones(&[4, 96, 7]);
        for ratio in [0.125f32, 0.25, 0.375, 0.5] {
            let mb = mask_batch(&x, ratio, 3);
            let actual = mb.mask.sum() / mb.mask.numel() as f32;
            assert!(
                (actual - ratio).abs() < 0.03,
                "ratio {ratio}: measured {actual}"
            );
        }
    }

    #[test]
    fn masked_positions_are_zeroed() {
        let x = Tensor::full(&[2, 10, 3], 5.0);
        let mb = mask_batch(&x, 0.5, 1);
        for (m, v) in mb.mask.as_slice().iter().zip(mb.masked.as_slice()) {
            if *m == 1.0 {
                assert_eq!(*v, 0.0);
            } else {
                assert_eq!(*v, 5.0);
            }
        }
        assert_eq!(mb.target, x);
    }

    #[test]
    fn mask_is_deterministic_per_seed() {
        let x = Tensor::ones(&[1, 50, 2]);
        assert_eq!(mask_batch(&x, 0.3, 9).mask, mask_batch(&x, 0.3, 9).mask);
        assert_ne!(mask_batch(&x, 0.3, 9).mask, mask_batch(&x, 0.3, 10).mask);
    }

    #[test]
    fn zero_ratio_noise_is_identity() {
        let x = Tensor::randn(&[100, 2], 4);
        assert_eq!(inject_noise(&x, 0.0, 1), x);
    }

    #[test]
    fn noise_perturbs_roughly_ratio_points() {
        let x = Tensor::randn(&[2000, 1], 5);
        let y = inject_noise(&x, 0.1, 2);
        let changed = x
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .filter(|(a, b)| a != b)
            .count();
        let frac = changed as f32 / x.numel() as f32;
        assert!((frac - 0.1).abs() < 0.03, "changed fraction {frac}");
    }

    #[test]
    fn noise_scale_follows_signal_std() {
        let x = Tensor::randn(&[5000, 1], 6).mul_scalar(10.0);
        let y = inject_noise(&x, 1.0, 3);
        let diff = y.sub(&x);
        // Injected noise std should be close to the signal std (10).
        assert!((diff.std() - 10.0).abs() < 1.0, "noise std {}", diff.std());
    }
}
