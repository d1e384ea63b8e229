//! Seeded random tensor construction (normal, uniform, Xavier/Kaiming).

use crate::shape::numel;
use crate::Tensor;
use ts3_rng::rngs::StdRng;
use ts3_rng::{normal_f32, Rng, SeedableRng};

impl Tensor {
    /// Standard-normal tensor from a caller-provided RNG (Box–Muller
    /// via [`ts3_rng::normal_f32`], the workspace's one normal sampler).
    fn randn_with(shape: &[usize], rng: &mut StdRng) -> Tensor {
        let data = (0..numel(shape)).map(|_| normal_f32(rng)).collect();
        Tensor { data, shape: shape.to_vec() }
    }

    /// Standard-normal tensor from a fixed seed (deterministic).
    pub fn randn(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::randn_with(shape, &mut rng)
    }

    /// Uniform `[lo, hi)` tensor from a caller-provided RNG.
    pub fn rand_uniform_with(shape: &[usize], lo: f32, hi: f32, rng: &mut StdRng) -> Tensor {
        let data = (0..numel(shape)).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { data, shape: shape.to_vec() }
    }

    /// Xavier/Glorot uniform initialisation for a weight of shape
    /// `[fan_out, fan_in, ...]` (extra axes fold into fan_in, matching
    /// conv kernels).
    pub fn xavier_uniform(shape: &[usize], rng: &mut StdRng) -> Tensor {
        assert!(shape.len() >= 2, "xavier_uniform needs rank >= 2");
        let fan_out = shape[0];
        let fan_in: usize = shape[1..].iter().product();
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Self::rand_uniform_with(shape, -bound, bound, rng)
    }

    /// Kaiming/He normal initialisation (`std = sqrt(2/fan_in)`), suited to
    /// ReLU-family activations.
    pub fn kaiming_normal(shape: &[usize], rng: &mut StdRng) -> Tensor {
        assert!(shape.len() >= 2, "kaiming_normal needs rank >= 2");
        let fan_in: usize = shape[1..].iter().product();
        let std = (2.0 / fan_in as f32).sqrt();
        let mut t = Self::randn_with(shape, rng);
        t.map_inplace(|v| v * std);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randn_is_deterministic_per_seed() {
        let a = Tensor::randn(&[100], 42);
        let b = Tensor::randn(&[100], 42);
        let c = Tensor::randn(&[100], 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn randn_has_roughly_unit_moments() {
        let t = Tensor::randn(&[10_000], 7);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        assert!((t.std() - 1.0).abs() < 0.05, "std {}", t.std());
    }

    #[test]
    fn uniform_respects_bounds() {
        let t = Tensor::rand_uniform_with(&[1000], -2.0, 3.0, &mut StdRng::seed_from_u64(11));
        assert!(t.min() >= -2.0);
        assert!(t.max() < 3.0);
        assert!((t.mean() - 0.5).abs() < 0.2);
    }

    #[test]
    fn xavier_bound_matches_formula() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::xavier_uniform(&[64, 32], &mut rng);
        let bound = (6.0f32 / 96.0).sqrt();
        assert!(t.max() <= bound && t.min() >= -bound);
        assert!(t.max() > bound * 0.8, "should come close to the bound");
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Tensor::kaiming_normal(&[16, 512], &mut rng);
        let expected = (2.0f32 / 512.0).sqrt();
        assert!((t.std() - expected).abs() < expected * 0.2);
    }
}
