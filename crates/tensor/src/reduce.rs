//! Reductions: full-tensor sums, means, extrema and variance, per-axis
//! sums and means, plus softmax over the last axis.

use crate::Tensor;

impl Tensor {
    /// Sum of all elements (f64 accumulation).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&v| v as f64).sum::<f64>() as f32
    }

    /// Mean of all elements (f64 accumulation). Returns 0 for empty tensors.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        (self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64) as f32
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` for empty tensors.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element. Returns `f32::INFINITY` for empty tensors.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Population variance of all elements.
    pub fn variance(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let mean = self.mean() as f64;
        let var = self
            .data
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / self.data.len() as f64;
        var as f32
    }

    /// Population standard deviation of all elements.
    pub fn std(&self) -> f32 {
        self.variance().sqrt()
    }

    /// Index of the maximum element in the flattened tensor.
    pub fn argmax(&self) -> usize {
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Sum over one axis, each lane from `0.0` in axis order. The output
    /// keeps the same rank with the reduced axis set to 1 when `keepdim`
    /// is true, otherwise the axis is removed.
    fn sum_over(&self, axis: usize, keepdim: bool, op: &str) -> Tensor {
        assert!(axis < self.rank(), "{op}: axis out of range ({axis} for rank {})", self.rank());
        let outer: usize = self.shape[..axis].iter().product();
        let n = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut data = vec![0.0; outer * inner];
        for o in 0..outer {
            for k in 0..n {
                let base = (o * n + k) * inner;
                let out_base = o * inner;
                for i in 0..inner {
                    data[out_base + i] += self.data[base + i];
                }
            }
        }
        let mut shape = self.shape.clone();
        if keepdim {
            shape[axis] = 1;
        } else {
            shape.remove(axis);
        }
        Tensor { data, shape }
    }

    /// Sum over one axis (axis removed).
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        self.sum_over(axis, false, "sum_axis")
    }

    /// Sum over one axis, keeping it as a length-1 dim.
    ///
    /// # Panics
    /// Panics if `axis >= rank`.
    pub fn sum_axis_keepdim(&self, axis: usize) -> Tensor {
        self.sum_over(axis, true, "sum_axis_keepdim")
    }

    /// Mean over one axis (axis removed).
    pub fn mean_axis(&self, axis: usize) -> Tensor {
        let n = self.shape[axis] as f32;
        self.sum_axis(axis).div_scalar(n)
    }

    /// Mean over one axis, keeping it as a length-1 dim.
    pub fn mean_axis_keepdim(&self, axis: usize) -> Tensor {
        let n = self.shape[axis] as f32;
        self.sum_axis_keepdim(axis).div_scalar(n)
    }

    /// Numerically stable softmax over the **last** axis.
    pub fn softmax_last(&self) -> Tensor {
        // ts3-lint: allow(no-unwrap-in-lib) rank >= 1 is this method's documented # Panics contract
        let cols = *self.shape.last().expect("softmax_last: rank must be >= 1");
        let mut out = self.clone();
        for row in out.data.chunks_mut(cols) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        out
    }

    /// L2 norm of the whole tensor.
    pub fn norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec(v, s)
    }

    #[test]
    fn full_reductions() {
        let x = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(x.sum(), 10.0);
        assert_eq!(x.mean(), 2.5);
        assert_eq!(x.max(), 4.0);
        assert_eq!(x.min(), 1.0);
        assert!((x.variance() - 1.25).abs() < 1e-6);
        assert!((x.norm() - 30.0f32.sqrt()).abs() < 1e-5);
    }

    #[test]
    fn sum_axis_rows_and_cols() {
        let x = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(x.sum_axis(0).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(x.sum_axis(1).as_slice(), &[6.0, 15.0]);
        assert_eq!(x.sum_axis_keepdim(1).shape(), &[2, 1]);
    }

    #[test]
    fn mean_axis_matches_manual() {
        let x = t(vec![2.0, 4.0, 6.0, 8.0], &[2, 2]);
        assert_eq!(x.mean_axis(0).as_slice(), &[4.0, 6.0]);
        assert_eq!(x.mean_axis_keepdim(1).as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn reduce_middle_axis_of_3d() {
        let x = Tensor::arange(24); // [0..24)
        let x = Tensor::from_vec(x.into_vec(), &[2, 3, 4]);
        let s = x.sum_axis(1);
        assert_eq!(s.shape(), &[2, 4]);
        // element [0,0] = 0 + 4 + 8 = 12
        assert_eq!(s.at(&[0, 0]), 12.0);
        // element [1,3] = 15 + 19 + 23 = 57
        assert_eq!(s.at(&[1, 3]), 57.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = t(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]);
        let s = x.softmax_last();
        for row in s.as_slice().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Huge identical logits must not produce NaN.
        assert!(s.all_finite());
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn argmax_of_flattened() {
        let x = t(vec![1.0, 5.0, 2.0, 9.0, 0.0, 3.0], &[2, 3]);
        assert_eq!(x.argmax(), 3);
    }

    #[test]
    #[should_panic(expected = "sum_axis: axis out of range")]
    fn sum_axis_out_of_range_panics() {
        let _ = Tensor::ones(&[2, 2]).sum_axis(2);
    }
}
