//! Elementwise unary and (broadcasting) binary operations.

use crate::shape::{broadcast_shapes, broadcast_strides, numel};
use crate::Tensor;

impl Tensor {
    /// Apply `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    // ------------------------------------------------------------------
    // Unary ops
    // ------------------------------------------------------------------

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|v| -v)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.map(|v| v * v)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise sine.
    pub fn sin(&self) -> Tensor {
        self.map(f32::sin)
    }

    /// Elementwise cosine.
    pub fn cos(&self) -> Tensor {
        self.map(f32::cos)
    }

    /// Elementwise hyperbolic tangent: fdlibm's `tanhf`, bit-identical
    /// to glibc's `f32::tanh` but independent of the host libm, on the
    /// AVX2 kernel when it is selected (see [`crate::simd`]).
    pub fn tanh(&self) -> Tensor {
        Tensor { data: crate::simd::tanh_vec(&self.data), shape: self.shape.clone() }
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.map(|v| 1.0 / (1.0 + (-v).exp()))
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&self) -> Tensor {
        self.map(|v| v.max(0.0))
    }

    /// Elementwise GELU (tanh approximation, as used by most DL
    /// frameworks), returned with its inner
    /// `t = tanh(√(2/π)·(x + 0.044715·x³))`, which the GELU derivative
    /// reuses. One pass writes both outputs, in the scalar order
    /// `((0.044715·x)·x)·x`, then `√(2/π)·(x + cube)`, then
    /// `(0.5·x)·(1 + t)`, with [`Tensor::tanh`]'s fdlibm `tanh` and no
    /// FMA, so the AVX2 kernel and `TS3_SIMD=0` give the same bits and
    /// neither depends on the host libm. Traced as a `tensor.gelu` span
    /// (field `n`, the element count) with a `tensor.gelu.sched.tanh_*`
    /// counter naming the kernel that ran.
    pub fn gelu_with_tanh(&self) -> (Tensor, Tensor) {
        let mut span = ts3_obs::span("tensor.gelu");
        if span.active() {
            span.field("n", self.data.len());
            ts3_obs::counter_add(
                if crate::simd::avx2_active() {
                    "tensor.gelu.sched.tanh_avx2"
                } else {
                    "tensor.gelu.sched.tanh_scalar"
                },
                1,
            );
        }
        let (gelu, t) = crate::simd::gelu_tanh_vec(&self.data);
        (
            Tensor { data: gelu, shape: self.shape.clone() },
            Tensor { data: t, shape: self.shape.clone() },
        )
    }

    /// Elementwise power with an f32 exponent.
    pub fn powf(&self, e: f32) -> Tensor {
        self.map(|v| v.powf(e))
    }

    /// Clamp all elements into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|v| v.clamp(lo, hi))
    }

    // ------------------------------------------------------------------
    // Scalar binary ops
    // ------------------------------------------------------------------

    /// Add a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Multiply every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Divide every element by a scalar.
    pub fn div_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v / s)
    }

    // ------------------------------------------------------------------
    // Broadcasting binary ops
    // ------------------------------------------------------------------

    /// Broadcasting elementwise addition.
    ///
    /// # Panics
    /// Panics if the shapes do not broadcast (likewise [`Tensor::sub`],
    /// [`Tensor::mul`] and [`Tensor::div`]).
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip_broadcast(rhs, "add", |a, b| a + b)
    }

    /// Broadcasting elementwise subtraction.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip_broadcast(rhs, "sub", |a, b| a - b)
    }

    /// Broadcasting elementwise multiplication.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.zip_broadcast(rhs, "mul", |a, b| a * b)
    }

    /// Broadcasting elementwise division.
    pub fn div(&self, rhs: &Tensor) -> Tensor {
        self.zip_broadcast(rhs, "div", |a, b| a / b)
    }

    /// Combine two tensors elementwise under broadcasting with `f`.
    fn zip_broadcast(&self, rhs: &Tensor, op: &'static str, f: impl Fn(f32, f32) -> f32) -> Tensor {
        // Fast path: identical shapes need no index arithmetic at all.
        if self.shape == rhs.shape {
            let data = self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect();
            return Tensor { data, shape: self.shape.clone() };
        }
        let out_shape = broadcast_shapes(&self.shape, &rhs.shape, op);
        let n = numel(&out_shape);
        let ls = broadcast_strides(&self.shape, &out_shape);
        let rs = broadcast_strides(&rhs.shape, &out_shape);
        let mut data = Vec::with_capacity(n);
        let rank = out_shape.len();
        let mut coords = vec![0usize; rank];
        let mut li = 0usize;
        let mut ri = 0usize;
        for _ in 0..n {
            data.push(f(self.data[li], rhs.data[ri]));
            // Increment coords odometer-style, updating li/ri incrementally.
            for ax in (0..rank).rev() {
                coords[ax] += 1;
                li += ls[ax];
                ri += rs[ax];
                if coords[ax] < out_shape[ax] {
                    break;
                }
                coords[ax] = 0;
                li -= ls[ax] * out_shape[ax];
                ri -= rs[ax] * out_shape[ax];
            }
        }
        debug_assert_eq!(data.len(), numel(&out_shape));
        Tensor { data, shape: out_shape }
    }

    /// In-place `self += rhs` for identically shaped tensors (hot path for
    /// gradient accumulation).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place `self += alpha * rhs` (axpy) for identically shaped tensors.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec(v, s)
    }

    #[test]
    fn unary_ops_basic() {
        let x = t(vec![-1.0, 0.0, 4.0], &[3]);
        assert_eq!(x.neg().as_slice(), &[1.0, 0.0, -4.0]);
        assert_eq!(x.abs().as_slice(), &[1.0, 0.0, 4.0]);
        assert_eq!(x.relu().as_slice(), &[0.0, 0.0, 4.0]);
        assert_eq!(x.square().as_slice(), &[1.0, 0.0, 16.0]);
        assert!((x.sqrt().as_slice()[2] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_symmetry() {
        let x = t(vec![-2.0, 0.0, 2.0], &[3]);
        let s = x.sigmoid();
        assert!((s.as_slice()[1] - 0.5).abs() < 1e-6);
        assert!((s.as_slice()[0] + s.as_slice()[2] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn gelu_limits() {
        // gelu(x) -> x for large x, -> 0 for very negative x, = 0 at 0.
        let x = t(vec![-10.0, 0.0, 10.0], &[3]);
        let (g, _) = x.gelu_with_tanh();
        assert!(g.as_slice()[0].abs() < 1e-3);
        assert_eq!(g.as_slice()[1], 0.0);
        assert!((g.as_slice()[2] - 10.0).abs() < 1e-3);
    }

    #[test]
    fn scalar_ops() {
        let x = t(vec![1.0, 2.0], &[2]);
        assert_eq!(x.add_scalar(1.0).as_slice(), &[2.0, 3.0]);
        assert_eq!(x.mul_scalar(3.0).as_slice(), &[3.0, 6.0]);
        assert_eq!(x.div_scalar(2.0).as_slice(), &[0.5, 1.0]);
    }

    #[test]
    fn add_same_shape() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![10.0, 20.0, 30.0, 40.0], &[2, 2]);
        assert_eq!(a.add(&b).as_slice(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn broadcast_row_vector() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let row = t(vec![10.0, 20.0, 30.0], &[3]);
        let c = a.add(&row);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn broadcast_column_vector() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let col = t(vec![100.0, 200.0], &[2, 1]);
        let c = a.add(&col);
        assert_eq!(c.as_slice(), &[101.0, 102.0, 103.0, 204.0, 205.0, 206.0]);
    }

    #[test]
    fn broadcast_scalar_tensor() {
        let a = t(vec![1.0, 2.0], &[2]);
        let s = Tensor::scalar(5.0);
        assert_eq!(a.mul(&s).as_slice(), &[5.0, 10.0]);
        assert_eq!(s.sub(&a).as_slice(), &[4.0, 3.0]);
    }

    #[test]
    fn broadcast_3d() {
        let a = Tensor::ones(&[2, 1, 3]);
        let b = t(vec![1.0, 2.0], &[2, 1, 1]);
        let c = a.mul(&b);
        assert_eq!(c.shape(), &[2, 1, 3]);
        assert_eq!(c.as_slice(), &[1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "add: incompatible shapes")]
    fn incompatible_shapes_panic() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4]);
        let _ = a.add(&b);
    }

    #[test]
    fn add_assign_and_axpy() {
        let mut a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![10.0, 20.0], &[2]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11.0, 22.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[16.0, 32.0]);
    }

    #[test]
    fn clamp_bounds() {
        let x = t(vec![-5.0, 0.5, 5.0], &[3]);
        assert_eq!(x.clamp(-1.0, 1.0).as_slice(), &[-1.0, 0.5, 1.0]);
    }
}
