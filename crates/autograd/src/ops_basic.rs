//! Differentiable elementwise and scalar operations on [`Var`].

use crate::var::{reduce_grad_to_shape, Var};
use ts3_tensor::Tensor;

impl Var {
    /// Broadcasting addition.
    pub fn add(&self, rhs: &Var) -> Var {
        let value = self.value().add(rhs.value());
        Var::node(
            value,
            vec![self.clone(), rhs.clone()],
            Box::new(|g, parents| {
                vec![
                    Some(reduce_grad_to_shape(g, parents[0].shape())),
                    Some(reduce_grad_to_shape(g, parents[1].shape())),
                ]
            }),
        )
    }

    /// Broadcasting subtraction.
    pub fn sub(&self, rhs: &Var) -> Var {
        let value = self.value().sub(rhs.value());
        Var::node(
            value,
            vec![self.clone(), rhs.clone()],
            Box::new(|g, parents| {
                vec![
                    Some(reduce_grad_to_shape(g, parents[0].shape())),
                    Some(reduce_grad_to_shape(&g.neg(), parents[1].shape())),
                ]
            }),
        )
    }

    /// Broadcasting multiplication.
    pub fn mul(&self, rhs: &Var) -> Var {
        let value = self.value().mul(rhs.value());
        Var::node(
            value,
            vec![self.clone(), rhs.clone()],
            Box::new(|g, parents| {
                let ga = g.mul(parents[1].value());
                let gb = g.mul(parents[0].value());
                vec![
                    Some(reduce_grad_to_shape(&ga, parents[0].shape())),
                    Some(reduce_grad_to_shape(&gb, parents[1].shape())),
                ]
            }),
        )
    }

    /// Broadcasting division.
    pub fn div(&self, rhs: &Var) -> Var {
        let value = self.value().div(rhs.value());
        Var::node(
            value,
            vec![self.clone(), rhs.clone()],
            Box::new(|g, parents| {
                let b = parents[1].value();
                let ga = g.div(b);
                // d/db (a/b) = -a / b^2
                let gb = g.mul(parents[0].value()).neg().div(&b.square());
                vec![
                    Some(reduce_grad_to_shape(&ga, parents[0].shape())),
                    Some(reduce_grad_to_shape(&gb, parents[1].shape())),
                ]
            }),
        )
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        Var::node(
            self.value().neg(),
            vec![self.clone()],
            Box::new(|g, _| vec![Some(g.neg())]),
        )
    }

    /// Add a scalar constant.
    pub fn add_scalar(&self, s: f32) -> Var {
        Var::node(
            self.value().add_scalar(s),
            vec![self.clone()],
            Box::new(|g, _| vec![Some(g.clone())]),
        )
    }

    /// Multiply by a scalar constant.
    pub fn mul_scalar(&self, s: f32) -> Var {
        Var::node(
            self.value().mul_scalar(s),
            vec![self.clone()],
            Box::new(move |g, _| vec![Some(g.mul_scalar(s))]),
        )
    }

    /// Elementwise square.
    pub fn square(&self) -> Var {
        Var::node(
            self.value().square(),
            vec![self.clone()],
            Box::new(|g, parents| vec![Some(g.mul(&parents[0].value().mul_scalar(2.0)))]),
        )
    }

    /// Elementwise square root (gradient guarded by a small epsilon).
    pub fn sqrt(&self) -> Var {
        let value = self.value().sqrt();
        let out = value.clone();
        Var::node(
            value,
            vec![self.clone()],
            Box::new(move |g, _| {
                // d sqrt(x) = 1 / (2 sqrt(x)); guard the denominator.
                let denom = out.add_scalar(1e-12).mul_scalar(2.0);
                vec![Some(g.div(&denom))]
            }),
        )
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Var {
        let value = self.value().exp();
        let out = value.clone();
        Var::node(
            value,
            vec![self.clone()],
            Box::new(move |g, _| vec![Some(g.mul(&out))]),
        )
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Var {
        Var::node(
            self.value().ln(),
            vec![self.clone()],
            Box::new(|g, parents| vec![Some(g.div(parents[0].value()))]),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Var {
        Var::node(
            self.value().relu(),
            vec![self.clone()],
            Box::new(|g, parents| {
                let mask = parents[0].value().map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                vec![Some(g.mul(&mask))]
            }),
        )
    }

    /// GELU activation (tanh approximation), differentiated analytically.
    /// The forward's inner `tanh` is kept for the backward, which needs
    /// it in both terms of the derivative. The backward forms `g · dx`
    /// in one pass, one multiply per element, with no `dx` tensor.
    pub fn gelu(&self) -> Var {
        let (value, t) = self.value().gelu_with_tanh();
        Var::node(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                const C: f32 = 0.797_884_6; // sqrt(2/pi)
                const A: f32 = 0.044_715;
                let x = parents[0].value();
                assert_eq!(g.shape(), x.shape(), "gelu backward: gradient shape");
                let gx = g
                    .as_slice()
                    .iter()
                    .zip(x.as_slice())
                    .zip(t.as_slice())
                    .map(|((&g, &x), &t)| {
                        let du = C * (1.0 + 3.0 * A * x * x);
                        g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
                    })
                    .collect();
                vec![Some(Tensor::from_vec(gx, x.shape()))]
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let value = self.value().tanh();
        let out = value.clone();
        Var::node(
            value,
            vec![self.clone()],
            Box::new(move |g, _| {
                let d = out.map(|t| 1.0 - t * t);
                vec![Some(g.mul(&d))]
            }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let value = self.value().sigmoid();
        let out = value.clone();
        Var::node(
            value,
            vec![self.clone()],
            Box::new(move |g, _| {
                let d = out.map(|s| s * (1.0 - s));
                vec![Some(g.mul(&d))]
            }),
        )
    }

    /// Elementwise absolute value (subgradient 0 at the kink).
    pub fn abs(&self) -> Var {
        Var::node(
            self.value().abs(),
            vec![self.clone()],
            Box::new(|g, parents| {
                let sign = parents[0].value().map(|v| {
                    if v > 0.0 {
                        1.0
                    } else if v < 0.0 {
                        -1.0
                    } else {
                        0.0
                    }
                });
                vec![Some(g.mul(&sign))]
            }),
        )
    }

    /// Apply a dropout mask (precomputed by the caller; identity at eval).
    /// The same mask scales the gradient.
    pub fn apply_mask(&self, mask: &Tensor) -> Var {
        assert_eq!(self.shape(), mask.shape(), "apply_mask: shape mismatch");
        let value = self.value().mul(mask);
        let mask = mask.clone();
        Var::node(
            value,
            vec![self.clone()],
            Box::new(move |g, _| vec![Some(g.mul(&mask))]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(v: Vec<f32>, s: &[usize]) -> Var {
        Var::constant(Tensor::from_vec(v, s))
    }

    #[test]
    fn add_grads_are_ones() {
        let a = leaf(vec![1.0, 2.0], &[2]);
        let b = leaf(vec![3.0, 4.0], &[2]);
        let c = a.add(&b);
        c.backward_with(Tensor::from_vec(vec![1.0, 10.0], &[2]));
        assert_eq!(a.grad().unwrap().as_slice(), &[1.0, 10.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[1.0, 10.0]);
    }

    #[test]
    fn sub_grad_negates_rhs() {
        let a = leaf(vec![5.0], &[1]);
        let b = leaf(vec![2.0], &[1]);
        let c = a.sub(&b);
        c.backward();
        assert_eq!(a.grad().unwrap().as_slice(), &[1.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[-1.0]);
    }

    #[test]
    fn mul_grad_swaps_operands() {
        let a = leaf(vec![3.0], &[1]);
        let b = leaf(vec![7.0], &[1]);
        a.mul(&b).backward();
        assert_eq!(a.grad().unwrap().as_slice(), &[7.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[3.0]);
    }

    #[test]
    fn div_grad() {
        let a = leaf(vec![6.0], &[1]);
        let b = leaf(vec![2.0], &[1]);
        a.div(&b).backward();
        assert_eq!(a.grad().unwrap().as_slice(), &[0.5]);
        assert_eq!(b.grad().unwrap().as_slice(), &[-1.5]);
    }

    #[test]
    fn broadcast_add_reduces_grad() {
        let a = leaf(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = leaf(vec![10.0, 20.0, 30.0], &[3]);
        let c = a.add(&b);
        c.backward_with(Tensor::ones(&[2, 3]));
        assert_eq!(b.grad().unwrap().as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn chain_rule_through_square() {
        // y = (2x)^2 -> dy/dx = 8x = 24 at x = 3.
        let x = leaf(vec![3.0], &[1]);
        let y = x.mul_scalar(2.0).square();
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[24.0]);
    }

    #[test]
    fn diamond_graph_accumulates() {
        // y = x*x + x -> dy/dx = 2x + 1 = 7 at x = 3.
        let x = leaf(vec![3.0], &[1]);
        let y = x.mul(&x).add(&x);
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[7.0]);
    }

    #[test]
    fn relu_masks_gradient() {
        let x = leaf(vec![-1.0, 2.0], &[2]);
        x.relu().backward_with(Tensor::ones(&[2]));
        assert_eq!(x.grad().unwrap().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn tanh_grad_at_zero_is_one() {
        let x = leaf(vec![0.0], &[1]);
        x.tanh().backward();
        assert!((x.grad().unwrap().item() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_grad_at_zero_is_quarter() {
        let x = leaf(vec![0.0], &[1]);
        x.sigmoid().backward();
        assert!((x.grad().unwrap().item() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn exp_ln_roundtrip_grad() {
        // y = ln(exp(x)) = x -> grad 1.
        let x = leaf(vec![0.7], &[1]);
        x.exp().ln().backward();
        assert!((x.grad().unwrap().item() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn backward_clears_stale_grads() {
        let x = leaf(vec![1.0], &[1]);
        let y = x.mul_scalar(3.0);
        y.backward();
        assert_eq!(x.grad().unwrap().as_slice(), &[3.0]);
        y.backward();
        // Re-running over the same graph must not double-count.
        assert_eq!(x.grad().unwrap().as_slice(), &[3.0]);
    }

    #[test]
    fn abs_subgradient() {
        let x = leaf(vec![-2.0, 0.0, 5.0], &[3]);
        x.abs().backward_with(Tensor::ones(&[3]));
        assert_eq!(x.grad().unwrap().as_slice(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn apply_mask_scales_both_ways() {
        let x = leaf(vec![1.0, 2.0], &[2]);
        let m = Tensor::from_vec(vec![0.0, 2.0], &[2]);
        let y = x.apply_mask(&m);
        assert_eq!(y.value().as_slice(), &[0.0, 4.0]);
        y.backward_with(Tensor::ones(&[2]));
        assert_eq!(x.grad().unwrap().as_slice(), &[0.0, 2.0]);
    }
}
