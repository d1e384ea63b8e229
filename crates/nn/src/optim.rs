//! The Adam optimiser, gradient clipping, and the halving learning-rate
//! schedule used by the paper's training protocol (TimesNet-style
//! `lradj = type1`).

use ts3_autograd::Param;
use ts3_tensor::Tensor;

/// The optimiser interface the training loops step through; [`Adam`] is
/// its one implementor.
pub trait Optimizer {
    /// Apply one update step from the accumulated gradients, then clear
    /// them.
    fn step(&mut self);
    /// Clear accumulated gradients without stepping.
    fn zero_grad(&self);
    /// Override the learning rate (for schedules).
    fn set_lr(&mut self, lr: f32);
}

/// Adam with the paper's defaults: `beta1 = 0.9`, `beta2 = 0.999`.
pub struct Adam {
    params: Vec<Param>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Build Adam over a parameter list (Table III configuration).
    pub fn new(params: Vec<Param>, lr: f32) -> Self {
        let m = params.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        let v = params.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        Adam { params, lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m, v }
    }

    /// Clip the global gradient norm to `max_norm` before stepping.
    pub fn clip_grad_norm(&self, max_norm: f32) {
        let total: f32 = self
            .params
            .iter()
            .map(|p| {
                let n = p.grad_norm();
                n * n
            })
            .sum::<f32>()
            .sqrt();
        if ts3_obs::enabled() {
            ts3_obs::gauge_set("optim.grad_norm", total as f64);
            ts3_obs::observe("optim.grad_norm", total as f64);
        }
        if total > max_norm && total > 0.0 {
            ts3_obs::counter_add("optim.grad_clips", 1);
            let scale = max_norm / total;
            for p in &self.params {
                p.scale_grad(scale);
            }
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        ts3_obs::counter_add("optim.adam.steps", 1);
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for (i, p) in self.params.iter().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            p.update_with(|value, grad| {
                for j in 0..grad.numel() {
                    let g = grad.as_slice()[j];
                    let mj = b1 * m.as_slice()[j] + (1.0 - b1) * g;
                    let vj = b2 * v.as_slice()[j] + (1.0 - b2) * g * g;
                    m.as_mut_slice()[j] = mj;
                    v.as_mut_slice()[j] = vj;
                    let mhat = mj / b1t;
                    let vhat = vj / b2t;
                    value.as_mut_slice()[j] -= lr * mhat / (vhat.sqrt() + eps);
                }
            });
            p.zero_grad();
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// The `type1` schedule from the reference protocol: halve the learning
/// rate every epoch after the first.
pub fn lr_type1(initial: f32, epoch: usize) -> f32 {
    initial * 0.5f32.powi(epoch as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_autograd::Var;

    fn quadratic_step(opt: &mut dyn Optimizer, p: &Param) -> f32 {
        // loss = (w - 3)^2
        let w = p.var();
        let loss = w.add_scalar(-3.0).square().sum();
        opt.zero_grad();
        loss.backward();
        opt.step();
        loss.value().item()
    }

    #[test]
    fn adam_minimises_quadratic() {
        let p = Param::new("w", Tensor::zeros(&[1]));
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            last = quadratic_step(&mut opt, &p);
        }
        assert!(last < 1e-3, "final loss {last}");
        assert!((p.value().item() - 3.0).abs() < 0.05);
    }

    #[test]
    fn adam_step_clears_grad() {
        let p = Param::new("w", Tensor::zeros(&[1]));
        let mut opt = Adam::new(vec![p.clone()], 0.01);
        p.var().backward_with(Tensor::ones(&[1]));
        assert!(p.grad_norm() > 0.0);
        opt.step();
        assert_eq!(p.grad_norm(), 0.0);
    }

    #[test]
    fn clip_grad_norm_bounds_total() {
        let a = Param::new("a", Tensor::zeros(&[2]));
        let b = Param::new("b", Tensor::zeros(&[2]));
        let opt = Adam::new(vec![a.clone(), b.clone()], 0.01);
        Var::concat(&[&a.var(), &b.var()], 0)
            .backward_with(Tensor::from_vec(vec![3.0, 0.0, 0.0, 4.0], &[4]));
        opt.clip_grad_norm(1.0);
        let total = (a.grad_norm().powi(2) + b.grad_norm().powi(2)).sqrt();
        assert!((total - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_noop_when_below_threshold() {
        let a = Param::new("a", Tensor::zeros(&[1]));
        let opt = Adam::new(vec![a.clone()], 0.01);
        a.var().backward_with(Tensor::from_vec(vec![0.5], &[1]));
        opt.clip_grad_norm(10.0);
        assert!((a.grad_norm() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn lr_schedule_halves() {
        assert_eq!(lr_type1(1e-3, 0), 1e-3);
        assert_eq!(lr_type1(1e-3, 1), 5e-4);
        assert_eq!(lr_type1(1e-3, 3), 1.25e-4);
    }

    #[test]
    fn set_lr_sets_the_step_size() {
        // Adam's first step moves each weight by lr·g/(|g| + eps) ≈ lr.
        let p = Param::new("w", Tensor::zeros(&[1]));
        let mut opt = Adam::new(vec![p.clone()], 0.1);
        opt.set_lr(0.05);
        p.var().backward_with(Tensor::ones(&[1]));
        opt.step();
        assert!((p.value().item() + 0.05).abs() < 1e-6, "{}", p.value().item());
    }
}
