//! Tape suppression for inference: a thread-local guard under which no
//! graph is recorded.
//!
//! Every `Var` operation computes its output tensor eagerly (via
//! `ts3-tensor` kernels) *before* registering a graph node, so
//! suppressing the node — dropping the parent edges and the backward
//! closure and returning a plain leaf — cannot change any value. While a
//! [`NoGradGuard`] is alive on the current thread, a forward pass
//! therefore produces outputs **bitwise identical** to the recorded
//! version while keeping the live graph bounded: each intermediate `Var`
//! is a parentless leaf, freed as soon as the last handle to it drops.
//!
//! This is the mechanism behind `ts3net_core`'s `CompiledPlan`: compiled
//! execution is the eager forward with the tape switched off, which is
//! how the plan's bitwise-equivalence contract is met by construction.
//!
//! Guards nest; recording resumes when the outermost guard drops. The
//! flag is per-thread, so parallel kernel workers (which never touch
//! `Var`s) and other threads' training loops are unaffected.
//!
//! ```
//! use ts3_autograd::{NoGradGuard, Param, Var};
//! use ts3_tensor::Tensor;
//!
//! let w = Param::new("w", Tensor::from_vec(vec![2.0], &[1]));
//! let x = Var::constant(Tensor::from_vec(vec![3.0], &[1]));
//!
//! // Recorded: gradient flows back to the parameter.
//! let y = w.var().mul(&x);
//! y.backward();
//! assert_eq!(w.grad().as_slice(), &[3.0]);
//!
//! // Suppressed: identical value, no tape, no gradient.
//! w.zero_grad();
//! let y2 = {
//!     let _guard = NoGradGuard::new();
//!     assert!(!ts3_autograd::is_recording());
//!     w.var().mul(&x)
//! };
//! assert!(ts3_autograd::is_recording());
//! assert_eq!(y2.value().as_slice(), y.value().as_slice());
//! y2.backward(); // a leaf: backward is a no-op
//! assert_eq!(w.grad().as_slice(), &[0.0]);
//! ```

use std::cell::Cell;
use std::marker::PhantomData;

thread_local! {
    static NO_GRAD_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// True when operations on this thread currently record the autodiff
/// tape (i.e. no [`NoGradGuard`] is alive).
pub fn is_recording() -> bool {
    NO_GRAD_DEPTH.with(|c| c.get()) == 0
}

/// RAII guard suppressing tape recording on the current thread. Nests:
/// recording resumes when the outermost guard drops.
pub struct NoGradGuard {
    // !Send: the guard manipulates thread-local state and must be
    // dropped on the thread that created it.
    _not_send: PhantomData<*const ()>,
}

impl NoGradGuard {
    /// Engage tape suppression on the current thread.
    #[allow(clippy::new_without_default)] // acquiring a guard is an effect, not a default value
    pub fn new() -> NoGradGuard {
        NO_GRAD_DEPTH.with(|c| c.set(c.get() + 1));
        NoGradGuard { _not_send: PhantomData }
    }
}

impl Drop for NoGradGuard {
    fn drop(&mut self) {
        NO_GRAD_DEPTH.with(|c| c.set(c.get().saturating_sub(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Param, Var};
    use ts3_tensor::Tensor;

    #[test]
    fn guard_toggles_recording() {
        assert!(is_recording());
        {
            let _g = NoGradGuard::new();
            assert!(!is_recording());
            {
                let _g2 = NoGradGuard::new();
                assert!(!is_recording());
            }
            assert!(!is_recording()); // still inside the outer guard
        }
        assert!(is_recording());
    }

    #[test]
    fn values_identical_with_and_without_tape() {
        let w = Param::new("w", Tensor::randn(&[4, 4], 7));
        let x = Var::constant(Tensor::randn(&[4, 4], 8));
        let eager = w.var().matmul(&x).relu().sum();
        let frozen = {
            let _g = NoGradGuard::new();
            w.var().matmul(&x).relu().sum()
        };
        assert_eq!(
            eager.value().as_slice(),
            frozen.value().as_slice(),
            "no-grad execution must be bitwise identical"
        );
    }

    #[test]
    fn no_grad_output_is_a_leaf() {
        let w = Param::new("w", Tensor::from_vec(vec![1.0, 2.0], &[2]));
        let y = {
            let _g = NoGradGuard::new();
            w.var().mul(&w.var()).sum()
        };
        y.backward();
        assert_eq!(w.grad().as_slice(), &[0.0, 0.0], "no gradient may flow under the guard");
    }

    #[test]
    fn recording_resumes_after_guard() {
        let w = Param::new("w", Tensor::from_vec(vec![3.0], &[1]));
        {
            let _g = NoGradGuard::new();
            let _ = w.var().mul(&w.var());
        }
        let y = w.var().mul(&w.var());
        y.backward();
        assert_eq!(w.grad().as_slice(), &[6.0]);
    }
}
