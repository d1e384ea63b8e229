//! # ts3-autograd
//!
//! Reverse-mode automatic differentiation over [`ts3_tensor::Tensor`].
//! This is the training substrate for the TS3Net reproduction: a dynamic
//! graph rebuilt on every forward pass ([`Var`]), persistent trainable
//! parameters with cross-step gradient accumulation ([`Param`]), a small
//! but complete set of differentiable primitives (elementwise ops, shape
//! manipulation, reductions, matmul, conv1d/conv2d, softmax, layer norm),
//! a public node constructor for operators with hand-written adjoints
//! ([`Var::node`], used for the wavelet transform), a
//! finite-difference gradient checker ([`gradcheck_var`]), and a
//! thread-local tape-suppression guard for inference ([`NoGradGuard`])
//! whose outputs are bitwise identical to the recorded forward.
//!
//! ```
//! use ts3_autograd::{Param, Var};
//! use ts3_tensor::Tensor;
//!
//! // One gradient step of least squares y = x w.
//! let w = Param::new("w", Tensor::zeros(&[1, 1]));
//! let x = Var::constant(Tensor::from_vec(vec![1.0, 2.0], &[2, 1]));
//! let target = Tensor::from_vec(vec![2.0, 4.0], &[2, 1]);
//! let loss = x.matmul(&w.var()).mse_loss(&target);
//! loss.backward();
//! w.update_with(|v, g| v.axpy(-0.1, g));
//! assert!(w.value().item() > 0.0);
//! ```

mod gradcheck;
mod nograd;
mod ops_basic;
mod ops_conv;
mod ops_matmul;
mod ops_reduce;
mod ops_shape;
mod param;
mod var;

pub use gradcheck::{assert_gradcheck, gradcheck_var, GradCheckReport};
pub use nograd::{is_recording, NoGradGuard};
pub use param::Param;
pub use var::{BackwardFn, Var};
