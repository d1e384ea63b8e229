//! # ts3-tensor
//!
//! A dense, row-major, `f32` n-dimensional tensor library written from
//! scratch for the TS3Net reproduction. It provides exactly the operations
//! the paper's model zoo needs: broadcasting elementwise arithmetic,
//! reductions, (batched) matrix multiplication, column-free 1-D/2-D
//! convolution, shape manipulation (reshape / permute / slice / concat / pad),
//! and seeded random initialisation.
//!
//! ## Design
//!
//! * Tensors are always **contiguous row-major**; operations that would
//!   produce strided views (`permute`, `slice`) materialise a fresh buffer.
//!   At the model sizes used in this repository the copy cost is negligible
//!   and it keeps every kernel branch-free.
//! * The API comes in two flavours: fallible `try_*` methods returning
//!   [`Result<_, TensorError>`] for boundary code (loading data, user
//!   configuration), and panicking wrappers with descriptive messages for
//!   model internals where a shape mismatch is a programming error.
//! * Everything is `f32`. Reductions accumulate in `f64` where it is cheap
//!   to do so (full-tensor `sum`/`mean`) to keep long-series statistics
//!   stable.
//!
//! ## Example
//!
//! ```
//! use ts3_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! ```

pub mod conv;
mod elementwise;
mod error;
mod gemm;
mod init;
mod linalg;
mod manip;
pub mod par;
mod reduce;
pub mod shape;
pub mod simd;
mod tensor;

pub use conv::{avg_pool_axis, conv1d, conv2d, conv2d_backward, moving_avg_same, moving_avg_same_into};
pub use error::TensorError;
pub use shape::{broadcast_shapes, strides_for, Shape};
pub use tensor::Tensor;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
