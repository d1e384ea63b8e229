//! The [`Tensor`] type: a contiguous row-major `f32` buffer plus a shape.

use crate::shape::{numel, strides_for, unravel};
use std::fmt;

/// Dense, contiguous, row-major `f32` tensor.
///
/// Cloning a tensor deep-copies its buffer; the model sizes in this
/// repository keep buffers small enough that explicit copies are cheaper to
/// reason about than shared views.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    pub(crate) data: Vec<f32>,
    pub(crate) shape: Vec<usize>,
}

impl Tensor {
    // ---------------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------------

    /// Build a tensor from a flat `Vec` and a shape.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the shape product.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert!(
            data.len() == numel(shape),
            "Tensor::from_vec: length/shape mismatch (data length {} vs shape {shape:?})",
            data.len()
        );
        Tensor { data, shape: shape.to_vec() }
    }

    /// A 0-dimensional (scalar) tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor { data: vec![v], shape: vec![] }
    }

    /// Tensor filled with `v`.
    pub fn full(shape: &[usize], v: f32) -> Self {
        Tensor { data: vec![v; numel(shape)], shape: shape.to_vec() }
    }

    /// Zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// One-filled tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Identity matrix of size `n x n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// `[0, 1, ..., n-1]` as a 1-D tensor.
    pub fn arange(n: usize) -> Self {
        Tensor { data: (0..n).map(|i| i as f32).collect(), shape: vec![n] }
    }

    // ---------------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------------

    /// The tensor shape (row-major dimension list).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Borrow the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor and return its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Extract the single element of a scalar (or one-element) tensor.
    ///
    /// # Panics
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires exactly one element, got {}", self.numel());
        self.data[0]
    }

    /// Element access by multi-dimensional coordinates.
    ///
    /// # Panics
    /// Panics on rank mismatch or out-of-range coordinates.
    pub fn at(&self, coords: &[usize]) -> f32 {
        self.data[self.flat_index(coords)]
    }

    /// Set an element by multi-dimensional coordinates.
    pub fn set(&mut self, coords: &[usize], v: f32) {
        let idx = self.flat_index(coords);
        self.data[idx] = v;
    }

    fn flat_index(&self, coords: &[usize]) -> usize {
        assert_eq!(
            coords.len(),
            self.rank(),
            "coordinate rank {} does not match tensor rank {}",
            coords.len(),
            self.rank()
        );
        let strides = strides_for(&self.shape);
        let mut idx = 0;
        for (i, (&c, &s)) in coords.iter().zip(&strides).enumerate() {
            assert!(c < self.shape[i], "coordinate {c} out of range for axis {i} (len {})", self.shape[i]);
            idx += c * s;
        }
        idx
    }

    /// True if all elements are finite (no NaN / infinities).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Maximum absolute difference to another tensor of identical shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// Approximate equality within an absolute tolerance.
    pub fn allclose(&self, other: &Tensor, atol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= atol
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            let head: Vec<f32> = self.data[..8].to_vec();
            write!(f, ", data[..8]={head:?}, ...)")
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rank() <= 1 {
            return write!(f, "{:?}", self.data);
        }
        // Print as nested rows for rank >= 2 (flattening leading dims).
        // ts3-lint: allow(no-unwrap-in-lib) rank >= 2 is checked just above, so the shape has a last element
        let cols = *self.shape.last().unwrap();
        let rows = self.numel() / cols.max(1);
        writeln!(f, "[")?;
        for r in 0..rows {
            let coords = unravel(r * cols, &self.shape);
            write!(f, "  {:?}: ", &coords[..coords.len() - 1])?;
            let row = &self.data[r * cols..(r + 1) * cols];
            writeln!(f, "{row:?}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "length/shape mismatch")]
    fn from_vec_panics_on_mismatch() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn scalar_roundtrip() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.item(), 3.5);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        assert_eq!(i.at(&[2, 2]), 1.0);
    }

    #[test]
    fn arange_counts_from_zero() {
        assert_eq!(Tensor::arange(4).as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn at_and_set_use_row_major_order() {
        let mut t = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        assert_eq!(t.at(&[1, 2]), 5.0);
        t.set(&[0, 1], 9.0);
        assert_eq!(t.as_slice()[1], 9.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn at_panics_out_of_range() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[2, 0]);
    }

    #[test]
    fn allclose_and_max_abs_diff() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0, 2.5], &[2]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
        assert!(a.allclose(&b, 0.6));
        assert!(!a.allclose(&b, 0.4));
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::ones(&[3]);
        assert!(t.all_finite());
        t.as_mut_slice()[1] = f32::NAN;
        assert!(!t.all_finite());
    }

    #[test]
    fn debug_truncates_large_tensors() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.contains("..."));
    }

    #[test]
    fn display_rank2() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let s = format!("{t}");
        assert!(s.contains("[1.0, 2.0]"));
    }
}
