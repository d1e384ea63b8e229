//! Shape manipulation: reshape, narrow/slice, concat, stack, pad, repeat
//! and axis selection.

use crate::shape::numel;
use crate::Tensor;

impl Tensor {
    /// Reshape without changing element count.
    ///
    /// # Panics
    /// Panics if `shape` holds a different number of elements.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert!(
            numel(shape) == self.numel(),
            "reshape: element count mismatch ({:?} -> {shape:?})",
            self.shape
        );
        Tensor { data: self.data.clone(), shape: shape.to_vec() }
    }

    /// Flatten to 1-D.
    pub fn flatten(&self) -> Tensor {
        Tensor { data: self.data.clone(), shape: vec![self.numel()] }
    }

    /// Insert a length-1 axis at `axis`.
    pub fn unsqueeze(&self, axis: usize) -> Tensor {
        assert!(axis <= self.rank(), "unsqueeze: axis {axis} > rank {}", self.rank());
        let mut shape = self.shape.clone();
        shape.insert(axis, 1);
        Tensor { data: self.data.clone(), shape }
    }

    /// Remove a length-1 axis at `axis`.
    ///
    /// # Panics
    /// Panics if the axis length is not 1.
    pub fn squeeze(&self, axis: usize) -> Tensor {
        assert!(axis < self.rank(), "squeeze: axis out of range");
        assert_eq!(self.shape[axis], 1, "squeeze: axis {axis} has length {}", self.shape[axis]);
        let mut shape = self.shape.clone();
        shape.remove(axis);
        Tensor { data: self.data.clone(), shape }
    }

    /// Take the sub-tensor `[start, start+len)` along `axis` (like
    /// `torch.narrow`), materialising a contiguous copy.
    ///
    /// # Panics
    /// Panics if `axis >= rank` or the range passes the end of the axis.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Tensor {
        assert!(
            axis < self.rank() && start + len <= self.shape[axis],
            "narrow: range out of bounds ({start}..{} on axis {axis} of {:?})",
            start + len,
            self.shape
        );
        let outer: usize = self.shape[..axis].iter().product();
        let n = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(outer * len * inner);
        for o in 0..outer {
            let base = (o * n + start) * inner;
            data.extend_from_slice(&self.data[base..base + len * inner]);
        }
        let mut shape = self.shape.clone();
        shape[axis] = len;
        Tensor { data, shape }
    }

    /// Select a single index along `axis`, removing the axis.
    pub fn index_axis(&self, axis: usize, index: usize) -> Tensor {
        self.narrow(axis, index, 1).squeeze(axis)
    }

    /// Gather a list of indices along `axis` (duplicates allowed).
    pub fn select(&self, axis: usize, indices: &[usize]) -> Tensor {
        assert!(axis < self.rank(), "select: axis out of range");
        let outer: usize = self.shape[..axis].iter().product();
        let n = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(outer * indices.len() * inner);
        for o in 0..outer {
            for &idx in indices {
                assert!(idx < n, "select: index {idx} out of range for axis length {n}");
                let base = (o * n + idx) * inner;
                data.extend_from_slice(&self.data[base..base + inner]);
            }
        }
        let mut shape = self.shape.clone();
        shape[axis] = indices.len();
        Tensor { data, shape }
    }

    /// Concatenate tensors along an existing axis.
    ///
    /// # Panics
    /// Panics if the list is empty, `axis >= rank`, or the tensors differ
    /// in rank or in any other axis.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat: incompatible inputs (empty tensor list)");
        let first = &tensors[0].shape;
        assert!(axis < first.len(), "concat: incompatible inputs (axis {axis} for shape {first:?})");
        for t in tensors {
            assert!(
                t.rank() == first.len() && (0..first.len()).all(|ax| ax == axis || t.shape[ax] == first[ax]),
                "concat: incompatible inputs ({first:?} vs {:?} on axis {axis})",
                t.shape
            );
        }
        let outer: usize = tensors[0].shape[..axis].iter().product();
        let inner: usize = tensors[0].shape[axis + 1..].iter().product();
        let total_axis: usize = tensors.iter().map(|t| t.shape[axis]).sum();
        let mut data = Vec::with_capacity(outer * total_axis * inner);
        for o in 0..outer {
            for t in tensors {
                let n = t.shape[axis];
                let base = o * n * inner;
                data.extend_from_slice(&t.data[base..base + n * inner]);
            }
        }
        let mut shape = tensors[0].shape.clone();
        shape[axis] = total_axis;
        Tensor { data, shape }
    }

    /// Stack tensors of identical shape along a **new** leading-or-interior
    /// axis.
    pub fn stack(tensors: &[&Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "stack: empty tensor list");
        let unsqueezed: Vec<Tensor> = tensors.iter().map(|t| t.unsqueeze(axis)).collect();
        let refs: Vec<&Tensor> = unsqueezed.iter().collect();
        Self::concat(&refs, axis)
    }

    /// Zero-pad `axis` with `before` leading and `after` trailing slots.
    pub fn pad_axis(&self, axis: usize, before: usize, after: usize) -> Tensor {
        assert!(axis < self.rank(), "pad_axis: axis out of range");
        let outer: usize = self.shape[..axis].iter().product();
        let n = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let new_n = n + before + after;
        let mut data = vec![0.0; outer * new_n * inner];
        for o in 0..outer {
            let src = o * n * inner;
            let dst = (o * new_n + before) * inner;
            data[dst..dst + n * inner].copy_from_slice(&self.data[src..src + n * inner]);
        }
        let mut shape = self.shape.clone();
        shape[axis] = new_n;
        Tensor { data, shape }
    }

    /// Replicate-pad `axis` (edge values repeated): the padded tensor of
    /// the paper's `AvgPool(Padding(X))`, kept for the test oracle that
    /// pins `moving_avg_same`.
    #[cfg(test)]
    pub(crate) fn pad_axis_replicate(&self, axis: usize, before: usize, after: usize) -> Tensor {
        assert!(axis < self.rank(), "pad_axis_replicate: axis out of range");
        assert!(self.shape[axis] > 0, "pad_axis_replicate: cannot pad empty axis");
        let first = self.index_axis(axis, 0).unsqueeze(axis);
        let last = self.index_axis(axis, self.shape[axis] - 1).unsqueeze(axis);
        let mut parts: Vec<&Tensor> = Vec::with_capacity(before + after + 1);
        for _ in 0..before {
            parts.push(&first);
        }
        parts.push(self);
        for _ in 0..after {
            parts.push(&last);
        }
        Tensor::concat(&parts, axis)
    }

    /// Repeat the whole tensor `times` along `axis` (tile).
    pub fn repeat_axis(&self, axis: usize, times: usize) -> Tensor {
        assert!(times > 0, "repeat_axis: times must be > 0");
        let copies: Vec<&Tensor> = std::iter::repeat_n(self, times).collect();
        Tensor::concat(&copies, axis)
    }

    /// Split along `axis` into chunks of size `chunk` (last chunk may be
    /// shorter).
    pub fn split_axis(&self, axis: usize, chunk: usize) -> Vec<Tensor> {
        assert!(chunk > 0, "split_axis: chunk must be > 0");
        let n = self.shape[axis];
        let mut out = Vec::new();
        let mut start = 0;
        while start < n {
            let len = chunk.min(n - start);
            out.push(self.narrow(axis, start, len));
            start += len;
        }
        out
    }

    /// Write `src` into `self` at `[start, start+len)` along `axis`.
    pub fn assign_narrow(&mut self, axis: usize, start: usize, src: &Tensor) {
        assert!(axis < self.rank(), "assign_narrow: axis out of range");
        assert_eq!(src.rank(), self.rank(), "assign_narrow: rank mismatch");
        let len = src.shape[axis];
        assert!(start + len <= self.shape[axis], "assign_narrow: range out of bounds");
        for ax in 0..self.rank() {
            if ax != axis {
                assert_eq!(self.shape[ax], src.shape[ax], "assign_narrow: shape mismatch on axis {ax}");
            }
        }
        let outer: usize = self.shape[..axis].iter().product();
        let n = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        for o in 0..outer {
            let dst = (o * n + start) * inner;
            let sb = o * len * inner;
            self.data[dst..dst + len * inner].copy_from_slice(&src.data[sb..sb + len * inner]);
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
    fn reshape_roundtrip() {
        let a = Tensor::arange(6);
        let b = a.reshape(&[2, 3]);
        assert_eq!(b.shape(), &[2, 3]);
        assert_eq!(b.flatten().as_slice(), a.as_slice());
    }

    #[test]
    #[should_panic(expected = "reshape: element count mismatch")]
    fn reshape_rejects_a_count_mismatch() {
        let _ = Tensor::arange(6).reshape(&[4, 2]);
    }

    #[test]
    fn squeeze_unsqueeze() {
        let a = Tensor::arange(4).unsqueeze(0);
        assert_eq!(a.shape(), &[1, 4]);
        let b = a.unsqueeze(2);
        assert_eq!(b.shape(), &[1, 4, 1]);
        assert_eq!(b.squeeze(2).squeeze(0).shape(), &[4]);
    }

    #[test]
    fn narrow_middle_axis() {
        let a = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]);
        let n = a.narrow(1, 1, 2);
        assert_eq!(n.shape(), &[2, 2, 4]);
        assert_eq!(n.at(&[0, 0, 0]), a.at(&[0, 1, 0]));
        assert_eq!(n.at(&[1, 1, 3]), a.at(&[1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "narrow: range out of bounds")]
    fn narrow_rejects_a_range_past_the_axis() {
        let _ = Tensor::zeros(&[2, 3, 4]).narrow(1, 2, 2);
    }

    #[test]
    #[should_panic(expected = "narrow: range out of bounds")]
    fn narrow_rejects_an_axis_past_the_rank() {
        let _ = Tensor::zeros(&[2, 3]).narrow(2, 0, 1);
    }

    #[test]
    fn index_axis_removes_dim() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let row = a.index_axis(0, 1);
        assert_eq!(row.shape(), &[2]);
        assert_eq!(row.as_slice(), &[3.0, 4.0]);
        let col = a.index_axis(1, 0);
        assert_eq!(col.as_slice(), &[1.0, 3.0]);
    }

    #[test]
    fn select_with_duplicates() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let s = a.select(0, &[2, 0, 2]);
        assert_eq!(s.as_slice(), &[3.0, 1.0, 3.0]);
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = t(vec![1.0, 2.0], &[1, 2]);
        let b = t(vec![3.0, 4.0], &[1, 2]);
        let c0 = Tensor::concat(&[&a, &b], 0);
        assert_eq!(c0.shape(), &[2, 2]);
        assert_eq!(c0.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let c1 = Tensor::concat(&[&a, &b], 1);
        assert_eq!(c1.shape(), &[1, 4]);
        assert_eq!(c1.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "concat: incompatible inputs")]
    fn concat_rejects_mismatched() {
        let a = Tensor::ones(&[1, 2]);
        let b = Tensor::ones(&[1, 3]);
        let _ = Tensor::concat(&[&a, &b], 0);
    }

    #[test]
    #[should_panic(expected = "concat: incompatible inputs")]
    fn concat_rejects_an_empty_list() {
        let _ = Tensor::concat(&[], 0);
    }

    #[test]
    fn stack_creates_new_axis() {
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![3.0, 4.0], &[2]);
        let s = Tensor::stack(&[&a, &b], 0);
        assert_eq!(s.shape(), &[2, 2]);
        let s1 = Tensor::stack(&[&a, &b], 1);
        assert_eq!(s1.shape(), &[2, 2]);
        assert_eq!(s1.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn pad_zero() {
        let a = t(vec![1.0, 2.0], &[2]);
        let p = a.pad_axis(0, 1, 2);
        assert_eq!(p.as_slice(), &[0.0, 1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn pad_replicate_repeats_edges() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let p = a.pad_axis_replicate(0, 2, 1);
        assert_eq!(p.as_slice(), &[1.0, 1.0, 1.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn pad_2d_time_axis() {
        let a = t(vec![1.0, 10.0, 2.0, 20.0], &[2, 2]); // T=2, C=2
        let p = a.pad_axis_replicate(0, 1, 1);
        assert_eq!(p.shape(), &[4, 2]);
        assert_eq!(p.as_slice(), &[1.0, 10.0, 1.0, 10.0, 2.0, 20.0, 2.0, 20.0]);
    }

    #[test]
    fn repeat_tiles_the_axis() {
        let a = t(vec![1.0, 2.0], &[2]);
        assert_eq!(a.repeat_axis(0, 3).as_slice(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn split_axis_covers_all_with_ragged_tail() {
        let a = Tensor::arange(7);
        let parts = a.split_axis(0, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].as_slice(), &[0.0, 1.0, 2.0]);
        assert_eq!(parts[2].as_slice(), &[6.0]);
    }

    #[test]
    fn assign_narrow_writes_block() {
        let mut a = Tensor::zeros(&[3, 2]);
        let src = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        a.assign_narrow(0, 1, &src);
        assert_eq!(a.as_slice(), &[0.0, 0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn narrow_concat_roundtrip() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]);
        let l = a.narrow(1, 0, 2);
        let r = a.narrow(1, 2, 2);
        assert_eq!(Tensor::concat(&[&l, &r], 1), a);
    }
}
