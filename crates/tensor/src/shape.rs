//! Shape algebra: stride computation, broadcasting, and index arithmetic.

/// Row-major strides for a contiguous tensor of the given shape.
///
/// The last axis always has stride 1 (for non-empty shapes); a scalar shape
/// `[]` yields an empty stride list.
pub fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0; shape.len()];
    let mut acc = 1usize;
    for (i, &dim) in shape.iter().enumerate().rev() {
        strides[i] = acc;
        acc *= dim;
    }
    strides
}

/// Number of elements implied by a shape (product of dimensions).
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Compute the broadcast result shape of two operand shapes using NumPy
/// rules: align from the right; each pair of dims must be equal or one of
/// them must be 1.
///
/// # Panics
/// Panics with `"{op}: incompatible shapes"` if the shapes do not
/// broadcast.
pub fn broadcast_shapes(lhs: &[usize], rhs: &[usize], op: &'static str) -> Vec<usize> {
    let rank = lhs.len().max(rhs.len());
    let mut out = vec![0; rank];
    for i in 0..rank {
        let l = if i < rank - lhs.len() { 1 } else { lhs[i - (rank - lhs.len())] };
        let r = if i < rank - rhs.len() { 1 } else { rhs[i - (rank - rhs.len())] };
        assert!(l == r || l == 1 || r == 1, "{op}: incompatible shapes: {lhs:?} vs {rhs:?}");
        out[i] = if l == 1 { r } else { l };
    }
    out
}

/// Strides for an operand broadcast to `out_shape`: broadcast dims get
/// stride 0 so that repeated reads hit the same element.
pub fn broadcast_strides(shape: &[usize], out_shape: &[usize]) -> Vec<usize> {
    let base = strides_for(shape);
    let offset = out_shape.len() - shape.len();
    let mut out = vec![0; out_shape.len()];
    for i in 0..shape.len() {
        out[offset + i] = if shape[i] == 1 && out_shape[offset + i] != 1 { 0 } else { base[i] };
    }
    out
}

/// Convert a flat row-major index into multi-dimensional coordinates.
pub fn unravel(mut flat: usize, shape: &[usize]) -> Vec<usize> {
    let mut coords = vec![0; shape.len()];
    for i in (0..shape.len()).rev() {
        coords[i] = flat % shape[i];
        flat /= shape[i];
    }
    coords
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn numel_products() {
        assert_eq!(numel(&[2, 3, 4]), 24);
        assert_eq!(numel(&[]), 1);
        assert_eq!(numel(&[0, 7]), 0);
    }

    #[test]
    fn broadcast_equal_shapes() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3], "t"), vec![2, 3]);
    }

    #[test]
    fn broadcast_scalar_and_vector() {
        assert_eq!(broadcast_shapes(&[], &[4], "t"), vec![4]);
        assert_eq!(broadcast_shapes(&[4], &[], "t"), vec![4]);
    }

    #[test]
    fn broadcast_ones_expand() {
        assert_eq!(broadcast_shapes(&[2, 1, 4], &[3, 1], "t"), vec![2, 3, 4]);
        assert_eq!(broadcast_shapes(&[1], &[5, 5], "t"), vec![5, 5]);
    }

    #[test]
    #[should_panic(expected = "myop: incompatible shapes")]
    fn broadcast_incompatible_panics() {
        let _ = broadcast_shapes(&[2, 3], &[4, 3], "myop");
    }

    #[test]
    fn broadcast_strides_zero_on_expanded_dims() {
        // shape [3,1] broadcast into [2,3,4]: leading dim absent -> 0,
        // the 3-dim keeps its stride, the 1-dim is expanded -> 0.
        assert_eq!(broadcast_strides(&[3, 1], &[2, 3, 4]), vec![0, 1, 0]);
    }

    #[test]
    fn unravel_inverts_the_strided_offset() {
        let shape = [2, 3, 4];
        let strides = strides_for(&shape);
        for flat in 0..numel(&shape) {
            let coords = unravel(flat, &shape);
            assert_eq!(coords.iter().zip(&strides).map(|(c, s)| c * s).sum::<usize>(), flat);
        }
    }
}
