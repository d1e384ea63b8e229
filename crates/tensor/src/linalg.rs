//! Linear algebra: the matrix product family, transpose, and general
//! axis permutation.
//!
//! [`Tensor::try_matmul`] (`A @ B`), [`Tensor::try_matmul_tb`]
//! (`A @ Bᵀ`), [`Tensor::try_matmul_ta`] (`Aᵀ @ B`),
//! [`Tensor::try_matmul_ta_flat`] (`Aᵀ @ B` over stacked leading axes)
//! and their panicking wrappers are one path: a private resolver reads
//! `(batch, m, k, n)` from the two ranks (the flat entry reads both
//! operands as rank 2) and two transpose flags, checks the shapes and
//! opens the `tensor.matmul` span, and one dispatcher runs the packed
//! kernel [`crate::gemm`] on dense or transposed [`MatRef`] views (no
//! transpose is materialised). A rank-2 `rhs` is shared: the output
//! rows (`[b·m, n]` for a rank-3 lhs) are split over the worker pool
//! ([`crate::par`]). A rank-3 `rhs` is batched: the batch entries are
//! split. Every element comes from the same serial kernel whatever the
//! split, so results are bit-identical at any thread count. The
//! unblocked reference loop lives on in this module's tests as the
//! bitwise oracle for the packed kernel.

use crate::gemm::{gemm, MatRef};
use crate::shape::strides_for;
use crate::{Result, Tensor, TensorError};

/// Below roughly this many multiply-adds per output block, thread spawn
/// overhead beats the parallel win and the kernels stay serial.
const PAR_GRAIN_FLOPS: usize = 1 << 15;

/// Open the `tensor.matmul` kernel span and bump the flop/byte counters
/// for a `[b,m,k] @ [.,k,n]` product (`b = 1` for the 2-D case,
/// `shared_rhs` when the rhs is a single `[k,n]` block). All work is
/// behind the span's own enabled check, so the disabled path costs one
/// atomic load.
fn matmul_span(b: usize, m: usize, k: usize, n: usize, shared_rhs: bool) -> ts3_obs::Span {
    let mut s = ts3_obs::span("tensor.matmul");
    if s.active() {
        let flops = 2 * b * m * k * n;
        let rhs_elems = if shared_rhs { k * n } else { b * k * n };
        let bytes = 4 * (b * m * k + rhs_elems + b * m * n);
        s.field("b", b);
        s.field("m", m);
        s.field("k", k);
        s.field("n", n);
        s.field("flops", flops);
        ts3_obs::counter_add("tensor.matmul.calls", 1);
        ts3_obs::counter_add("tensor.matmul.flops", flops as u64);
        ts3_obs::counter_add("tensor.matmul.bytes", bytes as u64);
        // Which kernel family (avx2/scalar) served this call: lets
        // serve/stream latency reports attribute shifts to dispatch.
        ts3_obs::counter_add(crate::simd::gemm_dispatch_counter(), 1);
    }
    s
}

/// `[rows, cols]`: a shape of rank 2 or more read as one matrix over all
/// its leading axes (other ranks pass through, for the product to
/// refuse).
fn flat_shape(shape: &[usize]) -> Vec<usize> {
    match shape.split_last() {
        Some((&cols, lead)) if !lead.is_empty() => vec![lead.iter().product(), cols],
        _ => shape.to_vec(),
    }
}

/// Row-major view of a stored `[rows, cols]` matrix, transposed when `t`.
fn view(data: &[f32], cols: usize, t: bool) -> MatRef<'_> {
    if t {
        MatRef::dense_t(data, cols)
    } else {
        MatRef::dense(data, cols)
    }
}

impl Tensor {
    /// Matrix multiplication.
    ///
    /// Supported rank combinations:
    /// * `[m,k] @ [k,n] -> [m,n]`
    /// * `[b,m,k] @ [k,n] -> [b,m,n]` (shared rhs)
    /// * `[b,m,k] @ [b,k,n] -> [b,m,n]` (batched)
    pub fn try_matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.product(&self.shape, rhs, &rhs.shape, false, false, "matmul")
    }

    /// Panicking wrapper over [`Tensor::try_matmul`].
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        // ts3-lint: allow(no-unwrap-in-lib) documented panicking convenience wrapper; the shape contract is this method's # Panics section
        self.try_matmul(rhs).expect("matmul: incompatible shapes")
    }

    /// `self @ rhsᵀ` without materialising the transpose.
    ///
    /// Supported rank combinations (mirroring [`Tensor::try_matmul`]):
    /// * `[m,k] @ [n,k]ᵀ -> [m,n]`
    /// * `[b,m,k] @ [n,k]ᵀ -> [b,m,n]` (shared rhs)
    /// * `[b,m,k] @ [b,n,k]ᵀ -> [b,m,n]` (batched)
    ///
    /// Bit-identical to `self.matmul(&rhs.transpose())`: the packed
    /// kernel only changes its pack-time gather pattern, never the
    /// per-element accumulation order.
    pub fn try_matmul_tb(&self, rhs: &Tensor) -> Result<Tensor> {
        self.product(&self.shape, rhs, &rhs.shape, false, true, "matmul_tb")
    }

    /// Panicking wrapper over [`Tensor::try_matmul_tb`].
    pub fn matmul_tb(&self, rhs: &Tensor) -> Tensor {
        // ts3-lint: allow(no-unwrap-in-lib) documented panicking convenience wrapper; the shape contract is this method's # Panics section
        self.try_matmul_tb(rhs).expect("matmul_tb: incompatible shapes")
    }

    /// `selfᵀ @ rhs` without materialising the transpose.
    ///
    /// Supported rank combinations:
    /// * `[m,k]ᵀ @ [m,n] -> [k,n]`
    /// * `[b,m,k]ᵀ @ [b,m,n] -> [b,k,n]` (batched, per-sample transpose)
    ///
    /// Bit-identical to `self.transpose().matmul(rhs)`.
    pub fn try_matmul_ta(&self, rhs: &Tensor) -> Result<Tensor> {
        self.product(&self.shape, rhs, &rhs.shape, true, false, "matmul_ta")
    }

    /// Panicking wrapper over [`Tensor::try_matmul_ta`].
    pub fn matmul_ta(&self, rhs: &Tensor) -> Tensor {
        // ts3-lint: allow(no-unwrap-in-lib) documented panicking convenience wrapper; the shape contract is this method's # Panics section
        self.try_matmul_ta(rhs).expect("matmul_ta: incompatible shapes")
    }

    /// `selfᵀ @ rhs` with both operands read in place as matrices over
    /// all their leading axes: `[.., m, k]ᵀ @ [.., m, n] -> [k, n]`, the
    /// rows of every batch entry stacked (`[b·m, k]ᵀ @ [b·m, n]`). The
    /// weight gradient of a shared-rhs product. Bit-identical to
    /// reshaping both operands to rank 2 first, without the copies.
    pub fn try_matmul_ta_flat(&self, rhs: &Tensor) -> Result<Tensor> {
        let (sa, sb) = (flat_shape(&self.shape), flat_shape(&rhs.shape));
        self.product(&sa, rhs, &sb, true, false, "matmul_ta_flat")
    }

    /// Panicking wrapper over [`Tensor::try_matmul_ta_flat`].
    pub fn matmul_ta_flat(&self, rhs: &Tensor) -> Tensor {
        // ts3-lint: allow(no-unwrap-in-lib) documented panicking convenience wrapper; the shape contract is this method's # Panics section
        self.try_matmul_ta_flat(rhs).expect("matmul_ta_flat: incompatible shapes")
    }

    /// The one product path: `op(self) @ op(rhs)`, with `self` and `rhs`
    /// read as shaped `sa` and `sb` (their own shapes, or the rank-2
    /// [`flat_shape`]s). `ta` / `tb` read the stored operand as its
    /// transpose. Here `m` is the output row count and `k` the shared
    /// dimension, whichever operand is transposed. `ta` takes no shared
    /// rhs (`3 @ 2` is refused).
    fn product(
        &self,
        sa: &[usize],
        rhs: &Tensor,
        sb: &[usize],
        ta: bool,
        tb: bool,
        op: &'static str,
    ) -> Result<Tensor> {
        let (ra, rb) = (sa.len(), sb.len());
        let batched = match (ra, rb) {
            (2, 2) => false,
            (3, 2) if !ta => false,
            (3, 3) => true,
            _ => {
                return Err(TensorError::Invalid(format!(
                    "{op}: unsupported rank combination {ra} @ {rb}"
                )))
            }
        };
        // Stored matrix dims of one lhs and one rhs entry.
        let (ar, ac) = (sa[ra - 2], sa[ra - 1]);
        let (br, bc) = (sb[rb - 2], sb[rb - 1]);
        let (m, k) = if ta { (ac, ar) } else { (ar, ac) };
        let (k2, n) = if tb { (bc, br) } else { (br, bc) };
        let batch = if ra == 3 { sa[0] } else { 1 };
        if k != k2 || (batched && sb[0] != batch) {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
                op,
            });
        }
        let _s = matmul_span(batch, m, k, n, !batched);
        let mut out = vec![0.0f32; batch * m * n];
        if !batched && batch * m * n > 0 {
            // Shared rhs: `[b,m,k] @ [k,n]` is exactly the 2-D product
            // `[b·m,k] @ [k,n]`, so its output rows split like any other.
            let (a, b) = (view(&self.data, ac, ta), view(&rhs.data, bc, tb));
            let grain = (PAR_GRAIN_FLOPS / (k * n).max(1)).max(1);
            crate::par::par_rows_mut(&mut out, n, grain, |row0, block| {
                gemm(a.shifted(row0), b, block, block.len() / n, k, n);
            });
        } else if batched && m * n > 0 {
            // Batch entries are independent: partition them as "rows" of
            // width m·n and run the serial kernel per entry in each block.
            let sample = m * n;
            let grain = (PAR_GRAIN_FLOPS / (sample * k).max(1)).max(1);
            crate::par::par_rows_mut(&mut out, sample, grain, |b0, block| {
                for (bi, ob) in (b0..).zip(block.chunks_mut(sample)) {
                    let a = &self.data[bi * m * k..(bi + 1) * m * k];
                    let b = &rhs.data[bi * k * n..(bi + 1) * k * n];
                    gemm(view(a, ac, ta), view(b, bc, tb), ob, m, k, n);
                }
            });
        }
        let shape = if ra == 3 { vec![batch, m, n] } else { vec![m, n] };
        Ok(Tensor { data: out, shape })
    }

    /// 2-D transpose. For rank-3 tensors, swaps the last two axes
    /// (batched transpose): the [`Tensor::permute`] of the last two
    /// axes. Materialises a fresh buffer.
    ///
    /// # Panics
    /// Panics unless the rank is 2 or 3.
    pub fn transpose(&self) -> Tensor {
        match self.rank() {
            2 => self.permute(&[1, 0]),
            3 => self.permute(&[0, 2, 1]),
            // ts3-lint: allow(no-unwrap-in-lib) documented # Panics contract: transpose supports rank 2/3 only
            r => panic!("transpose: expected rank 2 or 3 tensor, got rank {r}"),
        }
    }

    /// General axis permutation (like `np.transpose(x, axes)`).
    ///
    /// # Panics
    /// Panics if `axes` is not a permutation of `0..rank`.
    pub fn permute(&self, axes: &[usize]) -> Tensor {
        assert_eq!(axes.len(), self.rank(), "permute: axes length must equal rank");
        let mut seen = vec![false; self.rank()];
        for &a in axes {
            assert!(a < self.rank() && !seen[a], "permute: axes must be a permutation");
            seen[a] = true;
        }
        let out_shape: Vec<usize> = axes.iter().map(|&a| self.shape[a]).collect();
        let in_strides = strides_for(&self.shape);
        // Strides of the output walk, expressed in the input buffer.
        let walk: Vec<usize> = axes.iter().map(|&a| in_strides[a]).collect();
        let n = self.numel();
        let mut data = Vec::with_capacity(n);
        let rank = out_shape.len();
        if rank == 0 {
            return self.clone();
        }
        let mut coords = vec![0usize; rank];
        let mut src = 0usize;
        for _ in 0..n {
            data.push(self.data[src]);
            for ax in (0..rank).rev() {
                coords[ax] += 1;
                src += walk[ax];
                if coords[ax] < out_shape[ax] {
                    break;
                }
                coords[ax] = 0;
                // ts3-lint: allow(fma-policy) usize stride walk, not a float accumulation; mul_add does not apply to integers
                src -= walk[ax] * out_shape[ax];
            }
        }
        Tensor { data, shape: out_shape }
    }

    /// Dot product of two 1-D tensors.
    pub fn dot(&self, rhs: &Tensor) -> f32 {
        assert_eq!(self.rank(), 1, "dot: lhs must be 1-D");
        assert_eq!(self.shape, rhs.shape, "dot: shape mismatch");
        self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum()
    }

    /// Outer product of two 1-D tensors: `[m] x [n] -> [m,n]`.
    pub fn outer(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 1, "outer: lhs must be 1-D");
        assert_eq!(rhs.rank(), 1, "outer: rhs must be 1-D");
        let (m, n) = (self.shape[0], rhs.shape[0]);
        let mut data = Vec::with_capacity(m * n);
        for &a in &self.data {
            for &b in &rhs.data {
                data.push(a * b);
            }
        }
        Tensor { data, shape: vec![m, n] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul_block_naive;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec(v, s)
    }

    #[test]
    fn matmul_2x2() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[4.0, 5.0, 10.0, 11.0]);
    }

    #[test]
    fn matmul_identity_preserves() {
        let a = t(vec![3.0, -1.0, 2.0, 0.5], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_batched_shared_rhs() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 2, 3]);
        let w = Tensor::eye(3);
        let c = a.matmul(&w);
        assert_eq!(c.shape(), &[2, 2, 3]);
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_fully_batched() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 1.0, 0.0, 0.0, 1.0], &[2, 2, 2]);
        let b = t(vec![1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 2.0], &[2, 2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0, 2.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[2, 3]);
        assert!(a.try_matmul(&b).is_err());
        let c = Tensor::ones(&[2]);
        assert!(a.try_matmul(&c).is_err());
    }

    #[test]
    fn transpose_2d() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose();
        assert_eq!(at.shape(), &[3, 2]);
        assert_eq!(at.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_3d_swaps_last_two() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 2, 3]);
        let at = a.transpose();
        assert_eq!(at.shape(), &[2, 3, 2]);
        assert_eq!(at.at(&[0, 2, 1]), a.at(&[0, 1, 2]));
        assert_eq!(at.at(&[1, 0, 1]), a.at(&[1, 1, 0]));
    }

    #[test]
    fn transpose_involution() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn permute_matches_transpose() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.permute(&[1, 0]), a.transpose());
    }

    #[test]
    fn permute_3d() {
        let a = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]);
        let p = a.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), a.at(&[0, 2, 1]));
        assert_eq!(p.at(&[3, 1, 0]), a.at(&[1, 0, 3]));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn permute_rejects_duplicates() {
        let a = Tensor::ones(&[2, 2]);
        let _ = a.permute(&[0, 0]);
    }

    #[test]
    fn dot_and_outer() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let b = t(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.dot(&b), 32.0);
        let o = a.outer(&b);
        assert_eq!(o.shape(), &[3, 3]);
        assert_eq!(o.at(&[2, 0]), 12.0);
    }

    #[test]
    fn parallel_matmul_bit_identical_to_serial() {
        // White-box: run the serial reference kernel, then the same
        // worker forced across several thread counts, and require
        // bit-for-bit equality (not allclose).
        let (m, k, n) = (37, 29, 41);
        let a = Tensor::randn(&[m, k], 1);
        let b = Tensor::randn(&[k, n], 2);
        let mut serial = vec![0.0f32; m * n];
        gemm(MatRef::dense(a.as_slice(), k), MatRef::dense(b.as_slice(), n), &mut serial, m, k, n);
        for threads in [2, 3, 7, 16] {
            let mut par = vec![0.0f32; m * n];
            crate::par::par_rows_mut_in(threads, &mut par, n, &|row0, block| {
                let a = MatRef::dense(a.as_slice(), k).shifted(row0);
                gemm(a, MatRef::dense(b.as_slice(), n), block, block.len() / n, k, n);
            });
            assert_eq!(
                serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
        // And the public entry point agrees with the serial kernel.
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &serial[..]);
    }

    #[test]
    fn parallel_batched_matmul_bit_identical_to_serial() {
        // The grain is PAR_GRAIN_FLOPS / (m·n·k) = 7 batch entries, so 16
        // entries split across the pool whenever max_threads() >= 2.
        let (b, m, k, n) = (16, 19, 13, 17);
        let x = Tensor::randn(&[b, m, k], 3);
        let w = Tensor::randn(&[b, k, n], 4);
        let mut serial = vec![0.0f32; b * m * n];
        for bi in 0..b {
            gemm(
                MatRef::dense(&x.as_slice()[bi * m * k..(bi + 1) * m * k], k),
                MatRef::dense(&w.as_slice()[bi * k * n..(bi + 1) * k * n], n),
                &mut serial[bi * m * n..(bi + 1) * m * n],
                m,
                k,
                n,
            );
        }
        let got = x.matmul(&w);
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Shared-rhs flattening: [b,m,k] @ [k,n] == reshape([b*m,k]) @ [k,n].
        let w2 = Tensor::randn(&[k, n], 5);
        let flat = x.reshape(&[b * m, k]).matmul(&w2);
        assert_eq!(x.matmul(&w2).as_slice(), flat.as_slice());
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn tiled_matmul_bitwise_equals_naive_sweep() {
        // The determinism contract hinges on the packed kernel producing
        // the exact operation sequence of the naive loop. Sweep ragged
        // shapes around every blocking boundary (MR=4, NR=16, MC=64,
        // KC=256) and require bit-for-bit equality, not allclose.
        let dims_mn = [1usize, 2, 3, 5, 7, 8, 13, 16, 17, 31, 33, 64, 65, 100];
        let dims_k = [1usize, 2, 5, 16, 17, 64, 100, 257];
        let mut seed = 100u64;
        for &m in &dims_mn {
            for &n in &dims_mn {
                for &k in &dims_k {
                    // Keep the sweep fast: skip the huge all-large combos.
                    if m * k * n > 1 << 20 {
                        continue;
                    }
                    seed += 1;
                    let a = Tensor::randn(&[m, k], seed);
                    let b = Tensor::randn(&[k, n], seed + 1_000_000);
                    let mut naive = vec![0.0f32; m * n];
                    matmul_block_naive(a.as_slice(), b.as_slice(), &mut naive, m, k, n);
                    let mut tiled = vec![0.0f32; m * n];
                    let (av, bv) = (MatRef::dense(a.as_slice(), k), MatRef::dense(b.as_slice(), n));
                    gemm(av, bv, &mut tiled, m, k, n);
                    assert_eq!(bits(&naive), bits(&tiled), "m={m} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn tiled_matmul_handles_special_values_like_naive() {
        // Zeros, signed zeros, infinities and NaNs must flow through the
        // packed kernel exactly as through the naive loop (no zero-skip).
        let m = 9;
        let k = 21;
        let n = 19;
        let mut av = Vec::with_capacity(m * k);
        for i in 0..m * k {
            av.push(match i % 7 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => f32::NAN,
                _ => (i as f32 * 0.37).sin(),
            });
        }
        let bv: Vec<f32> = (0..k * n)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => -0.0,
                _ => (i as f32 * 0.61).cos(),
            })
            .collect();
        let mut naive = vec![0.0f32; m * n];
        matmul_block_naive(&av, &bv, &mut naive, m, k, n);
        let mut tiled = vec![0.0f32; m * n];
        gemm(MatRef::dense(&av, k), MatRef::dense(&bv, n), &mut tiled, m, k, n);
        assert_eq!(bits(&naive), bits(&tiled));
    }

    #[test]
    fn matmul_tb_matches_materialized_transpose() {
        // Below NR columns the naive kernel's dot-product form runs up to
        // DOT_COLS column chains side by side: cover every width around
        // that block too.
        let narrow = (1..=17).flat_map(|n| [(1, 7, n), (4, 300, n), (9, 64, n)]);
        let shapes = [(1, 1, 1), (3, 5, 2), (17, 13, 19), (33, 65, 31), (64, 64, 64)];
        for (m, k, n) in shapes.into_iter().chain(narrow) {
            let a = Tensor::randn(&[m, k], (m * 1000 + n) as u64);
            let b = Tensor::randn(&[n, k], (k * 777 + 5) as u64);
            let via_t = a.matmul(&b.transpose());
            let direct = a.matmul_tb(&b);
            assert_eq!(direct.shape(), &[m, n]);
            assert_eq!(bits(via_t.as_slice()), bits(direct.as_slice()), "m={m} k={k} n={n}");
        }
        // Shared-rhs (3,2) and fully batched (3,3) arms.
        let x = Tensor::randn(&[3, 7, 11], 42);
        let w = Tensor::randn(&[5, 11], 43);
        assert_eq!(
            bits(x.matmul(&w.transpose()).as_slice()),
            bits(x.matmul_tb(&w).as_slice())
        );
        let y = Tensor::randn(&[3, 9, 11], 44);
        assert_eq!(
            bits(x.matmul(&y.transpose()).as_slice()),
            bits(x.matmul_tb(&y).as_slice())
        );
        assert!(x.try_matmul_tb(&Tensor::ones(&[5, 12])).is_err());
    }

    #[test]
    fn matmul_ta_matches_materialized_transpose() {
        for (m, k, n) in [(1, 1, 1), (5, 3, 2), (13, 17, 19), (65, 33, 31), (64, 64, 64)] {
            let a = Tensor::randn(&[m, k], (m * 31 + k) as u64);
            let b = Tensor::randn(&[m, n], (n * 17 + 3) as u64);
            let via_t = a.transpose().matmul(&b);
            let direct = a.matmul_ta(&b);
            assert_eq!(direct.shape(), &[k, n]);
            assert_eq!(bits(via_t.as_slice()), bits(direct.as_slice()), "m={m} k={k} n={n}");
        }
        // Batched arm.
        let x = Tensor::randn(&[4, 7, 5], 45);
        let g = Tensor::randn(&[4, 7, 9], 46);
        assert_eq!(
            bits(x.transpose().matmul(&g).as_slice()),
            bits(x.matmul_ta(&g).as_slice())
        );
        assert!(x.try_matmul_ta(&Tensor::ones(&[4, 8, 9])).is_err());
    }

    #[test]
    fn matmul_ta_flat_matches_reshaped_operands() {
        // [b,m,k]ᵀ @ [b,m,n] over stacked rows: bitwise the rank-2
        // product of the reshaped copies, in either operand order, and
        // rank 2 passes through unchanged.
        for (b, m, k, n) in [(1, 1, 1, 1), (3, 7, 5, 9), (4, 16, 33, 17), (8, 12, 8, 8)] {
            let x = Tensor::randn(&[b, m, k], (b * 100 + k) as u64);
            let g = Tensor::randn(&[b, m, n], (m * 10 + n) as u64);
            let (x2, g2) = (x.reshape(&[b * m, k]), g.reshape(&[b * m, n]));
            assert_eq!(bits(x.matmul_ta_flat(&g).as_slice()), bits(x2.matmul_ta(&g2).as_slice()));
            assert_eq!(bits(g.matmul_ta_flat(&x).as_slice()), bits(g2.matmul_ta(&x2).as_slice()));
            assert_eq!(bits(x2.matmul_ta_flat(&g2).as_slice()), bits(x2.matmul_ta(&g2).as_slice()));
        }
        assert!(Tensor::ones(&[2, 3, 4]).try_matmul_ta_flat(&Tensor::ones(&[2, 4, 4])).is_err());
        assert!(Tensor::ones(&[3]).try_matmul_ta_flat(&Tensor::ones(&[3])).is_err());
    }

    #[test]
    fn matmul_associativity_with_identity_chain() {
        let a = t(vec![2.0, 1.0, 0.0, 3.0], &[2, 2]);
        let i = Tensor::eye(2);
        let left = a.matmul(&i).matmul(&a);
        let right = a.matmul(&i.matmul(&a));
        assert!(left.allclose(&right, 1e-5));
    }
}
