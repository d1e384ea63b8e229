//! Convolution kernels: `im2col` based 2-D convolution and its backward
//! pass, 1-D convolution, and the moving-average pooling used by trend
//! decomposition.
//!
//! Layout conventions (matching the usual DL framework conventions):
//! * conv2d input  `[B, C_in, H, W]`
//! * conv2d weight `[C_out, C_in, KH, KW]`
//! * conv1d input  `[B, C_in, L]`
//! * conv1d weight `[C_out, C_in, K]`

use std::cell::RefCell;

use crate::gemm::{gemm, MatRef};
use crate::Tensor;

thread_local! {
    // Per-worker column-matrix scratch shared by `conv2d` and
    // `conv2d_backward`, reused across samples and calls (the
    // persistent pool keeps workers alive, so steady-state convolution
    // does no per-sample allocation in either direction).
    static COLS: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Unfold a `[C, H, W]` sample given as a raw slice into a
/// `[C*kh*kw, oh*ow]` column matrix for a stride-1 convolution with
/// padding `(ph, pw)`, writing into `out` (resized to
/// `c*kh*kw * oh*ow`). Every element of `out` is written — interior
/// spans are bulk-copied from the input rows, padding spans are zero
/// filled — so the buffer can be reused across calls without clearing.
/// This is the allocation-free core behind the [`conv2d`] and
/// [`conv2d_backward`] batch loops (which share a thread-local scratch
/// buffer per worker).
#[allow(clippy::too_many_arguments)] // mirrors im2col geometry
pub fn im2col_into(
    src: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ph: usize,
    pw: usize,
    out: &mut Vec<f32>,
) {
    assert_eq!(src.len(), c * h * w, "im2col_into: input length mismatch");
    let oh = h + 2 * ph + 1 - kh;
    let ow = w + 2 * pw + 1 - kw;
    out.resize(c * kh * kw * oh * ow, 0.0);
    let ocols = oh * ow;
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ((ci * kh + ki) * kw + kj) * ocols;
                // Output columns whose input column jj = oj + kj - pw is
                // in range; everything outside is zero padding.
                let lo = pw.saturating_sub(kj).min(ow);
                let hi = (w + pw).saturating_sub(kj).min(ow).max(lo);
                for oi in 0..oh {
                    let dst = &mut out[row + oi * ow..row + (oi + 1) * ow];
                    // Input row index for this output row / kernel row.
                    let ii = oi + ki;
                    if ii < ph || ii >= h + ph {
                        dst.fill(0.0); // zero padding row
                        continue;
                    }
                    let ii = ii - ph;
                    dst[..lo].fill(0.0);
                    if hi > lo {
                        // Input column for output column `lo` is
                        // lo + kj - pw (non-negative whenever the span
                        // is non-empty).
                        let src_lo = (ci * h + ii) * w + (lo + kj - pw);
                        dst[lo..hi].copy_from_slice(&src[src_lo..src_lo + (hi - lo)]);
                    }
                    dst[hi..].fill(0.0);
                }
            }
        }
    }
}

/// 2-D convolution (cross-correlation, as in DL frameworks), stride 1.
///
/// * `input`:  `[B, C_in, H, W]`
/// * `weight`: `[C_out, C_in, KH, KW]`
/// * returns `[B, C_out, OH, OW]` with `OH = H + 2*ph + 1 - KH`.
///
/// Batch entries are independent (`im2col` + matmul per sample), so
/// they are partitioned across threads via [`crate::par`]; each sample
/// is computed by the identical serial kernel, keeping the result
/// bit-identical to a serial run.
pub fn conv2d(input: &Tensor, weight: &Tensor, ph: usize, pw: usize) -> Tensor {
    assert_eq!(input.rank(), 4, "conv2d input must be [B,C,H,W]");
    assert_eq!(weight.rank(), 4, "conv2d weight must be [Co,Ci,KH,KW]");
    let (b, cin, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (cout, cin2, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(cin, cin2, "conv2d: channel mismatch (input {cin} vs weight {cin2})");
    assert!(h + 2 * ph >= kh && w + 2 * pw >= kw, "conv2d: kernel larger than padded input");
    let oh = h + 2 * ph + 1 - kh;
    let ow = w + 2 * pw + 1 - kw;
    let mut _span = ts3_obs::span("tensor.conv2d");
    if _span.active() {
        let flops = 2 * b * cout * oh * ow * cin * kh * kw;
        _span.field("b", b);
        _span.field("cin", cin);
        _span.field("cout", cout);
        _span.field("kh", kh);
        _span.field("kw", kw);
        _span.field("flops", flops);
        ts3_obs::counter_add("tensor.conv2d.calls", 1);
        ts3_obs::counter_add("tensor.conv2d.flops", flops as u64);
        ts3_obs::counter_add(
            "tensor.conv2d.bytes",
            (4 * (input.numel() + weight.numel() + b * cout * oh * ow)) as u64,
        );
        crate::gemm::count_short_m(&[(cout, cin * kh * kw, oh * ow)]);
    }
    // The weight is read in place as the `[Co, Ci·kh·kw]` matrix.
    let (k, p) = (cin * kh * kw, oh * ow);
    let wmat = MatRef::dense(weight.as_slice(), k);
    let sample = cout * p;
    let in_sample = cin * h * w;
    let mut out = vec![0.0f32; b * sample];
    if sample > 0 {
        let src = input.as_slice();
        crate::par::par_rows_mut(&mut out, sample, 1, |b0, block| {
            COLS.with(|cell| {
                let cols = &mut *cell.borrow_mut();
                for (i, ob) in block.chunks_mut(sample).enumerate() {
                    let x = &src[(b0 + i) * in_sample..(b0 + i + 1) * in_sample];
                    im2col_into(x, cin, h, w, kh, kw, ph, pw, cols);
                    gemm(wmat, MatRef::dense(cols, p), ob, cout, k, p);
                }
            });
        });
    }
    Tensor::from_vec(out, &[b, cout, oh, ow])
}

/// Accumulate a `[C*kh*kw, oh*ow]` column matrix into the `[C, H, W]`
/// sample `out` — the adjoint of [`im2col_into`]. Rows and columns are
/// clipped to the same in-range `lo/hi` spans `im2col_into` copies, so
/// the inner loop is a branch-free slice add. Each element of `out`
/// receives its contributions in ascending `(ki, kj)` order.
#[allow(clippy::too_many_arguments)] // mirrors im2col geometry
fn col2im_add(
    cols: &[f32],
    out: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ph: usize,
    pw: usize,
) {
    let oh = h + 2 * ph + 1 - kh;
    let ow = w + 2 * pw + 1 - kw;
    let ocols = oh * ow;
    for ci in 0..c {
        for ki in 0..kh {
            // Output rows whose input row ii = oi + ki - ph is in range.
            let oi_lo = ph.saturating_sub(ki).min(oh);
            let oi_hi = (h + ph).saturating_sub(ki).min(oh).max(oi_lo);
            for kj in 0..kw {
                let row = ((ci * kh + ki) * kw + kj) * ocols;
                let lo = pw.saturating_sub(kj).min(ow);
                let hi = (w + pw).saturating_sub(kj).min(ow).max(lo);
                if hi == lo {
                    continue; // every output column reads padding
                }
                for oi in oi_lo..oi_hi {
                    let src = &cols[row + oi * ow + lo..row + oi * ow + hi];
                    let dst = &mut out[(ci * h + oi + ki - ph) * w + lo + kj - pw..][..hi - lo];
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
            }
        }
    }
}

/// Gradients of [`conv2d`] with respect to its input and weight, given
/// the output gradient `grad` (`[B, C_out, OH, OW]`). Returns
/// `(gx, gw)`, shaped like `input` and `weight`.
///
/// Per sample, the input is unfolded into the forward's column scratch
/// and the weight partial `gy · colsᵀ` is formed; the same scratch then
/// receives `Wᵀ · gy`, which is folded into the sample's slice of `gx`.
/// Both products run the crate's GEMM over strided views, so no
/// transpose is materialised and no per-sample buffer is allocated.
/// With AVX2 active, `gy · colsᵀ` (`C_out` rows) takes the short-M
/// kernel for 4 ≤ `C_out` ≤ 8, reading `colsᵀ` in place; `Wᵀ · gy`
/// (`C_in·kh·kw` rows) takes it only when that is 4..=8 (k = 1) and
/// otherwise runs the packed tile. Either way the bits are the same.
/// Samples are split across [`crate::par`] like the forward. Each
/// sample writes its weight partial to its own row, and the partials
/// are summed serially in sample order, so `gx` and `gw` are
/// bit-identical at every thread count.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad: &Tensor,
    ph: usize,
    pw: usize,
) -> (Tensor, Tensor) {
    assert_eq!(input.rank(), 4, "conv2d_backward input must be [B,C,H,W]");
    assert_eq!(weight.rank(), 4, "conv2d_backward weight must be [Co,Ci,KH,KW]");
    let (b, cin, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (cout, cin2, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(cin, cin2, "conv2d_backward: channel mismatch (input {cin} vs weight {cin2})");
    assert!(
        h + 2 * ph >= kh && w + 2 * pw >= kw,
        "conv2d_backward: kernel larger than padded input"
    );
    let oh = h + 2 * ph + 1 - kh;
    let ow = w + 2 * pw + 1 - kw;
    assert_eq!(grad.shape(), &[b, cout, oh, ow], "conv2d_backward: gradient shape mismatch");
    let (k, p) = (cin * kh * kw, oh * ow);
    let mut _span = ts3_obs::span("tensor.conv2d_backward");
    if _span.active() {
        // Two products per sample: gy · colsᵀ and Wᵀ · gy.
        let flops = 4 * b * cout * p * k;
        _span.field("b", b);
        _span.field("cin", cin);
        _span.field("cout", cout);
        _span.field("kh", kh);
        _span.field("kw", kw);
        _span.field("flops", flops);
        ts3_obs::counter_add("tensor.conv2d_backward.calls", 1);
        ts3_obs::counter_add("tensor.conv2d_backward.flops", flops as u64);
        crate::gemm::count_short_m(&[(cout, p, k), (k, cout, p)]);
    }
    // One row per sample: its `gx` slice, then its weight partial.
    let in_sample = cin * h * w;
    let row = in_sample + cout * k;
    let mut buf = vec![0.0f32; b * row];
    let mut gw = vec![0.0f32; cout * k];
    if row > 0 {
        let (src, wdata, gdata) = (input.as_slice(), weight.as_slice(), grad.as_slice());
        crate::par::par_rows_mut(&mut buf, row, 1, |b0, block| {
            COLS.with(|cell| {
                let cols = &mut *cell.borrow_mut();
                for (i, r) in block.chunks_mut(row).enumerate() {
                    let bi = b0 + i;
                    let (gxb, gwb) = r.split_at_mut(in_sample);
                    let x = &src[bi * in_sample..(bi + 1) * in_sample];
                    let gy = &gdata[bi * cout * p..(bi + 1) * cout * p];
                    im2col_into(x, cin, h, w, kh, kw, ph, pw, cols);
                    gemm(MatRef::dense(gy, p), MatRef::dense_t(cols, p), gwb, cout, p, k);
                    cols.fill(0.0);
                    gemm(MatRef::dense_t(wdata, k), MatRef::dense(gy, p), cols, k, cout, p);
                    col2im_add(cols, gxb, cin, h, w, kh, kw, ph, pw);
                }
            });
        });
        for r in buf.chunks_exact(row) {
            for (acc, v) in gw.iter_mut().zip(&r[in_sample..]) {
                *acc += v;
            }
        }
        // Compact the `gx` slices in place (each moves to a lower offset).
        for bi in 1..b {
            buf.copy_within(bi * row..bi * row + in_sample, bi * in_sample);
        }
        buf.truncate(b * in_sample);
    }
    (
        Tensor::from_vec(buf, &[b, cin, h, w]),
        Tensor::from_vec(gw, &[cout, cin, kh, kw]),
    )
}

/// 1-D convolution (cross-correlation), stride 1.
///
/// * `input`:  `[B, C_in, L]`
/// * `weight`: `[C_out, C_in, K]`
/// * returns `[B, C_out, L + 2*pad + 1 - K]`.
pub fn conv1d(input: &Tensor, weight: &Tensor, pad: usize) -> Tensor {
    assert_eq!(input.rank(), 3, "conv1d input must be [B,C,L]");
    assert_eq!(weight.rank(), 3, "conv1d weight must be [Co,Ci,K]");
    // Reuse the 2-D kernel with H = 1.
    let (b, c, l) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let (co, ci, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
    let x4 = input.reshape(&[b, c, 1, l]);
    let w4 = weight.reshape(&[co, ci, 1, k]);
    let y = conv2d(&x4, &w4, 0, pad);
    let ol = y.shape()[3];
    y.reshape(&[b, co, ol])
}

/// Moving-average along `axis` with window `k`, producing the **same
/// length** via replicate padding — this is exactly the paper's
/// `AvgPool(Padding(X))` trend extractor (Eq. 1). The tensor form of
/// [`moving_avg_same_into`].
pub fn moving_avg_same(input: &Tensor, axis: usize, k: usize) -> Tensor {
    assert!(axis < input.rank(), "moving_avg_same: axis out of range");
    let n = input.shape()[axis];
    let inner: usize = input.shape()[axis + 1..].iter().product();
    let mut out = vec![0.0f32; input.numel()];
    moving_avg_same_into(input.as_slice(), n, inner, k, &mut out);
    Tensor::from_vec(out, input.shape())
}

/// Replicate-padded moving average of a row-major `[outer, n, inner]`
/// slice along its middle axis (`outer` follows from `src.len()`),
/// written into `out` of the same length.
///
/// Padded row `p` of the `n + k - 1` long padded axis is source row
/// `clamp(p - (k-1)/2, 0, n-1)`, read in place: no padded copy is
/// built. Each lane folds one running `f64` sum (add the entering row,
/// subtract the leaving one) and writes `(sum / k) as f32`, so every
/// caller — batch trend split, streaming pulse, baselines — gets the
/// same bits for the same lane.
pub fn moving_avg_same_into(src: &[f32], n: usize, inner: usize, k: usize, out: &mut [f32]) {
    assert!(k >= 1, "moving_avg_same: window must be >= 1");
    assert_eq!(out.len(), src.len(), "moving_avg_same: out length");
    if k == 1 {
        out.copy_from_slice(src);
        return;
    }
    assert!(n >= 1, "moving_avg_same: cannot pad an empty axis");
    if src.is_empty() {
        return;
    }
    assert_eq!(src.len() % (n * inner), 0, "moving_avg_same: length is not a multiple of n * inner");
    let before = (k - 1) / 2;
    let row = |p: usize| p.saturating_sub(before).min(n - 1);
    for (src, out) in src.chunks_exact(n * inner).zip(out.chunks_exact_mut(n * inner)) {
        for i in 0..inner {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += src[row(p) * inner + i] as f64;
            }
            out[i] = (acc / k as f64) as f32;
            for t in 1..n {
                acc += src[row(t + k - 1) * inner + i] as f64;
                acc -= src[row(t - 1) * inner + i] as f64;
                out[t * inner + i] = (acc / k as f64) as f32;
            }
        }
    }
}

/// Average-pool along `axis` with non-overlapping windows of size `k`
/// (last partial window averaged over its actual length).
pub fn avg_pool_axis(input: &Tensor, axis: usize, k: usize) -> Tensor {
    assert!(k >= 1, "avg_pool_axis: window must be >= 1");
    let outer: usize = input.shape()[..axis].iter().product();
    let n = input.shape()[axis];
    let inner: usize = input.shape()[axis + 1..].iter().product();
    let out_n = n.div_ceil(k);
    let mut out = vec![0.0f32; outer * out_n * inner];
    let src = input.as_slice();
    for o in 0..outer {
        for t_out in 0..out_n {
            let start = t_out * k;
            let len = k.min(n - start);
            for i in 0..inner {
                let mut acc = 0.0f32;
                for t in start..start + len {
                    acc += src[(o * n + t) * inner + i];
                }
                out[(o * out_n + t_out) * inner + i] = acc / len as f32;
            }
        }
    }
    let mut shape = input.shape().to_vec();
    shape[axis] = out_n;
    Tensor::from_vec(out, &shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unfold `input` (`[C, H, W]`) into a `[C*kh*kw, oh*ow]` column matrix for
    /// a convolution with the given padding and stride 1.
    fn im2col(input: &Tensor, kh: usize, kw: usize, ph: usize, pw: usize) -> Tensor {
        assert_eq!(input.rank(), 3, "im2col expects [C,H,W]");
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let oh = h + 2 * ph + 1 - kh;
        let ow = w + 2 * pw + 1 - kw;
        let mut out = Vec::new();
        im2col_into(input.as_slice(), c, h, w, kh, kw, ph, pw, &mut out);
        Tensor::from_vec(out, &[c * kh * kw, oh * ow])
    }

    /// Fold a `[C*kh*kw, oh*ow]` column matrix back into `[C, H, W]`,
    /// **accumulating** overlapping contributions — the adjoint of `im2col`.
    #[allow(clippy::too_many_arguments)] // mirrors im2col geometry
    fn col2im(
        cols: &Tensor,
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        ph: usize,
        pw: usize,
    ) -> Tensor {
        let oh = h + 2 * ph + 1 - kh;
        let ow = w + 2 * pw + 1 - kw;
        assert_eq!(cols.shape(), &[c * kh * kw, oh * ow], "col2im: column shape mismatch");
        let src = cols.as_slice();
        let mut out = vec![0.0f32; c * h * w];
        let ocols = oh * ow;
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    let row = ((ci * kh + ki) * kw + kj) * ocols;
                    for oi in 0..oh {
                        let ii = oi + ki;
                        if ii < ph || ii >= h + ph {
                            continue;
                        }
                        let ii = ii - ph;
                        for oj in 0..ow {
                            let jj = oj + kj;
                            if jj < pw || jj >= w + pw {
                                continue;
                            }
                            let jj = jj - pw;
                            out[(ci * h + ii) * w + jj] += src[row + oi * ow + oj];
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out, &[c, h, w])
    }

    /// The backward as `Var::conv2d` computed it before
    /// [`conv2d_backward`] existed, kept as the bitwise oracle: per
    /// sample, `Wᵀ · gy` through `matmul_ta` folded by `col2im`, and
    /// `gy · colsᵀ` through `matmul_tb` against a recomputed `im2col`.
    fn conv2d_backward_reference(
        x: &Tensor,
        w: &Tensor,
        g: &Tensor,
        ph: usize,
        pw: usize,
    ) -> (Tensor, Tensor) {
        let (b, cin, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (cout, _, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
        let oh = h + 2 * ph + 1 - kh;
        let ow = wd + 2 * pw + 1 - kw;
        let wmat = w.reshape(&[cout, cin * kh * kw]);
        let mut gx = Tensor::zeros(&[b, cin, h, wd]);
        let mut gw_mat = Tensor::zeros(&[cout, cin * kh * kw]);
        for bi in 0..b {
            let gy = g.index_axis(0, bi).reshape(&[cout, oh * ow]);
            let gcols = wmat.matmul_ta(&gy);
            let gxb = col2im(&gcols, cin, h, wd, kh, kw, ph, pw);
            gx.assign_narrow(0, bi, &gxb.reshape(&[1, cin, h, wd]));
            let cols = im2col(&x.index_axis(0, bi), kh, kw, ph, pw);
            gw_mat.add_assign(&gy.matmul_tb(&cols));
        }
        (gx, gw_mat.reshape(&[cout, cin, kh, kw]))
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn conv2d_backward_bitwise_equals_reference_sweep() {
        // (b, cin, cout, h, w, kh, kw, ph, pw). The largest geometry
        // comes first so every later call reuses a longer, stale column
        // scratch; the sweep covers k in {1,2,3,5}, ph != pw, B = 1,
        // Ci != Co and kw > w + pw (kernel columns that read only
        // padding), and Co in {5, 8, 9} around the short-M kernel's
        // 8 rows, with a 5x13 output plane that is no multiple of 8.
        let cases = [
            (8, 8, 8, 8, 24, 5, 5, 2, 2),
            (3, 8, 8, 5, 13, 3, 3, 1, 1),
            (2, 6, 5, 5, 13, 5, 5, 2, 2),
            (2, 4, 9, 6, 11, 3, 3, 1, 1),
            (3, 8, 8, 5, 13, 1, 1, 0, 0),
            (4, 3, 5, 6, 9, 3, 3, 1, 2),
            (3, 2, 3, 5, 7, 1, 1, 0, 0),
            (5, 3, 2, 4, 6, 2, 2, 1, 0),
            (1, 2, 3, 3, 1, 3, 4, 1, 2),
            (6, 4, 2, 5, 3, 5, 3, 2, 0),
            (1, 5, 4, 7, 6, 5, 5, 2, 2),
            (2, 1, 1, 1, 1, 1, 1, 0, 0),
        ];
        let restore = crate::par::max_threads();
        for threads in [1, 2, 4] {
            crate::par::set_max_threads(threads);
            for seed in 0..3u64 {
                for (ci, &(b, cin, cout, h, w, kh, kw, ph, pw)) in cases.iter().enumerate() {
                    let s = seed * 100 + ci as u64 * 3;
                    let x = Tensor::randn(&[b, cin, h, w], s + 1);
                    let wt = Tensor::randn(&[cout, cin, kh, kw], s + 2);
                    let (oh, ow) = (h + 2 * ph + 1 - kh, w + 2 * pw + 1 - kw);
                    let g = Tensor::randn(&[b, cout, oh, ow], s + 3);
                    let (gx, gw) = conv2d_backward(&x, &wt, &g, ph, pw);
                    let (rx, rw) = conv2d_backward_reference(&x, &wt, &g, ph, pw);
                    let at = format!("threads={threads} seed={seed} case={ci}");
                    assert_eq!(gx.shape(), rx.shape(), "{at}");
                    assert_eq!(gw.shape(), rw.shape(), "{at}");
                    assert_eq!(bits(&gx), bits(&rx), "gx {at}");
                    assert_eq!(bits(&gw), bits(&rw), "gw {at}");
                }
            }
        }
        crate::par::set_max_threads(restore);
    }

    #[test]
    fn im2col_identity_kernel_size_one() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[1, 3, 4]);
        let cols = im2col(&x, 1, 1, 0, 0);
        assert_eq!(cols.shape(), &[1, 12]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }

    #[test]
    fn im2col_into_matches_reference_and_reuses_dirty_buffers() {
        // Sweep geometries (including pathological padding) against a
        // direct per-element reference, reusing one scratch buffer
        // across all calls to prove every element gets written.
        let mut scratch = vec![f32::NAN; 4]; // dirty, wrong-sized
        for (c, h, w, kh, kw, ph, pw) in [
            (1, 1, 1, 1, 1, 0, 0),
            (2, 4, 5, 3, 3, 1, 1),
            (3, 5, 4, 2, 4, 0, 2),
            (1, 6, 3, 5, 1, 2, 0),
            (2, 3, 3, 3, 3, 2, 2),
            (1, 1, 1, 6, 6, 3, 3), // kw > w + pw: all-padding columns
        ] {
            let x = Tensor::from_vec(
                (0..c * h * w).map(|v| ((v * 31 + 7) as f32 * 0.13).sin()).collect(),
                &[c, h, w],
            );
            let want = im2col(&x, kh, kw, ph, pw);
            im2col_into(x.as_slice(), c, h, w, kh, kw, ph, pw, &mut scratch);
            assert_eq!(
                want.as_slice(),
                &scratch[..],
                "c={c} h={h} w={w} kh={kh} kw={kw} ph={ph} pw={pw}"
            );
        }
    }

    #[test]
    fn conv2d_identity() {
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]);
        let w = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]);
        let y = conv2d(&x, &w, 0, 0);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv2d_mean_filter() {
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let w = Tensor::full(&[1, 1, 3, 3], 1.0 / 9.0);
        let y = conv2d(&x, &w, 0, 0);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert!((y.item() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn conv2d_same_padding_shape() {
        let x = Tensor::ones(&[2, 3, 5, 7]);
        let w = Tensor::ones(&[4, 3, 3, 3]);
        let y = conv2d(&x, &w, 1, 1);
        assert_eq!(y.shape(), &[2, 4, 5, 7]);
        // Interior value: 3 channels * 9 taps = 27.
        assert!((y.at(&[0, 0, 2, 3]) - 27.0).abs() < 1e-5);
        // Corner sees only 4 taps per channel = 12.
        assert!((y.at(&[0, 0, 0, 0]) - 12.0).abs() < 1e-5);
    }

    #[test]
    fn conv2d_manual_3x3_check() {
        // x = [[1,2],[3,4]], kernel = [[1,0],[0,1]] (no padding) -> 1*1+4*1 = 5
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[1, 1, 2, 2]);
        let y = conv2d(&x, &w, 0, 0);
        assert_eq!(y.item(), 5.0);
    }

    #[test]
    fn conv1d_matches_manual_correlation() {
        // x = [1,2,3,4], k = [1,-1] -> [1*1+2*-1, 2-3, 3-4] = [-1,-1,-1]
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let w = Tensor::from_vec(vec![1.0, -1.0], &[1, 1, 2]);
        let y = conv1d(&x, &w, 0);
        assert_eq!(y.shape(), &[1, 1, 3]);
        assert_eq!(y.as_slice(), &[-1.0, -1.0, -1.0]);
    }

    #[test]
    fn conv1d_multichannel_sums_channels() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], &[1, 2, 2]);
        let w = Tensor::from_vec(vec![1.0, 1.0], &[1, 2, 1]);
        let y = conv1d(&x, &w, 0);
        assert_eq!(y.as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish x, y.
        let (c, h, w, kh, kw, ph, pw) = (2, 4, 5, 3, 3, 1, 1);
        let x = Tensor::from_vec((0..c * h * w).map(|v| (v as f32).sin()).collect(), &[c, h, w]);
        let cols = im2col(&x, kh, kw, ph, pw);
        let y = Tensor::from_vec(
            (0..cols.numel()).map(|v| ((v * 7 + 3) as f32).cos()).collect(),
            cols.shape(),
        );
        let lhs: f32 = cols.as_slice().iter().zip(y.as_slice()).map(|(a, b)| a * b).sum();
        let back = col2im(&y, c, h, w, kh, kw, ph, pw);
        let rhs: f32 = x.as_slice().iter().zip(back.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn moving_avg_preserves_length_and_constants() {
        let x = Tensor::full(&[10, 2], 3.0);
        let y = moving_avg_same(&x, 0, 5);
        assert_eq!(y.shape(), &[10, 2]);
        for v in y.as_slice() {
            assert!((v - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn moving_avg_smooths_ramp_interior() {
        let x = Tensor::arange(9).reshape(&[9, 1]);
        let y = moving_avg_same(&x, 0, 3);
        // Interior of a ramp is unchanged by centered moving average.
        for t in 1..8 {
            assert!((y.at(&[t, 0]) - t as f32).abs() < 1e-5);
        }
        // Edges are pulled toward the replicated edge value.
        assert!(y.at(&[0, 0]) > 0.0);
    }

    #[test]
    fn moving_avg_window_one_is_identity() {
        let x = Tensor::from_vec(vec![5.0, -2.0, 7.0], &[3, 1]);
        assert_eq!(moving_avg_same(&x, 0, 1), x);
    }

    /// The padded moving average `moving_avg_same` used to run: build the
    /// replicate-padded tensor, then slide one `f64` sum over it. Oracle
    /// for the in-place clamped reads of `moving_avg_same_into`.
    fn moving_avg_padded(input: &Tensor, axis: usize, k: usize) -> Tensor {
        if k == 1 {
            return input.clone();
        }
        let before = (k - 1) / 2;
        let padded = input.pad_axis_replicate(axis, before, k - 1 - before);
        let outer: usize = padded.shape()[..axis].iter().product();
        let n = padded.shape()[axis];
        let inner: usize = padded.shape()[axis + 1..].iter().product();
        let out_n = n + 1 - k;
        let mut out = vec![0.0f32; outer * out_n * inner];
        let src = padded.as_slice();
        for o in 0..outer {
            for i in 0..inner {
                let mut acc = 0.0f64;
                for t in 0..k {
                    acc += src[(o * n + t) * inner + i] as f64;
                }
                out[o * out_n * inner + i] = (acc / k as f64) as f32;
                for t in 1..out_n {
                    acc += src[(o * n + t + k - 1) * inner + i] as f64;
                    acc -= src[(o * n + t - 1) * inner + i] as f64;
                    out[(o * out_n + t) * inner + i] = (acc / k as f64) as f32;
                }
            }
        }
        Tensor::from_vec(out, input.shape())
    }

    #[test]
    fn moving_avg_matches_padded_oracle_bitwise() {
        use ts3_rng::rngs::StdRng;
        use ts3_rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        // Lengths below, at and above the kernel, rank 2 on axis 0 and
        // rank 3 with B in {1, 3} on axis 1.
        for t in [1usize, 2, 5, 12, 33, 96] {
            for (shape, axis) in [(vec![t, 2], 0), (vec![1, t, 2], 1), (vec![3, t, 2], 1)] {
                let numel: usize = shape.iter().product();
                let mut spike = vec![0.0f32; numel];
                spike[numel / 2] = 1.0e3;
                let noise: Vec<f32> = (0..numel).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
                for data in [vec![2.5f32; numel], vec![0.0; numel], spike, noise] {
                    let x = Tensor::from_vec(data, &shape);
                    for k in [1usize, 2, 4, 13, 25, 97] {
                        let got = moving_avg_same(&x, axis, k);
                        let want = moving_avg_padded(&x, axis, k);
                        assert_eq!(got.shape(), want.shape());
                        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                            assert!(a.is_finite(), "{shape:?} k={k} idx={i}: {a}");
                            assert_eq!(a.to_bits(), b.to_bits(), "{shape:?} k={k} idx={i}: {a} vs {b}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn avg_pool_axis_basic_and_ragged() {
        let x = Tensor::arange(5).reshape(&[5, 1]);
        let y = avg_pool_axis(&x, 0, 2);
        assert_eq!(y.shape(), &[3, 1]);
        assert_eq!(y.as_slice(), &[0.5, 2.5, 4.0]);
    }

    #[test]
    fn conv2d_parallel_bit_identical_to_serial() {
        // The batch loop is partitioned by `par`; recompute each sample
        // with the single-sample (hence single-block) path and demand
        // bit equality for every forced thread count.
        let (b, cin, h, w, cout, kh, kw, ph, pw) = (5, 3, 6, 7, 4, 3, 3, 1, 1);
        let x = Tensor::from_vec(
            (0..b * cin * h * w).map(|v| ((v * 13 + 1) as f32 * 0.173).sin()).collect(),
            &[b, cin, h, w],
        );
        let wt = Tensor::from_vec(
            (0..cout * cin * kh * kw).map(|v| ((v * 7 + 5) as f32 * 0.291).cos()).collect(),
            &[cout, cin, kh, kw],
        );
        let batched = conv2d(&x, &wt, ph, pw);
        let mut serial = vec![0.0f32; batched.numel()];
        let sample = batched.numel() / b;
        let (k, p) = (cin * kh * kw, (h + 2 * ph + 1 - kh) * (w + 2 * pw + 1 - kw));
        let wmat = MatRef::dense(wt.as_slice(), k);
        for bi in 0..b {
            let cols = im2col(&x.index_axis(0, bi), kh, kw, ph, pw);
            let ob = &mut serial[bi * sample..(bi + 1) * sample];
            gemm(wmat, MatRef::dense(cols.as_slice(), p), ob, cout, k, p);
        }
        for threads in [1, 2, 3, 5, 8] {
            let mut par = vec![0.0f32; b * sample];
            crate::par::par_rows_mut_in(threads, &mut par, sample, &|b0, block| {
                for (i, ob) in block.chunks_mut(sample).enumerate() {
                    let cols = im2col(&x.index_axis(0, b0 + i), kh, kw, ph, pw);
                    gemm(wmat, MatRef::dense(cols.as_slice(), p), ob, cout, k, p);
                }
            });
            assert_eq!(
                serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            batched.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn conv2d_batch_independence() {
        let x0 = Tensor::ones(&[1, 1, 3, 3]);
        let x1 = Tensor::full(&[1, 1, 3, 3], 2.0);
        let x = Tensor::concat(&[&x0, &x1], 0);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv2d(&x, &w, 1, 1);
        let y0 = conv2d(&x0, &w, 1, 1);
        let y1 = conv2d(&x1, &w, 1, 1);
        assert!(y.index_axis(0, 0).allclose(&y0.index_axis(0, 0), 1e-6));
        assert!(y.index_axis(0, 1).allclose(&y1.index_axis(0, 0), 1e-6));
    }
}
