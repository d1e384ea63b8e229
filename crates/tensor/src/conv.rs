//! Convolution kernels: column-free 2-D convolution and its backward
//! pass, 1-D convolution, and the moving-average pooling used by trend
//! decomposition.
//!
//! Layout conventions (matching the usual DL framework conventions):
//! * conv2d input  `[B, C_in, H, W]`
//! * conv2d weight `[C_out, C_in, KH, KW]`
//! * conv1d input  `[B, C_in, L]`
//! * conv1d weight `[C_out, C_in, K]`
//!
//! ## No column matrix
//!
//! A stride-1 convolution is the product `W · cols` of the weight, read
//! as `[C_out, C_in·KH·KW]`, and the `[C_in·KH·KW, OH·OW]` column matrix
//! of one sample. That matrix is never built. Each worker copies the
//! sample once into a zero-padded `[C_in, H+2ph, W+2pw]` scratch, and
//! two offset tables, built once per call, address it:
//! * `taps[(ci·KH + ki)·KW + kj] = (ci·Hp + ki)·Wp + kj`, one per tap;
//! * `pix[oi·OW + oj] = oi·Wp + oj`, one per output pixel.
//!
//! Column-matrix element `(t, j)` is `xpad[taps[t] + pix[j]]`: the gemm
//! operand view `MatRef::gather` reads it in place, so the forward
//! `W · cols` and the weight gradient `gy · colsᵀ` run gemm's tiles over
//! the padded copy. The padding holds the zeros the column matrix held,
//! met in the same FMAs in the same order, so the bits are those of
//! the textbook `im2col` product (the tests keep it as the oracle).
//! The input gradient is a direct kernel over the clipped taps (see
//! [`conv2d_backward`]).

use std::cell::RefCell;

use crate::gemm::{gemm, Axis, MatRef};
use crate::Tensor;

thread_local! {
    // Per-worker zero-padded sample shared by `conv2d` and
    // `conv2d_backward`, reused across samples and calls (the
    // persistent pool keeps workers alive, so steady-state convolution
    // does no per-sample allocation in either direction).
    static XPAD: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    // The calling thread's tap and pixel offset tables, built once per
    // call and read by every worker of it.
    static TABLES: RefCell<(Vec<usize>, Vec<usize>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    // The calling thread's `[KH·KW, Co, Ci]` weight for the input
    // gradient, likewise per call.
    static WTAP: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The shape of one stride-1 `conv2d` call, checked once.
#[derive(Clone, Copy)]
struct Geom {
    b: usize,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    ph: usize,
    pw: usize,
    oh: usize,
    ow: usize,
}

impl Geom {
    fn new(input: &Tensor, weight: &Tensor, ph: usize, pw: usize, op: &str) -> Geom {
        assert_eq!(input.rank(), 4, "{op} input must be [B,C,H,W]");
        assert_eq!(weight.rank(), 4, "{op} weight must be [Co,Ci,KH,KW]");
        let (b, cin, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let (cout, cin2, kh, kw) = (weight.shape()[0], weight.shape()[1], weight.shape()[2], weight.shape()[3]);
        assert_eq!(cin, cin2, "{op}: channel mismatch (input {cin} vs weight {cin2})");
        assert!(h + 2 * ph >= kh && w + 2 * pw >= kw, "{op}: kernel larger than padded input");
        let (oh, ow) = (h + 2 * ph + 1 - kh, w + 2 * pw + 1 - kw);
        Geom { b, cin, h, w, cout, kh, kw, ph, pw, oh, ow }
    }

    /// Width of the padded plane.
    fn wp(&self) -> usize {
        self.w + 2 * self.pw
    }

    /// Taps per output channel: the column matrix's row count.
    fn k(&self) -> usize {
        self.cin * self.kh * self.kw
    }

    /// Output pixels per channel: the column matrix's column count.
    fn p(&self) -> usize {
        self.oh * self.ow
    }

    /// Fill the tap and pixel offset tables of the padded plane.
    fn tables(&self, taps: &mut Vec<usize>, pix: &mut Vec<usize>) {
        let (hp, wp) = (self.h + 2 * self.ph, self.wp());
        taps.clear();
        for ci in 0..self.cin {
            for ki in 0..self.kh {
                taps.extend((0..self.kw).map(|kj| (ci * hp + ki) * wp + kj));
            }
        }
        pix.clear();
        for oi in 0..self.oh {
            pix.extend((0..self.ow).map(|oj| oi * wp + oj));
        }
    }

    /// Copy the `[Ci, H, W]` sample `x` into `out` as the zero-padded
    /// `[Ci, H+2ph, W+2pw]` plane, writing every element so the buffer
    /// can be reused without clearing.
    fn pad_into(&self, x: &[f32], out: &mut Vec<f32>) {
        let (h, w, ph, pw, wp) = (self.h, self.w, self.ph, self.pw, self.wp());
        let plane = (h + 2 * ph) * wp;
        out.resize(self.cin * plane, 0.0);
        for ci in 0..self.cin {
            let (top, rest) = out[ci * plane..(ci + 1) * plane].split_at_mut(ph * wp);
            let (body, bottom) = rest.split_at_mut(h * wp);
            top.fill(0.0);
            bottom.fill(0.0);
            for ii in 0..h {
                let d = &mut body[ii * wp..(ii + 1) * wp];
                d[..pw].fill(0.0);
                d[pw..pw + w].copy_from_slice(&x[(ci * h + ii) * w..][..w]);
                d[pw + w..].fill(0.0);
            }
        }
    }

    /// Run `f(bi, xpad, taps, pix, row)` for each sample `bi` of `input`
    /// on the worker that owns it: `f` gets the sample's padded plane, the
    /// shared tap and pixel axes, and the sample's `row`-wide row of
    /// `out`. With no padding the padded plane is the sample itself, read
    /// in place. The pixel axis is a plain stride when the output plane
    /// is one contiguous run of the padded plane (one output row, or no
    /// column padding with `KW = 1`).
    fn per_sample<F>(&self, input: &Tensor, out: &mut [f32], row: usize, f: F)
    where
        F: Fn(usize, &[f32], Axis, Axis, &mut [f32]) + Sync,
    {
        if out.is_empty() || row == 0 {
            return;
        }
        let in_sample = self.cin * self.h * self.w;
        let src = input.as_slice();
        TABLES.with(|cell| {
            let (taps, pix) = &mut *cell.borrow_mut();
            self.tables(taps, pix);
            let taps = Axis::Table(taps);
            let pix = if self.oh == 1 || self.ow == self.wp() { Axis::Stride(1) } else { Axis::Table(pix) };
            crate::par::par_rows_mut(out, row, 1, |b0, block| {
                XPAD.with(|cell| {
                    let scratch = &mut *cell.borrow_mut();
                    for (bi, r) in (b0..).zip(block.chunks_mut(row)) {
                        let x = &src[bi * in_sample..(bi + 1) * in_sample];
                        let xpad = if self.ph == 0 && self.pw == 0 {
                            x
                        } else {
                            self.pad_into(x, scratch);
                            &scratch[..]
                        };
                        f(bi, xpad, taps, pix, r);
                    }
                });
            });
        });
    }
}

/// 2-D convolution (cross-correlation, as in DL frameworks), stride 1.
///
/// * `input`:  `[B, C_in, H, W]`
/// * `weight`: `[C_out, C_in, KH, KW]`
/// * returns `[B, C_out, OH, OW]` with `OH = H + 2*ph + 1 - KH`.
///
/// Per sample, one gemm `W · cols` over the padded copy read through
/// the tap × pixel view (see the module docs); with AVX2 active,
/// 4 ≤ `C_out` ≤ 8 takes gemm's short-M tile. Batch entries are
/// independent, so they are partitioned across threads via
/// [`crate::par`]; each sample is computed by the identical serial
/// kernel, keeping the result bit-identical to a serial run.
pub fn conv2d(input: &Tensor, weight: &Tensor, ph: usize, pw: usize) -> Tensor {
    let g = Geom::new(input, weight, ph, pw, "conv2d");
    let (b, cout, k, p) = (g.b, g.cout, g.k(), g.p());
    let mut _span = ts3_obs::span("tensor.conv2d");
    if _span.active() {
        let flops = 2 * b * cout * p * k;
        _span.field("b", b);
        _span.field("cin", g.cin);
        _span.field("cout", cout);
        _span.field("kh", g.kh);
        _span.field("kw", g.kw);
        _span.field("flops", flops);
        ts3_obs::counter_add("tensor.conv2d.calls", 1);
        ts3_obs::counter_add("tensor.conv2d.flops", flops as u64);
        ts3_obs::counter_add(
            "tensor.conv2d.bytes",
            (4 * (input.numel() + weight.numel() + b * cout * p)) as u64,
        );
        crate::gemm::count_short_m(&[(cout, k, p)]);
    }
    // The weight is read in place as the `[Co, Ci·kh·kw]` matrix.
    let wmat = MatRef::dense(weight.as_slice(), k);
    let mut out = vec![0.0f32; b * cout * p];
    g.per_sample(input, &mut out, cout * p, |_, xpad, taps, pix, ob| {
        gemm(wmat, MatRef::gather(xpad, taps, pix), ob, cout, k, p);
    });
    Tensor::from_vec(out, &[b, cout, g.oh, g.ow])
}

/// Input channels × output pixels of chains that [`input_grad_add`]
/// runs side by side. A tap whose run of output pixels is shorter than
/// `GX_PIX`, or a plane with fewer than `GX_CI` channels, runs one chain
/// at a time.
const GX_CI: usize = 2;
const GX_PIX: usize = 32;

/// Add one sample's input gradient into `gx` (`[Ci, H, W]`), given its
/// output gradient `gy` (`[Co, OH·OW]`) and the weight re-laid as
/// `[KH·KW, Co, Ci]` (`wt`).
///
/// For each tap `(ki, kj)` in ascending order, each input pixel the tap
/// reaches gets one `C_out`-term chain `Σ_co w·gy`, folded in ascending
/// `co` from `+0.0` and then added into `gx`. The tap reaches the output
/// pixels of rows `oi_lo..oi_hi` and columns `lo..hi`; the others read
/// padding. These are clipped, not padded: a padded `gy` would add `w·0`
/// terms, which an infinite `w` turns into NaN. These are the operations
/// of `Wᵀ · gy` followed by the `col2im` fold, so the bits are the same.
fn input_grad_add(g: &Geom, wt: &[f32], gy: &[f32], gx: &mut [f32]) {
    let (cin, cout, h, w, ow) = (g.cin, g.cout, g.h, g.w, g.ow);
    for ki in 0..g.kh {
        // Output rows whose input row oi + ki - ph is in range.
        let oi_lo = g.ph.saturating_sub(ki).min(g.oh);
        let oi_hi = (h + g.ph).saturating_sub(ki).min(g.oh);
        for kj in 0..g.kw {
            let lo = g.pw.saturating_sub(kj).min(ow);
            let hi = (w + g.pw).saturating_sub(kj).min(ow);
            if oi_hi <= oi_lo || hi <= lo {
                continue; // every output pixel reads padding
            }
            let tap = Tap {
                wtap: &wt[(ki * g.kw + kj) * cout * cin..][..cout * cin],
                ki,
                kj,
                lo,
                hi,
                start: oi_lo * ow + lo,
                end: (oi_hi - 1) * ow + hi,
            };
            if tap.end - tap.start >= GX_PIX && cin >= GX_CI {
                tap.blocks::<GX_CI, GX_PIX>(g, gy, gx);
            } else {
                tap.blocks::<1, 1>(g, gy, gx);
            }
        }
    }
}

/// One tap of the input gradient: its `[Co, Ci]` weights and the output
/// pixels it reaches, as the run `start..end` of the flattened `OH·OW`
/// plane. The run crosses output rows; its pixels outside columns
/// `lo..hi` read padding, so their chains are computed and dropped.
struct Tap<'a> {
    wtap: &'a [f32],
    ki: usize,
    kj: usize,
    lo: usize,
    hi: usize,
    start: usize,
    end: usize,
}

impl Tap<'_> {
    /// Every chain of the run, `C` channels × `PIX` pixels side by side
    /// (`C` at most `Ci`, `PIX` at most the run): each step loads `gy`
    /// once for all `C` channels. The last block along each axis is
    /// shifted back to end at the axis's end, and adds only the chains
    /// the blocks before it left.
    #[inline(always)]
    fn blocks<const C: usize, const PIX: usize>(&self, g: &Geom, gy: &[f32], gx: &mut [f32]) {
        let (p, cin) = (g.p(), g.cin);
        let mut next_ci = 0;
        while next_ci < cin {
            let ci0 = next_ci.min(cin - C);
            let mut next = self.start;
            while next < self.end {
                let j0 = next.min(self.end - PIX);
                let mut acc = [[0.0f32; PIX]; C];
                for (gyc, wrow) in gy.chunks_exact(p).zip(self.wtap.chunks_exact(cin)) {
                    // ts3-lint: allow(no-unwrap-in-lib) both slices are exactly PIX / C long; conversion cannot fail
                    let gv: &[f32; PIX] = gyc[j0..][..PIX].try_into().unwrap();
                    // ts3-lint: allow(no-unwrap-in-lib) both slices are exactly PIX / C long; conversion cannot fail
                    let wv: &[f32; C] = wrow[ci0..ci0 + C].try_into().unwrap();
                    for c in 0..C {
                        for l in 0..PIX {
                            acc[c][l] = wv[c].mul_add(gv[l], acc[c][l]);
                        }
                    }
                }
                self.add(g, &acc, ci0, next_ci - ci0, j0, next - j0, gx);
                next = j0 + PIX;
            }
            next_ci = ci0 + C;
        }
    }

    /// Add lanes `from..` of the chains `acc` (channel `ci0 + c`, lane
    /// `l` the output pixel `j0 + l`) into `gx`, skipping the first
    /// `skip` channels, one output row's columns `lo..hi` at a time.
    /// `acc` stays a fixed-size array so the block's chains can live in
    /// registers.
    #[allow(clippy::too_many_arguments)] // one block's coordinates
    #[inline(always)]
    fn add<const C: usize, const PIX: usize>(
        &self,
        g: &Geom,
        acc: &[[f32; PIX]; C],
        ci0: usize,
        skip: usize,
        j0: usize,
        from: usize,
        gx: &mut [f32],
    ) {
        let (ow, plane) = (g.ow, g.h * g.w);
        let mut l = from;
        while l < PIX {
            let (oi, oj) = ((j0 + l) / ow, (j0 + l) % ow);
            let row_end = (l + ow - oj).min(PIX);
            let a = l + self.lo.saturating_sub(oj);
            let e = row_end.min((l + self.hi).saturating_sub(oj));
            if a < e {
                // Output pixel (oi, oj') reads input (oi + ki - ph, oj' + kj - pw).
                let at = (oi + self.ki - g.ph) * g.w + oj + (a - l) + self.kj - g.pw;
                for (c, acc_c) in acc.iter().enumerate().skip(skip) {
                    let dst = &mut gx[(ci0 + c) * plane + at..][..e - a];
                    for (d, v) in dst.iter_mut().zip(&acc_c[a..e]) {
                        *d += v;
                    }
                }
            }
            l = row_end;
        }
    }
}

/// Gradients of [`conv2d`] with respect to its input and weight, given
/// the output gradient `grad` (`[B, C_out, OH, OW]`). Returns
/// `(gx, gw)`, shaped like `input` and `weight`.
///
/// Per sample, the weight partial `gy · colsᵀ` is one gemm over the
/// padded copy read through the pixel × tap view (the short-M tile for
/// 4 ≤ `C_out` ≤ 8 under AVX2, else the packed tile or the naive loop).
/// The input gradient is a direct kernel: for each tap in `(ki, kj)`
/// order, each input pixel the tap reaches gets one `C_out`-term chain,
/// folded from zero over the clipped span and added into `gx`, as the
/// `Wᵀ · gy` + `col2im` formulation did. No column matrix and no
/// per-sample buffer exist.
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
    let g = Geom::new(input, weight, ph, pw, "conv2d_backward");
    let (b, cin, cout, k, p) = (g.b, g.cin, g.cout, g.k(), g.p());
    assert_eq!(grad.shape(), &[b, cout, g.oh, g.ow], "conv2d_backward: gradient shape mismatch");
    let mut _span = ts3_obs::span("tensor.conv2d_backward");
    if _span.active() {
        // Counted as two full products per sample, gy · colsᵀ and Wᵀ · gy.
        let flops = 4 * b * cout * p * k;
        _span.field("b", b);
        _span.field("cin", cin);
        _span.field("cout", cout);
        _span.field("kh", g.kh);
        _span.field("kw", g.kw);
        _span.field("flops", flops);
        ts3_obs::counter_add("tensor.conv2d_backward.calls", 1);
        ts3_obs::counter_add("tensor.conv2d_backward.flops", flops as u64);
        crate::gemm::count_short_m(&[(cout, p, k)]);
    }
    // One row per sample: its `gx` slice, then its weight partial.
    let in_sample = cin * g.h * g.w;
    let row = in_sample + cout * k;
    let mut buf = vec![0.0f32; b * row];
    let mut gw = vec![0.0f32; cout * k];
    let gdata = grad.as_slice();
    WTAP.with(|cell| {
        // The weight re-laid `[KH·KW, Co, Ci]` for the input gradient.
        let wt = &mut *cell.borrow_mut();
        let kk = g.kh * g.kw;
        wt.resize(weight.numel(), 0.0);
        for (i, &v) in weight.as_slice().iter().enumerate() {
            let (co, ci, tap) = (i / (cin * kk), i / kk % cin, i % kk);
            wt[(tap * cout + co) * cin + ci] = v;
        }
        let wt = &wt[..];
        g.per_sample(input, &mut buf, row, |bi, xpad, taps, pix, r| {
            let (gxb, gwb) = r.split_at_mut(in_sample);
            let gy = &gdata[bi * cout * p..(bi + 1) * cout * p];
            gemm(MatRef::dense(gy, p), MatRef::gather(xpad, pix, taps), gwb, cout, p, k);
            input_grad_add(&g, wt, gy, gxb);
        });
    });
    if row > 0 {
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
        Tensor::from_vec(buf, &[b, cin, g.h, g.w]),
        Tensor::from_vec(gw, &[cout, cin, g.kh, g.kw]),
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
    /// a convolution with the given padding and stride 1, element by element.
    fn im2col(input: &Tensor, kh: usize, kw: usize, ph: usize, pw: usize) -> Tensor {
        assert_eq!(input.rank(), 3, "im2col expects [C,H,W]");
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let oh = h + 2 * ph + 1 - kh;
        let ow = w + 2 * pw + 1 - kw;
        let src = input.as_slice();
        let mut out = Vec::with_capacity(c * kh * kw * oh * ow);
        for ci in 0..c {
            for ki in 0..kh {
                for kj in 0..kw {
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let (ii, jj) = (oi + ki, oj + kj);
                            let inside = (ph..h + ph).contains(&ii) && (pw..w + pw).contains(&jj);
                            out.push(if inside { src[(ci * h + ii - ph) * w + jj - pw] } else { 0.0 });
                        }
                    }
                }
            }
        }
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

    /// `conv2d` as the textbook column product: per sample, `im2col`
    /// then the unblocked reference loop `W · cols` from zeros.
    fn conv2d_oracle(x: &Tensor, w: &Tensor, ph: usize, pw: usize) -> Tensor {
        let (b, cin, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (cout, _, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
        let (oh, ow) = (h + 2 * ph + 1 - kh, wd + 2 * pw + 1 - kw);
        let (k, p) = (cin * kh * kw, oh * ow);
        let mut out = vec![0.0f32; b * cout * p];
        for (bi, ob) in out.chunks_exact_mut(cout * p).enumerate() {
            let cols = im2col(&x.index_axis(0, bi), kh, kw, ph, pw);
            crate::gemm::matmul_block_naive(w.as_slice(), cols.as_slice(), ob, cout, k, p);
        }
        Tensor::from_vec(out, &[b, cout, oh, ow])
    }

    /// Bitwise equality where any NaN equals any NaN.
    fn assert_same_bits(got: &Tensor, want: &Tensor, at: &str) {
        assert_eq!(got.shape(), want.shape(), "{at}");
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                "{at} idx={i}: {a} vs {b}"
            );
        }
    }

    /// `t` with NaN, +inf and -inf written at three fixed positions.
    fn with_specials(t: Tensor) -> Tensor {
        let mut v = t.as_slice().to_vec();
        let n = v.len();
        for (slot, s) in [(n / 3, f32::NAN), (n / 2, f32::INFINITY), (n - 1, f32::NEG_INFINITY)] {
            v[slot] = s;
        }
        Tensor::from_vec(v, t.shape())
    }

    #[test]
    fn conv2d_and_backward_match_column_oracles_bitwise() {
        // (b, cin, h, w, kh, kw, ph, pw): output widths 1, 5, 13 and 96
        // (8-column blocks cross output rows), kh != kw, ph != pw,
        // planes smaller than the kernel, and no padding (the sample is
        // read in place). Every geometry runs at each
        // Co, so the naive loop (Co < 4), the short-M tile (4..=8) and
        // the packed tile (9, 32) all see it; then with NaN/±inf in x,
        // in W and in gy, at 1 and 2 threads. The SIMD flag is
        // process-wide, so this test leaves it alone: `TS3_SIMD=0 cargo
        // test` runs the same sweep on the scalar path (verify.sh gate 2).
        let geoms = [
            (2, 3, 4, 96, 5, 5, 2, 2),
            (2, 2, 3, 13, 3, 3, 1, 1),
            (3, 4, 5, 5, 1, 1, 0, 0),
            (2, 3, 6, 1, 3, 1, 1, 0),
            (2, 2, 3, 11, 2, 5, 0, 2),
            (1, 2, 2, 3, 5, 4, 2, 1),
            (2, 1, 1, 1, 3, 3, 1, 1),
            (1, 5, 3, 13, 1, 3, 0, 1),
            (2, 3, 6, 9, 3, 2, 0, 0),
        ];
        let restore = crate::par::max_threads();
        for threads in [1, 2] {
            crate::par::set_max_threads(threads);
            for (gi, &(b, cin, h, w, kh, kw, ph, pw)) in geoms.iter().enumerate() {
                let (oh, ow) = (h + 2 * ph + 1 - kh, w + 2 * pw + 1 - kw);
                for cout in [1, 3, 4, 8, 9, 32] {
                    let s = (gi * 100 + cout) as u64;
                    let x = Tensor::randn(&[b, cin, h, w], s);
                    let wt = Tensor::randn(&[cout, cin, kh, kw], s + 1);
                    let g = Tensor::randn(&[b, cout, oh, ow], s + 2);
                    let inputs = [
                        (x.clone(), wt.clone(), g.clone()),
                        (with_specials(x.clone()), wt.clone(), g.clone()),
                        (x.clone(), with_specials(wt.clone()), g.clone()),
                        (x, wt, with_specials(g)),
                    ];
                    for (vi, (x, wt, g)) in inputs.iter().enumerate() {
                        let at = format!("threads={threads} geom={gi} cout={cout} values={vi}");
                        assert_same_bits(&conv2d(x, wt, ph, pw), &conv2d_oracle(x, wt, ph, pw), &at);
                        let (gx, gw) = conv2d_backward(x, wt, g, ph, pw);
                        let (rx, rw) = conv2d_backward_reference(x, wt, g, ph, pw);
                        assert_same_bits(&gx, &rx, &format!("gx {at}"));
                        assert_same_bits(&gw, &rw, &format!("gw {at}"));
                    }
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
    fn padded_sample_matches_im2col_and_reuses_dirty_buffers() {
        // Sweep geometries (including pathological padding): the padded
        // copy read through the tap and pixel tables is the column
        // matrix, element for element, with one dirty, wrong-sized
        // scratch reused across all calls to prove every element gets
        // written.
        let mut scratch = vec![f32::NAN; 4];
        let (mut taps, mut pix) = (vec![7usize; 3], Vec::new());
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
                &[1, c, h, w],
            );
            let g = Geom::new(&x, &Tensor::zeros(&[1, c, kh, kw]), ph, pw, "test");
            g.pad_into(x.as_slice(), &mut scratch);
            g.tables(&mut taps, &mut pix);
            let want = im2col(&x.index_axis(0, 0), kh, kw, ph, pw);
            let xpad = &scratch;
            let got: Vec<f32> = taps.iter().flat_map(|&t| pix.iter().map(move |&j| xpad[t + j])).collect();
            assert_eq!(want.as_slice(), &got[..], "c={c} h={h} w={w} kh={kh} kw={kw} ph={ph} pw={pw}");
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
