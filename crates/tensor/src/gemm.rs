//! Cache-blocked, packed matrix-multiply kernel — the workspace's GEMM.
//!
//! The kernel follows the classic three-level blocking recipe (the one
//! BLIS/MiniTensor use): panels of the operands are **packed** into
//! contiguous, tile-ordered scratch so the innermost loop streams
//! unit-stride data, the block sizes [`MC`]×[`KC`]×[`NC`] keep those
//! panels resident in L1/L2, and an [`MR`]×[`NR`] **register tile** of
//! accumulators amortises every load/store of the output over `KC`
//! multiply-adds. Everything is safe Rust; the fixed-size inner loops
//! are shaped so LLVM's autovectoriser turns them into wide SIMD FMAs.
//!
//! ## Two tile orientations
//!
//! [`gemm`] picks one of two register tiles from the shape alone:
//!
//! * **Packed `MR`×`NR` tile** (4 rows × 16 columns; columns are the
//!   SIMD lanes): every product with more than [`SM_ROWS`] or fewer
//!   than `SM_MIN_ROWS` output rows, and every product when the AVX2
//!   kernels are off (`TS3_SIMD=0` or no AVX2+FMA). Small or thin
//!   shapes take the strided naive loop ([`gemm_naive`]) instead.
//! * **Short-M tile** (up to [`SM_ROWS`] = 8 rows × [`SM_COLS`] = 8
//!   columns; rows are the lanes of one `__m256`): products with
//!   4 ≤ m ≤ 8 output rows when AVX2+FMA is active — the conv2d
//!   `W·cols` and `gy·colsᵀ` products and the k = 1 `Wᵀ·gy` at
//!   `C_out = 8`. Each step broadcasts one element of B straight from
//!   the unpacked view (dense or transposed) into eight column
//!   accumulators, so there is no `pack_b` and no `KC` slab. At m ≤ 8
//!   the packed tile re-packs all of B to serve two 4-row panels (or
//!   runs ragged rows through the scalar edge kernel), which is what
//!   the short-M tile saves. At m < 4 it idles more than half its
//!   lanes, and the naive loop wins (kernel bench rows at m ∈ 1..8).
//!   The kernel lives in [`crate::simd`]; conv calls whose products take
//!   it bump `tensor.gemm.sched.short_m_avx2`.
//!
//! Both orientations keep the one bit contract below, so which tile ran
//! is a speed fact, never a numeric one.
//!
//! ## Bit-identical-to-naive contract
//!
//! Every output element is produced by **exactly the same sequence of
//! f32 operations** as the unblocked `i-k-j` reference loop kept in
//! [`crate::linalg`]'s tests: for fixed `(i, j)`, the
//! products `a[i,p] * b[p,j]` are folded in one at a time in ascending
//! `p` order, starting from the caller's `out[i,j]`, each step a single
//! fused multiply-add (`f32::mul_add`, one rounding per step — the
//! workspace's uniform matmul arithmetic policy, documented on that
//! reference loop). Blocking only changes *when* each element's
//! partial sums happen (`KC` slabs are visited in ascending `pc`, and
//! the register tile spills the exact partial value between slabs),
//! never their order or rounding — so tiled and naive results are
//! bit-for-bit equal, which the `tiled_matmul_bitwise_equals_naive_sweep`
//! test enforces across ragged shapes. This is what lets the tiled
//! kernel slot under the workspace's "bit-identical across thread
//! counts" determinism contract unchanged.
//!
//! ## Strided operand views
//!
//! Operands are described by [`MatRef`] (base offset + row/column
//! stride), so the same packed kernel serves `A@B`, `A@Bᵀ` and `Aᵀ@B`
//! without materialising a transpose: only the pack-time gather
//! pattern changes, the arithmetic (and hence the bits) stays
//! identical. The transposed entry points on [`crate::Tensor`] feed
//! the autograd backward passes directly.
//!
//! Packing scratch lives in a thread-local and is reused across calls;
//! with the persistent worker pool (see [`crate::par`]) this makes the
//! steady-state kernel allocation-free.

use std::cell::RefCell;

/// Register-tile rows: each micro-kernel invocation produces an
/// `MR x NR` block of the output from registers.
pub(crate) const MR: usize = 4;
/// Register-tile columns (two 8-lane SIMD vectors per row).
pub(crate) const NR: usize = 16;
/// Rows of `A` packed per panel (panel size `MC*KC` floats ~ 64 KiB:
/// comfortably L2-resident).
const MC: usize = 64;
/// Shared-dimension slab: `KC*NR` floats of `B` (~16 KiB) stay
/// L1-resident while a micro-panel column is swept.
const KC: usize = 256;
/// Columns of `B` packed per panel (`KC*NC` floats ~ 256 KiB in L2).
const NC: usize = 256;

/// Most output rows the short-M kernel holds: the lanes of one 8-wide
/// SIMD vector.
pub(crate) const SM_ROWS: usize = 8;
/// Output columns per short-M block, one accumulator vector each.
pub(crate) const SM_COLS: usize = 8;
/// Fewest output rows that take the short-M kernel: below it more than
/// half the lanes idle, and the naive axpy loop is faster.
const SM_MIN_ROWS: usize = 4;

/// Output columns whose dot-product chains [`gemm_naive`] interleaves.
const DOT_COLS: usize = 8;

/// Below this many multiply-adds (or for degenerate tile shapes) the
/// packing overhead outweighs the register-tile win and the strided
/// naive loop is used instead — bit-identical either way, so the
/// crossover is purely a performance choice.
const PACK_THRESHOLD_FLOPS: usize = 4096;

/// A strided read-only matrix view: element `(i, j)` lives at
/// `data[off + i * rs + j * cs]`.
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a> {
    pub data: &'a [f32],
    pub off: usize,
    pub rs: usize,
    pub cs: usize,
}

impl<'a> MatRef<'a> {
    /// Row-major `rows x cols` view of a dense slice.
    pub(crate) fn dense(data: &'a [f32], cols: usize) -> MatRef<'a> {
        MatRef { data, off: 0, rs: cols, cs: 1 }
    }

    /// Transposed view of a row-major `rows x cols` slice (i.e. the
    /// `cols x rows` matrix, without moving data).
    pub(crate) fn dense_t(data: &'a [f32], cols: usize) -> MatRef<'a> {
        MatRef { data, off: 0, rs: 1, cs: cols }
    }

    /// The same view shifted down by `rows` matrix rows.
    pub(crate) fn shifted(self, rows: usize) -> MatRef<'a> {
        MatRef { off: self.off + rows * self.rs, ..self }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[self.off + i * self.rs + j * self.cs]
    }
}

thread_local! {
    /// Reusable packing scratch: `(A panel, B panel)`.
    static SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// `out += A @ B` for an `m x k` view `a` and `k x n` view `b`, into the
/// row-major `m x n` buffer `out`. The caller pre-zeroes `out` for a
/// plain product (the kernel accumulates, exactly like the naive loop).
pub(crate) fn gemm(a: MatRef, b: MatRef, out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if takes_short_m(m, k, n)
        && SCRATCH.with(|cell| crate::simd::short_m_dispatch(a, b, out, m, k, n, &mut cell.borrow_mut().0))
    {
        return;
    }
    if m < MR || n < NR || m * k * n < PACK_THRESHOLD_FLOPS {
        return gemm_naive(a, b, out, m, k, n);
    }
    SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        let (apack, bpack) = &mut *scratch;
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b(b, pc, jc, kc, nc, bpack);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    pack_a(a, ic, pc, mc, kc, apack);
                    let a_panels = mc.div_ceil(MR);
                    let b_panels = nc.div_ceil(NR);
                    for jr in 0..b_panels {
                        let nr = NR.min(nc - jr * NR);
                        let bp = &bpack[jr * kc * NR..][..kc * NR];
                        for ir in 0..a_panels {
                            let mr = MR.min(mc - ir * MR);
                            let ap = &apack[ir * kc * MR..][..kc * MR];
                            let tile = (ic + ir * MR) * n + jc + jr * NR;
                            if mr == MR && nr == NR {
                                // Runtime dispatch: the AVX2 transcription is
                                // bitwise-equal to the scalar kernel (see
                                // crate::simd), so this is purely a speed choice.
                                if !crate::simd::micro_full_dispatch(kc, ap, bp, &mut out[tile..], n) {
                                    micro_full(kc, ap, bp, &mut out[tile..], n);
                                }
                            } else {
                                micro_edge(kc, ap, bp, &mut out[tile..], n, mr, nr);
                            }
                        }
                    }
                }
            }
        }
    });
}

/// True when [`gemm`] runs an `m x k x n` product on the short-M AVX2
/// kernel (see the module docs).
fn takes_short_m(m: usize, k: usize, n: usize) -> bool {
    (SM_MIN_ROWS..=SM_ROWS).contains(&m) && k > 0 && n > 0 && crate::simd::avx2_active()
}

/// Bump `tensor.gemm.sched.short_m_avx2` once if any of one kernel
/// call's `(m, k, n)` products takes the short-M kernel. The conv
/// kernels call this on the calling thread, under their active span, so
/// the count does not depend on the thread count.
pub(crate) fn count_short_m(products: &[(usize, usize, usize)]) {
    if products.iter().any(|&(m, k, n)| takes_short_m(m, k, n)) {
        ts3_obs::counter_add("tensor.gemm.sched.short_m_avx2", 1);
    }
}

/// Pack the `mc x kc` panel of `a` at `(ic, pc)` into `MR`-row
/// micro-panels laid out `[p][i]`, zero-padding the ragged final
/// micro-panel (padded lanes are computed but never stored).
fn pack_a(a: MatRef, ic: usize, pc: usize, mc: usize, kc: usize, buf: &mut Vec<f32>) {
    let panels = mc.div_ceil(MR);
    buf.resize(panels * kc * MR, 0.0);
    for ip in 0..panels {
        let rows = MR.min(mc - ip * MR);
        let dst = &mut buf[ip * kc * MR..][..kc * MR];
        if rows == MR && a.cs == 1 {
            // Full panel of contiguous rows: walk `p` once and emit one
            // interleaved MR-group per step (a vectorisable transpose
            // pattern) instead of MR strided scatter sweeps.
            let base = a.off + (ic + ip * MR) * a.rs + pc;
            let r0 = &a.data[base..][..kc];
            let r1 = &a.data[base + a.rs..][..kc];
            let r2 = &a.data[base + 2 * a.rs..][..kc];
            let r3 = &a.data[base + 3 * a.rs..][..kc];
            for (p, grp) in dst.chunks_exact_mut(MR).enumerate().take(kc) {
                grp[0] = r0[p];
                grp[1] = r1[p];
                grp[2] = r2[p];
                grp[3] = r3[p];
            }
            continue;
        }
        for i in 0..rows {
            let base = a.off + (ic + ip * MR + i) * a.rs + pc * a.cs;
            if a.cs == 1 {
                let src = &a.data[base..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    dst[p * MR + i] = v;
                }
            } else {
                for p in 0..kc {
                    dst[p * MR + i] = a.data[base + p * a.cs];
                }
            }
        }
        if rows < MR {
            for p in 0..kc {
                for i in rows..MR {
                    dst[p * MR + i] = 0.0;
                }
            }
        }
    }
}

/// Pack the `kc x nc` panel of `b` at `(pc, jc)` into `NR`-column
/// micro-panels laid out `[p][j]`, zero-padding the ragged final
/// micro-panel.
fn pack_b(b: MatRef, pc: usize, jc: usize, kc: usize, nc: usize, buf: &mut Vec<f32>) {
    let panels = nc.div_ceil(NR);
    buf.resize(panels * kc * NR, 0.0);
    for jp in 0..panels {
        let cols = NR.min(nc - jp * NR);
        let dst = &mut buf[jp * kc * NR..][..kc * NR];
        for p in 0..kc {
            let base = b.off + (pc + p) * b.rs + (jc + jp * NR) * b.cs;
            let drow = &mut dst[p * NR..][..NR];
            if b.cs == 1 {
                drow[..cols].copy_from_slice(&b.data[base..][..cols]);
            } else {
                for (j, v) in drow[..cols].iter_mut().enumerate() {
                    *v = b.data[base + j * b.cs];
                }
            }
            drow[cols..].fill(0.0);
        }
    }
}

/// Full `MR x NR` register-tile micro-kernel: load the tile from `out`,
/// accumulate `kc` rank-1 updates in ascending `p`, store it back.
/// `row_stride` is the row stride of `out` (the full matrix width).
#[inline(always)]
fn micro_full(kc: usize, ap: &[f32], bp: &[f32], out: &mut [f32], row_stride: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[i * row_stride..][..NR]);
    }
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = av[i];
            for (j, acc_ij) in row.iter_mut().enumerate() {
                *acc_ij = ai.mul_add(bv[j], *acc_ij);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        out[i * row_stride..][..NR].copy_from_slice(row);
    }
}

/// Ragged-edge micro-kernel: identical arithmetic on a zero-padded
/// `MR x NR` tile, but only the `mr x nr` valid lanes are loaded from
/// and stored to `out` — padded lanes never escape the registers.
fn micro_edge(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    out: &mut [f32],
    row_stride: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, row) in acc.iter_mut().enumerate().take(mr) {
        for (j, acc_ij) in row.iter_mut().enumerate().take(nr) {
            *acc_ij = out[i * row_stride + j];
        }
    }
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for (i, row) in acc.iter_mut().enumerate() {
            let ai = av[i];
            for (j, acc_ij) in row.iter_mut().enumerate() {
                *acc_ij = ai.mul_add(bv[j], *acc_ij);
            }
        }
    }
    for (i, row) in acc.iter().enumerate().take(mr) {
        for (j, acc_ij) in row.iter().enumerate().take(nr) {
            out[i * row_stride + j] = *acc_ij;
        }
    }
}

/// Strided naive product for shapes below the packing crossover. The
/// loop order adapts to the column stride of `b` (axpy when `b` rows
/// are contiguous, dot-product when `b` columns are), but each output
/// element always accumulates its products in ascending `p` order —
/// bit-identical to the packed kernel and to the unblocked reference loop.
fn gemm_naive(a: MatRef, b: MatRef, out: &mut [f32], m: usize, k: usize, n: usize) {
    if b.cs == 1 {
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            for p in 0..k {
                let av = a.at(i, p);
                let b_row = &b.data[b.off + p * b.rs..][..n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
    } else if a.cs == 1 && b.rs == 1 {
        // A rows and B columns are both contiguous: dot-product form.
        // One output's chain is latency-bound, so DOT_COLS columns'
        // chains run side by side, each still folding in ascending `p`.
        for i in 0..m {
            let a_row = &a.data[a.off + i * a.rs..][..k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (jb, o) in out_row.chunks_mut(DOT_COLS).enumerate() {
                let mut acc = [0.0f32; DOT_COLS];
                acc[..o.len()].copy_from_slice(o);
                if o.len() == DOT_COLS {
                    let base = b.off + jb * DOT_COLS * b.cs;
                    let cols: [&[f32]; DOT_COLS] =
                        std::array::from_fn(|j| &b.data[base + j * b.cs..][..k]);
                    for (p, &av) in a_row.iter().enumerate() {
                        for (acc_j, col) in acc.iter_mut().zip(&cols) {
                            *acc_j = av.mul_add(col[p], *acc_j);
                        }
                    }
                } else {
                    for (j, acc_j) in acc.iter_mut().enumerate().take(o.len()) {
                        let col = &b.data[b.off + (jb * DOT_COLS + j) * b.cs..][..k];
                        for (&av, &bv) in a_row.iter().zip(col) {
                            *acc_j = av.mul_add(bv, *acc_j);
                        }
                    }
                }
                o.copy_from_slice(&acc[..o.len()]);
            }
        }
    } else {
        for i in 0..m {
            for j in 0..n {
                let mut acc = out[i * n + j];
                for p in 0..k {
                    acc = a.at(i, p).mul_add(b.at(p, j), acc);
                }
                out[i * n + j] = acc;
            }
        }
    }
}

