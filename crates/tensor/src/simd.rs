//! Runtime-dispatched explicit SIMD kernels (AVX2 + FMA) and the
//! process-wide dispatch policy they share with `ts3-signal`'s
//! butterfly kernels.
//!
//! ## Bitwise-equality contract
//!
//! Every explicit SIMD kernel in the workspace is a *lane-parallel
//! transcription* of its scalar reference: each output element sees the
//! same sequence of f32 operations, in the same order, with the same
//! rounding behaviour. Concretely, every scalar `a.mul_add(b, c)`
//! becomes one `_mm256_fmadd_ps` lane and every
//! `a.mul_add(-b, c)` becomes one `_mm256_fnmadd_ps` lane — both are
//! single-rounding fused operations — and every plain `*`, `+`, `-`,
//! `/` becomes the matching unfused `_mm256_*_ps` lane, so SIMD and
//! scalar results are **bit-for-bit identical**. Where the scalar
//! reference branches, the kernel computes every arm in all lanes and
//! blends. The sweep tests (`tensor/tests/simd_equivalence.rs`,
//! `signal/tests/simd_fft.rs`, the `tanh` tests below) enforce this,
//! which is what lets runtime dispatch slot under the workspace
//! determinism contract: which kernel ran is an observability fact
//! (`.sched.` counters, trace manifests), never a numeric one.
//!
//! ## Kernels
//!
//! * `micro_full_avx2` — the GEMM's packed 4×16 register tile:
//!   eight accumulators, columns in the lanes, one broadcast of A per
//!   `(p, row)` step.
//! * `short_m_avx2` — gemm's short-M tile for 4 ≤ m ≤ 8 output rows:
//!   rows in the lanes of one `__m256`, eight column accumulators, one
//!   broadcast of B per `(p, column)` step read from the unpacked
//!   operand, and an 8×8 register transpose (`transpose8`) to move the
//!   output tile in and out.
//! * `tanh_lanes` — hyperbolic tangent of eight lanes, behind
//!   [`Tensor::tanh`](crate::Tensor::tanh) and
//!   [`Tensor::gelu_with_tanh`](crate::Tensor::gelu_with_tanh). Its
//!   reference is the in-crate scalar twin `tanh_ref`, a transcription
//!   of fdlibm's `tanhf` and `expm1f` (the pair glibc's libm runs for
//!   `f32::tanh`) with no FMA anywhere; neither path calls the host
//!   libm. Both agree with each other and with glibc 2.36's
//!   `f32::tanh` on all 2³² inputs (the `#[ignore]`d exhaustive test).
//!
//! The gemm tiles are chosen inside `gemm`, the tanh kernel by
//! `tanh_vec` and `gelu_tanh_vec`; `ts3-signal` keeps its own
//! butterfly kernels and reuses only the dispatch policy below.
//!
//! ## Dispatch policy
//!
//! The AVX2 path runs only when the host CPU reports `avx2` **and**
//! `fma` (checked once, cached — same pattern as
//! [`crate::par::max_threads`]) and the `TS3_SIMD` environment variable
//! is not `0`. `TS3_SIMD=0` forces the scalar reference path for
//! debugging; [`set_simd_enabled`] overrides the cap at runtime for
//! tests and calibration tools that compare both paths in one process.
//! On non-x86_64 targets everything resolves to the scalar path at
//! compile time.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::gemm::MatRef;

/// Dispatch mode: `0` = not yet resolved, `1` = scalar, `2` = AVX2+FMA.
static MODE: AtomicU8 = AtomicU8::new(0);

const SCALAR: u8 = 1;
const AVX2: u8 = 2;

/// What the hardware (and target) supports, ignoring the env override.
fn hw_mode() -> u8 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            return AVX2;
        }
    }
    SCALAR
}

/// Resolve the dispatch mode once: `TS3_SIMD=0` forces scalar, anything
/// else defers to runtime CPU-feature detection.
fn mode() -> u8 {
    let m = MODE.load(Ordering::Relaxed);
    if m != 0 {
        return m;
    }
    let forced_scalar = std::env::var("TS3_SIMD").is_ok_and(|v| v.trim() == "0");
    let resolved = if forced_scalar { SCALAR } else { hw_mode() };
    // Racing initialisers resolve the same value; last-store-wins is
    // harmless (same pattern as `par::max_threads`).
    MODE.store(resolved, Ordering::Relaxed);
    resolved
}

/// True when the explicit AVX2+FMA kernels are selected.
pub fn avx2_active() -> bool {
    mode() == AVX2
}

/// Override the SIMD dispatch at runtime: `set_simd_enabled(false)`
/// forces the scalar reference path, `set_simd_enabled(true)` restores
/// hardware detection (which may still resolve to scalar on hosts
/// without AVX2+FMA). Exists for the SIMD-vs-scalar bitwise sweep tests
/// and bench tooling; production code should configure `TS3_SIMD`.
pub fn set_simd_enabled(enabled: bool) {
    MODE.store(if enabled { hw_mode() } else { SCALAR }, Ordering::Relaxed);
}

/// Name of the selected kernel family, for trace manifests and bench
/// reports (`"avx2"` or `"scalar"`).
pub fn kernel_name() -> &'static str {
    if avx2_active() {
        "avx2"
    } else {
        "scalar"
    }
}

/// `.sched.`-namespaced dispatch counter for the gemm entry points —
/// which kernel family served a matmul call. Scheduling metadata, so it
/// is excluded from cross-run determinism comparisons (the outputs are
/// bitwise identical either way).
pub fn gemm_dispatch_counter() -> &'static str {
    if avx2_active() {
        "tensor.gemm.sched.dispatch_avx2"
    } else {
        "tensor.gemm.sched.dispatch_scalar"
    }
}

/// Run the packed `MR x NR` micro-kernel through the AVX2 path if it is
/// selected; returns `false` when the caller should run the scalar
/// reference instead (non-x86_64 target, missing CPU features, or
/// `TS3_SIMD=0`).
#[inline]
pub(crate) fn micro_full_dispatch(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    out: &mut [f32],
    row_stride: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: avx2_active() only returns true after runtime
        // detection confirmed this CPU executes AVX2 and FMA.
        // ts3-lint: allow(unsafe-dataflow) cpu-feature gate, not an indexing bound; avx2_active() is the runtime check and the callee asserts its own slice bounds
        unsafe { micro_full_avx2(kc, ap, bp, out, row_stride) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (kc, ap, bp, out, row_stride);
    }
    false
}

/// AVX2+FMA transcription of [`crate::gemm`]'s `micro_full`: a 4x16
/// register tile held in eight `__m256` accumulators, updated with one
/// broadcast-FMA per `(p, row)` step in ascending `p` — the exact
/// operation sequence of the scalar kernel, so results are bitwise
/// identical (see module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: `unsafe` only because of `target_feature` — the dispatch
// wrapper calls this solely after `avx2_active()` confirmed AVX2+FMA.
// Raw pointer loads/stores are covered by the panel/output length
// asserts at the top of the body.
unsafe fn micro_full_avx2(kc: usize, ap: &[f32], bp: &[f32], out: &mut [f32], row_stride: usize) {
    use crate::gemm::{MR, NR};
    use core::arch::x86_64::*;
    // The bounds the raw loads/stores below rely on; the scalar kernel
    // enforces the same ones through slice indexing.
    assert!(ap.len() >= kc * MR, "micro_full_avx2: A panel too short");
    assert!(bp.len() >= kc * NR, "micro_full_avx2: B panel too short");
    assert!(
        out.len() >= (MR - 1) * row_stride + NR,
        "micro_full_avx2: output tile out of bounds"
    );
    let o = out.as_mut_ptr();
    // SAFETY: every pointer below stays inside `out[0 .. (MR-1)*row_stride + NR]`,
    // `ap[0 .. kc*MR]` or `bp[0 .. kc*NR]`, which the asserts above proved
    // in-bounds; loads/stores are unaligned-safe (`loadu`/`storeu`).
    unsafe {
        let mut acc: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
        for (i, row) in acc.iter_mut().enumerate() {
            row[0] = _mm256_loadu_ps(o.add(i * row_stride));
            row[1] = _mm256_loadu_ps(o.add(i * row_stride + 8));
        }
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(b.add(p * NR));
            let b1 = _mm256_loadu_ps(b.add(p * NR + 8));
            for (i, row) in acc.iter_mut().enumerate() {
                let ai = _mm256_broadcast_ss(&*a.add(p * MR + i));
                row[0] = _mm256_fmadd_ps(ai, b0, row[0]);
                row[1] = _mm256_fmadd_ps(ai, b1, row[1]);
            }
        }
        for (i, row) in acc.iter().enumerate() {
            _mm256_storeu_ps(o.add(i * row_stride), row[0]);
            _mm256_storeu_ps(o.add(i * row_stride + 8), row[1]);
        }
    }
}

/// Run the short-M product `out += A @ B` (`m <= 8` output rows, see
/// [`crate::gemm`]) through the AVX2 kernel if it is selected; returns
/// `false` when the caller should take the packed/naive path instead.
/// `apack` is the caller's reusable scratch for A's columns.
#[inline]
pub(crate) fn short_m_dispatch(
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    apack: &mut Vec<f32>,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: avx2_active() only returns true after runtime
        // detection confirmed this CPU executes AVX2 and FMA.
        // ts3-lint: allow(unsafe-dataflow) cpu-feature gate, not an indexing bound; avx2_active() is the runtime check and the callee asserts its own operand bounds
        unsafe { short_m_avx2(a, b, out, m, k, n, apack) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (a, b, out, m, k, n, apack);
    }
    false
}

/// Short-M AVX2+FMA kernel: the `m <= 8` output rows are the lanes of
/// one `__m256`, and an 8-column block of the output sits in eight
/// accumulators (one per column). Each step `p` loads A's column `p`
/// (packed once, zero past row `m`) and folds in eight broadcast
/// elements of B's row `p`, read straight from the strided view, with
/// one `_mm256_fmadd_ps` each. Every output keeps its one FMA chain in
/// ascending `p`, starting from `out`, so the result is bit-identical
/// to the packed kernel and the naive loop. The output tile enters and
/// leaves the registers through an 8×8 transpose (data moves only).
///
/// # Safety
///
/// The CPU must support AVX2 and FMA. Operand and output bounds are
/// asserted inside, so any shape is memory-safe.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: `unsafe` only because of `target_feature` — the dispatch
// wrapper calls this solely after `avx2_active()` confirmed AVX2+FMA.
// Raw loads/stores are covered by the operand and output asserts at the
// top of the body.
unsafe fn short_m_avx2(
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    apack: &mut Vec<f32>,
) {
    use crate::gemm::{SM_COLS, SM_ROWS};
    use core::arch::x86_64::*;
    assert!((1..=SM_ROWS).contains(&m) && k >= 1 && n >= 1, "short_m_avx2: empty or tall shape");
    assert_eq!(out.len(), m * n, "short_m_avx2: output length");
    // The last element of B the raw loads read (strides are
    // non-negative); A is packed through checked indexing.
    assert!(b.off + (k - 1) * b.rs + (n - 1) * b.cs < b.data.len(), "short_m_avx2: B out of bounds");
    apack.clear();
    apack.resize(k * SM_ROWS, 0.0);
    for i in 0..m {
        for p in 0..k {
            apack[p * SM_ROWS + i] = a.data[a.off + i * a.rs + p * a.cs];
        }
    }
    // SAFETY: `apack` holds `k * SM_ROWS` floats; every B read is
    // `b.off + p * b.rs + j * b.cs` with `p < k`, `j < n`, in bounds by
    // the assert above; output loads/stores touch `out[i * n + j0 ..][..nc]`
    // with `i < m`, `j0 + nc <= n`, inside `out.len() == m * n`.
    unsafe {
        let ap = apack.as_ptr();
        let bd = b.data.as_ptr().add(b.off);
        let o = out.as_mut_ptr();
        for j0 in (0..n).step_by(SM_COLS) {
            let nc = SM_COLS.min(n - j0);
            // Row i of the tile, columns j0 .. j0 + nc, zero-padded.
            let mut rows = [_mm256_setzero_ps(); SM_ROWS];
            let mut tmp = [0.0f32; SM_COLS];
            for (i, r) in rows.iter_mut().enumerate().take(m) {
                *r = if nc == SM_COLS {
                    _mm256_loadu_ps(o.add(i * n + j0))
                } else {
                    core::ptr::copy_nonoverlapping(o.add(i * n + j0), tmp.as_mut_ptr(), nc);
                    _mm256_loadu_ps(tmp.as_ptr())
                };
            }
            let mut acc = transpose8(rows);
            if nc == SM_COLS && b.cs == 1 {
                // B's row segment is contiguous: one pointer, fixed offsets.
                let row0 = bd.add(j0);
                for p in 0..k {
                    let av = _mm256_loadu_ps(ap.add(p * SM_ROWS));
                    let bp = row0.add(p * b.rs);
                    for (j, acc_j) in acc.iter_mut().enumerate() {
                        *acc_j = _mm256_fmadd_ps(av, _mm256_broadcast_ss(&*bp.add(j)), *acc_j);
                    }
                }
            } else {
                // A ragged block reads its last real column again in the
                // spare accumulators, which are never stored.
                let cols: [*const f32; SM_COLS] =
                    core::array::from_fn(|j| bd.add((j0 + j.min(nc - 1)) * b.cs));
                for p in 0..k {
                    let av = _mm256_loadu_ps(ap.add(p * SM_ROWS));
                    let off = p * b.rs;
                    for (acc_j, col) in acc.iter_mut().zip(&cols) {
                        *acc_j = _mm256_fmadd_ps(av, _mm256_broadcast_ss(&*col.add(off)), *acc_j);
                    }
                }
            }
            let rows = transpose8(acc);
            for (i, r) in rows.iter().enumerate().take(m) {
                if nc == SM_COLS {
                    _mm256_storeu_ps(o.add(i * n + j0), *r);
                } else {
                    _mm256_storeu_ps(tmp.as_mut_ptr(), *r);
                    core::ptr::copy_nonoverlapping(tmp.as_ptr(), o.add(i * n + j0), nc);
                }
            }
        }
    }
}

/// Transpose an 8×8 block held as eight row vectors (its own inverse).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe` only because of `target_feature`; register shuffles,
// no memory access. Called from AVX2 kernels only.
#[inline]
unsafe fn transpose8(r: [core::arch::x86_64::__m256; 8]) -> [core::arch::x86_64::__m256; 8] {
    use core::arch::x86_64::*;
    let t0 = _mm256_unpacklo_ps(r[0], r[1]); // 00 10 01 11 | 04 14 05 15
    let t1 = _mm256_unpackhi_ps(r[0], r[1]); // 02 12 03 13 | 06 16 07 17
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let s0 = _mm256_shuffle_ps(t0, t2, 0x44); // column 0 | column 4, rows 0-3
    let s1 = _mm256_shuffle_ps(t0, t2, 0xEE); // column 1 | column 5
    let s2 = _mm256_shuffle_ps(t1, t3, 0x44); // column 2 | column 6
    let s3 = _mm256_shuffle_ps(t1, t3, 0xEE); // column 3 | column 7
    let s4 = _mm256_shuffle_ps(t4, t6, 0x44); // the same for rows 4-7
    let s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
    let s6 = _mm256_shuffle_ps(t5, t7, 0x44);
    let s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
    [
        _mm256_permute2f128_ps(s0, s4, 0x20),
        _mm256_permute2f128_ps(s1, s5, 0x20),
        _mm256_permute2f128_ps(s2, s6, 0x20),
        _mm256_permute2f128_ps(s3, s7, 0x20),
        _mm256_permute2f128_ps(s0, s4, 0x31),
        _mm256_permute2f128_ps(s1, s5, 0x31),
        _mm256_permute2f128_ps(s2, s6, 0x31),
        _mm256_permute2f128_ps(s3, s7, 0x31),
    ]
}

// ---------------------------------------------------------------------
// tanh: fdlibm `tanhf` + `expm1f`, scalar twin and AVX2 lanes
// ---------------------------------------------------------------------

// fdlibm `s_expm1f.c` constants (the tests pin their bit patterns).
/// High part of `ln 2` (`0x3f317180`): `k · LN2_HI` is exact here.
const LN2_HI: f32 = 0.693_138_1;
/// Low part of `ln 2` (`0x3717f7d1`).
const LN2_LO: f32 = 9.058_001e-6;
/// `1 / ln 2` (`0x3fb8aa3b`).
const INVLN2: f32 = std::f32::consts::LOG2_E;
/// expm1f's scaled polynomial coefficients Q1..Q5.
const Q: [f32; 5] = [
    -3.333_333_5e-2, // 0xbd088889
    1.587_301_6e-3,  // 0x3ad00d01
    -7.936_507_6e-5, // 0xb8a670cd
    4.008_217_7e-6,  // 0x36867e54
    -2.010_992_1e-7, // 0xb457edbb
];

/// GELU's `√(2/π)`.
const GELU_C: f32 = 0.797_884_6;
/// GELU's cubic coefficient.
const GELU_A: f32 = 0.044_715;

/// Add `k` to the exponent field of `y` (fdlibm's `SET_FLOAT_WORD(y, i + (k << 23))`).
fn scale_by_pow2(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// fdlibm `expm1f`, on the arguments [`tanh_ref`] passes it:
/// `x ∈ (−2, −2⁻⁵⁴] ∪ [2, 44)`. On that domain fdlibm's overflow filter,
/// its `x < −27 ln 2` return and its `k = 1` case are never reached, so
/// they are left out; the rest is transcribed statement for statement,
/// with plain (unfused) f32 operations.
fn expm1_ref(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    // Argument reduction: x = k·ln2 + r, with r = hi - lo and c its error.
    let (k, r, c) = if hx > 0x3eb1_7218 {
        // |x| > ln2 / 2
        let (k, hi, lo) = if hx < 0x3f85_1592 {
            // |x| < 1.5·ln2, and x < 0 on this domain
            (-1, x + LN2_HI, -LN2_LO)
        } else {
            let k = (INVLN2 * x + if x < 0.0 { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (k, x - t * LN2_HI, t * LN2_LO)
        };
        let r = hi - lo;
        (k, r, (hi - r) - lo)
    } else if hx < 0x3300_0000 {
        // |x| < 2⁻²⁵
        return x;
    } else {
        (0, x, 0.0)
    };
    // r is now in the primary range.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q[0] + hxs * (Q[1] + hxs * (Q[2] + hxs * (Q[3] + hxs * Q[4]))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    if k == 0 {
        return r - (r * e - hxs);
    }
    let e = (r * (e - c) - c) - hxs;
    if k == -1 {
        return 0.5 * (r - e) - 0.5;
    }
    if k <= -2 || k > 56 {
        return scale_by_pow2(1.0 - (e - r), k) - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32); // 1 - 2^-k
        scale_by_pow2(t - (e - r), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^-k
        scale_by_pow2((r - (e + t)) + 1.0, k)
    }
}

/// fdlibm `tanhf`: the scalar twin of the AVX2 `tanh_lanes`, run by
/// `TS3_SIMD=0` and by ragged tails. It is bit-identical to glibc 2.36's
/// `f32::tanh` on all 2³² inputs, but never calls it. fdlibm's `x = ±0`
/// return is folded into the `|x| < 2⁻⁵⁵` one, which also returns `±0`.
fn tanh_ref(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN
        return if jx >= 0 { 1.0 / x + 1.0 } else { 1.0 / x - 1.0 };
    }
    if ix < 0x2400_0000 {
        // |x| < 2⁻⁵⁵
        return x * (1.0 + x);
    }
    let z = if ix >= 0x41b0_0000 {
        // |x| >= 22: fdlibm's `one - tiny`, which rounds to one
        1.0
    } else if ix >= 0x3f80_0000 {
        let t = expm1_ref(2.0 * x.abs());
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1_ref(-2.0 * x.abs());
        -t / (t + 2.0)
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// GELU (tanh approximation) of one element with its inner tanh, in
/// the scalar order `((A·v)·v)·v`, then `C·(v + cube)`, then
/// `(0.5·v)·(1 + t)`: the scalar twin of `gelu_avx2`.
fn gelu_ref(v: f32) -> (f32, f32) {
    let t = tanh_ref(GELU_C * (v + GELU_A * v * v * v));
    (0.5 * v * (1.0 + t), t)
}

/// Elementwise [`tanh_ref`] of `src`, through the AVX2 kernel when it
/// is selected (the ragged tail runs the twin).
pub(crate) fn tanh_vec(src: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(src.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: avx2_active() only returns true after runtime
        // detection confirmed this CPU executes AVX2.
        // ts3-lint: allow(unsafe-dataflow) cpu-feature gate, not an indexing bound; avx2_active() is the runtime check and the callee reads whole chunks only
        unsafe { tanh_avx2(src, &mut out) };
    }
    out.extend(src[out.len()..].iter().map(|&v| tanh_ref(v)));
    out
}

/// GELU of `src` with its inner tanh, as `(gelu, tanh)`, through the
/// AVX2 kernel when it is selected (the ragged tail runs the twin).
pub(crate) fn gelu_tanh_vec(src: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let mut gelu = Vec::with_capacity(src.len());
    let mut t = Vec::with_capacity(src.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: avx2_active() only returns true after runtime
        // detection confirmed this CPU executes AVX2.
        // ts3-lint: allow(unsafe-dataflow) cpu-feature gate, not an indexing bound; avx2_active() is the runtime check and the callee reads whole chunks only
        unsafe { gelu_avx2(src, &mut gelu, &mut t) };
    }
    for &v in &src[gelu.len()..] {
        let (g, tv) = gelu_ref(v);
        gelu.push(g);
        t.push(tv);
    }
    (gelu, t)
}

/// Append the tanh of every whole 8-element chunk of `src` to `out`.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe` only because of `target_feature` — the dispatch
// wrapper calls this solely after `avx2_active()` confirmed AVX2. Each
// load reads one whole 8-float chunk.
unsafe fn tanh_avx2(src: &[f32], out: &mut Vec<f32>) {
    use core::arch::x86_64::*;
    let mut lanes = [0.0f32; 8];
    for chunk in src.chunks_exact(8) {
        // SAFETY: `chunk` and `lanes` are both exactly 8 floats long.
        // ts3-lint: allow(unsafe-dataflow) chunks_exact(8) is the bound: each load and store spans exactly one 8-float chunk or lane buffer
        unsafe {
            _mm256_storeu_ps(lanes.as_mut_ptr(), tanh_lanes(_mm256_loadu_ps(chunk.as_ptr())));
        }
        out.extend_from_slice(&lanes);
    }
}

/// Append GELU and its inner tanh of every whole 8-element chunk of
/// `src` to `gelu` and `t`: [`gelu_ref`]'s operations, lane by lane.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe` only because of `target_feature` — the dispatch
// wrapper calls this solely after `avx2_active()` confirmed AVX2. Each
// load reads one whole 8-float chunk.
unsafe fn gelu_avx2(src: &[f32], gelu: &mut Vec<f32>, t: &mut Vec<f32>) {
    use core::arch::x86_64::*;
    let mut g_lanes = [0.0f32; 8];
    let mut t_lanes = [0.0f32; 8];
    for chunk in src.chunks_exact(8) {
        // SAFETY: `chunk`, `g_lanes` and `t_lanes` are all exactly 8
        // floats long.
        // ts3-lint: allow(unsafe-dataflow) chunks_exact(8) is the bound: each load and store spans exactly one 8-float chunk or lane buffer
        unsafe {
            let v = _mm256_loadu_ps(chunk.as_ptr());
            let cube = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(GELU_A), v), v), v);
            let tv = tanh_lanes(_mm256_mul_ps(_mm256_set1_ps(GELU_C), _mm256_add_ps(v, cube)));
            let g = _mm256_mul_ps(
                _mm256_mul_ps(_mm256_set1_ps(0.5), v),
                _mm256_add_ps(_mm256_set1_ps(1.0), tv),
            );
            _mm256_storeu_ps(g_lanes.as_mut_ptr(), g);
            _mm256_storeu_ps(t_lanes.as_mut_ptr(), tv);
        }
        gelu.extend_from_slice(&g_lanes);
        t.extend_from_slice(&t_lanes);
    }
}

/// Lanes of `a` where `mask` is set, of `b` elsewhere (`mask` lanes are
/// all-ones or all-zeros).
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe` only because of `target_feature`; register blend, no
// memory access. Called from AVX2 kernels only.
#[inline]
unsafe fn select(
    mask: core::arch::x86_64::__m256i,
    a: core::arch::x86_64::__m256,
    b: core::arch::x86_64::__m256,
) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    _mm256_blendv_ps(b, a, _mm256_castsi256_ps(mask))
}

/// Eight lanes of [`tanh_ref`]. Every arm of fdlibm's branches runs in
/// all lanes with the twin's operations in the twin's order (plain
/// `mul`/`add`/`sub`/`div`, never an FMA), and blends pick each lane's
/// arm, so every lane is bit-identical to the twin. `k` is the
/// truncating conversion of `invln2·y ± 0.5`, `1 − 2^−k` takes a
/// per-lane `srlv`, and `2^k` scaling adds `k` to the exponent field.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe` only because of `target_feature`; register
// arithmetic, no memory access. Called from AVX2 kernels only.
#[inline]
unsafe fn tanh_lanes(x: core::arch::x86_64::__m256) -> core::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    let int = |v: i32| _mm256_set1_epi32(v);
    let splat = |v: f32| _mm256_set1_ps(v);
    let sign = _mm256_castsi256_ps(int(i32::MIN));
    let one = splat(1.0);
    let two = splat(2.0);
    // tanhf: |x| as bits, and the expm1 argument y = 2|x| (|x| >= 1) or -2|x|.
    let ix = _mm256_and_si256(_mm256_castps_si256(x), int(0x7fff_ffff));
    let ge1 = _mm256_cmpgt_epi32(ix, int(0x3f7f_ffff));
    let two_ax = _mm256_mul_ps(two, _mm256_castsi256_ps(ix));
    let y = _mm256_xor_ps(two_ax, _mm256_andnot_ps(_mm256_castsi256_ps(ge1), sign));

    // expm1f's reduction y = k·ln2 + r. Unreduced lanes get k = 0, which
    // makes hi = y, lo = 0, r = y and c = 0: the k = 0 arm's inputs.
    let hy = _mm256_castps_si256(two_ax);
    let half = _mm256_or_ps(splat(0.5), _mm256_and_ps(y, sign));
    let k_trunc = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(splat(INVLN2), y), half));
    let reduced = _mm256_cmpgt_epi32(hy, int(0x3eb1_7218)); // |y| > ln2 / 2
    let below_1_5_ln2 = _mm256_cmpgt_epi32(int(0x3f85_1592), hy); // k = -1 there
    let k = _mm256_and_si256(reduced, _mm256_blendv_epi8(k_trunc, int(-1), below_1_5_ln2));
    let kf = _mm256_cvtepi32_ps(k);
    let hi = _mm256_sub_ps(y, _mm256_mul_ps(kf, splat(LN2_HI)));
    let lo = _mm256_mul_ps(kf, splat(LN2_LO));
    let r = _mm256_sub_ps(hi, lo);
    let c = _mm256_sub_ps(_mm256_sub_ps(hi, r), lo);

    // Primary range.
    let hfx = _mm256_mul_ps(splat(0.5), r);
    let hxs = _mm256_mul_ps(r, hfx);
    let mut poly = _mm256_mul_ps(hxs, splat(Q[4]));
    for &q in Q[..4].iter().rev() {
        poly = _mm256_mul_ps(hxs, _mm256_add_ps(splat(q), poly));
    }
    let r1 = _mm256_add_ps(one, poly);
    let t = _mm256_sub_ps(splat(3.0), _mm256_mul_ps(r1, hfx));
    let e = _mm256_mul_ps(
        hxs,
        _mm256_div_ps(_mm256_sub_ps(r1, t), _mm256_sub_ps(splat(6.0), _mm256_mul_ps(r, t))),
    );
    let em_k0 = _mm256_sub_ps(r, _mm256_sub_ps(_mm256_mul_ps(r, e), hxs));
    let e = _mm256_sub_ps(
        _mm256_sub_ps(_mm256_mul_ps(r, _mm256_sub_ps(e, c)), c),
        hxs,
    );
    let em_km1 = _mm256_sub_ps(_mm256_mul_ps(splat(0.5), _mm256_sub_ps(r, e)), splat(0.5));
    // The other arms scale by 2^k through the exponent field.
    let k_exp = _mm256_slli_epi32(k, 23);
    let e_minus_r = _mm256_sub_ps(e, r);
    let em_wide = _mm256_sub_ps(
        _mm256_castsi256_ps(_mm256_add_epi32(
            _mm256_castps_si256(_mm256_sub_ps(one, e_minus_r)),
            k_exp,
        )),
        one,
    );
    let one_minus_pow = _mm256_sub_epi32(int(0x3f80_0000), _mm256_srlv_epi32(int(0x0100_0000), k));
    let y_lt23 = _mm256_sub_ps(_mm256_castsi256_ps(one_minus_pow), e_minus_r);
    let pow_neg_k = _mm256_slli_epi32(_mm256_sub_epi32(int(0x7f), k), 23);
    let y_ge23 = _mm256_add_ps(
        _mm256_sub_ps(r, _mm256_add_ps(e, _mm256_castsi256_ps(pow_neg_k))),
        one,
    );
    let y_mid = select(_mm256_cmpgt_epi32(int(23), k), y_lt23, y_ge23);
    let em_mid = _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y_mid), k_exp));
    let wide = _mm256_or_si256(_mm256_cmpgt_epi32(int(-1), k), _mm256_cmpgt_epi32(k, int(56)));
    let mut em = select(wide, em_wide, em_mid);
    em = select(_mm256_cmpeq_epi32(k, int(-1)), em_km1, em);
    em = select(_mm256_cmpeq_epi32(k, int(0)), em_k0, em);
    em = select(_mm256_cmpgt_epi32(int(0x3300_0000), hy), y, em); // |y| < 2⁻²⁵

    // tanhf's range cases.
    let d = _mm256_add_ps(em, two);
    let z_ge1 = _mm256_sub_ps(one, _mm256_div_ps(two, d));
    let z_lt1 = _mm256_div_ps(_mm256_xor_ps(em, sign), d);
    let mut z = select(ge1, z_ge1, z_lt1);
    z = select(_mm256_cmpgt_epi32(ix, int(0x41af_ffff)), one, z); // |x| >= 22
    z = _mm256_xor_ps(z, _mm256_and_ps(x, sign));
    let tiny = _mm256_mul_ps(x, _mm256_add_ps(one, x));
    z = select(_mm256_cmpgt_epi32(int(0x2400_0000), ix), tiny, z); // |x| < 2⁻⁵⁵
    // inf/NaN: 1/x + 1 or 1/x - 1 by the sign of x.
    let signed_one = _mm256_or_ps(one, _mm256_and_ps(x, sign));
    let non_finite = _mm256_add_ps(_mm256_div_ps(one, x), signed_one);
    select(_mm256_cmpgt_epi32(ix, int(0x7f7f_ffff)), non_finite, z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_name_matches_active_flag() {
        let name = kernel_name();
        assert_eq!(name == "avx2", avx2_active());
        assert!(name == "avx2" || name == "scalar");
    }

    #[test]
    fn set_simd_enabled_round_trips() {
        let initial = avx2_active();
        set_simd_enabled(false);
        assert!(!avx2_active());
        assert_eq!(kernel_name(), "scalar");
        assert_eq!(gemm_dispatch_counter(), "tensor.gemm.sched.dispatch_scalar");
        set_simd_enabled(true);
        // Restoring re-runs hardware detection, so the flag returns to
        // whatever this host supports.
        assert_eq!(avx2_active(), hw_mode() == AVX2);
        set_simd_enabled(initial);
    }

    #[test]
    fn fdlibm_constants_have_their_bit_patterns() {
        assert_eq!(LN2_HI.to_bits(), 0x3f31_7180);
        assert_eq!(LN2_LO.to_bits(), 0x3717_f7d1);
        assert_eq!(INVLN2.to_bits(), 0x3fb8_aa3b);
        let q: Vec<u32> = Q.iter().map(|q| q.to_bits()).collect();
        assert_eq!(q, [0xbd08_8889, 0x3ad0_0d01, 0xb8a6_70cd, 0x3686_7e54, 0xb457_edbb]);
    }

    /// The AVX2 kernel over `xs` (whole chunks of 8 only), or `None`
    /// when the host has no AVX2. Called directly rather than through
    /// the dispatch, which other tests in this binary toggle.
    fn kernel_tanh(xs: &[f32]) -> Option<Vec<f32>> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut out = Vec::with_capacity(xs.len());
            // SAFETY: AVX2 was detected on this CPU just above.
            // ts3-lint: allow(unsafe-dataflow) cpu-feature gate, not an indexing bound; the callee reads whole chunks only
            unsafe { tanh_avx2(xs, &mut out) };
            return Some(out);
        }
        let _ = xs;
        None
    }

    /// Assert kernel == twin on every input, and twin == the host's
    /// `f32::tanh` where that is glibc (whose libm runs fdlibm's
    /// `tanhf`). NaN results are compared by bits like the rest.
    fn assert_tanh_bits(xs: &[f32]) {
        let twin: Vec<f32> = xs.iter().map(|&x| tanh_ref(x)).collect();
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        for (&x, &t) in xs.iter().zip(&twin) {
            assert_eq!(t.to_bits(), x.tanh().to_bits(), "twin vs libm at {:#010x}", x.to_bits());
        }
        if let Some(kernel) = kernel_tanh(xs) {
            for ((&x, &t), &k) in xs.iter().zip(&twin).zip(&kernel) {
                assert_eq!(k.to_bits(), t.to_bits(), "kernel vs twin at {:#010x}", x.to_bits());
            }
        }
    }

    /// Inputs on either side of every branch of `tanh_ref`/`expm1_ref`,
    /// both signs, padded to whole chunks of 8.
    fn tanh_boundaries() -> Vec<f32> {
        let mut bits: Vec<u32> = vec![
            0x0000_0000, // zero
            0x0000_0001, // smallest subnormal
            0x007f_ffff, // largest subnormal
            0x0080_0000, // smallest normal
            0x2400_0000, // 2^-55
            0x3280_0000, // expm1 argument 2^-25
            0x3e31_7218, // expm1 argument ln2/2 (0x3eb17218)
            0x3eb1_7218,
            0x3f05_1592, // expm1 argument 1.5 ln2 (0x3F851592)
            0x3F85_1592,
            0x3f80_0000, // 1
            0x4115_b844, // expm1 argument 27 ln2 (0x4195b844)
            0x4195_b844,
            0x41b0_0000, // 22
            0x7f7f_ffff, // largest finite
            0x7f80_0000, // inf
            0x7fc0_0000, // quiet NaN
            0x7f80_0001, // signalling NaN
            0x7fc1_2345, // NaN with a payload
            // Inputs where an FMA in `3 - r1·hfx` or `1 + hxs·(…)`
            // changes the result (found by an exhaustive search).
            0x3c5a_972a,
            0x3c88_d0e7,
            0x3dc2_562e,
            0x3dce_5d98,
        ];
        // Edges of k = trunc(invln2·y ± 0.5) for y = ±2|x|, where |k|
        // steps at |y| = (|k| - 0.5)·ln2: the -2/-3 step, the first
        // positive step and the 22/23 and 56/57 switches.
        for m in [2.5f32, 3.5, 22.5, 56.5] {
            let edge = (m * std::f32::consts::LN_2 / 2.0).to_bits();
            bits.extend(edge - 16..edge + 16);
        }
        let n = bits.len();
        for i in 0..n {
            let b = bits[i];
            if b > 0 {
                bits.push(b - 1);
            }
            bits.push(b + 1);
        }
        let mut xs: Vec<f32> =
            bits.iter().flat_map(|&b| [f32::from_bits(b), -f32::from_bits(b)]).collect();
        xs.resize(xs.len().div_ceil(8) * 8, 0.5);
        xs
    }

    #[test]
    fn tanh_matches_on_boundaries_and_a_strided_sample() {
        assert_tanh_bits(&tanh_boundaries());
        // 2^20 bit patterns, an odd stride apart, so every exponent and
        // both signs are hit with varied mantissas.
        const STRIDE: u32 = 4093;
        let xs: Vec<f32> =
            (0..1u32 << 20).map(|i| f32::from_bits(i.wrapping_mul(STRIDE))).collect();
        assert_tanh_bits(&xs);
    }

    #[test]
    fn gelu_kernel_matches_twin_and_the_libm_formula() {
        let mut xs: Vec<f32> = (-4000..4000).map(|i| i as f32 * 0.0077).collect();
        xs.extend(tanh_boundaries());
        xs.extend([30.0, -30.0, 1e20, -1e20, f32::MAX, f32::MIN, 1e-30, -1e-30]);
        xs.push(0.25); // a ragged tail
        let (gelu, t) = gelu_tanh_vec(&xs);
        for (i, &v) in xs.iter().enumerate() {
            let (g_ref, t_ref) = gelu_ref(v);
            #[cfg(all(target_os = "linux", target_env = "gnu"))]
            {
                let t_libm = (GELU_C * (v + GELU_A * v * v * v)).tanh();
                assert_eq!(t_ref.to_bits(), t_libm.to_bits(), "twin vs libm at {v}");
                assert_eq!(g_ref.to_bits(), (0.5 * v * (1.0 + t_libm)).to_bits());
            }
            assert_eq!(t[i].to_bits(), t_ref.to_bits(), "tanh at {v}");
            assert_eq!(gelu[i].to_bits(), g_ref.to_bits(), "gelu at {v}");
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let whole = xs.len() / 8 * 8;
            let (mut g, mut t) = (Vec::new(), Vec::new());
            // SAFETY: AVX2 was detected on this CPU just above.
            unsafe { gelu_avx2(&xs, &mut g, &mut t) };
            assert_eq!(g.len(), whole);
            for (i, &v) in xs[..whole].iter().enumerate() {
                let (g_ref, t_ref) = gelu_ref(v);
                assert_eq!(t[i].to_bits(), t_ref.to_bits(), "kernel tanh at {v}");
                assert_eq!(g[i].to_bits(), g_ref.to_bits(), "kernel gelu at {v}");
            }
        }
    }

    /// All 2^32 inputs: kernel vs twin, and twin vs glibc's `f32::tanh`.
    /// Run with `cargo test --release -p ts3-tensor -- --ignored
    /// tanh_matches_on_every_input` (one to two minutes).
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn tanh_matches_on_every_input() {
        const BLOCK: u64 = 1 << 16;
        let mut xs = vec![0.0f32; BLOCK as usize];
        for start in (0..1u64 << 32).step_by(BLOCK as usize) {
            for (i, x) in xs.iter_mut().enumerate() {
                *x = f32::from_bits((start + i as u64) as u32);
            }
            assert_tanh_bits(&xs);
        }
    }
}
