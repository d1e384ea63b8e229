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
//! single-rounding fused operations, so SIMD and scalar results are
//! **bit-for-bit identical**. The sweep tests
//! (`tensor/tests/simd_equivalence.rs`, `signal/tests/simd_fft.rs`)
//! enforce this, which is what lets runtime dispatch slot under the
//! workspace determinism contract: which kernel ran is an observability
//! fact (`.sched.` counters, trace manifests), never a numeric one.
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
//!
//! Both are chosen inside `gemm`; `ts3-signal` keeps its own butterfly
//! kernels and reuses only the dispatch policy below.
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
}
