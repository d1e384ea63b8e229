//! AVX2+FMA transcriptions of the planar FFT butterfly kernels in
//! [`crate::fft`], behind the process-wide dispatch policy of
//! [`ts3_tensor::simd`].
//!
//! Each kernel maps the scalar reference's operations 1:1 onto packed
//! lanes: the canonical twiddle rotation `cmul_fma` —
//! `re = fma(qi, -wi, qr*wr)`, `im = fma(qi, wr, qr*wi)` — becomes one
//! `_mm256_fnmadd_ps` and one `_mm256_fmadd_ps` per component, both
//! single-rounding fused ops, so SIMD and scalar butterflies are
//! **bitwise identical** (sweep-asserted in `signal/tests/simd_fft.rs`).
//! Dispatch is therefore an observability fact, never a numeric one.

use crate::complex::Complex32;
use crate::fft::cmul_fma;

/// Run one contiguous butterfly span through the AVX2 path if selected;
/// returns `false` when the caller should run the scalar reference
/// (non-x86_64 target, missing CPU features, or `TS3_SIMD=0`).
#[inline]
pub(crate) fn stage_pass_dispatch(
    ur: &mut [f32],
    ui: &mut [f32],
    vr: &mut [f32],
    vi: &mut [f32],
    swr: &[f32],
    swi: &[f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if ts3_tensor::simd::avx2_active() {
        // SAFETY: avx2_active() only returns true after runtime
        // detection confirmed this CPU executes AVX2 and FMA.
        // ts3-lint: allow(unsafe-dataflow) cpu-feature gate, not an indexing bound; avx2_active() is the runtime check and the callee asserts its own slice bounds
        unsafe { stage_pass_avx2(ur, ui, vr, vi, swr, swi) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (ur, ui, vr, vi, swr, swi);
    }
    false
}

/// Run one broadcast-twiddle 16-lane row butterfly through the AVX2
/// path if selected; returns `false` for the scalar fallback.
#[inline]
pub(crate) fn row_butterfly_dispatch(
    ur: &mut [f32; 16],
    ui: &mut [f32; 16],
    vr: &mut [f32; 16],
    vi: &mut [f32; 16],
    wr: f32,
    wi: f32,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if ts3_tensor::simd::avx2_active() {
        // SAFETY: avx2_active() only returns true after runtime
        // detection confirmed this CPU executes AVX2 and FMA.
        // ts3-lint: allow(unsafe-dataflow) cpu-feature gate on fixed [f32; 16] arrays; no data-dependent bounds exist
        unsafe { row_butterfly_avx2(ur, ui, vr, vi, wr, wi) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (ur, ui, vr, vi, wr, wi);
    }
    false
}

/// Run the real-FFT "unsplit" recombination (`RealPlan` forward
/// post-pass: `out[k] = E[k] + W^k·O[k]` for `k in 1..h`, `h =
/// z.len()`) through the AVX2 path if selected; returns `false` for
/// the scalar fallback in `fft.rs`. `out` must hold at least `h`
/// elements (bins `1..h` are written; the caller fills `0` and `h`).
#[inline]
pub(crate) fn unsplit_dispatch(
    z: &[Complex32],
    twr: &[f32],
    twi: &[f32],
    out: &mut [Complex32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if ts3_tensor::simd::avx2_active() {
        // SAFETY: avx2_active() only returns true after runtime
        // detection confirmed this CPU executes AVX2 and FMA.
        // ts3-lint: allow(unsafe-dataflow) cpu-feature gate, not an indexing bound; avx2_active() is the runtime check and the callee asserts its own slice bounds
        unsafe { unsplit_avx2(z, twr, twi, out) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (z, twr, twi, out);
    }
    false
}

/// Planar-input variant of [`unsplit_dispatch`]: the half spectrum
/// arrives as the butterfly stages' planar `(re, im)` scratch
/// (`h = re.len()`), skipping the interleave/deinterleave round trip
/// the packed form pays. Same per-bin operations, same `false` scalar
/// fallback contract.
#[inline]
pub(crate) fn unsplit_planar_dispatch(
    re: &[f32],
    im: &[f32],
    twr: &[f32],
    twi: &[f32],
    out: &mut [Complex32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if ts3_tensor::simd::avx2_active() {
        // SAFETY: avx2_active() only returns true after runtime
        // detection confirmed this CPU executes AVX2 and FMA.
        // ts3-lint: allow(unsafe-dataflow) cpu-feature gate, not an indexing bound; avx2_active() is the runtime check and the callee asserts its own slice bounds
        unsafe { unsplit_planar_avx2(re, im, twr, twi, out) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (re, im, twr, twi, out);
    }
    false
}

/// Write the conjugate mirror `out[n-k] = conj(out[k])` for
/// `k in 1..h` (`n = out.len()`, `h = n/2`) through the AVX2 path if
/// selected; returns `false` for the scalar fallback.
#[inline]
pub(crate) fn mirror_dispatch(out: &mut [Complex32]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if ts3_tensor::simd::avx2_active() {
        // SAFETY: avx2_active() only returns true after runtime
        // detection confirmed this CPU executes AVX2 and FMA.
        // ts3-lint: allow(unsafe-dataflow) cpu-feature gate, not an indexing bound; avx2_active() is the runtime check and the callee bounds itself on out.len()
        unsafe { mirror_avx2(out) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = out;
    }
    false
}

/// AVX2+FMA transcription of `stage_pass`: combine the low half
/// `(ur, ui)` with the twiddled high half `(vr, vi)` eight lanes at a
/// time, scalar `cmul_fma` on the tail. Identical per-element operation
/// sequence to the scalar kernel (lane grouping never mixes elements).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: `unsafe` only because of `target_feature` — callers must
// have verified AVX2+FMA via `ts3_tensor::simd::avx2_active()`. All
// memory access is through bounds-checked slices and unaligned
// loadu/storeu on `&mut [f32]` we exclusively own.
unsafe fn stage_pass_avx2(
    ur: &mut [f32],
    ui: &mut [f32],
    vr: &mut [f32],
    vi: &mut [f32],
    swr: &[f32],
    swi: &[f32],
) {
    use core::arch::x86_64::*;
    let half = ur.len();
    assert!(
        half == ui.len()
            && half == vr.len()
            && half == vi.len()
            && half == swr.len()
            && half == swi.len(),
        "stage_pass_avx2: span length mismatch"
    );
    let mut j = 0;
    // SAFETY: all six slices have length `half` (asserted above) and
    // every unaligned load/store below covers `j .. j + 8` with
    // `j + 8 <= half`, so no access leaves its slice.
    unsafe {
        while j + 8 <= half {
            let vrv = _mm256_loadu_ps(vr.as_ptr().add(j));
            let viv = _mm256_loadu_ps(vi.as_ptr().add(j));
            let wrv = _mm256_loadu_ps(swr.as_ptr().add(j));
            let wiv = _mm256_loadu_ps(swi.as_ptr().add(j));
            // cmul_fma: tr = fma(vi, -wi, vr*wr), ti = fma(vi, wr, vr*wi).
            let tr = _mm256_fnmadd_ps(viv, wiv, _mm256_mul_ps(vrv, wrv));
            let ti = _mm256_fmadd_ps(viv, wrv, _mm256_mul_ps(vrv, wiv));
            let urv = _mm256_loadu_ps(ur.as_ptr().add(j));
            let uiv = _mm256_loadu_ps(ui.as_ptr().add(j));
            _mm256_storeu_ps(ur.as_mut_ptr().add(j), _mm256_add_ps(urv, tr));
            _mm256_storeu_ps(ui.as_mut_ptr().add(j), _mm256_add_ps(uiv, ti));
            _mm256_storeu_ps(vr.as_mut_ptr().add(j), _mm256_sub_ps(urv, tr));
            _mm256_storeu_ps(vi.as_mut_ptr().add(j), _mm256_sub_ps(uiv, ti));
            j += 8;
        }
    }
    while j < half {
        let (tr, ti) = cmul_fma(vr[j], vi[j], swr[j], swi[j]);
        let pr = ur[j];
        let pi = ui[j];
        ur[j] = pr + tr;
        ui[j] = pi + ti;
        vr[j] = pr - tr;
        vi[j] = pi - ti;
        j += 1;
    }
}

/// AVX2+FMA transcription of `row_butterfly`'s lane loop: sixteen
/// independent butterflies against one broadcast twiddle, as two packs
/// of eight lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: `unsafe` only because of `target_feature` — callers must
// have verified AVX2+FMA via `ts3_tensor::simd::avx2_active()`. The
// fixed `[f32; 16]` arrays make every 8-lane offset (0 and 8) in
// bounds by construction.
unsafe fn row_butterfly_avx2(
    ur: &mut [f32; 16],
    ui: &mut [f32; 16],
    vr: &mut [f32; 16],
    vi: &mut [f32; 16],
    wr: f32,
    wi: f32,
) {
    use core::arch::x86_64::*;
    // SAFETY: all arrays are exactly 16 floats, so offsets 0 and 8 with
    // 8-lane unaligned loads/stores stay in-bounds.
    // ts3-lint: allow(unsafe-dataflow) bounds are the fixed [f32; 16] types themselves; there is no runtime length to assert
    unsafe {
        let wrv = _mm256_set1_ps(wr);
        let wiv = _mm256_set1_ps(wi);
        for off in [0usize, 8] {
            let vrv = _mm256_loadu_ps(vr.as_ptr().add(off));
            let viv = _mm256_loadu_ps(vi.as_ptr().add(off));
            let tr = _mm256_fnmadd_ps(viv, wiv, _mm256_mul_ps(vrv, wrv));
            let ti = _mm256_fmadd_ps(viv, wrv, _mm256_mul_ps(vrv, wiv));
            let urv = _mm256_loadu_ps(ur.as_ptr().add(off));
            let uiv = _mm256_loadu_ps(ui.as_ptr().add(off));
            _mm256_storeu_ps(ur.as_mut_ptr().add(off), _mm256_add_ps(urv, tr));
            _mm256_storeu_ps(ui.as_mut_ptr().add(off), _mm256_add_ps(uiv, ti));
            _mm256_storeu_ps(vr.as_mut_ptr().add(off), _mm256_sub_ps(urv, tr));
            _mm256_storeu_ps(vi.as_mut_ptr().add(off), _mm256_sub_ps(uiv, ti));
        }
    }
}

/// Split two consecutive 4-complex loads (`p .. p + 16` floats of
/// interleaved `(re, im)` pairs) into planar `(re, im)` 8-lane vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe` for `target_feature` and the raw loads — callers
// guarantee AVX2 and that `p .. p + 16` floats are in bounds.
#[inline]
unsafe fn deinterleave8(
    p: *const f32,
) -> (core::arch::x86_64::__m256, core::arch::x86_64::__m256) {
    use core::arch::x86_64::*;
    // SAFETY: caller contract — 16 in-bounds floats at `p`.
    // ts3-lint: allow(unsafe-dataflow) raw-pointer helper with no length of its own; each caller asserts the 16-float bound at its call site
    unsafe {
        let v0 = _mm256_loadu_ps(p); //        r0 i0 r1 i1 | r2 i2 r3 i3
        let v1 = _mm256_loadu_ps(p.add(8)); // r4 i4 r5 i5 | r6 i6 r7 i7
        let t0 = _mm256_shuffle_ps(v0, v1, 0b10_00_10_00); // r0 r1 r4 r5 | r2 r3 r6 r7
        let t1 = _mm256_shuffle_ps(v0, v1, 0b11_01_11_01); // i0 i1 i4 i5 | i2 i3 i6 i7
        // Reorder the 64-bit pairs [0,2,1,3] to ascending lane order.
        let re = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(t0), 0b11_01_10_00));
        let im = _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(t1), 0b11_01_10_00));
        (re, im)
    }
}

/// AVX2+FMA transcription of the `RealPlan` forward unsplit loop: for
/// each `k`, combine `Z[k]` with `conj(Z[h-k])` into even/odd spectra
/// and rotate the odd part by `W^k` — eight bins per iteration, with
/// the reversed `Z[h-k]` run loaded contiguously and lane-reversed.
/// The scalar tail (and any `h < 16`) replays the exact reference loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: `unsafe` only because of `target_feature` — callers must
// have verified AVX2+FMA via `ts3_tensor::simd::avx2_active()`. Raw
// loads/stores are covered by the length asserts below; `Complex32` is
// `repr(C)`, so `&[Complex32]` is valid interleaved-f32 lane storage.
unsafe fn unsplit_avx2(z: &[Complex32], twr: &[f32], twi: &[f32], out: &mut [Complex32]) {
    use core::arch::x86_64::*;
    let h = z.len();
    assert!(
        twr.len() >= h && twi.len() >= h && out.len() >= h,
        "unsplit_avx2: buffer length mismatch"
    );
    let mut k = 1;
    // SAFETY: for each 8-bin step, `a` covers z[k .. k+8] and the
    // reversed run covers z[h-k-7 ..= h-k]; with `k >= 1` and
    // `k + 8 <= h` both stay inside `z`, twiddle loads stay inside
    // `twr`/`twi` (len >= h), and stores cover out[k .. k+8] with
    // `k + 7 <= h - 1 < out.len()`.
    unsafe {
        let half = _mm256_set1_ps(0.5);
        let rev = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
        while k + 8 <= h {
            let (ar, ai) = deinterleave8(z.as_ptr().add(k).cast::<f32>());
            let (zr_f, zi_f) = deinterleave8(z.as_ptr().add(h - k - 7).cast::<f32>());
            // Lane j holds z[h-k-j] after the reversal, pairing with
            // a's lane j = z[k+j] exactly as the scalar loop does.
            let zr = _mm256_permutevar8x32_ps(zr_f, rev);
            let zi = _mm256_permutevar8x32_ps(zi_f, rev);
            // b = conj(Z[h-k]): b.re = zr, b.im = -zi. Adding/subbing
            // the negation is IEEE-identical to direct sub/add.
            let er = _mm256_mul_ps(_mm256_add_ps(ar, zr), half);
            let ei = _mm256_mul_ps(_mm256_sub_ps(ai, zi), half);
            let or_ = _mm256_mul_ps(_mm256_add_ps(ai, zi), half);
            let oi = _mm256_mul_ps(_mm256_sub_ps(zr, ar), half);
            let wrv = _mm256_loadu_ps(twr.as_ptr().add(k));
            let wiv = _mm256_loadu_ps(twi.as_ptr().add(k));
            // cmul_fma(or_, oi, wr, wi) lane-for-lane.
            let tr = _mm256_fnmadd_ps(oi, wiv, _mm256_mul_ps(or_, wrv));
            let ti = _mm256_fmadd_ps(oi, wrv, _mm256_mul_ps(or_, wiv));
            let re = _mm256_add_ps(er, tr);
            let im = _mm256_add_ps(ei, ti);
            // Interleave back to (re, im) pairs and store out[k..k+8].
            let lo = _mm256_unpacklo_ps(re, im); // r0 i0 r1 i1 | r4 i4 r5 i5
            let hi = _mm256_unpackhi_ps(re, im); // r2 i2 r3 i3 | r6 i6 r7 i7
            let q = out.as_mut_ptr().add(k).cast::<f32>();
            _mm256_storeu_ps(q, _mm256_permute2f128_ps(lo, hi, 0x20));
            _mm256_storeu_ps(q.add(8), _mm256_permute2f128_ps(lo, hi, 0x31));
            k += 8;
        }
    }
    while k < h {
        let a = z[k];
        let b = z[h - k].conj();
        let er = (a.re + b.re) * 0.5;
        let ei = (a.im + b.im) * 0.5;
        let or_ = (a.im - b.im) * 0.5;
        let oi = (b.re - a.re) * 0.5;
        let (tr, ti) = cmul_fma(or_, oi, twr[k], twi[k]);
        out[k] = Complex32::new(er + tr, ei + ti);
        k += 1;
    }
}

/// AVX2+FMA planar unsplit: identical per-bin operation sequence to
/// [`unsplit_avx2`], but `Z[k]` comes from planar `(re, im)` arrays —
/// plain 8-lane loads replace the interleaved shuffle cascade on both
/// the forward and the reversed run. The scalar tail replays the exact
/// reference loop over the planar buffers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
// SAFETY: `unsafe` only because of `target_feature` — callers must
// have verified AVX2+FMA via `ts3_tensor::simd::avx2_active()`. Raw
// loads/stores are covered by the length asserts below; `Complex32` is
// `repr(C)`, so `&mut [Complex32]` is valid interleaved-f32 storage.
unsafe fn unsplit_planar_avx2(
    re: &[f32],
    im: &[f32],
    twr: &[f32],
    twi: &[f32],
    out: &mut [Complex32],
) {
    use core::arch::x86_64::*;
    let h = re.len();
    assert!(
        im.len() == h && twr.len() >= h && twi.len() >= h && out.len() >= h,
        "unsplit_planar_avx2: buffer length mismatch"
    );
    let mut k = 1;
    // SAFETY: for each 8-bin step, the forward loads cover re/im[k ..
    // k+8] and the reversed loads cover re/im[h-k-7 ..= h-k]; with
    // `k >= 1` and `k + 8 <= h` both stay inside the length-`h`
    // buffers, twiddle loads stay inside `twr`/`twi` (len >= h), and
    // stores cover out[k .. k+8] with `k + 7 <= h - 1 < out.len()`.
    unsafe {
        let half = _mm256_set1_ps(0.5);
        let rev = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
        while k + 8 <= h {
            let ar = _mm256_loadu_ps(re.as_ptr().add(k));
            let ai = _mm256_loadu_ps(im.as_ptr().add(k));
            // Lane j holds Z[h-k-j] after the reversal, pairing with
            // a's lane j = Z[k+j] exactly as the scalar loop does.
            let zr = _mm256_permutevar8x32_ps(_mm256_loadu_ps(re.as_ptr().add(h - k - 7)), rev);
            let zi = _mm256_permutevar8x32_ps(_mm256_loadu_ps(im.as_ptr().add(h - k - 7)), rev);
            // b = conj(Z[h-k]): b.re = zr, b.im = -zi. Adding/subbing
            // the negation is IEEE-identical to direct sub/add.
            let er = _mm256_mul_ps(_mm256_add_ps(ar, zr), half);
            let ei = _mm256_mul_ps(_mm256_sub_ps(ai, zi), half);
            let or_ = _mm256_mul_ps(_mm256_add_ps(ai, zi), half);
            let oi = _mm256_mul_ps(_mm256_sub_ps(zr, ar), half);
            let wrv = _mm256_loadu_ps(twr.as_ptr().add(k));
            let wiv = _mm256_loadu_ps(twi.as_ptr().add(k));
            // cmul_fma(or_, oi, wr, wi) lane-for-lane.
            let tr = _mm256_fnmadd_ps(oi, wiv, _mm256_mul_ps(or_, wrv));
            let ti = _mm256_fmadd_ps(oi, wrv, _mm256_mul_ps(or_, wiv));
            let xr = _mm256_add_ps(er, tr);
            let xi = _mm256_add_ps(ei, ti);
            // Interleave back to (re, im) pairs and store out[k..k+8].
            let lo = _mm256_unpacklo_ps(xr, xi);
            let hi = _mm256_unpackhi_ps(xr, xi);
            let q = out.as_mut_ptr().add(k).cast::<f32>();
            _mm256_storeu_ps(q, _mm256_permute2f128_ps(lo, hi, 0x20));
            _mm256_storeu_ps(q.add(8), _mm256_permute2f128_ps(lo, hi, 0x31));
            k += 8;
        }
    }
    while k < h {
        let (ar, ai) = (re[k], im[k]);
        let (br, bi) = (re[h - k], -im[h - k]);
        let er = (ar + br) * 0.5;
        let ei = (ai + bi) * 0.5;
        let or_ = (ai - bi) * 0.5;
        let oi = (br - ar) * 0.5;
        let (tr, ti) = cmul_fma(or_, oi, twr[k], twi[k]);
        out[k] = Complex32::new(er + tr, ei + ti);
        k += 1;
    }
}

/// AVX2 conjugate mirror `out[n-k] = conj(out[k])`: four complexes per
/// step — one sign-flip of the `im` lanes plus a pair-wise lane
/// reversal. Pure data movement and sign negation, so bitwise equality
/// with the scalar loop is structural.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe` only because of `target_feature` — callers must
// have verified AVX2 via `ts3_tensor::simd::avx2_active()`. Raw
// loads/stores are in bounds per the loop-condition argument below;
// `Complex32` is `repr(C)` interleaved-f32 storage.
unsafe fn mirror_avx2(out: &mut [Complex32]) {
    use core::arch::x86_64::*;
    let n = out.len();
    let h = n / 2;
    let mut k = 1;
    // SAFETY: while `k + 4 <= h`, the load covers out[k .. k+4] (max
    // index h-1) and the store covers out[n-k-3 ..= n-k] (min index
    // n-h-1+... = h+1 at k = h-4... >= h+1 for all k in range; max
    // index n-1). Load and store regions never overlap (k+3 < h < n-k-3
    // + 1 for k <= h-4), and both stay inside `out`.
    // ts3-lint: allow(unsafe-dataflow) the bound is the loop condition `k + 4 <= h`, proven in the SAFETY argument; an assert would duplicate the guard
    unsafe {
        // Flipping the sign bit of the `im` lanes == scalar `conj`.
        let conj_mask = _mm256_setr_ps(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
        // Reverse the four complex pairs: [c0 c1 | c2 c3] -> [c3 c2 | c1 c0].
        let rev_pairs = _mm256_setr_epi32(6, 7, 4, 5, 2, 3, 0, 1);
        while k + 4 <= h {
            let v = _mm256_loadu_ps(out.as_ptr().add(k).cast::<f32>());
            let c = _mm256_xor_ps(v, conj_mask);
            let r = _mm256_permutevar8x32_ps(c, rev_pairs);
            _mm256_storeu_ps(out.as_mut_ptr().add(n - k - 3).cast::<f32>(), r);
            k += 4;
        }
    }
    while k < h {
        out[n - k] = out[k].conj();
        k += 1;
    }
}

/// Series per lane-batched pass: one `__m256` of `f32`, one series per
/// vector position.
///
/// The `lane_*` kernels below run one step of a CWT filter bank over up
/// to eight series held lane-interleaved — element `k` of series `l` at
/// `[k * 8 + l]`, in planar `(re, im)` buffers — and give every lane
/// exactly the operations, in the order, that the single-series path in
/// [`crate::fft`] / [`crate::cwt`] applies to one series; lanes never
/// mix. They are safe `#[target_feature]` functions: the caller must run
/// with AVX2+FMA enabled, which `CwtPlan`'s lane drivers establish by
/// calling them only from their own `#[target_feature]` bodies, entered
/// after `ts3_tensor::simd::avx2_active()`.
pub(crate) const LANE_W: usize = 8;

/// AVX2+FMA lane transcription of `stages_planar`'s butterfly stages.
/// Stages run in pairs: each group of four rows `a, a + h, a + 2h,
/// a + 3h` is loaded once, takes its two butterflies of stage `len`
/// (`h = len / 2`, twiddle `j`) and then its two of stage `2 len`
/// (twiddles `j` and `j + h`) in registers, and is stored once. Every
/// row still sees its butterflies in stage order with the same twiddles
/// — the pairing changes memory traffic, not arithmetic. An odd stage
/// count runs its first stage alone.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) fn lane_stages(re: &mut [f32], im: &mut [f32], twr: &[f32], twi: &[f32]) {
    use core::arch::x86_64::*;
    let n = re.len() / LANE_W;
    assert!(
        re.len() == n * LANE_W
            && im.len() == re.len()
            && n.is_power_of_two()
            && twr.len() >= n - 1
            && twi.len() >= n - 1,
        "lane_stages: buffer length mismatch"
    );
    let (pr, pi) = (re.as_mut_ptr(), im.as_mut_ptr());
    let mut off = 0usize;
    let mut len = 2usize;
    if n.trailing_zeros() % 2 == 1 {
        // SAFETY: rows `a < n` and `a + 1 < n` (n even) are in bounds;
        // twiddle 0 exists because `n >= 2`.
        unsafe {
            let wr = _mm256_set1_ps(twr[0]);
            let wi = _mm256_set1_ps(twi[0]);
            for a in (0..n).step_by(2) {
                let rows = [a, a + 1].map(|r| r * LANE_W);
                let mut xr = rows.map(|p| _mm256_loadu_ps(pr.add(p)));
                let mut xi = rows.map(|p| _mm256_loadu_ps(pi.add(p)));
                bfly(&mut xr, &mut xi, 0, 1, wr, wi);
                for (k, &p) in rows.iter().enumerate() {
                    _mm256_storeu_ps(pr.add(p), xr[k]);
                    _mm256_storeu_ps(pi.add(p), xi[k]);
                }
            }
        }
        off = 1;
        len = 4;
    }
    while 2 * len <= n {
        let h = len / 2;
        let group = 2 * len;
        // Stage `2 len`'s twiddles start right after stage `len`'s.
        let off2 = off + h;
        for j in 0..h {
            // SAFETY: the twiddle indices `off + j` and `off2 + j (+ h)`
            // are below `off2 + len <= n - 1`, inside both tables; every
            // row `a + 3h` with `a = start + j`, `start + 2 len <= n` is
            // `< n`, inside both planes (asserted above).
            unsafe {
                let w1r = _mm256_set1_ps(*twr.get_unchecked(off + j));
                let w1i = _mm256_set1_ps(*twi.get_unchecked(off + j));
                let w2r = _mm256_set1_ps(*twr.get_unchecked(off2 + j));
                let w2i = _mm256_set1_ps(*twi.get_unchecked(off2 + j));
                let w3r = _mm256_set1_ps(*twr.get_unchecked(off2 + j + h));
                let w3i = _mm256_set1_ps(*twi.get_unchecked(off2 + j + h));
                let mut a = j;
                while a < n {
                    let rows = [a, a + h, a + 2 * h, a + 3 * h].map(|r| r * LANE_W);
                    let mut xr = rows.map(|p| _mm256_loadu_ps(pr.add(p)));
                    let mut xi = rows.map(|p| _mm256_loadu_ps(pi.add(p)));
                    bfly(&mut xr, &mut xi, 0, 1, w1r, w1i);
                    bfly(&mut xr, &mut xi, 2, 3, w1r, w1i);
                    bfly(&mut xr, &mut xi, 0, 2, w2r, w2i);
                    bfly(&mut xr, &mut xi, 1, 3, w3r, w3i);
                    for (k, &p) in rows.iter().enumerate() {
                        _mm256_storeu_ps(pr.add(p), xr[k]);
                        _mm256_storeu_ps(pi.add(p), xi[k]);
                    }
                    a += group;
                }
            }
        }
        off = off2 + len;
        len <<= 2;
    }
}

/// One butterfly of eight series on register rows `a` (low) and `b`
/// (high) against one broadcast twiddle: `cmul_fma` as one `fnmadd` and
/// one `fmadd`, then the sum and difference, as in `stage_pass`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[inline]
fn bfly<const N: usize>(
    xr: &mut [core::arch::x86_64::__m256; N],
    xi: &mut [core::arch::x86_64::__m256; N],
    a: usize,
    b: usize,
    wr: core::arch::x86_64::__m256,
    wi: core::arch::x86_64::__m256,
) {
    use core::arch::x86_64::*;
    let tr = _mm256_fnmadd_ps(xi[b], wi, _mm256_mul_ps(xr[b], wr));
    let ti = _mm256_fmadd_ps(xi[b], wr, _mm256_mul_ps(xr[b], wi));
    let (ur, ui) = (xr[a], xi[a]);
    xr[a] = _mm256_add_ps(ur, tr);
    xi[a] = _mm256_add_ps(ui, ti);
    xr[b] = _mm256_sub_ps(ur, tr);
    xi[b] = _mm256_sub_ps(ui, ti);
}

/// AVX2+FMA lane transcription of the `RealPlan` unsplit (per bin the
/// operations of `unsplit_planar_avx2`) plus the conjugate mirror.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) fn lane_unsplit_mirror(
    hre: &[f32],
    him: &[f32],
    twr: &[f32],
    twi: &[f32],
    sre: &mut [f32],
    sim: &mut [f32],
) {
    use core::arch::x86_64::*;
    let h = hre.len() / LANE_W;
    let m = 2 * h;
    assert!(
        h >= 1
            && hre.len() == h * LANE_W
            && him.len() == hre.len()
            && twr.len() >= h
            && twi.len() >= h
            && sre.len() == m * LANE_W
            && sim.len() == sre.len(),
        "lane_unsplit_mirror: buffer length mismatch"
    );
    let (hr, hi) = (hre.as_ptr(), him.as_ptr());
    let (sr, si) = (sre.as_mut_ptr(), sim.as_mut_ptr());
    // SAFETY: rows `0 ..= h` of `hre`/`him` (read at `k` and `h - k`,
    // `k < h`) and rows `0 .. 2h` of `sre`/`sim` are in bounds by the
    // asserts above; twiddle indices `k < h` are inside both tables.
    unsafe {
        let half = _mm256_set1_ps(0.5);
        let zero = _mm256_setzero_ps();
        let neg = _mm256_set1_ps(-0.0);
        let a_r = _mm256_loadu_ps(hr);
        let a_i = _mm256_loadu_ps(hi);
        _mm256_storeu_ps(sr, _mm256_add_ps(a_r, a_i));
        _mm256_storeu_ps(si, zero);
        _mm256_storeu_ps(sr.add(h * LANE_W), _mm256_sub_ps(a_r, a_i));
        _mm256_storeu_ps(si.add(h * LANE_W), zero);
        for k in 1..h {
            let ar = _mm256_loadu_ps(hr.add(k * LANE_W));
            let ai = _mm256_loadu_ps(hi.add(k * LANE_W));
            let zr = _mm256_loadu_ps(hr.add((h - k) * LANE_W));
            let zi = _mm256_loadu_ps(hi.add((h - k) * LANE_W));
            let er = _mm256_mul_ps(_mm256_add_ps(ar, zr), half);
            let ei = _mm256_mul_ps(_mm256_sub_ps(ai, zi), half);
            let or_ = _mm256_mul_ps(_mm256_add_ps(ai, zi), half);
            let oi = _mm256_mul_ps(_mm256_sub_ps(zr, ar), half);
            let wr = _mm256_set1_ps(*twr.get_unchecked(k));
            let wi = _mm256_set1_ps(*twi.get_unchecked(k));
            let tr = _mm256_fnmadd_ps(oi, wi, _mm256_mul_ps(or_, wr));
            let ti = _mm256_fmadd_ps(oi, wr, _mm256_mul_ps(or_, wi));
            let xr = _mm256_add_ps(er, tr);
            let xi = _mm256_add_ps(ei, ti);
            _mm256_storeu_ps(sr.add(k * LANE_W), xr);
            _mm256_storeu_ps(si.add(k * LANE_W), xi);
            _mm256_storeu_ps(sr.add((m - k) * LANE_W), xr);
            _mm256_storeu_ps(si.add((m - k) * LANE_W), _mm256_xor_ps(xi, neg));
        }
    }
}

/// AVX2 lane product `d[k] = s[bitrev[k]] * filt[bitrev[k]]` with
/// `Complex32`'s unfused multiply.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) fn lane_cmul_bitrev(
    sre: &[f32],
    sim: &[f32],
    filt: &[Complex32],
    bitrev: &[u32],
    dre: &mut [f32],
    dim: &mut [f32],
) {
    use core::arch::x86_64::*;
    let m = bitrev.len();
    assert!(
        sre.len() == m * LANE_W
            && sim.len() == sre.len()
            && filt.len() == m
            && dre.len() == sre.len()
            && dim.len() == sre.len()
            && bitrev.iter().all(|&j| (j as usize) < m),
        "lane_cmul_bitrev: buffer length mismatch"
    );
    for (k, &j) in bitrev.iter().enumerate() {
        let j = j as usize;
        let b = filt[j];
        // SAFETY: `j < m` (asserted) and `k < m`, so rows `j` and `k`
        // are in bounds of the length-`m * 8` planes.
        unsafe {
            let ar = _mm256_loadu_ps(sre.as_ptr().add(j * LANE_W));
            let ai = _mm256_loadu_ps(sim.as_ptr().add(j * LANE_W));
            let br = _mm256_set1_ps(b.re);
            let bi = _mm256_set1_ps(b.im);
            let re = _mm256_sub_ps(_mm256_mul_ps(ar, br), _mm256_mul_ps(ai, bi));
            let im = _mm256_add_ps(_mm256_mul_ps(ar, bi), _mm256_mul_ps(ai, br));
            _mm256_storeu_ps(dre.as_mut_ptr().add(k * LANE_W), re);
            _mm256_storeu_ps(dim.as_mut_ptr().add(k * LANE_W), im);
        }
    }
}

/// Amplitude epilogue over rows `off .. off + T` (`T = amp.len() / 8`)
/// of an unscaled inverse transform: `re·s`, `im·s` (the inverse's
/// `1/n`), then `sqrt(fma(im, im, re·re))`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) fn lane_amp_rows(re: &[f32], im: &[f32], off: usize, s: f32, amp: &mut [f32]) {
    use core::arch::x86_64::*;
    let t = amp.len() / LANE_W;
    assert!(
        amp.len() == t * LANE_W && im.len() == re.len() && re.len() >= (off + t) * LANE_W,
        "lane_amp_rows: buffer length mismatch"
    );
    // SAFETY: rows `off .. off + t` of `re`/`im` and rows `0 .. t` of
    // `amp` are in bounds by the assert above.
    unsafe {
        let sv = _mm256_set1_ps(s);
        for k in 0..t {
            let r = _mm256_mul_ps(_mm256_loadu_ps(re.as_ptr().add((off + k) * LANE_W)), sv);
            let i = _mm256_mul_ps(_mm256_loadu_ps(im.as_ptr().add((off + k) * LANE_W)), sv);
            let a = _mm256_sqrt_ps(_mm256_fmadd_ps(i, i, _mm256_mul_ps(r, r)));
            _mm256_storeu_ps(amp.as_mut_ptr().add(k * LANE_W), a);
        }
    }
}

/// Complex epilogue over rows `off .. off + T` (`T = yr.len() / 8`):
/// `yr = re·s`, `yi = im·s`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) fn lane_scale_rows(
    re: &[f32],
    im: &[f32],
    off: usize,
    s: f32,
    yr: &mut [f32],
    yi: &mut [f32],
) {
    use core::arch::x86_64::*;
    let t = yr.len() / LANE_W;
    assert!(
        yr.len() == t * LANE_W
            && yi.len() == yr.len()
            && im.len() == re.len()
            && re.len() >= (off + t) * LANE_W,
        "lane_scale_rows: buffer length mismatch"
    );
    // SAFETY: rows `off .. off + t` of `re`/`im` and rows `0 .. t` of
    // `yr`/`yi` are in bounds by the assert above.
    unsafe {
        let sv = _mm256_set1_ps(s);
        for k in 0..t {
            let r = _mm256_loadu_ps(re.as_ptr().add((off + k) * LANE_W));
            let i = _mm256_loadu_ps(im.as_ptr().add((off + k) * LANE_W));
            _mm256_storeu_ps(yr.as_mut_ptr().add(k * LANE_W), _mm256_mul_ps(r, sv));
            _mm256_storeu_ps(yi.as_mut_ptr().add(k * LANE_W), _mm256_mul_ps(i, sv));
        }
    }
}

/// Adjoint epilogue over rows `off .. off + T` (`T = acc.len() / 8`):
/// `acc += re·s`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) fn lane_acc_rows(re: &[f32], off: usize, s: f32, acc: &mut [f32]) {
    use core::arch::x86_64::*;
    let t = acc.len() / LANE_W;
    assert!(
        acc.len() == t * LANE_W && re.len() >= (off + t) * LANE_W,
        "lane_acc_rows: buffer length mismatch"
    );
    // SAFETY: rows `off .. off + t` of `re` and rows `0 .. t` of `acc`
    // are in bounds by the assert above.
    unsafe {
        let sv = _mm256_set1_ps(s);
        for k in 0..t {
            let r = _mm256_mul_ps(_mm256_loadu_ps(re.as_ptr().add((off + k) * LANE_W)), sv);
            let p = acc.as_mut_ptr().add(k * LANE_W);
            _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), r));
        }
    }
}

/// Write lanes `0 .. bases.len()` of the `[T][8]` plane `rows` to
/// `out`: lane `l`'s row `t` to `out[bases[l] + t * t_stride]`. Pure
/// data movement; two layouts take a vector path — series side by side
/// (`bases[l] = bases[0] + l`, the pulse's `[T, C]` rows), stored with
/// one masked store per `t`, and contiguous series (`t_stride = 1`, the
/// TF-Block's `[lambda, T]` grids), stored through 8×8 transposes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) fn lane_scatter(rows: &[f32], bases: &[usize], t_stride: usize, out: &mut [f32]) {
    use core::arch::x86_64::*;
    let t = rows.len() / LANE_W;
    let lanes = bases.len();
    assert!(
        rows.len() == t * LANE_W
            && t >= 1
            && lanes <= LANE_W
            && t_stride >= 1
            && bases.iter().all(|&b| b + (t - 1) * t_stride < out.len()),
        "lane_scatter: layout outside the output"
    );
    let side_by_side = lanes >= 1
        && t_stride >= lanes
        && bases.iter().enumerate().all(|(l, &b)| b == bases[0] + l);
    if side_by_side {
        let mask = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes as i32), mask);
        for k in 0..t {
            // SAFETY: the masked store writes `out[bases[0] + k * t_stride
            // + l]` for `l < lanes` only, i.e. `bases[l] + k * t_stride`,
            // in bounds by the assert; the load reads row `k < t`.
            unsafe {
                let v = _mm256_loadu_ps(rows.as_ptr().add(k * LANE_W));
                _mm256_maskstore_ps(out.as_mut_ptr().add(bases[0] + k * t_stride), mask, v);
            }
        }
        return;
    }
    let mut k0 = 0;
    if t_stride == 1 {
        while k0 + LANE_W <= t {
            // SAFETY: rows `k0 .. k0 + 8` are `< t`; lane `l`'s store
            // covers `out[bases[l] + k0 .. bases[l] + k0 + 8]`, whose last
            // index is at most `bases[l] + t - 1`, in bounds by the assert.
            unsafe {
                let r = core::array::from_fn::<_, LANE_W, _>(|j| {
                    _mm256_loadu_ps(rows.as_ptr().add((k0 + j) * LANE_W))
                });
                let c = transpose8(r);
                for (l, &b) in bases.iter().enumerate() {
                    _mm256_storeu_ps(out.as_mut_ptr().add(b + k0), c[l]);
                }
            }
            k0 += LANE_W;
        }
    }
    for (l, &b) in bases.iter().enumerate() {
        for k in k0..t {
            out[b + k * t_stride] = rows[k * LANE_W + l];
        }
    }
}

/// The inverse of [`lane_scatter`]: read lane `l`'s row `t` from
/// `src[bases[l] + t * t_stride]` into the `[T][8]` plane `rows`, with
/// the same two vector paths. Lanes `bases.len() .. 8` of `rows` are
/// left as they are.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) fn lane_gather(src: &[f32], bases: &[usize], t_stride: usize, rows: &mut [f32]) {
    use core::arch::x86_64::*;
    let t = rows.len() / LANE_W;
    let lanes = bases.len();
    assert!(
        rows.len() == t * LANE_W
            && t >= 1
            && lanes <= LANE_W
            && t_stride >= 1
            && bases.iter().all(|&b| b + (t - 1) * t_stride < src.len()),
        "lane_gather: layout outside the input"
    );
    let side_by_side = lanes >= 1
        && t_stride >= lanes
        && bases.iter().enumerate().all(|(l, &b)| b == bases[0] + l);
    if side_by_side {
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes as i32), idx);
        for k in 0..t {
            // SAFETY: the masked load reads `src[bases[l] + k * t_stride]`
            // for `l < lanes` only, in bounds by the assert; the blend
            // keeps the masked-off lanes of row `k < t` as they were.
            unsafe {
                let v = _mm256_maskload_ps(src.as_ptr().add(bases[0] + k * t_stride), mask);
                let p = rows.as_mut_ptr().add(k * LANE_W);
                let keep = _mm256_loadu_ps(p);
                _mm256_storeu_ps(p, _mm256_blendv_ps(keep, v, _mm256_castsi256_ps(mask)));
            }
        }
        return;
    }
    let mut k0 = 0;
    if t_stride == 1 && lanes == LANE_W {
        while k0 + LANE_W <= t {
            // SAFETY: lane `l`'s load covers `src[bases[l] + k0 ..
            // bases[l] + k0 + 8]`, last index at most `bases[l] + t - 1`,
            // in bounds by the assert; rows `k0 .. k0 + 8` are `< t`.
            unsafe {
                let c = core::array::from_fn::<_, LANE_W, _>(|l| {
                    _mm256_loadu_ps(src.as_ptr().add(bases[l] + k0))
                });
                for (j, v) in transpose8(c).into_iter().enumerate() {
                    _mm256_storeu_ps(rows.as_mut_ptr().add((k0 + j) * LANE_W), v);
                }
            }
            k0 += LANE_W;
        }
    }
    for (l, &b) in bases.iter().enumerate() {
        for k in k0..t {
            rows[k * LANE_W + l] = src[b + k * t_stride];
        }
    }
}

/// 8×8 transpose of `f32` rows: lane `j` of output `l` is lane `l` of
/// input `j`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn transpose8(r: [core::arch::x86_64::__m256; 8]) -> [core::arch::x86_64::__m256; 8] {
    use core::arch::x86_64::*;
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    let s0 = _mm256_shuffle_ps(t0, t2, 0b01_00_01_00);
    let s1 = _mm256_shuffle_ps(t0, t2, 0b11_10_11_10);
    let s2 = _mm256_shuffle_ps(t1, t3, 0b01_00_01_00);
    let s3 = _mm256_shuffle_ps(t1, t3, 0b11_10_11_10);
    let s4 = _mm256_shuffle_ps(t4, t6, 0b01_00_01_00);
    let s5 = _mm256_shuffle_ps(t4, t6, 0b11_10_11_10);
    let s6 = _mm256_shuffle_ps(t5, t7, 0b01_00_01_00);
    let s7 = _mm256_shuffle_ps(t5, t7, 0b11_10_11_10);
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
