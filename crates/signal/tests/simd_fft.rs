//! SIMD-vs-scalar bitwise equivalence sweep for the FFT butterfly
//! kernels.
//!
//! `ts3_signal::fft_simd` transcribes the planar `stage_pass` and the
//! block-transposed `row_butterfly` onto AVX2+FMA lanes with the exact
//! scalar operation sequence (the canonical `cmul_fma` rotation becomes
//! one `_mm256_fnmadd_ps` + `_mm256_fmadd_ps` pair per component), so
//! both dispatch modes must produce bit-for-bit identical transforms.
//! One `#[test]` owns the process-global dispatch toggle.

use ts3_signal::complex::Complex32;
use ts3_signal::fft::{fft, ifft, rfft_half};
use ts3_tensor::simd::{avx2_active, set_simd_enabled};

fn cbits(v: &[Complex32]) -> Vec<(u32, u32)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

#[test]
fn fft_simd_and_scalar_are_bitwise_identical() {
    set_simd_enabled(true);
    if !avx2_active() {
        eprintln!("simd_fft: no AVX2+FMA on this host, skipping sweep");
        return;
    }
    // Power-of-two sizes cover both planar shapes: n < 128 runs the
    // scalar-unrolled early stages + stage_pass tails, n >= 128 runs
    // the block-transposed row_butterfly path. Non-power-of-two sizes
    // route the same kernels through Bluestein's inner transform.
    for n in [2usize, 8, 16, 32, 64, 128, 256, 1024, 12, 96, 100, 31] {
        let x: Vec<Complex32> = (0..n)
            .map(|i| Complex32::new((i as f32 * 0.29).sin(), (i as f32 * 0.83).cos()))
            .collect();
        set_simd_enabled(false);
        let fwd_scalar = fft(&x);
        let inv_scalar = ifft(&fwd_scalar);
        set_simd_enabled(true);
        let fwd_simd = fft(&x);
        let inv_simd = ifft(&fwd_simd);
        assert_eq!(cbits(&fwd_scalar), cbits(&fwd_simd), "fft diverged at n={n}");
        assert_eq!(cbits(&inv_scalar), cbits(&inv_simd), "ifft diverged at n={n}");
    }
    // The packed real-input entry point.
    for n in [4usize, 16, 96, 256, 1024] {
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.41).sin() + 0.02 * i as f32).collect();
        set_simd_enabled(false);
        let half_scalar = rfft_half(&x);
        set_simd_enabled(true);
        let half_simd = rfft_half(&x);
        assert_eq!(cbits(&half_scalar), cbits(&half_simd), "rfft_half diverged at n={n}");
    }
    set_simd_enabled(true);
}
