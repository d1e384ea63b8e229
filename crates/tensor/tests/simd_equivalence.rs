//! SIMD-vs-scalar bitwise equivalence sweep for the gemm micro-kernel.
//!
//! The AVX2 kernel in `ts3_tensor::simd` is a lane-parallel
//! transcription of the scalar reference (every `mul_add` becomes one
//! fused `_mm256_fmadd_ps` lane, same order), so the two dispatch modes
//! must produce **bit-for-bit identical** matmul results. That identity
//! is what makes runtime dispatch legal under the workspace determinism
//! contract; this sweep enforces it across packed tiles, ragged edge
//! tiles, and the sub-threshold naive path.
//!
//! Everything runs inside one `#[test]` because the dispatch override
//! is process-global: a single test owns the toggle sequence. (Other
//! tests running concurrently are unaffected *because* the modes are
//! bitwise-equal — the property proven here.)

use ts3_tensor::simd::{avx2_active, set_simd_enabled};
use ts3_tensor::Tensor;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn gemm_simd_and_scalar_are_bitwise_identical() {
    set_simd_enabled(true);
    if !avx2_active() {
        // Host has no AVX2+FMA: both modes resolve to the scalar
        // kernel and the sweep is vacuous.
        eprintln!("simd_equivalence: no AVX2+FMA on this host, skipping sweep");
        return;
    }
    // (m, k, n) shapes: full 4x16 tiles, ragged M/N/K edges around the
    // MR=4 / NR=16 / KC=256 blocking, tiny sub-threshold cases that
    // take the naive path, then the short-M grid: M on both sides of
    // its row range, N ragged against its 8-column blocks.
    let mut shapes = vec![
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 16),
        (5, 9, 17),
        (8, 16, 32),
        (13, 31, 47),
        (16, 64, 16),
        (33, 17, 65),
        (64, 64, 64),
        (64, 300, 48),
        (128, 128, 128),
    ];
    for m in [1, 3, 4, 5, 7, 8, 9] {
        for n in [1, 7, 8, 9, 200, 768] {
            for k in [1, 8, 768] {
                shapes.push((m, k, n));
            }
        }
    }
    for (i, &(m, k, n)) in shapes.iter().enumerate() {
        let a = Tensor::randn(&[m, k], 100 + i as u64);
        let b = Tensor::randn(&[k, n], 200 + i as u64);
        set_simd_enabled(false);
        let scalar = a.matmul(&b);
        set_simd_enabled(true);
        let simd = a.matmul(&b);
        assert_eq!(
            bits(&scalar),
            bits(&simd),
            "gemm dispatch modes diverged at m={m} k={k} n={n}"
        );
        // Transposed-B entry point shares the packing path.
        let bt = Tensor::randn(&[n, k], 300 + i as u64);
        set_simd_enabled(false);
        let scalar_tb = a.matmul_tb(&bt);
        set_simd_enabled(true);
        let simd_tb = a.matmul_tb(&bt);
        assert_eq!(
            bits(&scalar_tb),
            bits(&simd_tb),
            "matmul_tb dispatch modes diverged at m={m} k={k} n={n}"
        );
    }
    set_simd_enabled(true);
}
