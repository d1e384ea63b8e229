//! Workspace-level property tests pinning the core mathematical
//! invariants the reproduction relies on.
//!
//! Each test sweeps `CASES` deterministically seeded random inputs from
//! [`ts3_rng`] (one seed per case, derived from a per-test base seed),
//! replacing the former proptest suite so the workspace needs no
//! external crates. Failures print the offending case seed; re-running
//! is exactly reproducible.

use ts3_autograd::{gradcheck_var, Var};
use ts3_data::{mask_batch, StandardScaler};
use ts3_rng::rngs::StdRng;
use ts3_rng::{Rng, SeedableRng};
use ts3_signal::complex::Complex32;
use ts3_signal::fft::{fft, ifft};
use ts3_signal::{spectrum_gradient, triple_decompose, TripleConfig};
use ts3_tensor::Tensor;

const CASES: u64 = 16;

/// One seeded RNG per case: `base` identifies the test, `case` the sweep
/// index, so cases are independent and individually reproducible.
fn case_rng(base: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(base ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

fn vec_in(rng: &mut StdRng, lo: f32, hi: f32, len_lo: usize, len_hi: usize) -> Vec<f32> {
    let n = rng.gen_range(len_lo..len_hi);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

#[test]
fn fft_round_trip() {
    for case in 0..CASES {
        let mut rng = case_rng(0x0F71, case);
        let values = vec_in(&mut rng, -10.0, 10.0, 4, 64);
        let x: Vec<Complex32> = values.iter().map(|&v| Complex32::from_real(v)).collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            assert!((a.re - b.re).abs() < 1e-2, "case {case}");
            assert!(b.im.abs() < 1e-2, "case {case}");
        }
    }
}

#[test]
fn parseval_holds() {
    for case in 0..CASES {
        let mut rng = case_rng(0x0F73, case);
        let values = vec_in(&mut rng, -5.0, 5.0, 8, 40);
        let n = values.len() as f32;
        let x: Vec<Complex32> = values.iter().map(|&v| Complex32::from_real(v)).collect();
        let time: f32 = values.iter().map(|v| v * v).sum();
        let freq: f32 = fft(&x).iter().map(|z| z.norm_sqr()).sum::<f32>() / n;
        assert!((time - freq).abs() < 1e-2 * time.max(1.0), "case {case}");
    }
}

#[test]
fn triple_decomposition_reconstructs() {
    for case in 0..CASES {
        let mut rng = case_rng(0x0F74, case);
        let seedlike = vec_in(&mut rng, -2.0, 2.0, 48, 96);
        let t = seedlike.len();
        let x = Tensor::from_vec(seedlike, &[t, 1]);
        let cfg = TripleConfig { lambda: 4, ..Default::default() };
        let d = triple_decompose(&x, &cfg);
        // Eq. 1 + Eq. 10 are exact splits: trend + regular + fluctuant = x.
        assert!(d.reconstruct().allclose(&x, 1e-3), "case {case}");
    }
}

#[test]
fn spectrum_gradient_inverts_by_prefix_sum() {
    for case in 0..CASES {
        let mut rng = case_rng(0x0F75, case);
        let grid = vec_in(&mut rng, -3.0, 3.0, 24, 48);
        let t_f = rng.gen_range(2usize..8);
        // Delta[t] = TF[t] - TF[t - t_f]; summing Delta over the chunk
        // chain recovers TF exactly.
        let t = grid.len();
        let tf = Tensor::from_vec(grid.clone(), &[1, t]);
        let g = spectrum_gradient(&tf, t_f);
        #[allow(clippy::needless_range_loop)]
        for start in 0..t {
            let mut acc = 0.0f32;
            let mut idx = start;
            loop {
                acc += g.at(&[0, idx]);
                if idx < t_f {
                    break;
                }
                idx -= t_f;
            }
            assert!((acc - grid[start]).abs() < 1e-3, "case {case}");
        }
    }
}

#[test]
fn scaler_round_trip() {
    for case in 0..CASES {
        let mut rng = case_rng(0x0F76, case);
        let values = vec_in(&mut rng, -100.0, 100.0, 10, 60);
        let n = values.len();
        let x = Tensor::from_vec(values, &[n, 1]);
        let s = StandardScaler::fit(&x);
        let back = s.inverse_transform(&s.transform(&x));
        assert!(back.allclose(&x, 1e-2), "case {case}");
    }
}

#[test]
fn mask_ratio_and_disjointness() {
    for case in 0..CASES {
        let mut rng = case_rng(0x0F77, case);
        let ratio = rng.gen_range(0.05f32..0.6);
        let seed = rng.gen_range(0u64..1000);
        let x = Tensor::ones(&[2, 96, 4]);
        let mb = mask_batch(&x, ratio, seed);
        let measured = mb.mask.sum() / mb.mask.numel() as f32;
        assert!((measured - ratio).abs() < 0.1, "case {case}");
        // masked * mask == 0 everywhere (hidden points really hidden).
        for (m, v) in mb.mask.as_slice().iter().zip(mb.masked.as_slice()) {
            assert!(m * v == 0.0, "case {case}");
        }
    }
}

#[test]
fn gradcheck_random_two_layer_net() {
    for case in 0..CASES {
        let mut rng = case_rng(0x0F78, case);
        let input: Vec<f32> = (0..6).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let wseed = rng.gen_range(0u64..100);
        let x = Tensor::from_vec(input, &[2, 3]);
        let report = gradcheck_var(
            |v| {
                let w1 = Var::constant(Tensor::randn(&[3, 4], wseed).mul_scalar(0.5));
                let w2 = Var::constant(Tensor::randn(&[4, 2], wseed + 1).mul_scalar(0.5));
                v.matmul(&w1).gelu().matmul(&w2).tanh().square().sum()
            },
            &x,
            1e-2,
        );
        assert!(
            report.max_rel_err < 0.08,
            "case {case}: rel err {}",
            report.max_rel_err
        );
    }
}

#[test]
fn tensor_broadcast_add_commutes() {
    for case in 0..CASES {
        let mut rng = case_rng(0x0F79, case);
        let a: Vec<f32> = (0..6).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let b: Vec<f32> = (0..3).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let ta = Tensor::from_vec(a, &[2, 3]);
        let tb = Tensor::from_vec(b, &[3]);
        assert!(ta.add(&tb).allclose(&tb.add(&ta), 1e-6), "case {case}");
    }
}

#[test]
fn matmul_distributes_over_addition() {
    for case in 0..CASES {
        let mut rng = case_rng(0x0F7A, case);
        let mut mat = || -> Tensor {
            let v: Vec<f32> = (0..4).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            Tensor::from_vec(v, &[2, 2])
        };
        let (ta, tb, tc) = (mat(), mat(), mat());
        let lhs = ta.matmul(&tb.add(&tc));
        let rhs = ta.matmul(&tb).add(&ta.matmul(&tc));
        assert!(lhs.allclose(&rhs, 1e-3), "case {case}");
    }
}
