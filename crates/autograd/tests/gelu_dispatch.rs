//! GELU and tanh give the same bits on the AVX2 kernel and under
//! `TS3_SIMD=0`, forward and backward.
//!
//! One `#[test]` owns the process-global dispatch toggle, so nothing in
//! this binary changes it underneath the comparison.

use ts3_autograd::{Param, Var};
use ts3_tensor::simd::{avx2_active, set_simd_enabled};
use ts3_tensor::Tensor;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// GELU value, its gradient through a weighted sum, and `tanh`.
fn run(x: &Tensor, w: &Tensor) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let p = Param::new("x", x.clone());
    let y = p.var().gelu();
    y.mul(&Var::constant(w.clone())).sum().backward();
    let grad = bits(&p.grad());
    (bits(y.value()), grad, bits(&x.tanh()))
}

#[test]
fn gelu_and_its_backward_match_across_dispatch() {
    set_simd_enabled(true);
    if !avx2_active() {
        eprintln!("gelu_dispatch: no AVX2+FMA on this host, skipping");
        return;
    }
    // 8·8·8·96 is the TF-Block's hidden plane; 3·5·7 leaves a ragged
    // tail for the scalar twin. Scaled so some inputs reach tanh's
    // saturated and tiny ranges.
    for (shape, scale) in [(&[8, 8, 8, 96][..], 3.0), (&[3, 5, 7][..], 12.0)] {
        let x = Tensor::randn(shape, 21).mul_scalar(scale);
        let w = Tensor::randn(shape, 22);
        set_simd_enabled(false);
        let scalar = run(&x, &w);
        set_simd_enabled(true);
        let simd = run(&x, &w);
        assert_eq!(scalar.0, simd.0, "gelu forward at {shape:?}");
        assert_eq!(scalar.1, simd.1, "gelu backward at {shape:?}");
        assert_eq!(scalar.2, simd.2, "tanh at {shape:?}");
    }
    set_simd_enabled(true);
}
