//! The product family's contract, pinned case by case. For every entry
//! point (`try_matmul`, `try_matmul_tb`, `try_matmul_ta`) and rank pair
//! the table fixes either the output shape and bits, or the error
//! variant, its op name and its message; and, with tracing on, the
//! `tensor.matmul.{calls,flops,bytes}` and `tensor.par.dispatches`
//! deltas of the one call.
//!
//! This is an integration-test binary so it owns the process-global
//! metrics registry: inside the crate's unit-test process every other
//! test's products would land in the same counters. Everything runs in
//! one `#[test]` for the same reason.

use ts3_tensor::{Tensor, TensorError};

#[derive(Clone, Copy, Debug)]
enum Op {
    Plain,
    Tb,
    Ta,
}

impl Op {
    fn name(self) -> &'static str {
        ["matmul", "matmul_tb", "matmul_ta"][self as usize]
    }

    fn run(self, a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
        [Tensor::try_matmul, Tensor::try_matmul_tb, Tensor::try_matmul_ta][self as usize](a, b)
    }
}

#[derive(Debug)]
enum Want {
    /// Output shape, then the counter deltas of the call:
    /// `(calls, flops, bytes, par dispatches)`; [`ANY`] pins nothing.
    Ok(&'static [usize], [u64; 4]),
    /// `TensorError::ShapeMismatch` naming the op.
    Mismatch,
    /// `TensorError::Invalid("{op}: unsupported rank combination ..")`.
    Rank,
}

use crate::Op::{Plain, Ta, Tb};
use crate::Want::{Mismatch, Ok as Out, Rank};

/// A counter delta the contract leaves open.
const ANY: u64 = u64::MAX;

/// `(op, lhs shape, rhs shape, expectation)`. Dims: batch 2, output
/// rows 3, shared 4, output columns 5 unless a row says otherwise.
const CASES: &[(Op, &[usize], &[usize], Want)] = &[
    // A @ B
    (Plain, &[3, 4], &[4, 5], Out(&[3, 5], [1, 120, 188, 1])),
    (Plain, &[3, 4], &[6, 5], Mismatch),
    (Plain, &[2, 3, 4], &[4, 5], Out(&[2, 3, 5], [1, 240, 296, 1])),
    (Plain, &[2, 3, 4], &[6, 5], Mismatch),
    (Plain, &[2, 3, 4], &[2, 4, 5], Out(&[2, 3, 5], [1, 240, 376, 1])),
    (Plain, &[2, 3, 4], &[2, 6, 5], Mismatch),
    (Plain, &[2, 3, 4], &[3, 4, 5], Mismatch),
    (Plain, &[3, 4], &[2, 4, 5], Rank),
    (Plain, &[3, 4], &[2, 6, 5], Rank),
    (Plain, &[2, 3, 4], &[4], Rank),
    (Plain, &[2, 3, 4], &[6], Rank),
    (Plain, &[3, 4], &[4], Rank),
    // A @ Bᵀ
    (Tb, &[3, 4], &[5, 4], Out(&[3, 5], [1, 120, 188, 1])),
    (Tb, &[3, 4], &[5, 6], Mismatch),
    (Tb, &[2, 3, 4], &[5, 4], Out(&[2, 3, 5], [1, 240, 296, 1])),
    (Tb, &[2, 3, 4], &[5, 6], Mismatch),
    (Tb, &[2, 3, 4], &[2, 5, 4], Out(&[2, 3, 5], [1, 240, 376, 1])),
    (Tb, &[2, 3, 4], &[2, 5, 6], Mismatch),
    (Tb, &[2, 3, 4], &[3, 5, 4], Mismatch),
    (Tb, &[3, 4], &[2, 5, 4], Rank),
    (Tb, &[3, 4], &[2, 5, 6], Rank),
    (Tb, &[2, 3, 4], &[4], Rank),
    (Tb, &[2, 3, 4], &[6], Rank),
    (Tb, &[3, 4], &[4], Rank),
    // Aᵀ @ B: the lhs is stored [shared, rows].
    (Ta, &[4, 3], &[4, 5], Out(&[3, 5], [1, 120, 188, 1])),
    (Ta, &[4, 3], &[6, 5], Mismatch),
    (Ta, &[2, 4, 3], &[4, 5], Rank),
    (Ta, &[2, 4, 3], &[6, 5], Rank),
    (Ta, &[2, 4, 3], &[2, 4, 5], Out(&[2, 3, 5], [1, 240, 376, 1])),
    (Ta, &[2, 4, 3], &[2, 6, 5], Mismatch),
    (Ta, &[2, 4, 3], &[3, 4, 5], Mismatch),
    (Ta, &[4, 3], &[2, 4, 5], Rank),
    (Ta, &[4, 3], &[2, 6, 5], Rank),
    (Ta, &[2, 4, 3], &[4], Rank),
    (Ta, &[2, 4, 3], &[6], Rank),
    (Ta, &[4, 3], &[4], Rank),
    // Empty outputs: counted as calls with no flops; whether the pool
    // is dispatched for no work is not part of the contract.
    (Plain, &[0, 3, 4], &[4, 5], Out(&[0, 3, 5], [1, 0, 80, ANY])),
    (Plain, &[3, 4], &[4, 0], Out(&[3, 0], [1, 0, 48, ANY])),
    (Plain, &[0, 3, 4], &[0, 4, 5], Out(&[0, 3, 5], [1, 0, 0, ANY])),
    (Plain, &[2, 0, 4], &[2, 4, 5], Out(&[2, 0, 5], [1, 0, 160, ANY])),
    (Tb, &[0, 3, 4], &[5, 4], Out(&[0, 3, 5], [1, 0, 80, ANY])),
    (Ta, &[0, 4, 3], &[0, 4, 5], Out(&[0, 3, 5], [1, 0, 0, ANY])),
    // Large enough that the pool splits the rows / the batch.
    (Plain, &[4, 16, 64], &[64, 32], Out(&[4, 16, 32], [1, 262_144, 32_768, 1])),
    (Tb, &[4, 16, 64], &[32, 64], Out(&[4, 16, 32], [1, 262_144, 32_768, 1])),
    (Plain, &[8, 16, 64], &[8, 64, 32], Out(&[8, 16, 32], [1, 524_288, 114_688, 1])),
    (Ta, &[8, 64, 16], &[8, 64, 32], Out(&[8, 16, 32], [1, 524_288, 114_688, 1])),
];

const COUNTERS: [&str; 4] =
    ["tensor.matmul.calls", "tensor.matmul.flops", "tensor.matmul.bytes", "tensor.par.dispatches"];

fn counters() -> [u64; 4] {
    let snap = ts3_obs::metrics_snapshot();
    COUNTERS.map(|name| snap.counters.iter().find(|(k, _)| *k == name).map_or(0, |(_, v)| *v))
}

/// The unblocked reference: for each output element, `mul_add` folds in
/// ascending shared index from zero — the bit contract of `gemm`.
fn reference(op: Op, a: &Tensor, b: &Tensor) -> Vec<u32> {
    let (ra, rb) = (a.shape().len(), b.shape().len());
    let batched = rb == 3;
    let batch = if ra == 3 { a.shape()[0] } else { 1 };
    let (ar, ac) = (a.shape()[ra - 2], a.shape()[ra - 1]);
    let (br, bc) = (b.shape()[rb - 2], b.shape()[rb - 1]);
    let (m, k) = if matches!(op, Op::Ta) { (ac, ar) } else { (ar, ac) };
    let n = if matches!(op, Op::Tb) { br } else { bc };
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut out = Vec::with_capacity(batch * m * n);
    for bi in 0..batch {
        let a0 = bi * ar * ac;
        let b0 = if batched { bi * br * bc } else { 0 };
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let ai = if matches!(op, Op::Ta) { p * ac + i } else { i * ac + p };
                    let bj = if matches!(op, Op::Tb) { j * bc + p } else { p * bc + j };
                    acc = av[a0 + ai].mul_add(bv[b0 + bj], acc);
                }
                out.push(acc.to_bits());
            }
        }
    }
    out
}

#[test]
fn every_product_case_keeps_its_shape_error_bits_and_counters() {
    ts3_obs::set_level(1);
    ts3_obs::reset();
    for (i, (op, ls, rs, want)) in CASES.iter().enumerate() {
        let a = Tensor::randn(ls, 2 * i as u64 + 1);
        let b = Tensor::randn(rs, 2 * i as u64 + 2);
        let before = counters();
        let got = op.run(&a, &b);
        let after = counters();
        let delta: [u64; 4] = std::array::from_fn(|c| after[c] - before[c]);
        let ctx = format!("case {i}: {op:?} {ls:?} @ {rs:?}");
        match (want, got) {
            (Out(shape, expect), Ok(t)) => {
                assert_eq!(t.shape(), *shape, "{ctx}");
                let delta = std::array::from_fn(|c| if expect[c] == ANY { ANY } else { delta[c] });
                assert_eq!(&delta, expect, "{ctx}: counter deltas {COUNTERS:?}");
                let bits: Vec<u32> = t.as_slice().iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits, reference(*op, &a, &b), "{ctx}: bits");
            }
            (Mismatch, Err(TensorError::ShapeMismatch { lhs, rhs, op: name })) => {
                assert_eq!(name, op.name(), "{ctx}");
                assert_eq!((&lhs[..], &rhs[..]), (*ls, *rs), "{ctx}");
                assert_eq!(delta, [0; 4], "{ctx}: a refused product counts nothing");
            }
            (Rank, Err(TensorError::Invalid(msg))) => {
                let (name, ra, rb) = (op.name(), ls.len(), rs.len());
                let expect = format!("{name}: unsupported rank combination {ra} @ {rb}");
                assert_eq!(msg, expect, "{ctx}");
                assert_eq!(delta, [0; 4], "{ctx}: a refused product counts nothing");
            }
            (want, got) => panic!("{ctx}: want {want:?}, got {got:?}"),
        }
    }
    ts3_obs::set_level(0);
    ts3_obs::reset();
}
