//! Differentiable matrix multiplication for the rank combinations the
//! model zoo uses: `[m,k]@[k,n]`, `[b,m,k]@[k,n]` and `[b,m,k]@[b,k,n]`.

use crate::var::Var;

impl Var {
    /// Matrix multiplication; see [`ts3_tensor::Tensor::try_matmul`] for
    /// the supported rank combinations.
    pub fn matmul(&self, rhs: &Var) -> Var {
        let value = self.value().matmul(rhs.value());
        Var::node(
            value,
            vec![self.clone(), rhs.clone()],
            Box::new(|g, parents| {
                let a = parents[0].value();
                let b = parents[1].value();
                // The transposed GEMM entry points (`matmul_tb`/`matmul_ta`)
                // consume A/B through strided views, so no transpose is
                // ever materialised on the backward path.
                match (a.rank(), b.rank()) {
                    (2, 2) | (3, 3) => {
                        let ga = g.matmul_tb(b); // G @ Bᵀ
                        let gb = a.matmul_ta(g); // Aᵀ @ G
                        vec![Some(ga), Some(gb)]
                    }
                    (3, 2) => {
                        // A: [bt,m,k], B: [k,n], G: [bt,m,n]
                        let ga = g.matmul_tb(b); // [bt,m,k]
                        let gb = a.matmul_ta_flat(g); // [bt·m,k]ᵀ @ [bt·m,n] = [k,n]
                        vec![Some(ga), Some(gb)]
                    }
                    // ts3-lint: allow(no-unwrap-in-lib) rank combinations are fixed by the forward op; this arm is a documented contract violation
                    (ra, rb) => panic!("matmul backward: unsupported ranks {ra}/{rb}"),
                }
            }),
        )
    }

    /// `self @ rhsᵀ` without materialising the transpose, forward or
    /// backward; see [`ts3_tensor::Tensor::try_matmul_tb`] for the
    /// supported rank combinations. Bit-identical to
    /// `self.matmul(&rhs.transpose())` with a cheaper graph (no
    /// transpose node, strided GEMM views in both directions).
    pub fn matmul_tb(&self, rhs: &Var) -> Var {
        let value = self.value().matmul_tb(rhs.value());
        Var::node(
            value,
            vec![self.clone(), rhs.clone()],
            Box::new(|g, parents| {
                let a = parents[0].value();
                let b = parents[1].value();
                // y = A @ Bᵀ  =>  dA = G @ B, dB = Gᵀ @ A.
                match (a.rank(), b.rank()) {
                    (2, 2) | (3, 3) => {
                        let ga = g.matmul(b);
                        let gb = g.matmul_ta(a);
                        vec![Some(ga), Some(gb)]
                    }
                    (3, 2) => {
                        // A: [bt,m,k], B: [n,k], G: [bt,m,n]
                        let ga = g.matmul(b); // [bt,m,k]
                        let gb = g.matmul_ta_flat(a); // [bt·m,n]ᵀ @ [bt·m,k] = [n,k]
                        vec![Some(ga), Some(gb)]
                    }
                    // ts3-lint: allow(no-unwrap-in-lib) rank combinations are fixed by the forward op; this arm is a documented contract violation
                    (ra, rb) => panic!("matmul_tb backward: unsupported ranks {ra}/{rb}"),
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts3_tensor::Tensor;

    fn leaf(v: Vec<f32>, s: &[usize]) -> Var {
        Var::constant(Tensor::from_vec(v, s))
    }

    #[test]
    fn matmul_2d_grads() {
        // y = sum(A @ B); dA = 1 @ B^T, dB = A^T @ 1.
        let a = leaf(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = leaf(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        a.matmul(&b).sum().backward();
        // dA[i][p] = sum_j B[p][j]
        assert_eq!(a.grad().unwrap().as_slice(), &[11.0, 15.0, 11.0, 15.0]);
        // dB[p][j] = sum_i A[i][p]
        assert_eq!(b.grad().unwrap().as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn matmul_3d_2d_grads() {
        let a = leaf((0..12).map(|v| v as f32).collect(), &[2, 2, 3]);
        let b = leaf(vec![1.0; 6], &[3, 2]);
        let y = a.matmul(&b);
        assert_eq!(y.shape(), &[2, 2, 2]);
        y.sum().backward();
        // Each element of A contributes to 2 outputs with weight 1.
        assert_eq!(a.grad().unwrap().as_slice(), &[2.0; 12]);
        // dB[p][j] = sum over batch & rows of A[.,.,p] = (0+3+6+9, 1+4+7+10, 2+5+8+11)
        assert_eq!(b.grad().unwrap().as_slice(), &[18.0, 18.0, 22.0, 22.0, 26.0, 26.0]);
    }

    #[test]
    fn matmul_3d_3d_grads() {
        let a = leaf(vec![1.0, 2.0, 3.0, 4.0], &[2, 1, 2]);
        let b = leaf(vec![1.0, 0.0, 0.0, 2.0], &[2, 2, 1]);
        let y = a.matmul(&b);
        assert_eq!(y.shape(), &[2, 1, 1]);
        assert_eq!(y.value().as_slice(), &[1.0, 8.0]);
        y.sum().backward();
        assert_eq!(a.grad().unwrap().as_slice(), &[1.0, 0.0, 0.0, 2.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn matmul_tb_grads_match_explicit_transpose() {
        // y = A @ Bᵀ via the fused op must give the same value and
        // parent gradients as the materialised-transpose formulation.
        let av: Vec<f32> = (0..12).map(|v| (v as f32 * 0.7).sin()).collect();
        let bv: Vec<f32> = (0..8).map(|v| (v as f32 * 0.3).cos()).collect();
        let a1 = leaf(av.clone(), &[3, 4]);
        let b1 = leaf(bv.clone(), &[2, 4]);
        let y1 = a1.matmul_tb(&b1);
        y1.sum().backward();
        let a2 = leaf(av, &[3, 4]);
        let b2 = leaf(bv, &[2, 4]);
        let y2 = a2.matmul(&b2.transpose());
        y2.sum().backward();
        assert_eq!(y1.value().as_slice(), y2.value().as_slice());
        assert_eq!(a1.grad().unwrap().as_slice(), a2.grad().unwrap().as_slice());
        assert_eq!(b1.grad().unwrap().as_slice(), b2.grad().unwrap().as_slice());

        // Batched (3,3) arm, as used by attention scores.
        let qv: Vec<f32> = (0..24).map(|v| (v as f32 * 0.11).sin()).collect();
        let kv: Vec<f32> = (0..30).map(|v| (v as f32 * 0.17).cos()).collect();
        let q1 = leaf(qv.clone(), &[2, 4, 3]);
        let k1 = leaf(kv.clone(), &[2, 5, 3]);
        let s1 = q1.matmul_tb(&k1);
        s1.sum().backward();
        let q2 = leaf(qv, &[2, 4, 3]);
        let k2 = leaf(kv, &[2, 5, 3]);
        let s2 = q2.matmul(&k2.transpose());
        s2.sum().backward();
        assert_eq!(s1.value().as_slice(), s2.value().as_slice());
        assert_eq!(q1.grad().unwrap().as_slice(), q2.grad().unwrap().as_slice());
        assert_eq!(k1.grad().unwrap().as_slice(), k2.grad().unwrap().as_slice());
    }

    #[test]
    fn linear_regression_converges_one_step_direction() {
        // Check the gradient points downhill: loss must drop after a small
        // step along -grad.
        let w = crate::Param::new("w", Tensor::from_vec(vec![0.0, 0.0], &[2, 1]));
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]);
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3, 1]);
        let loss = |wp: &crate::Param| {
            let xv = Var::constant(x.clone());
            xv.matmul(&wp.var()).mse_loss(&t)
        };
        let l0 = loss(&w);
        l0.backward();
        w.update_with(|v, g| v.axpy(-0.1, g));
        let l1 = loss(&w);
        assert!(l1.value().item() < l0.value().item());
    }
}
