//! Matrix multiplication kernels.
//!
//! The variants cover everything the NN layers need without ever
//! materializing a transpose:
//!
//! * `matmul(a, b)`              — `C = A · B`       (forward pass)
//! * `matmul_transpose_b(a, b)`  — `C = A · Bᵀ`      (Linear/LSTM forward)
//! * `matmul_transpose_a(a, b)`  — `C = Aᵀ · B`      (weight gradients)
//!
//! plus `_into` (overwrite) and `_acc` (accumulate) forms that write into
//! caller-provided tensors so hot loops allocate nothing.
//!
//! Every variant routes through the packed, register-blocked engine in
//! [`crate::gemm`] — one kernel, one blocking scheme, one tile schedule. It
//! runs on the calling thread (see [`crate::parallel`]), so results depend
//! only on the operands and the dispatch tier.
//!
//! # Accumulation policy
//!
//! All variants accumulate in **f32** inside the microkernel's register
//! tile. Before the unification, `matmul_transpose_b` accumulated in f64
//! while the other kernels used f32 axpy — gradients and activations saw
//! different rounding. The single policy is f32: error grows `O(√k · ε)`
//! on real data (see `large_k_accumulation_stays_close_to_f64` below),
//! which is negligible against SGD noise at these layer sizes. The FedCA
//! progress metric (Eq. 1) keeps f64 accumulation via `linalg::dot`, where
//! whole-model reductions make precision load-bearing.

use crate::gemm::gemm_acc;
use crate::tensor::Tensor;

fn check_2d(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.shape().rank(), 2, "{what} must be 2-D, got {}", t.shape());
    (t.shape().dim(0), t.shape().dim(1))
}

/// `C += A · B` for row-major 2-D tensors, writing into an existing output
/// buffer (which must be zeroed or otherwise pre-filled by the caller —
/// values are *accumulated*).
///
/// # Panics
/// Panics on rank or dimension mismatch.
pub fn matmul_acc_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = check_2d(a, "matmul lhs");
    let (k2, n) = check_2d(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
    let (m2, n2) = check_2d(out, "matmul out");
    assert_eq!((m, n), (m2, n2), "matmul out shape mismatch");
    gemm_acc(
        false,
        false,
        m,
        n,
        k,
        a.as_slice(),
        b.as_slice(),
        out.as_mut_slice(),
    );
}

/// `C = A · B`, allocating the output.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, _) = check_2d(a, "matmul lhs");
    let (_, n) = check_2d(b, "matmul rhs");
    let mut out = Tensor::zeros([m, n]);
    matmul_acc_into(a, b, &mut out);
    out
}

/// `C = A · B` into a caller-provided tensor (overwritten).
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    out.fill_zero();
    matmul_acc_into(a, b, out);
}

/// `C += A · Bᵀ` where `A: [m,k]`, `B: [n,k]`, accumulating into `C: [m,n]`.
pub fn matmul_transpose_b_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = check_2d(a, "matmul_transpose_b lhs");
    let (n, k2) = check_2d(b, "matmul_transpose_b rhs");
    assert_eq!(k, k2, "matmul_transpose_b inner dims differ: {k} vs {k2}");
    let (m2, n2) = check_2d(out, "matmul_transpose_b out");
    assert_eq!((m, n), (m2, n2), "matmul_transpose_b out shape mismatch");
    gemm_acc(
        false,
        true,
        m,
        n,
        k,
        a.as_slice(),
        b.as_slice(),
        out.as_mut_slice(),
    );
}

/// `C = A · Bᵀ` into a caller-provided tensor (overwritten).
pub fn matmul_transpose_b_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    out.fill_zero();
    matmul_transpose_b_acc(a, b, out);
}

/// `C = A · Bᵀ` where `A: [m,k]`, `B: [n,k]`, producing `C: [m,n]`.
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, _) = check_2d(a, "matmul_transpose_b lhs");
    let (n, _) = check_2d(b, "matmul_transpose_b rhs");
    let mut out = Tensor::zeros([m, n]);
    matmul_transpose_b_acc(a, b, &mut out);
    out
}

/// `C += Aᵀ · B` where `A: [k,m]`, `B: [k,n]`, producing/accumulating into
/// `C: [m,n]`. Accumulation (rather than overwrite) matches its use for
/// gradient accumulation across a batch.
pub fn matmul_transpose_a_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (k, m) = check_2d(a, "matmul_transpose_a lhs");
    let (k2, n) = check_2d(b, "matmul_transpose_a rhs");
    assert_eq!(k, k2, "matmul_transpose_a inner dims differ: {k} vs {k2}");
    let (m2, n2) = check_2d(out, "matmul_transpose_a out");
    assert_eq!((m, n), (m2, n2), "matmul_transpose_a out shape mismatch");
    gemm_acc(
        true,
        false,
        m,
        n,
        k,
        a.as_slice(),
        b.as_slice(),
        out.as_mut_slice(),
    );
}

/// `C = Aᵀ · B` into a caller-provided tensor (overwritten).
pub fn matmul_transpose_a_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    out.fill_zero();
    matmul_transpose_a_acc(a, b, out);
}

/// `C = Aᵀ · B`, allocating the output.
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Tensor {
    let (_, m) = check_2d(a, "matmul_transpose_a lhs");
    let (_, n) = check_2d(b, "matmul_transpose_a rhs");
    let mut out = Tensor::zeros([m, n]);
    matmul_transpose_a_acc(a, b, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for kk in 0..k {
                    s += a.at(&[i, kk]) as f64 * b.at(&[kk, j]) as f64;
                }
                *out.at_mut(&[i, j]) = s as f32;
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (7, 5, 9), (16, 16, 16), (33, 17, 29)] {
            let a = Tensor::randn([m, k], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            assert_close(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-5);
        }
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Tensor::randn([5, 5], 1.0, &mut rng);
        let mut eye = Tensor::zeros([5, 5]);
        for i in 0..5 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        assert_close(&matmul(&a, &eye), &a, 1e-6);
        assert_close(&matmul(&eye, &a), &a, 1e-6);
    }

    #[test]
    fn matmul_zero_dims() {
        let a = Tensor::zeros([0, 3]);
        let b = Tensor::zeros([3, 2]);
        assert_eq!(matmul(&a, &b).dims(), &[0, 2]);
        let a = Tensor::zeros([2, 0]);
        let b = Tensor::zeros([0, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.sum(), 0.0);
    }

    #[test]
    fn transpose_b_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Tensor::randn([4, 6], 1.0, &mut rng);
        let b = Tensor::randn([3, 6], 1.0, &mut rng);
        // Build Bᵀ explicitly and compare.
        let mut bt = Tensor::zeros([6, 3]);
        for i in 0..3 {
            for j in 0..6 {
                *bt.at_mut(&[j, i]) = b.at(&[i, j]);
            }
        }
        assert_close(&matmul_transpose_b(&a, &b), &matmul(&a, &bt), 1e-5);
    }

    #[test]
    fn transpose_a_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = Tensor::randn([6, 4], 1.0, &mut rng);
        let b = Tensor::randn([6, 3], 1.0, &mut rng);
        let mut at = Tensor::zeros([4, 6]);
        for i in 0..6 {
            for j in 0..4 {
                *at.at_mut(&[j, i]) = a.at(&[i, j]);
            }
        }
        assert_close(&matmul_transpose_a(&a, &b), &matmul(&at, &b), 1e-5);
    }

    #[test]
    fn transpose_a_acc_accumulates() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::randn([3, 2], 1.0, &mut rng);
        let b = Tensor::randn([3, 5], 1.0, &mut rng);
        let once = matmul_transpose_a(&a, &b);
        let mut twice = matmul_transpose_a(&a, &b);
        matmul_transpose_a_acc(&a, &b, &mut twice);
        let mut expected = once.clone();
        expected.add_assign(&once);
        assert_close(&twice, &expected, 1e-5);
    }

    #[test]
    fn transpose_b_acc_and_into_variants_agree() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Tensor::randn([4, 7], 1.0, &mut rng);
        let b = Tensor::randn([5, 7], 1.0, &mut rng);
        let base = matmul_transpose_b(&a, &b);

        let mut into = Tensor::full([4, 5], 3.0); // stale contents overwritten
        matmul_transpose_b_into(&a, &b, &mut into);
        assert_eq!(into, base);

        let mut acc = base.clone();
        matmul_transpose_b_acc(&a, &b, &mut acc);
        let mut expected = base.clone();
        expected.add_assign(&base);
        assert_close(&acc, &expected, 1e-5);

        let a_tall = Tensor::randn([7, 4], 1.0, &mut rng); // [k=7, m=4]
        let b2 = Tensor::randn([7, 5], 1.0, &mut rng);
        let ta = matmul_transpose_a(&a_tall, &b2);
        let mut ta_into = Tensor::full([4, 5], -2.0);
        matmul_transpose_a_into(&a_tall, &b2, &mut ta_into);
        assert_eq!(ta_into, ta);
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn matmul_rejects_dim_mismatch() {
        let _ = matmul(&Tensor::zeros([2, 3]), &Tensor::zeros([4, 2]));
    }

    #[test]
    fn large_multi_block_matmul_agrees() {
        // Over a million multiply-adds across two MC row blocks: a
        // layer-sized GEMM, well past the tile-edge shapes tested above.
        let mut rng = StdRng::seed_from_u64(8);
        let a = Tensor::randn([128, 96], 1.0, &mut rng);
        let b = Tensor::randn([96, 112], 1.0, &mut rng);
        assert_close(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-4);
    }

    #[test]
    fn large_k_accumulation_stays_close_to_f64() {
        // Pins the documented f32 accumulation policy: at k = 8192 the
        // blocked f32 sums must stay within O(√k·ε) of an f64 reference,
        // for every transpose variant.
        let k = 8192;
        let mut rng = StdRng::seed_from_u64(9);
        let a = Tensor::randn([2, k], 1.0, &mut rng);
        let b = Tensor::randn([k, 3], 1.0, &mut rng);
        assert_close(&matmul(&a, &b), &naive_matmul(&a, &b), 1e-4);

        // A·Bᵀ with B: [3, k] equals A·(explicit Bᵀ).
        let bt_rows = Tensor::randn([3, k], 1.0, &mut rng);
        let mut bt = Tensor::zeros([k, 3]);
        for i in 0..3 {
            for j in 0..k {
                *bt.at_mut(&[j, i]) = bt_rows.at(&[i, j]);
            }
        }
        assert_close(
            &matmul_transpose_b(&a, &bt_rows),
            &naive_matmul(&a, &bt),
            1e-4,
        );

        // Aᵀ·B with A: [k, 2].
        let a_tall = Tensor::randn([k, 2], 1.0, &mut rng);
        let mut at = Tensor::zeros([2, k]);
        for i in 0..k {
            for j in 0..2 {
                *at.at_mut(&[j, i]) = a_tall.at(&[i, j]);
            }
        }
        assert_close(
            &matmul_transpose_a(&a_tall, &b),
            &naive_matmul(&at, &b),
            1e-4,
        );
    }
}
