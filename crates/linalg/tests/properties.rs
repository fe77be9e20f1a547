//! Property-based tests of the dense and sparse kernels.

use deepoheat_linalg::{
    block_cg, BlockCgOptions, Cholesky, CooMatrix, JacobiPreconditioner, Matrix,
};
use proptest::prelude::*;

/// Strategy: a matrix with the given shape and entries in ±3.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f64..3.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized by construction"))
}

/// Strategy: a small SPD matrix built as `B Bᵀ + n·I`.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n, n).prop_map(move |b| {
        let mut a = b.matmul(&b.transpose()).expect("square");
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    })
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.iter().zip(b.iter()) {
        assert!((x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())), "{x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_associative(a in matrix(4, 3), b in matrix(3, 5), c in matrix(5, 2)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert_close(&left, &right, 1e-10);
    }

    #[test]
    fn matmul_distributes_over_addition(a in matrix(3, 4), b in matrix(4, 3), c in matrix(4, 3)) {
        let left = a.matmul(&b.add(&c).unwrap()).unwrap();
        let right = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        assert_close(&left, &right, 1e-10);
    }

    #[test]
    fn transpose_is_an_involution(a in matrix(5, 7)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_reverses_products(a in matrix(3, 4), b in matrix(4, 5)) {
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        assert_close(&left, &right, 1e-12);
    }

    #[test]
    fn matmul_transposed_matches_explicit(a in matrix(4, 6), b in matrix(5, 6)) {
        let fast = a.matmul_transposed(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_close(&fast, &slow, 1e-12);
    }

    #[test]
    fn cholesky_reconstructs(a in spd(6)) {
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.factor();
        let recon = l.matmul(&l.transpose()).unwrap();
        assert_close(&recon, &a, 1e-8);
    }

    #[test]
    fn cholesky_solve_inverts(a in spd(5), x in proptest::collection::vec(-2.0f64..2.0, 5)) {
        let chol = Cholesky::new(&a).unwrap();
        let b = a.matmul(&Matrix::column_vector(&x)).unwrap();
        let solved = chol.solve(b.as_slice()).unwrap();
        for (s, t) in solved.iter().zip(&x) {
            prop_assert!((s - t).abs() < 1e-7, "{s} vs {t}");
        }
    }

    #[test]
    fn cg_solves_random_spd(a_dense in spd(8), x in proptest::collection::vec(-2.0f64..2.0, 8)) {
        // Convert dense SPD to CSR.
        let mut coo = CooMatrix::new(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                coo.push(i, j, a_dense[(i, j)]);
            }
        }
        let a = coo.to_csr();
        let b = Matrix::from_vec(1, 8, a.spmv(&x).unwrap()).unwrap();
        let pre = JacobiPreconditioner::new(&a).unwrap();
        let out = block_cg(&a, &b, None, &pre, BlockCgOptions { max_iterations: 2000, tolerance: 1e-12, ..BlockCgOptions::default() }).unwrap();
        prop_assert!(out.all_converged(), "{:?}", out.columns);
        for (s, t) in out.solution.iter().zip(&x) {
            prop_assert!((s - t).abs() < 1e-6, "{s} vs {t}");
        }
    }

    #[test]
    fn csr_spmv_matches_dense(a in matrix(6, 6), x in proptest::collection::vec(-2.0f64..2.0, 6)) {
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            for j in 0..6 {
                if a[(i, j)].abs() > 1.0 {
                    coo.push(i, j, a[(i, j)]);
                }
            }
        }
        let csr = coo.to_csr();
        let sparse_y = csr.spmv(&x).unwrap();
        for i in 0..6 {
            let mut dense_y = 0.0;
            for j in 0..6 {
                if a[(i, j)].abs() > 1.0 {
                    dense_y += a[(i, j)] * x[j];
                }
            }
            prop_assert!((sparse_y[i] - dense_y).abs() < 1e-12);
        }
    }

    #[test]
    fn hadamard_is_commutative(a in matrix(4, 4), b in matrix(4, 4)) {
        prop_assert_eq!(a.hadamard(&b).unwrap(), b.hadamard(&a).unwrap());
    }

    #[test]
    fn frobenius_norm_is_subadditive(a in matrix(3, 5), b in matrix(3, 5)) {
        let sum = a.add(&b).unwrap();
        prop_assert!(sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-12);
    }
}
