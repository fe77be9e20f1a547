//! Bitwise-determinism property tests for the pooled kernels.
//!
//! The `deepoheat-parallel` contract promises that every kernel result is
//! bit-identical regardless of the pool's thread count: chunk boundaries
//! derive from problem size only, and reduction partials combine in chunk
//! order. These tests pin 1-, 2- and 8-thread pools over the same inputs
//! and compare `to_bits` — not approximate closeness — so any rounding
//! reorder fails loudly.

use deepoheat_linalg::{
    block_cg, dot, norm2, BlockCgOptions, CooMatrix, JacobiPreconditioner, Matrix,
};
use deepoheat_parallel::ThreadPool;
use proptest::prelude::*;

/// Runs `f` on 1/2/8-thread pools and asserts all results are bitwise
/// equal to the 1-thread (serial-fallback) result.
fn assert_bitwise_stable<T, F>(f: F) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    let p1 = ThreadPool::new(1);
    let p2 = ThreadPool::new(2);
    let p8 = ThreadPool::new(8);
    let r1 = p1.install(&f);
    let r2 = p2.install(&f);
    let r8 = p8.install(&f);
    assert_eq!(r1, r2, "2-thread pool diverged from serial");
    assert_eq!(r1, r8, "8-thread pool diverged from serial");
    r1
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn par_reduce_dot_is_bitwise_stable(
        full in proptest::collection::vec(-2.0f64..2.0, 100_000),
        len in 1usize..100_000,
    ) {
        // Variable lengths exercise the chunk tail; > VEC_CHUNK lengths
        // exercise multi-chunk reduction.
        let a = &full[..len];
        let b: Vec<f64> = a.iter().map(|x| x * 0.7 - 0.1).collect();
        assert_bitwise_stable(|| dot(a, &b).to_bits());
        assert_bitwise_stable(|| norm2(a).to_bits());
    }

    #[test]
    fn parallel_spmv_is_bitwise_stable(n in 2usize..40, seed in 0u64..1000) {
        // 7-point-Laplacian pattern, the workspace's real sparsity.
        let size = n * n;
        let mut coo = CooMatrix::new(size, size);
        for i in 0..size {
            coo.push(i, i, 4.0 + ((seed as usize + i) % 3) as f64);
            if i + 1 < size {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
            if i + n < size {
                coo.push(i, i + n, -1.0);
                coo.push(i + n, i, -1.0);
            }
        }
        let a = coo.to_csr();
        let x: Vec<f64> = (0..size).map(|i| ((i * 29 + seed as usize) % 13) as f64 * 0.1).collect();
        assert_bitwise_stable(|| bits(&a.spmv(&x).expect("shapes match")));
    }
}

#[test]
fn large_spmv_is_bitwise_stable_across_pools() {
    // Big enough (> SPMV_ROW_CHUNK = 2048 rows) that the pooled path
    // genuinely splits into multiple jobs.
    let n = 20_000usize;
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 3.0 + (i % 5) as f64 * 0.25);
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
            coo.push(i + 1, i, -1.0);
        }
    }
    let a = coo.to_csr();
    let x: Vec<f64> = (0..n).map(|i| ((i * 17) % 101) as f64 * 0.02 - 1.0).collect();
    assert_bitwise_stable(|| bits(&a.spmv(&x).expect("shapes match")));
}

#[test]
fn long_dot_and_norm_are_bitwise_stable_across_pools() {
    // > 3 × VEC_CHUNK elements: the reduction genuinely chunks.
    let n = 100_001usize;
    let a: Vec<f64> = (0..n).map(|i| ((i * 31) % 97) as f64 * 0.013 - 0.6).collect();
    let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 89) as f64 * 0.017 - 0.7).collect();
    assert_bitwise_stable(|| (dot(&a, &b).to_bits(), norm2(&a).to_bits()));
}

#[test]
fn matmul_is_bitwise_stable_across_pools() {
    // Above PARALLEL_MATMUL_THRESHOLD so the pooled path engages.
    let a = Matrix::from_fn(96, 64, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.3 - 1.0);
    let b = Matrix::from_fn(64, 96, |i, j| ((i * 5 + j * 13) % 17) as f64 * 0.2 - 1.5);
    assert_bitwise_stable(|| bits(a.matmul(&b).expect("shapes match").as_slice()));
    assert_bitwise_stable(|| bits(a.matmul_transposed(&a).expect("shapes match").as_slice()));
}

#[test]
fn full_cg_solve_is_bitwise_stable_across_pools() {
    // End-to-end: assembly-shaped SPD system, Jacobi-preconditioned CG on
    // one right-hand side. Iterates, iteration count and residual must all
    // match bitwise. The 1,728 unknowns fit in one `VEC_CHUNK`; the
    // `sparse_kernels` oracles cover the multi-chunk one-vector updates.
    let n = 12usize;
    let size = n * n * n;
    let idx = |i: usize, j: usize, k: usize| (k * n + j) * n + i;
    let mut coo = CooMatrix::new(size, size);
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let r = idx(i, j, k);
                coo.push(r, r, 6.5);
                for (ni, nj, nk) in [(i + 1, j, k), (i, j + 1, k), (i, j, k + 1)] {
                    if ni < n && nj < n && nk < n {
                        coo.push(r, idx(ni, nj, nk), -1.0);
                        coo.push(idx(ni, nj, nk), r, -1.0);
                    }
                }
            }
        }
    }
    let a = coo.to_csr();
    let b = Matrix::from_fn(1, size, |_, i| ((i * 13) % 7) as f64 * 0.1 + 0.5);
    let pc = JacobiPreconditioner::new(&a).expect("SPD diagonal");
    let options = BlockCgOptions { max_iterations: 5_000, tolerance: 1e-10, record_trace: false };
    assert_bitwise_stable(|| {
        let out = block_cg(&a, &b, None, &pc, options).expect("valid system");
        let column = out.columns[0];
        assert!(column.converged, "{column:?}");
        (column.iterations, column.relative_residual.to_bits(), bits(out.solution.as_slice()))
    });
}
