//! Bitwise oracle tests for the sparse kernels behind the reference solver.
//!
//! Two earlier implementations serve as references, kept here and nowhere
//! else:
//!
//! * a sort-based CSR build: `sort_unstable_by_key` on `(row, col)`, then
//!   adjacent duplicates summed — correct on duplicate-free input, but it
//!   may sum a row's duplicates out of push order;
//! * a full-row SSOR whose sweeps visit every stored entry and skip the
//!   ones on the wrong side of the diagonal.
//!
//! [`CooMatrix::to_csr`] must match the first bit for bit wherever that one
//! is well defined and sum duplicates in push order everywhere;
//! [`SsorPreconditioner`] must match the second bit for bit, one vector at
//! a time and in blocks of any width, on any pool.
//!
//! Under Miri the case counts and operator sizes shrink, like
//! `kernel_properties`; the code paths exercised stay the same.

use deepoheat_linalg::{
    block_cg, BlockCgOptions, CooMatrix, CsrMatrix, Matrix, Preconditioner, SsorPreconditioner,
};
use deepoheat_parallel::ThreadPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[cfg(miri)]
const CASES: u32 = 2;
#[cfg(not(miri))]
const CASES: u32 = 32;

/// Grid of the fdm-like operator: `(nx, ny, nz)`.
#[cfg(miri)]
const GRID: (usize, usize, usize) = (4, 3, 3);
#[cfg(not(miri))]
const GRID: (usize, usize, usize) = (9, 7, 5);

/// Rows of the push-order case.
#[cfg(miri)]
const ORDER_ROWS: usize = 200;
#[cfg(not(miri))]
const ORDER_ROWS: usize = 2000;

/// The sort-based CSR build: unstable sort by `(row, col)`, then runs of
/// one position summed left to right in sorted order.
fn reference_to_csr(rows: usize, cols: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut entries = entries.to_vec();
    entries.sort_unstable_by_key(|e| (e.0, e.1));
    let mut row_ptr = vec![0usize; rows + 1];
    let mut col_idx: Vec<usize> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    let mut last: Option<(usize, usize)> = None;
    for (r, c, v) in entries {
        if last == Some((r, c)) {
            *values.last_mut().expect("a repeated position follows a stored one") += v;
        } else {
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            values.push(v);
            last = Some((r, c));
        }
    }
    for r in 0..rows {
        row_ptr[r + 1] += row_ptr[r];
    }
    CsrMatrix::from_raw(rows, cols, row_ptr, col_idx, values).expect("sorted and merged")
}

/// The full-row SSOR: both sweeps walk whole rows and keep the entries on
/// the sweep's side of the diagonal, with a fresh buffer for `y`.
struct ReferenceSsor {
    a: CsrMatrix,
    diag: Vec<f64>,
    omega: f64,
}

impl ReferenceSsor {
    fn new(a: &CsrMatrix, omega: f64) -> Self {
        ReferenceSsor { a: a.clone(), diag: a.diagonal(), omega }
    }
}

impl Preconditioner for ReferenceSsor {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = self.diag.len();
        let w = self.omega;
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = r[i];
            for (c, v) in self.a.row_entries(i) {
                if c < i {
                    acc -= v * y[c];
                }
            }
            y[i] = acc * w / self.diag[i];
        }
        for i in 0..n {
            y[i] *= self.diag[i] / w;
        }
        for i in (0..n).rev() {
            let mut acc = y[i];
            for (c, v) in self.a.row_entries(i) {
                if c > i {
                    acc -= v * z[c];
                }
            }
            z[i] = acc * w / self.diag[i];
        }
    }
}

/// A preconditioner that forwards only `apply`, so `apply_rows` takes the
/// trait's per-row default.
struct ApplyOnly<'a>(&'a SsorPreconditioner);

impl Preconditioner for ApplyOnly<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.0.apply(r, z)
    }
}

/// Every stored entry as `(row, col, bits)`, in storage order.
fn csr_bits(a: &CsrMatrix) -> Vec<(usize, usize, u64)> {
    (0..a.rows()).flat_map(|r| a.row_entries(r).map(move |(c, v)| (r, c, v.to_bits()))).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A value mixing ordinary magnitudes with the bit-identity hazards:
/// signed zeros and values whose sums underflow.
fn value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u8..8) {
        0 => 0.0,
        1 => -0.0,
        2 => 1e-300,
        _ => rng.gen_range(-3.0..3.0),
    }
}

/// A random symmetric, strictly diagonally dominant matrix (so SPD) with
/// about `per_row` off-diagonal pairs per row, assembled with duplicate
/// pushes on the diagonal.
fn random_spd(n: usize, per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(n, n);
    let mut dominance = vec![0.0; n];
    for i in 0..n {
        for _ in 0..per_row {
            let j = rng.gen_range(0..n);
            if j == i {
                continue;
            }
            let v = -rng.gen_range(0.01..1.0);
            coo.push(i, j, v);
            coo.push(j, i, v);
            dominance[i] -= v;
            dominance[j] -= v;
        }
    }
    for (i, d) in dominance.into_iter().enumerate() {
        coo.push(i, i, d);
        coo.push(i, i, rng.gen_range(0.1..2.0));
    }
    coo.to_csr()
}

/// A finite-volume heat operator on a `GRID` mesh with random
/// conductivities, assembled like `deepoheat-fdm`: four pushes per link in
/// k-j-i order, the top face held at a fixed temperature (its rows
/// eliminated, so its neighbours keep only their diagonal share), and a
/// convective bottom face adding to the diagonal.
fn fdm_like_operator(seed: u64) -> CsrMatrix {
    let (nx, ny, nz) = GRID;
    let mut rng = StdRng::seed_from_u64(seed);
    let index = |i: usize, j: usize, k: usize| (k * ny + j) * nx + i;
    let conductivity: Vec<f64> = (0..nx * ny * nz).map(|_| rng.gen_range(0.1..150.0)).collect();
    let mut free = vec![None; nx * ny * nz];
    let mut n_free = 0;
    for k in 0..nz - 1 {
        for j in 0..ny {
            for i in 0..nx {
                free[index(i, j, k)] = Some(n_free);
                n_free += 1;
            }
        }
    }
    let mut coo = CooMatrix::new(n_free, n_free);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let a = index(i, j, k);
                let neighbours = [
                    (i + 1 < nx).then(|| (index(i + 1, j, k), 0.7)),
                    (j + 1 < ny).then(|| (index(i, j + 1, k), 1.1)),
                    (k + 1 < nz).then(|| (index(i, j, k + 1), 3.0)),
                ];
                for (b, geometry) in neighbours.into_iter().flatten() {
                    let (ka, kb) = (conductivity[a], conductivity[b]);
                    let g = 2.0 * ka * kb / (ka + kb) * geometry;
                    match (free[a], free[b]) {
                        (Some(ra), Some(rb)) => {
                            coo.push(ra, ra, g);
                            coo.push(rb, rb, g);
                            coo.push(ra, rb, -g);
                            coo.push(rb, ra, -g);
                        }
                        (Some(ra), None) => coo.push(ra, ra, g),
                        (None, Some(rb)) => coo.push(rb, rb, g),
                        (None, None) => {}
                    }
                }
            }
        }
    }
    for j in 0..ny {
        for i in 0..nx {
            if let Some(row) = free[index(i, j, 0)] {
                coo.push(row, row, 0.05);
            }
        }
    }
    coo.to_csr()
}

fn random_vector(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| value(rng)).collect()
}

fn assert_apply_matches_reference(a: &CsrMatrix, omega: f64, seed: u64) {
    let ssor = SsorPreconditioner::new(a, omega).expect("SPD fixture");
    let reference = ReferenceSsor::new(a, omega);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = a.rows();
    for _ in 0..3 {
        let r = random_vector(n, &mut rng);
        // Stale contents in `z` must not leak into the result.
        let mut got: Vec<f64> = (0..n).map(|i| i as f64 - 0.5).collect();
        let mut want = vec![0.0; n];
        ssor.apply(&r, &mut got);
        reference.apply(&r, &mut want);
        assert_eq!(bits(&got), bits(&want), "split SSOR diverged from the full-row reference");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn to_csr_matches_sort_reference_without_duplicates(
        rows in 0usize..40, cols in 0usize..40, fill in 0.0f64..0.6, seed in 0u64..1 << 48
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_range(0.0..1.0) < fill {
                    entries.push((r, c, value(&mut rng)));
                }
            }
        }
        // Push in a random order: rows interleaved, columns unsorted.
        for i in (1..entries.len()).rev() {
            entries.swap(i, rng.gen_range(0..=i));
        }
        let mut coo = CooMatrix::new(rows, cols);
        for &(r, c, v) in &entries {
            coo.push(r, c, v);
        }
        let (built, reference) = (coo.to_csr(), reference_to_csr(rows, cols, &entries));
        prop_assert_eq!(built.shape(), reference.shape());
        prop_assert_eq!(csr_bits(&built), csr_bits(&reference));
    }

    #[test]
    fn split_ssor_matches_full_row_reference_on_random_spd(
        n in 1usize..60, per_row in 0usize..5, omega in 0.2f64..1.9, seed in 0u64..1 << 48
    ) {
        assert_apply_matches_reference(&random_spd(n, per_row, seed), omega, seed ^ 1);
    }

    #[test]
    fn split_ssor_matches_full_row_reference_on_fdm_operator(
        omega in 0.2f64..1.9, seed in 0u64..1 << 48
    ) {
        assert_apply_matches_reference(&fdm_like_operator(seed), omega, seed ^ 2);
    }
}

#[test]
fn to_csr_sums_duplicates_in_push_order() {
    // Three pushes per diagonal position whose sum depends on the order:
    // (1 + 2⁵³) − 2⁵³ = 0 but (2⁵³ − 2⁵³) + 1 = 1. Each row pushes them in
    // its own order, and the rows' pushes are interleaved.
    let big = 2f64.powi(53);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut pushes: Vec<(usize, usize, f64)> = Vec::new();
    for r in 0..ORDER_ROWS {
        let mut three = [1.0, big, -big];
        for i in (1..3).rev() {
            three.swap(i, rng.gen_range(0..=i));
        }
        pushes.extend(three.iter().map(|&v| (r, r, v)));
        // An off-diagonal neighbour so rows are not all alike.
        pushes.push((r, (r + 1) % ORDER_ROWS, -0.5));
    }
    for i in (1..pushes.len()).rev() {
        pushes.swap(i, rng.gen_range(0..=i));
    }
    let mut coo = CooMatrix::new(ORDER_ROWS, ORDER_ROWS);
    for &(r, c, v) in &pushes {
        coo.push(r, c, v);
    }
    let csr = coo.to_csr();
    let mut order_sensitive = 0;
    for r in 0..ORDER_ROWS {
        let mut in_order = pushes.iter().filter(|p| p.0 == r && p.1 == r).map(|p| p.2);
        let first = in_order.next().expect("three pushes per row");
        let want = in_order.fold(first, |acc, v| acc + v);
        assert_eq!(csr.get(r, r).to_bits(), want.to_bits(), "row {r} summed out of push order");
        order_sensitive += usize::from(want == 0.0);
    }
    // Both outcomes occur, so the check above can tell orders apart.
    assert!(order_sensitive > 0 && order_sensitive < ORDER_ROWS);
}

#[test]
fn to_csr_handles_empty_rows_unsorted_pushes_and_empty_matrices() {
    let mut coo = CooMatrix::new(5, 4);
    coo.push(3, 3, 1.0);
    coo.push(3, 0, 2.0);
    coo.push(0, 2, -1.0);
    coo.push(3, 1, 0.5);
    coo.push(0, 1, 4.0);
    coo.push(3, 0, -2.0);
    let csr = coo.to_csr();
    assert_eq!(
        csr_bits(&csr),
        vec![
            (0, 1, 4f64.to_bits()),
            (0, 2, (-1f64).to_bits()),
            (3, 0, 0f64.to_bits()),
            (3, 1, 0.5f64.to_bits()),
            (3, 3, 1f64.to_bits()),
        ]
    );
    assert!(csr.row_entries(1).next().is_none() && csr.row_entries(4).next().is_none());
    assert_eq!(csr.spmv(&[1.0; 4]).unwrap(), vec![3.0, 0.0, 0.0, 1.5, 0.0]);

    let empty = CooMatrix::new(0, 0).to_csr();
    assert_eq!((empty.shape(), empty.nnz()), ((0, 0), 0));
    assert!(empty.spmv(&[]).unwrap().is_empty());
    let no_entries = CooMatrix::new(3, 2).to_csr();
    assert_eq!((no_entries.shape(), no_entries.nnz()), ((3, 2), 0));
    assert_eq!(no_entries.diagonal(), vec![0.0, 0.0]);
}

#[test]
fn apply_rows_matches_per_row_apply_at_every_width_and_pool() {
    let a = fdm_like_operator(7);
    let ssor = SsorPreconditioner::new(&a, 1.5).expect("SPD fixture");
    let n = a.rows();
    let mut rng = StdRng::seed_from_u64(11);
    for threads in [1, 4] {
        let pool = ThreadPool::new(threads);
        for width in 1..=9 {
            let r = Matrix::from_fn(width, n, |_, _| value(&mut rng));
            let mut z = Matrix::filled(width, n, f64::NAN);
            pool.install(|| ssor.apply_rows(&r, &mut z));
            for i in 0..width {
                let mut zi = vec![0.0; n];
                ssor.apply(r.row(i), &mut zi);
                assert_eq!(
                    bits(z.row(i)),
                    bits(&zi),
                    "{threads} threads, width {width}: row {i} differs from apply"
                );
            }
        }
    }
}

#[test]
fn block_cg_with_ssor_matches_an_apply_only_preconditioner() {
    let a = fdm_like_operator(3);
    let ssor = SsorPreconditioner::new(&a, 1.5).expect("SPD fixture");
    let mut rng = StdRng::seed_from_u64(5);
    for width in [1, 5, 8] {
        let b = Matrix::from_fn(width, a.rows(), |_, _| rng.gen_range(-1.0..1.0));
        let options = BlockCgOptions { record_trace: true, ..BlockCgOptions::default() };
        let blocked = block_cg(&a, &b, None, &ssor, options).expect("valid block");
        let per_row = block_cg(&a, &b, None, &ApplyOnly(&ssor), options).expect("valid block");
        assert!(blocked.all_converged(), "width {width}: {:?}", blocked.columns);
        assert_eq!(bits(blocked.solution.as_slice()), bits(per_row.solution.as_slice()));
        assert_eq!(blocked.columns, per_row.columns);
        assert_eq!(blocked.iterations, per_row.iterations);
        assert_eq!(blocked.trace, per_row.trace);
    }
}
