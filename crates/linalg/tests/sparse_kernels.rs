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
//! a time and in blocks of any width, on any pool. Its operators include
//! the `ssor_fixtures` family: grid operators whose sweeps take the
//! wavefront schedule (depths 1 to 9, a fixed side face, a short last
//! block) and operators whose sweeps keep the natural order.
//!
//! The block kernels block CG runs on are checked against the per-column
//! kernels they stand for, bit for bit, on 1-, 2- and 4-thread pools:
//! [`gram`] against [`dot`] per entry, [`row_norms`] against [`norm2`],
//! the fused updates against [`Matrix::matmul`] plus an elementwise add,
//! subtract or `z + w`, and [`CsrMatrix::spmm_into`] against
//! [`CsrMatrix::spmv_into`] per row. Their row lengths cross a
//! [`VEC_CHUNK`] boundary and the pool bands, and their inputs carry
//! `-0.0` products and, in a second round, one non-finite entry.
//!
//! Under Miri the case counts and operator sizes shrink, like
//! `kernel_properties`; the code paths exercised stay the same.

use deepoheat_linalg::{
    add_product, block_cg, direction_update, dot, gram, norm2, row_norms, sub_product,
    BlockCgOptions, CooMatrix, CsrMatrix, Matrix, Preconditioner, SsorPreconditioner, VEC_CHUNK,
};
use deepoheat_parallel::ThreadPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod ssor_fixtures;

#[cfg(miri)]
const CASES: u32 = 2;
#[cfg(not(miri))]
const CASES: u32 = 32;

/// Grid of the fdm-like operator: `(nx, ny, nz)`.
#[cfg(miri)]
const GRID: (usize, usize, usize) = (4, 3, 3);
#[cfg(not(miri))]
const GRID: (usize, usize, usize) = (9, 7, 5);

/// Row lengths of the block-kernel oracles: empty, one, a few, and (outside
/// Miri) one that crosses a `VEC_CHUNK` boundary and several pool bands.
#[cfg(miri)]
const ROW_LENGTHS: [usize; 4] = [0, 1, 7, 70];
#[cfg(not(miri))]
const ROW_LENGTHS: [usize; 4] = [0, 1, 7, VEC_CHUNK + 517];

/// Block heights of the block-kernel oracles: every lane group of 8, 4, 2
/// and 1 lanes, one more than a full group, and two groups plus one.
#[cfg(miri)]
const BLOCK_ROWS: [usize; 4] = [1, 3, 5, 9];
#[cfg(not(miri))]
const BLOCK_ROWS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 17];

/// Pool widths every block kernel must agree across.
const POOLS: [usize; 3] = [1, 2, 4];

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

/// A finite-volume heat operator on a `GRID` mesh (see
/// [`ssor_fixtures::grid_operator`]) with its top face held at a fixed
/// temperature.
fn fdm_like_operator(seed: u64) -> CsrMatrix {
    let nz = GRID.2;
    ssor_fixtures::grid_operator(GRID, |_, _, k| k == nz - 1, seed)
}

fn random_vector(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| value(rng)).collect()
}

fn assert_apply_matches_reference(a: &CsrMatrix, omega: f64, seed: u64, what: &str) {
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
        assert_eq!(
            bits(&got),
            bits(&want),
            "{what}: split SSOR diverged from the full-row reference"
        );
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
        assert_apply_matches_reference(&random_spd(n, per_row, seed), omega, seed ^ 1, "random SPD");
    }

    #[test]
    fn split_ssor_matches_full_row_reference_on_fdm_operator(
        omega in 0.2f64..1.9, seed in 0u64..1 << 48
    ) {
        assert_apply_matches_reference(&fdm_like_operator(seed), omega, seed ^ 2, "fdm operator");
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

#[test]
fn ssor_matches_the_full_row_reference_on_every_plan_fixture() {
    // The grid family takes the wavefront schedule and the rest the
    // natural order; `cg::tests` checks which fixture takes which.
    for (case, fixture) in ssor_fixtures::fixtures().into_iter().enumerate() {
        let a = &fixture.matrix;
        let what = format!("{} (plan {:?})", fixture.name, fixture.block);
        let ssor = SsorPreconditioner::new(a, 1.3).expect("SPD fixture");
        let reference = ReferenceSsor::new(a, 1.3);
        let n = a.rows();
        on_each_pool(|threads| {
            assert_apply_matches_reference(
                a,
                1.3,
                case as u64,
                &format!("{what}, {threads} threads"),
            );
            let mut rng = StdRng::seed_from_u64(case as u64);
            for &width in &BLOCK_ROWS {
                let r = Matrix::from_fn(width, n, |_, _| value(&mut rng));
                let mut z = Matrix::filled(width, n, f64::NAN);
                ssor.apply_rows(&r, &mut z);
                for i in 0..width {
                    let mut want = vec![0.0; n];
                    reference.apply(r.row(i), &mut want);
                    assert_eq!(
                        bits(z.row(i)),
                        bits(&want),
                        "{what}: width {width}, row {i} on {threads} threads"
                    );
                }
            }
        });
    }
}

/// A `rows × cols` block of [`value`]s; with `poison`, one entry (chosen by
/// the seed) is `+∞`, `−∞` or NaN instead.
fn block(rows: usize, cols: usize, seed: u64, poison: bool) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Matrix::from_fn(rows, cols, |_, _| value(&mut rng));
    if poison && rows * cols > 0 {
        let at = rng.gen_range(0..rows * cols);
        m.as_mut_slice()[at] =
            [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)];
    }
    m
}

/// Runs `f` on every pool of [`POOLS`].
fn on_each_pool(mut f: impl FnMut(usize)) {
    for threads in POOLS {
        ThreadPool::new(threads).install(|| f(threads));
    }
}

#[test]
fn block_kernels_gram_entries_match_dot() {
    for (case, &n) in ROW_LENGTHS.iter().enumerate() {
        for poison in [false, true] {
            for &k in &BLOCK_ROWS {
                // Square Gram blocks, and the rectangular warm-start shape
                // of a 16-vector recycled basis against a right-hand side
                // block.
                for m in [k, 16] {
                    let seed = (case * 1000 + k * 20 + m) as u64 + u64::from(poison);
                    let x = block(k, n, seed, poison);
                    let y = block(m, n, seed ^ 0xa5, false);
                    let want: Vec<u64> = (0..k)
                        .flat_map(|i| (0..m).map(move |j| (i, j)))
                        .map(|(i, j)| dot(x.row(i), y.row(j)).to_bits())
                        .collect();
                    on_each_pool(|threads| {
                        let got = gram(&x, &y).expect("equal row lengths");
                        assert_eq!(got.shape(), (k, m));
                        assert_eq!(
                            bits(got.as_slice()),
                            want,
                            "{k}x{m} Gram over n = {n} (poison {poison}) on {threads} threads"
                        );
                    });
                }
            }
        }
    }
    let err = gram(&Matrix::zeros(2, 3), &Matrix::zeros(2, 4));
    assert!(matches!(err, Err(deepoheat_linalg::LinalgError::ShapeMismatch { .. })));
}

#[test]
fn block_kernels_gram_keeps_the_sign_of_zero() {
    // Every product is −0.0, so each chunk's sum, and the fold of the
    // chunk sums, is −0.0 only if both start from −0.0 as `dot` does.
    let n = ROW_LENGTHS[3];
    for (k, m) in [(1, 1), (2, 3), (8, 8), (5, 9)] {
        let x = Matrix::filled(k, n, -0.0);
        let y = Matrix::filled(m, n, 1.5);
        on_each_pool(|threads| {
            let got = gram(&x, &y).expect("equal row lengths");
            for (e, v) in got.as_slice().iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    (-0.0f64).to_bits(),
                    "{k}x{m} entry {e} on {threads} threads"
                );
            }
        });
    }
}

#[test]
fn block_kernels_row_norms_match_norm2() {
    for (case, &n) in ROW_LENGTHS.iter().enumerate() {
        for poison in [false, true] {
            for &k in &BLOCK_ROWS {
                let x = block(k, n, (case * 100 + k) as u64 + u64::from(poison), poison);
                let want: Vec<u64> = (0..k).map(|i| norm2(x.row(i)).to_bits()).collect();
                on_each_pool(|threads| {
                    assert_eq!(
                        bits(&row_norms(&x)),
                        want,
                        "{k} rows of length {n} (poison {poison}) on {threads} threads"
                    );
                });
            }
        }
    }
}

#[test]
fn block_kernels_fused_updates_match_matmul_plus_elementwise() {
    for (case, &n) in ROW_LENGTHS.iter().enumerate() {
        for poison in [false, true] {
            for &k in &BLOCK_ROWS {
                let seed = (case * 100 + k) as u64 * 7 + u64::from(poison);
                let coef = block(k, k, seed, poison);
                let (p, z) = (block(k, n, seed ^ 1, false), block(k, n, seed ^ 2, false));
                let product = coef.matmul(&p).expect("square coefficients");

                // X[rows] += coef·P into every other row of a taller block,
                // last row first.
                let x0 = block(2 * k + 1, n, seed ^ 3, false);
                let rows: Vec<usize> = (0..k).map(|s| 2 * (k - 1 - s) + 1).collect();
                let mut want_x = x0.clone();
                for (s, &r) in rows.iter().enumerate() {
                    for (xv, &u) in want_x.row_mut(r).iter_mut().zip(product.row(s)) {
                        *xv += u;
                    }
                }
                // R −= coef·P.
                let mut want_r = z.clone();
                for (rv, &u) in want_r.as_mut_slice().iter_mut().zip(product.as_slice()) {
                    *rv -= u;
                }
                // P = Z + coef·P, in place.
                let mut want_p = z.clone();
                for (pv, &u) in want_p.as_mut_slice().iter_mut().zip(product.as_slice()) {
                    *pv += u;
                }

                on_each_pool(|threads| {
                    let what = format!("k = {k}, n = {n}, poison {poison}, {threads} threads");
                    let mut x = x0.clone();
                    add_product(&coef, &p, &mut x, &rows).expect("valid shapes");
                    assert_eq!(bits(x.as_slice()), bits(want_x.as_slice()), "add_product: {what}");
                    let mut r = z.clone();
                    sub_product(&coef, &p, &mut r).expect("valid shapes");
                    assert_eq!(bits(r.as_slice()), bits(want_r.as_slice()), "sub_product: {what}");
                    let mut pp = p.clone();
                    direction_update(&coef, &z, &mut pp).expect("valid shapes");
                    assert_eq!(
                        bits(pp.as_slice()),
                        bits(want_p.as_slice()),
                        "direction_update: {what}"
                    );
                });
            }
        }
    }
}

#[test]
fn fused_updates_reject_bad_shapes_and_rows() {
    use deepoheat_linalg::LinalgError;
    let coef = Matrix::identity(2);
    let p = Matrix::zeros(2, 5);
    let mut x = Matrix::zeros(3, 5);
    let shape = |r: Result<(), LinalgError>| matches!(r, Err(LinalgError::ShapeMismatch { .. }));
    let rows = |r: Result<(), LinalgError>| matches!(r, Err(LinalgError::InvalidDimension { .. }));
    assert!(shape(add_product(&coef, &p, &mut x, &[0])));
    assert!(shape(add_product(&coef, &Matrix::zeros(2, 4), &mut x, &[0, 1])));
    assert!(rows(add_product(&coef, &p, &mut x, &[0, 3])));
    assert!(rows(add_product(&coef, &p, &mut x, &[1, 1])));
    assert!(shape(sub_product(&coef, &p, &mut x)));
    assert!(shape(direction_update(&coef, &Matrix::zeros(2, 4), &mut Matrix::zeros(2, 5))));
    assert!(shape(direction_update(&Matrix::zeros(2, 3), &p, &mut Matrix::zeros(2, 5))));
    // Nothing was written by a rejected call.
    assert!(x.iter().all(|v| v.to_bits() == 0));
}

/// A square operator with entries at column offsets 0, ±1, ±13 and ±517
/// (where in range), with [`value`] entries and, with `poison`, one
/// non-finite value.
fn banded(n: usize, seed: u64, poison: bool) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::new(n, n);
    for r in 0..n {
        for offset in [-517isize, -13, -1, 0, 1, 13, 517] {
            if let Some(c) = r.checked_add_signed(offset).filter(|&c| c < n) {
                coo.push(r, c, value(&mut rng));
            }
        }
    }
    let a = coo.to_csr();
    if !(poison && a.nnz() > 0) {
        return a;
    }
    let (rows, cols) = a.shape();
    let mut entries: Vec<(usize, usize, f64)> =
        (0..rows).flat_map(|r| a.row_entries(r).map(move |(c, v)| (r, c, v))).collect();
    let at = rng.gen_range(0..entries.len());
    entries[at].2 = f64::NEG_INFINITY;
    let mut row_ptr = vec![0usize; rows + 1];
    for &(r, _, _) in &entries {
        row_ptr[r + 1] += 1;
    }
    for r in 0..rows {
        row_ptr[r + 1] += row_ptr[r];
    }
    let (col_idx, values) = entries.iter().map(|&(_, c, v)| (c, v)).unzip();
    CsrMatrix::from_raw(rows, cols, row_ptr, col_idx, values).expect("rows stay sorted")
}

#[test]
fn block_kernels_spmm_rows_match_spmv() {
    for (case, &n) in ROW_LENGTHS.iter().enumerate() {
        for poison in [false, true] {
            let a = banded(n, case as u64 * 31 + u64::from(poison), poison);
            for &k in &BLOCK_ROWS {
                let x = block(k, n, (case * 100 + k) as u64, poison && k % 2 == 0);
                let mut want = vec![0.0; k * n];
                for (i, row) in want.chunks_exact_mut(n.max(1)).enumerate().take(k) {
                    a.spmv_into(x.row(i), row).expect("square operator");
                }
                on_each_pool(|threads| {
                    let mut y = Matrix::filled(k, n, f64::NAN);
                    a.spmm_into(&x, &mut y).expect("matching shapes");
                    assert_eq!(
                        bits(y.as_slice()),
                        bits(&want),
                        "k = {k}, n = {n}, poison {poison}, {threads} threads"
                    );
                });
            }
        }
    }
    // A 0-row operator yields empty products; shape errors are typed.
    let empty = CooMatrix::new(0, 6).to_csr();
    let y = empty.spmm(&Matrix::zeros(3, 6)).expect("matching shapes");
    assert_eq!(y.shape(), (3, 0));
    assert!(empty.spmm(&Matrix::zeros(3, 5)).is_err());
}

/// Re-runs the `block_kernels_` oracles with the AVX2 paths switched off
/// (`DEEPOHEAT_SCALAR_KERNELS=1` is read once per process), so the
/// portable builds of the block kernels are held to the same references.
#[test]
#[cfg_attr(
    miri,
    ignore = "the interpreter runs only the portable builds and cannot spawn processes"
)]
fn portable_builds_pass_the_block_kernel_oracles() {
    if std::env::var_os("DEEPOHEAT_SCALAR_KERNELS").is_some() {
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let run = std::process::Command::new(exe)
        .args(["block_kernels_", "--test-threads=1"])
        .env("DEEPOHEAT_SCALAR_KERNELS", "1")
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success() && stdout.contains("test result: ok. 5 passed"),
        "block-kernel oracles with the portable builds forced:\n{stdout}{}",
        String::from_utf8_lossy(&run.stderr)
    );
}
