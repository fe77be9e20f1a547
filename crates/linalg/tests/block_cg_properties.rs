//! Property tests pinning [`deepoheat_linalg::block_cg`] to its contracts:
//!
//! * a one-row block is **bitwise** the textbook preconditioned CG loop
//!   ([`textbook_pcg`], kept here as the reference and nowhere else) —
//!   same iterate bits, same iteration count, same residual history —
//!   across preconditioners, warm starts, iteration budgets and breakdown
//!   inputs, on 1-D operators and on the 3-D grid operators of
//!   `ssor_fixtures`, whose SSOR sweeps take the wavefront schedule;
//! * per-column convergence flags are truthful against the true residual;
//! * recycled-subspace warm starts across batches sharing `A` stay correct
//!   and never slow convergence down;
//! * results are bit-identical at any pool width (the deterministic
//!   reduction contract).
//!
//! Under Miri the case count shrinks like `kernel_properties` so the
//! interpreted suite stays fast; the shapes exercised stay the same.

use deepoheat_linalg::{
    axpy, block_cg, dot, norm2, BlockCgOptions, BlockCgOutcome, CooMatrix, CsrMatrix,
    IdentityPreconditioner, JacobiPreconditioner, Matrix, Preconditioner, RecycleSpace,
    SsorPreconditioner,
};
use proptest::prelude::*;

mod ssor_fixtures;

#[cfg(miri)]
const CASES: u32 = 3;
#[cfg(not(miri))]
const CASES: u32 = 48;

#[cfg(miri)]
const SIZES: [usize; 3] = [4, 9, 16];
#[cfg(not(miri))]
const SIZES: [usize; 5] = [4, 9, 16, 47, 120];

/// 1-D Laplacian with Dirichlet ends plus a seeded diagonal bump: SPD,
/// with a condition number that varies across seeds.
fn spd_fixture(n: usize, seed: u64) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut state = seed | 1;
    for i in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let bump = ((state >> 33) as f64 / (1u64 << 33) as f64) * 0.5;
        coo.push(i, i, 2.0 + bump);
        if i > 0 {
            coo.push(i, i - 1, -1.0);
            coo.push(i - 1, i, -1.0);
        }
    }
    coo.to_csr()
}

/// Seeded pseudo-random block, one right-hand side per row.
fn seeded_block(k: usize, n: usize, seed: u64) -> Matrix {
    let mut state = seed ^ 0x9e3779b97f4a7c15;
    Matrix::from_fn(k, n, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn size() -> impl Strategy<Value = usize> {
    (0usize..SIZES.len()).prop_map(|i| SIZES[i])
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// True relative residual of row `i` of a solved block.
fn true_residual(a: &CsrMatrix, b: &Matrix, x: &Matrix, i: usize) -> f64 {
    let ax = a.spmv(x.row(i)).expect("invariant: shapes validated by the solver");
    let r: Vec<f64> = ax.iter().zip(b.row(i)).map(|(axi, bi)| bi - axi).collect();
    norm2(&r) / norm2(b.row(i))
}

/// Where [`textbook_pcg`] stopped, and the relative residual it saw at the
/// top of every iteration, ending with the one it stopped at.
#[derive(Debug)]
struct Textbook {
    solution: Vec<f64>,
    iterations: usize,
    residuals: Vec<f64>,
    converged: bool,
    breakdown: bool,
}

/// Textbook preconditioned CG for one right-hand side, from `x0` or zero:
/// the reference a one-row block solve must match bit for bit. A zero `b`
/// short-circuits to the zero solution; a `pᵀAp ≤ 0` direction stops the
/// loop with the iterate it reached.
fn textbook_pcg(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    pre: &impl Preconditioner,
    options: BlockCgOptions,
) -> Textbook {
    let n = a.rows();
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        let solution = vec![0.0; n];
        return Textbook {
            solution,
            iterations: 0,
            residuals: vec![0.0],
            converged: true,
            breakdown: false,
        };
    }
    let mut x = x0.map_or_else(|| vec![0.0; n], <[f64]>::to_vec);
    let mut r = a.spmv(&x).expect("invariant: square operator");
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let mut z = vec![0.0; n];
    pre.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];
    let mut residuals = Vec::new();
    for iterations in 0..options.max_iterations {
        let res = norm2(&r) / b_norm;
        residuals.push(res);
        if res <= options.tolerance {
            return Textbook {
                solution: x,
                iterations,
                residuals,
                converged: true,
                breakdown: false,
            };
        }
        a.spmv_into(&p, &mut ap).expect("invariant: square operator");
        let pap = dot(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            return Textbook {
                solution: x,
                iterations,
                residuals,
                converged: false,
                breakdown: true,
            };
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        pre.apply(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, &zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
    }
    let res = norm2(&r) / b_norm;
    residuals.push(res);
    let converged = res <= options.tolerance;
    Textbook {
        solution: x,
        iterations: options.max_iterations,
        residuals,
        converged,
        breakdown: false,
    }
}

/// Solves `b` (one row) from `x0` both ways, traced, and asserts the
/// one-row block solve is the textbook loop bit for bit. Returns the block
/// outcome, so callers can resume from it.
fn assert_textbook_parity(
    a: &CsrMatrix,
    b: &Matrix,
    x0: Option<&Matrix>,
    pre: &impl Preconditioner,
    options: BlockCgOptions,
    what: &str,
) -> BlockCgOutcome {
    let traced = BlockCgOptions { record_trace: true, ..options };
    let block = block_cg(a, b, x0, pre, traced).expect("valid one-row system");
    let want = textbook_pcg(a, b.row(0), x0.map(|x| x.row(0)), pre, options);
    assert_eq!(
        bits(&block.solution),
        want.solution.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "{what}: one-row block iterate must be bitwise the textbook loop's"
    );
    let column = block.columns[0];
    assert_eq!(block.iterations, want.iterations, "{what}");
    assert_eq!(column.iterations, want.iterations, "{what}");
    assert_eq!(column.converged, want.converged, "{what}");
    assert_eq!(column.breakdown, want.breakdown, "{what}");
    let history = &block.trace.as_ref().expect("record_trace was set").max_residual;
    let history_bits = |h: &[f64]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(history_bits(history), history_bits(&want.residuals), "{what}: residual history");
    assert_eq!(history.last(), Some(&column.relative_residual), "{what}");
    block
}

/// The `ssor_fixtures` grid operators whose SSOR plans a wavefront of two
/// or more blocks. The 1-D fixtures have bandwidth 1, so their sweeps
/// never take the wavefront; a one-row `apply_rows` runs it only on these.
fn wavefront_grids() -> Vec<ssor_fixtures::Fixture> {
    ssor_fixtures::fixtures()
        .into_iter()
        .filter(|f| f.block.is_some_and(|block| block < f.matrix.rows()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// A one-row block is the textbook loop, bit for bit, under every
    /// bundled preconditioner; SSOR also on a 3-D grid operator, where its
    /// one-vector sweep takes the wavefront schedule.
    #[test]
    fn one_row_block_is_bitwise_textbook_pcg(n in size(), seed in 0u64..1 << 48) {
        let a = spd_fixture(n, seed);
        let b = seeded_block(1, n, seed);
        let opts = BlockCgOptions::default();

        let jacobi = JacobiPreconditioner::new(&a).expect("invariant: fixture is SPD");
        let ssor = SsorPreconditioner::new(&a, 1.5).expect("invariant: fixture is SPD");
        assert_textbook_parity(&a, &b, None, &IdentityPreconditioner, opts, "identity");
        assert_textbook_parity(&a, &b, None, &jacobi, opts, "jacobi");
        assert_textbook_parity(&a, &b, None, &ssor, opts, "ssor");

        let grids = wavefront_grids();
        let grid = &grids[(seed % grids.len() as u64) as usize];
        let ssor = SsorPreconditioner::new(&grid.matrix, 1.5).expect("invariant: fixture is SPD");
        let b = seeded_block(1, grid.matrix.rows(), seed ^ 3);
        assert_textbook_parity(&grid.matrix, &b, None, &ssor, opts, &grid.name);
    }

    /// Parity holds on the non-convergence path too: truncated budgets
    /// leave bitwise-equal partial iterates, and restarting from them
    /// continues identically.
    #[test]
    fn one_row_parity_survives_truncation_and_warm_start(
        n in size(), seed in 0u64..1 << 48, budget in 1usize..6
    ) {
        let a = spd_fixture(n, seed);
        let b = seeded_block(1, n, seed ^ 7);
        let opts = BlockCgOptions { max_iterations: budget, tolerance: 1e-12, record_trace: false };
        let id = IdentityPreconditioner;
        let block = assert_textbook_parity(&a, &b, None, &id, opts, "truncated");

        // Resume both from their (identical) partial iterates.
        let full = BlockCgOptions::default();
        assert_textbook_parity(&a, &b, Some(&block.solution), &id, full, "resumed");
    }

    /// Per-column verdicts are truthful: a converged flag means the true
    /// residual meets the tolerance, a non-converged flag means it does
    /// not (up to recurrence drift, checked at a relaxed factor).
    #[test]
    fn per_column_flags_match_true_residuals(
        n in size(), k in 1usize..5, seed in 0u64..1 << 48
    ) {
        let a = spd_fixture(n, seed);
        let b = seeded_block(k, n, seed ^ 13);
        let opts = BlockCgOptions::default();
        let jacobi = JacobiPreconditioner::new(&a).expect("invariant: fixture is SPD");
        let out = block_cg(&a, &b, None, &jacobi, opts).unwrap();
        for i in 0..k {
            let res = true_residual(&a, &b, &out.solution, i);
            if out.columns[i].converged {
                assert!(
                    res <= opts.tolerance * 100.0,
                    "column {i} flagged converged but true residual is {res}"
                );
            } else {
                assert!(
                    res > opts.tolerance,
                    "column {i} flagged unconverged but true residual is {res}"
                );
            }
        }
    }

    /// Recycling batches that share `A`: absorbing known solutions makes
    /// any in-span right-hand side start nearly converged, and warm-started
    /// solves of fresh out-of-span batches still land on the right answer.
    #[test]
    fn recycled_subspace_stays_correct_across_batches(
        n in size(), seed in 0u64..1 << 48
    ) {
        let a = spd_fixture(n, seed);
        let k = 3usize.min(n);
        let jacobi = JacobiPreconditioner::new(&a).expect("invariant: fixture is SPD");
        let opts = BlockCgOptions::default();

        // Manufacture exact solutions so the recycled span is known: row i
        // of `b1` is A · (row i of `x_true`).
        let x_true = seeded_block(k, n, seed ^ 17);
        let b1 = Matrix::from_fn(k, n, |i, j| {
            a.spmv(x_true.row(i)).expect("invariant: fixture shapes agree")[j]
        });
        let mut space = RecycleSpace::new(2 * k);
        space.absorb(&a, &x_true).unwrap();

        // A batch inside the span: the A-optimal projection is already
        // nearly converged before the solver runs a single iteration.
        let b2 = b1.scaled(0.75);
        let x0 = space.warm_start(&b2).unwrap().expect("invariant: space is non-empty");
        for i in 0..k {
            assert!(
                true_residual(&a, &b2, &x0, i) <= 1e-6,
                "in-span warm start should start nearly converged (column {i})"
            );
        }
        let warm = block_cg(&a, &b2, Some(&x0), &jacobi, opts).unwrap();
        assert!(warm.all_converged());
        for i in 0..k {
            assert!(true_residual(&a, &b2, &warm.solution, i) <= 1e-8);
        }

        // A fresh out-of-span batch: the warm start must still land on the
        // right answer. Columns deflated as dependent mid-solve are
        // reconstructed at ~1e-8, so check the true residual rather than
        // the strict-tolerance flag.
        let b3 = seeded_block(k, n, seed ^ 23);
        let x0 = space.warm_start(&b3).unwrap().expect("invariant: space is non-empty");
        let warm3 = block_cg(&a, &b3, Some(&x0), &jacobi, opts).unwrap();
        assert!(!warm3.breakdown, "{:?}", warm3.columns);
        for i in 0..k {
            assert!(true_residual(&a, &b3, &warm3.solution, i) <= 1e-6);
        }
    }
}

/// The deterministic-reduction contract: the whole batched solve —
/// recycling included — produces the same bits at every pool width.
#[test]
#[cfg_attr(miri, ignore = "thread pools are too slow under the interpreter")]
fn block_solve_is_bit_identical_at_any_pool_width() {
    let n = 150;
    let k = 4;
    let a = spd_fixture(n, 42);
    let b1 = seeded_block(k, n, 1);
    let b2 = seeded_block(k, n, 2);

    let solve_all = || {
        let jacobi = JacobiPreconditioner::new(&a).expect("invariant: fixture is SPD");
        let opts = BlockCgOptions::default();
        let first = block_cg(&a, &b1, None, &jacobi, opts).unwrap();
        let mut space = RecycleSpace::new(8);
        space.absorb(&a, &first.solution).unwrap();
        let x0 = space.warm_start(&b2).unwrap().expect("invariant: space is non-empty");
        let second = block_cg(&a, &b2, Some(&x0), &jacobi, opts).unwrap();
        (bits(&first.solution), first.iterations, bits(&second.solution), second.iterations)
    };

    let mut outcomes = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let pool = deepoheat_parallel::ThreadPool::new(threads);
        outcomes.push((threads, pool.install(solve_all)));
    }
    let (_, reference) = &outcomes[0];
    for (threads, outcome) in &outcomes[1..] {
        assert_eq!(outcome, reference, "block solve diverged between 1 and {threads} pool threads");
    }
}

/// Deflation mid-solve (mixed easy/zero/hard columns) keeps every verdict
/// truthful — exercised at a fixed size so the test is deterministic.
#[test]
fn mixed_block_deflates_and_reports_truthfully() {
    let n = if cfg!(miri) { 12 } else { 90 };
    let a = spd_fixture(n, 7);
    let mut b = seeded_block(3, n, 77);
    b.row_mut(1).fill(0.0);
    let out = block_cg(&a, &b, None, &IdentityPreconditioner, BlockCgOptions::default()).unwrap();
    assert!(out.all_converged(), "{:?}", out.columns);
    assert_eq!(out.columns[1].iterations, 0, "zero RHS must short-circuit");
    assert!(out.solution.row(1).iter().all(|&v| v == 0.0));
    for i in [0usize, 2] {
        assert!(true_residual(&a, &b, &out.solution, i) <= 1e-8);
        assert!(out.columns[i].iterations > 0);
    }
}
