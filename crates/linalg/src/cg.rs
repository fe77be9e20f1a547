//! Preconditioned conjugate gradients over [`CsrMatrix`] operators.
//!
//! The iteration's level-1/level-2 kernels — `spmv_into`, `dot`, `norm2`,
//! `axpy` — all dispatch to the persistent `deepoheat-parallel` pool with
//! fixed, thread-count-independent chunking, so a CG trace (iterates,
//! residuals, convergence history) is bit-identical whether the pool has
//! 1 thread or 64.
//!
//! The SSOR and IC(0) preconditioners are triangular solves. In natural
//! order each row waits on the row just before it (a subtract, a multiply
//! and a divide), so a sweep runs one dependence chain at a time. SSOR runs
//! several instead, on a wavefront schedule planned when it is built:
//!
//! * **Plan.** Cut the rows into blocks of the operator's bandwidth `B`,
//!   the largest `|r - c|` over its off-diagonal entries. The plan holds
//!   when there are at least two blocks of at least two rows, and every
//!   entry outside its row's block lies exactly `B` columns away, at the
//!   row's own offset in the block below (lower triangle) or above (upper
//!   triangle). A natural-order grid operator qualifies with one plane of
//!   free rows per block, whichever faces are held at a fixed temperature;
//!   so do layered conductivities and the transient stepping matrix. Any
//!   other pattern keeps the natural order.
//! * **Schedule.** The forward sweep takes the blocks in groups of four.
//!   At step `t` of a group, chain `s` runs offset `t - s` of the group's
//!   block `s`, so each chain runs one row behind the one before it: row
//!   `u` of a block reads row `u` of the block below, which the previous
//!   chain finished a step earlier. The chains of one step are independent
//!   and overlap in the core. The backward sweep runs the same order
//!   reversed: groups from the top block down, offsets descending.
//! * **Bits.** Every row runs exactly its natural-order operations, in
//!   their order, on inputs that are already final, so the result is
//!   bit-identical to the natural-order sweep.
//!
//! Each chain walks its block in order, so the sweep reads four sequential
//! streams a plane apart. A level-set order (rows grouped by dependence
//! depth, the diagonal hyperplanes of a grid) gives more independent rows
//! per step but scatters their reads: on the 7-point operators here a
//! global level order measured 1.3–2.3× slower than the natural one, and a
//! block-local one no faster.
//!
//! IC(0) keeps the natural order. Its backward pass scatters each row's
//! result into the earlier rows of its pattern (`z[j] -= l_ij · z_i`), so
//! the order the rows run in is the order each `z[j]` accumulates its
//! terms, and any reorder would change bits.
//!
//! Right-hand sides batch as well: [`Preconditioner::apply_rows`] carries
//! up to eight vectors through one SSOR sweep, so the operator streams once
//! per group and the lanes' independent recurrences overlap. A multi-lane
//! sweep already has its lanes to overlap and keeps the natural order.

use crate::kernels::{lane_groups, LaneTail};
use crate::sparse::{Split, Triangle};
use crate::{axpy, dot, norm2, CsrMatrix, LinalgError, Matrix};

/// A preconditioner for the conjugate-gradient solver: given a residual `r`
/// it computes `z ≈ A⁻¹ r`.
///
/// Implementations must represent a symmetric positive-definite operator for
/// CG to remain valid.
///
/// # Contract
///
/// `r` and `z` must both have the operator's dimension. The CG driver is
/// the only in-tree caller and always sizes both buffers from the system
/// it validated, so the bundled implementations check the lengths with
/// `debug_assert_eq!` only — the release solve path stays panic-free.
pub trait Preconditioner {
    /// Applies the preconditioner, writing `z ≈ A⁻¹ r` into `z`.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Applies the preconditioner to a block of residuals, one per row:
    /// row `i` of `z` receives `A⁻¹` applied to row `i` of `r`. `r` and `z`
    /// have the same shape, with the operator's dimension as row length.
    ///
    /// The default calls [`Preconditioner::apply`] once per row. An
    /// override must give every row the bits `apply` gives it; block CG
    /// relies on that for its width-1 correspondence with scalar CG.
    fn apply_rows(&self, r: &Matrix, z: &mut Matrix) {
        debug_assert_eq!(r.shape(), z.shape(), "apply_rows: block shape mismatch");
        for i in 0..r.rows() {
            self.apply(r.row(i), z.row_mut(i));
        }
    }
}

impl<P: Preconditioner + ?Sized> Preconditioner for &P {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        (**self).apply(r, z)
    }

    fn apply_rows(&self, r: &Matrix, z: &mut Matrix) {
        (**self).apply_rows(r, z)
    }
}

/// The identity preconditioner (plain CG).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Jacobi (diagonal) preconditioner: `z = D⁻¹ r`.
///
/// Cheap and effective for the diagonally dominant operators produced by
/// the finite-volume heat discretisation.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from the matrix diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if any diagonal entry is
    /// zero, negative or non-finite (CG requires an SPD operator).
    pub fn new(a: &CsrMatrix) -> Result<Self, LinalgError> {
        let diag = a.diagonal();
        let mut inv_diag = Vec::with_capacity(diag.len());
        for (i, d) in diag.into_iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: i, value: d });
            }
            inv_diag.push(1.0 / d);
        }
        Ok(JacobiPreconditioner { inv_diag })
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.inv_diag.len(), "jacobi: residual length mismatch");
        for ((zi, &ri), &di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

/// Symmetric successive over-relaxation (SSOR) preconditioner.
///
/// Applies `z = (D/ω + U)⁻¹ · (D/ω) · (D/ω + L)⁻¹ r` scaled so the operator
/// stays SPD. Converges in noticeably fewer CG iterations than Jacobi on the
/// anisotropic grids produced by thin chip stacks.
///
/// The matrix is stored as its strict lower triangle `L`, diagonal `D` and
/// strict upper triangle `U`, each row in column order, so a sweep walks
/// exactly the entries it needs. Every row's operations run in the order
/// of a sweep over the full rows, so the result does not depend on the
/// split.
///
/// When the operator's pattern admits a wavefront plan (see the module
/// docs), a one-vector sweep advances four consecutive blocks of rows
/// together, each chain one row behind the chain before it; otherwise, and
/// for groups of two or more vectors, it runs the rows in natural order.
/// Either way every row runs its natural-order operations on final inputs,
/// so [`Preconditioner::apply`] and every row of
/// [`Preconditioner::apply_rows`] are bit-identical to the natural-order
/// sweep.
#[derive(Debug, Clone)]
pub struct SsorPreconditioner {
    lower: Triangle,
    diag: Vec<f64>,
    upper: Triangle,
    /// Wavefront block size ([`Split::block`]).
    block: Option<usize>,
    omega: f64,
}

/// Row chains a one-vector sweep advances together. A multi-lane sweep
/// already overlaps its lanes' recurrences and keeps one chain.
const CHAINS: usize = 4;

/// Calls `row` on every row of `0..n` in the wavefront order of `chains`
/// chains over blocks of `block` rows: consecutive groups of `chains`
/// blocks, and within a group, at step `t`, chain `s` takes offset `t - s`
/// of block `s`. With one chain and one block this is the natural order.
/// With `FORWARD` false the order is exactly reversed, which is the
/// backward sweep's schedule: under a plan ([`Split::block`]) a row's upper
/// neighbours come after it in the forward order, as its lower ones come
/// before it.
///
/// The skew is what makes the chains of one step independent, so the core
/// overlaps them: each reads rows the step before finished. They run first
/// chain to last, which measured fastest (each chain reads its neighbour's
/// row five rows back in program order). In that order an unskewed
/// schedule would still be a valid order, only a serial one, so the bit
/// oracles cannot see a lost skew; a unit test pins the order instead.
#[inline(always)]
fn wavefront<const FORWARD: bool>(
    n: usize,
    block: usize,
    chains: usize,
    mut row: impl FnMut(usize),
) {
    let blocks = n.div_ceil(block);
    let groups = blocks.div_ceil(chains);
    for g in 0..groups {
        let first = if FORWARD { g } else { groups - 1 - g } * chains;
        let count = chains.min(blocks - first);
        let steps = block + count - 1;
        for t in 0..steps {
            let step = if FORWARD { t } else { steps - 1 - t };
            for k in 0..count {
                let s = if FORWARD { k } else { count - 1 - k };
                let Some(offset) = step.checked_sub(s).filter(|&u| u < block) else {
                    continue;
                };
                let i = (first + s) * block + offset;
                if i < n {
                    row(i);
                }
            }
        }
    }
}

impl SsorPreconditioner {
    /// Builds an SSOR preconditioner with relaxation factor `omega`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidDimension`] if `a` is not square or `omega`
    ///   is outside `(0, 2)`.
    /// * [`LinalgError::NotPositiveDefinite`] if a diagonal entry is not
    ///   strictly positive.
    pub fn new(a: &CsrMatrix, omega: f64) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::InvalidDimension {
                op: "ssor",
                what: format!("matrix is {}x{}, expected square", a.rows(), a.cols()),
            });
        }
        if !(0.0..2.0).contains(&omega) || omega == 0.0 {
            return Err(LinalgError::InvalidDimension {
                op: "ssor",
                what: format!("omega must be in (0, 2), got {omega}"),
            });
        }
        let Split { lower, diag, upper, block } = a.split_triangles();
        for (i, &d) in diag.iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: i, value: d });
            }
        }
        Ok(SsorPreconditioner { lower, diag, upper, block, omega })
    }

    /// Both sweeps over `L` vectors at once. `r(i)` gives entry `i` of
    /// every lane's residual, `t[i]` holds the lanes' intermediate entries,
    /// and `z(i, ·)` receives entry `i` of their results as the backward
    /// sweep finishes it. The lanes span vectors and never a row's
    /// reduction, so each lane gets the bits of a one-lane sweep.
    fn sweep<const L: usize>(
        &self,
        t: &mut [[f64; L]],
        r: impl Fn(usize) -> [f64; L],
        mut z: impl FnMut(usize, [f64; L]),
    ) {
        let n = self.diag.len();
        debug_assert_eq!(t.len(), n, "ssor: residual length mismatch");
        let w = self.omega;
        let (block, chains) = match self.block {
            Some(block) if L == 1 => (block, CHAINS),
            _ => (n.max(1), 1),
        };
        // Forward sweep: (D/ω + L) y = r.
        wavefront::<true>(n, block, chains, |i| {
            let mut acc = r(i);
            for &(c, v) in self.lower.row(i) {
                let y = t[c];
                for l in 0..L {
                    acc[l] -= v * y[l];
                }
            }
            let d = self.diag[i];
            t[i] = acc.map(|a| a * w / d);
        });
        // Backward sweep: (D/ω + U) z = (D/ω) y, scaling each y as its row
        // is reached.
        wavefront::<false>(n, block, chains, |i| {
            let d = self.diag[i];
            let scale = d / w;
            let mut acc = t[i].map(|y| y * scale);
            for &(c, v) in self.upper.row(i) {
                let zc = t[c];
                for l in 0..L {
                    acc[l] -= v * zc[l];
                }
            }
            t[i] = acc.map(|a| a * w / d);
            z(i, t[i]);
        });
    }

    /// Sweeps rows `first..first + count` of `r` into the same rows of
    /// `z` as one `L`-lane group (`count <= L`; spare lanes sweep zeros).
    fn sweep_rows<const L: usize>(&self, r: &Matrix, z: &mut Matrix, first: usize, count: usize) {
        let n = self.diag.len();
        let rows = first * n..(first + count) * n;
        let (rs, zs) = (&r.as_slice()[rows.clone()], &mut z.as_mut_slice()[rows]);
        let mut t = vec![[0.0; L]; n];
        self.sweep(
            &mut t,
            |i| std::array::from_fn(|l| if l < count { rs[l * n + i] } else { 0.0 }),
            |i, out| {
                for (l, &v) in out.iter().enumerate().take(count) {
                    zs[l * n + i] = v;
                }
            },
        );
    }
}

impl Preconditioner for SsorPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        // One lane, swept in place: `z` holds y, then z.
        let (t, _) = z.as_chunks_mut::<1>();
        self.sweep(t, |i| [r[i]], |_, _| {});
    }

    fn apply_rows(&self, r: &Matrix, z: &mut Matrix) {
        debug_assert_eq!(r.shape(), z.shape(), "ssor: block shape mismatch");
        for (first, count, lanes) in lane_groups(r.rows(), LaneTail::Pad) {
            match lanes {
                8 => self.sweep_rows::<8>(r, z, first, count),
                4 => self.sweep_rows::<4>(r, z, first, count),
                2 => self.sweep_rows::<2>(r, z, first, count),
                _ => self.sweep_rows::<1>(r, z, first, count),
            }
        }
    }
}

/// Options controlling [`conjugate_gradient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOptions {
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Relative residual tolerance `‖r‖ / ‖b‖` at which to declare success.
    pub tolerance: f64,
    /// When `true`, the solver records a per-iteration [`CgTrace`] into
    /// [`CgOutcome::trace`]. Off by default: tracing adds a clock read and
    /// a `Vec` push per iteration.
    pub record_trace: bool,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions { max_iterations: 10_000, tolerance: 1e-10, record_trace: false }
    }
}

impl CgOptions {
    /// Builds validated options.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimension`] under the same conditions
    /// as [`CgOptions::validate`].
    pub fn new(max_iterations: usize, tolerance: f64) -> Result<Self, LinalgError> {
        let options = CgOptions { max_iterations, tolerance, record_trace: false };
        options.validate()?;
        Ok(options)
    }

    /// Enables per-iteration tracing (see [`CgTrace`]).
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Checks that the options describe a solvable configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimension`] if `max_iterations` is zero
    /// or `tolerance` is not a strictly positive finite number. A zero or
    /// negative tolerance can never be met by floating-point residuals, so
    /// it is rejected up front instead of burning `max_iterations` first.
    pub fn validate(&self) -> Result<(), LinalgError> {
        if self.max_iterations == 0 {
            return Err(LinalgError::InvalidDimension {
                op: "conjugate_gradient",
                what: "max_iterations must be at least 1".to_string(),
            });
        }
        if self.tolerance <= 0.0 || !self.tolerance.is_finite() {
            return Err(LinalgError::InvalidDimension {
                op: "conjugate_gradient",
                what: format!("tolerance must be a positive finite number, got {}", self.tolerance),
            });
        }
        Ok(())
    }
}

/// Per-iteration convergence trace recorded when
/// [`CgOptions::record_trace`] is set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CgTrace {
    /// Relative residual `‖r‖ / ‖b‖` observed at the top of each iteration,
    /// ending with the accepted final residual — the last entry always
    /// equals [`CgOutcome::relative_residual`].
    pub residuals: Vec<f64>,
    /// Total wall time spent inside [`Preconditioner::apply`].
    pub preconditioner_seconds: f64,
    /// Total wall time spent in sparse matrix–vector products.
    pub spmv_seconds: f64,
}

/// Diagnostics returned by a successful [`conjugate_gradient`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOutcome {
    /// The computed solution vector.
    pub solution: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b - A x‖ / ‖b‖`.
    pub relative_residual: f64,
    /// Convergence trace, present iff [`CgOptions::record_trace`] was set.
    pub trace: Option<CgTrace>,
}

/// The result of one CG attempt, returned by
/// [`conjugate_gradient_attempt`] whether or not the tolerance was met.
///
/// Unlike [`conjugate_gradient`], non-convergence is *data*, not an error:
/// the partial iterate is preserved so callers can escalate (restart from
/// it, switch preconditioner, relax the tolerance) instead of starting
/// over from zero.
#[derive(Debug, Clone, PartialEq)]
pub struct CgAttempt {
    /// The iterate when the attempt stopped — the solution if
    /// [`CgAttempt::converged`], otherwise the best partial iterate.
    pub solution: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Relative residual `‖b - A x‖ / ‖b‖` at the stopping point.
    pub relative_residual: f64,
    /// Whether the relative residual reached the requested tolerance.
    pub converged: bool,
    /// Whether the attempt stopped on a `pᵀAp ≤ 0` breakdown (the operator
    /// is not SPD along the current search direction, usually a symptom of
    /// severe ill-conditioning or accumulated round-off).
    pub breakdown: bool,
    /// Convergence trace, present iff [`CgOptions::record_trace`] was set.
    pub trace: Option<CgTrace>,
}

/// Solves `A x = b` for a symmetric positive-definite [`CsrMatrix`] using
/// the preconditioned conjugate-gradient method.
///
/// `x0` provides the initial guess (pass `None` for the zero vector —
/// a warm start from a previous nearby solve typically halves iteration
/// counts during parameter sweeps).
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `b` (or `x0`) does not match `a`.
/// * [`LinalgError::InvalidDimension`] if `a` is not square.
/// * [`LinalgError::SolverDidNotConverge`] if the tolerance is not reached
///   within `options.max_iterations`.
///
/// # Examples
///
/// ```
/// use deepoheat_linalg::{conjugate_gradient, CgOptions, CooMatrix, JacobiPreconditioner};
///
/// // 1-D Laplacian with Dirichlet ends.
/// let n = 16;
/// let mut coo = CooMatrix::new(n, n);
/// for i in 0..n {
///     coo.push(i, i, 2.0);
///     if i > 0 { coo.push(i, i - 1, -1.0); coo.push(i - 1, i, -1.0); }
/// }
/// let a = coo.to_csr();
/// let b = vec![1.0; n];
/// let pc = JacobiPreconditioner::new(&a)?;
/// let out = conjugate_gradient(&a, &b, None, &pc, CgOptions::default())?;
/// assert!(out.relative_residual < 1e-10);
/// # Ok::<(), deepoheat_linalg::LinalgError>(())
/// ```
pub fn conjugate_gradient<P: Preconditioner>(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    preconditioner: &P,
    options: CgOptions,
) -> Result<CgOutcome, LinalgError> {
    let attempt = conjugate_gradient_attempt(a, b, x0, preconditioner, options)?;
    if attempt.converged {
        Ok(CgOutcome {
            solution: attempt.solution,
            iterations: attempt.iterations,
            relative_residual: attempt.relative_residual,
            trace: attempt.trace,
        })
    } else {
        Err(LinalgError::SolverDidNotConverge {
            iterations: attempt.iterations,
            residual: attempt.relative_residual,
        })
    }
}

/// Runs one conjugate-gradient attempt, reporting non-convergence as data
/// (see [`CgAttempt`]) instead of an error.
///
/// The initial residual is always recomputed as the *true* residual
/// `r = b − A·x0`, so restarting a stalled solve from its partial iterate
/// discards any drift the recurrence accumulated.
///
/// # Errors
///
/// Only structural failures error: shape mismatches, a non-square matrix,
/// or invalid options. Running out of iterations or hitting a `pᵀAp ≤ 0`
/// breakdown returns `Ok` with [`CgAttempt::converged`] `false`.
pub fn conjugate_gradient_attempt<P: Preconditioner>(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    preconditioner: &P,
    options: CgOptions,
) -> Result<CgAttempt, LinalgError> {
    options.validate()?;
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::InvalidDimension {
            op: "conjugate_gradient",
            what: format!("matrix is {}x{}, expected square", a.rows(), a.cols()),
        });
    }
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "conjugate_gradient",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    let mut trace = if options.record_trace { Some(CgTrace::default()) } else { None };
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        if let Some(trace) = trace.as_mut() {
            trace.residuals.push(0.0);
        }
        return Ok(CgAttempt {
            solution: vec![0.0; n],
            iterations: 0,
            relative_residual: 0.0,
            converged: true,
            breakdown: false,
            trace,
        });
    }

    let mut x = match x0 {
        Some(x0) => {
            if x0.len() != n {
                return Err(LinalgError::ShapeMismatch {
                    op: "conjugate_gradient",
                    lhs: a.shape(),
                    rhs: (x0.len(), 1),
                });
            }
            x0.to_vec()
        }
        None => vec![0.0; n],
    };

    // Timed wrappers are only consulted when tracing: the extra clock reads
    // would otherwise dominate small solves.
    let timed = |trace_seconds: Option<&mut f64>, f: &mut dyn FnMut()| {
        if let Some(acc) = trace_seconds {
            let start = std::time::Instant::now();
            f();
            *acc += start.elapsed().as_secs_f64();
        } else {
            f();
        }
    };

    // r = b - A x
    let mut r = vec![0.0; n];
    a.spmv_into(&x, &mut r)?;
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }

    let mut z = vec![0.0; n];
    timed(trace.as_mut().map(|t| &mut t.preconditioner_seconds), &mut || {
        preconditioner.apply(&r, &mut z)
    });
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];

    for iter in 0..options.max_iterations {
        let res = norm2(&r) / b_norm;
        if let Some(trace) = trace.as_mut() {
            trace.residuals.push(res);
        }
        if res <= options.tolerance {
            return Ok(CgAttempt {
                solution: x,
                iterations: iter,
                relative_residual: res,
                converged: true,
                breakdown: false,
                trace,
            });
        }
        let mut spmv_result = Ok(());
        timed(trace.as_mut().map(|t| &mut t.spmv_seconds), &mut || {
            spmv_result = a.spmv_into(&p, &mut ap)
        });
        spmv_result?;
        let pap = dot(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            // Matrix is not SPD along this direction — stop and hand the
            // partial iterate back rather than silently returning garbage.
            return Ok(CgAttempt {
                solution: x,
                iterations: iter,
                relative_residual: res,
                converged: false,
                breakdown: true,
                trace,
            });
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        timed(trace.as_mut().map(|t| &mut t.preconditioner_seconds), &mut || {
            preconditioner.apply(&r, &mut z)
        });
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, &zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
    }

    let res = norm2(&r) / b_norm;
    if let Some(trace) = trace.as_mut() {
        trace.residuals.push(res);
    }
    Ok(CgAttempt {
        solution: x,
        iterations: options.max_iterations,
        relative_residual: res,
        converged: res <= options.tolerance,
        breakdown: false,
        trace,
    })
}

#[cfg(test)]
#[path = "../tests/ssor_fixtures/mod.rs"]
mod ssor_fixtures;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
                coo.push(i - 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn solves_laplacian_with_all_preconditioners() {
        let n = 50;
        let a = laplacian_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.spmv(&x_true).unwrap();
        let opts = CgOptions { max_iterations: 1000, tolerance: 1e-12, ..CgOptions::default() };

        let id = IdentityPreconditioner;
        let jacobi = JacobiPreconditioner::new(&a).unwrap();
        let ssor = SsorPreconditioner::new(&a, 1.4).unwrap();

        for out in [
            conjugate_gradient(&a, &b, None, &id, opts).unwrap(),
            conjugate_gradient(&a, &b, None, &jacobi, opts).unwrap(),
            conjugate_gradient(&a, &b, None, &ssor, opts).unwrap(),
        ] {
            for (xi, ti) in out.solution.iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-8, "cg solution mismatch: {xi} vs {ti}");
            }
        }
    }

    #[test]
    fn ssor_converges_faster_than_identity() {
        let n = 200;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        let opts = CgOptions { max_iterations: 10_000, tolerance: 1e-10, ..CgOptions::default() };
        let plain = conjugate_gradient(&a, &b, None, &IdentityPreconditioner, opts).unwrap();
        let ssor = SsorPreconditioner::new(&a, 1.5).unwrap();
        let pre = conjugate_gradient(&a, &b, None, &ssor, opts).unwrap();
        assert!(
            pre.iterations < plain.iterations,
            "ssor {} !< plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let n = 100;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        let opts = CgOptions { max_iterations: 10_000, tolerance: 1e-10, ..CgOptions::default() };
        let jacobi = JacobiPreconditioner::new(&a).unwrap();
        let cold = conjugate_gradient(&a, &b, None, &jacobi, opts).unwrap();
        let warm = conjugate_gradient(&a, &b, Some(&cold.solution), &jacobi, opts).unwrap();
        assert!(warm.iterations <= 1);
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let a = laplacian_1d(5);
        let out =
            conjugate_gradient(&a, &[0.0; 5], None, &IdentityPreconditioner, CgOptions::default())
                .unwrap();
        assert_eq!(out.solution, vec![0.0; 5]);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn errors_on_shape_mismatch() {
        let a = laplacian_1d(5);
        let err =
            conjugate_gradient(&a, &[1.0; 4], None, &IdentityPreconditioner, CgOptions::default());
        assert!(matches!(err, Err(LinalgError::ShapeMismatch { .. })));
        let err = conjugate_gradient(
            &a,
            &[1.0; 5],
            Some(&[0.0; 4]),
            &IdentityPreconditioner,
            CgOptions::default(),
        );
        assert!(matches!(err, Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn reports_non_convergence() {
        let a = laplacian_1d(100);
        let b = vec![1.0; 100];
        let opts = CgOptions { max_iterations: 2, tolerance: 1e-14, ..CgOptions::default() };
        let err = conjugate_gradient(&a, &b, None, &IdentityPreconditioner, opts);
        assert!(matches!(err, Err(LinalgError::SolverDidNotConverge { iterations: 2, .. })));
    }

    #[test]
    fn jacobi_rejects_zero_diagonal() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        let a = coo.to_csr();
        assert!(matches!(
            JacobiPreconditioner::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn options_validation_rejects_degenerate_configs() {
        assert!(CgOptions::new(0, 1e-10).is_err());
        assert!(CgOptions::new(100, 0.0).is_err());
        assert!(CgOptions::new(100, -1.0).is_err());
        assert!(CgOptions::new(100, f64::NAN).is_err());
        assert!(CgOptions::new(100, f64::INFINITY).is_err());
        assert!(CgOptions::new(100, 1e-10).is_ok());

        // The solver itself refuses invalid options up front.
        let a = laplacian_1d(4);
        let bad = CgOptions { max_iterations: 0, tolerance: 1e-10, record_trace: false };
        let err = conjugate_gradient(&a, &[1.0; 4], None, &IdentityPreconditioner, bad);
        assert!(matches!(err, Err(LinalgError::InvalidDimension { .. })));
    }

    #[test]
    fn trace_records_monotone_history_ending_at_final_residual() {
        let n = 80;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        let opts = CgOptions::new(10_000, 1e-10).unwrap().with_trace();
        let jacobi = JacobiPreconditioner::new(&a).unwrap();
        let out = conjugate_gradient(&a, &b, None, &jacobi, opts).unwrap();

        let trace = out.trace.as_ref().expect("record_trace was set");
        // One residual per iteration plus the accepted final value.
        assert_eq!(trace.residuals.len(), out.iterations + 1);
        assert_eq!(*trace.residuals.last().unwrap(), out.relative_residual);
        assert_eq!(trace.residuals[0], 1.0); // zero initial guess: ‖b‖/‖b‖
        assert!(trace.preconditioner_seconds >= 0.0);
        assert!(trace.spmv_seconds >= 0.0);

        // Tracing must not change the arithmetic.
        let untraced =
            conjugate_gradient(&a, &b, None, &jacobi, CgOptions::new(10_000, 1e-10).unwrap())
                .unwrap();
        assert_eq!(untraced.solution, out.solution);
        assert_eq!(untraced.iterations, out.iterations);
        assert!(untraced.trace.is_none());
    }

    #[test]
    fn trace_present_on_zero_rhs_and_warm_start_paths() {
        let a = laplacian_1d(6);
        let opts = CgOptions::default().with_trace();
        let zero = conjugate_gradient(&a, &[0.0; 6], None, &IdentityPreconditioner, opts).unwrap();
        assert_eq!(zero.trace.unwrap().residuals, vec![0.0]);

        let b = vec![1.0; 6];
        let jacobi = JacobiPreconditioner::new(&a).unwrap();
        let solved = conjugate_gradient(&a, &b, None, &jacobi, opts).unwrap();
        let warm = conjugate_gradient(&a, &b, Some(&solved.solution), &jacobi, opts).unwrap();
        let trace = warm.trace.unwrap();
        assert_eq!(*trace.residuals.last().unwrap(), warm.relative_residual);
    }

    #[test]
    fn attempt_preserves_partial_iterate_on_non_convergence() {
        let n = 100;
        let a = laplacian_1d(n);
        let b = vec![1.0; n];
        let opts = CgOptions { max_iterations: 5, tolerance: 1e-14, ..CgOptions::default() };
        let attempt =
            conjugate_gradient_attempt(&a, &b, None, &IdentityPreconditioner, opts).unwrap();
        assert!(!attempt.converged);
        assert!(!attempt.breakdown);
        assert_eq!(attempt.iterations, 5);
        // The partial iterate is preserved (not reset to the zero start).
        assert!(attempt.relative_residual.is_finite());
        assert!(attempt.solution.iter().any(|&v| v != 0.0));

        // Restarting from the partial iterate finishes the solve.
        let opts = CgOptions { max_iterations: 10_000, tolerance: 1e-10, ..CgOptions::default() };
        let resumed = conjugate_gradient_attempt(
            &a,
            &b,
            Some(&attempt.solution),
            &IdentityPreconditioner,
            opts,
        )
        .unwrap();
        assert!(resumed.converged);
        assert!(resumed.relative_residual <= 1e-10);
    }

    #[test]
    fn attempt_reports_breakdown_on_indefinite_matrix() {
        // diag(1, -1) is symmetric but indefinite: CG hits pᵀAp < 0.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, -1.0);
        let a = coo.to_csr();
        let attempt = conjugate_gradient_attempt(
            &a,
            &[0.0, 1.0],
            None,
            &IdentityPreconditioner,
            CgOptions::default(),
        )
        .unwrap();
        assert!(attempt.breakdown);
        assert!(!attempt.converged);
        // The wrapper still maps this to the historical typed error.
        let err = conjugate_gradient(
            &a,
            &[0.0, 1.0],
            None,
            &IdentityPreconditioner,
            CgOptions::default(),
        );
        assert!(matches!(err, Err(LinalgError::SolverDidNotConverge { .. })));
    }

    #[test]
    fn ssor_rejects_non_square_matrix() {
        // A 2×3 matrix with an entry past the square part: building used to
        // succeed and `apply` then indexed past `z`.
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 2.0);
        coo.push(0, 2, -1.0);
        assert!(matches!(
            SsorPreconditioner::new(&coo.to_csr(), 1.0),
            Err(LinalgError::InvalidDimension { .. })
        ));
    }

    #[test]
    fn wavefront_runs_each_chain_one_row_behind_the_one_before() {
        // Blocks of three rows, the fifth one short: a group of four
        // blocks, then a group of one.
        let order = |forward: bool, n: usize, block: usize, chains: usize| {
            let mut rows = Vec::new();
            if forward {
                wavefront::<true>(n, block, chains, |i| rows.push(i));
            } else {
                wavefront::<false>(n, block, chains, |i| rows.push(i));
            }
            rows
        };
        let forward = order(true, 14, 3, 4);
        assert_eq!(forward, [0, 1, 3, 2, 4, 6, 5, 7, 9, 8, 10, 11, 12, 13]);
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        assert_eq!(order(false, 14, 3, 4), backward);
        // One chain over one block is the natural order.
        assert_eq!(order(true, 5, 5, 1), [0, 1, 2, 3, 4]);
        assert_eq!(order(false, 5, 5, 1), [4, 3, 2, 1, 0]);
    }

    #[test]
    fn ssor_plans_the_wavefront_for_grid_operators_only() {
        // The same fixtures the `sparse_kernels` oracle holds to the
        // natural-order reference, so it covers both schedules.
        for fixture in ssor_fixtures::fixtures() {
            let ssor = SsorPreconditioner::new(&fixture.matrix, 1.5).expect("SPD fixture");
            assert_eq!(ssor.block, fixture.block, "{}", fixture.name);
        }
    }

    #[test]
    fn ssor_rejects_bad_omega() {
        let a = laplacian_1d(3);
        assert!(SsorPreconditioner::new(&a, 0.0).is_err());
        assert!(SsorPreconditioner::new(&a, 2.0).is_err());
        assert!(SsorPreconditioner::new(&a, -1.0).is_err());
        assert!(SsorPreconditioner::new(&a, 1.0).is_ok());
    }
}
