//! Block preconditioned conjugate gradients with subspace recycling.
//!
//! Solves `A X = B` for a multi-column right-hand side in one Krylov
//! iteration: the residual block shrinks together, so columns share the
//! search space and converge in far fewer matrix passes than solving each
//! column alone.
//!
//! Each iteration streams its block through one-pass kernels, every one
//! giving each column the bits of the per-column computation it replaces:
//!
//! * `Q = A P` is one [`CsrMatrix::spmm_into`] sweep, up to eight columns
//!   per pass over `A`, each row of `Q` bitwise an SpMV;
//! * the Gram blocks `PᵀQ` and `RᵀZ` and the residual norms are one pass
//!   each over the rows ([`gram`], [`row_norms`]), every entry bitwise
//!   the pooled [`dot`]/[`norm2`] with its fixed chunking;
//! * the updates `X += αᵀP`, `R −= αᵀQ` and `P = Z + βᵀP` are one fused,
//!   column-tiled pass each ([`add_product`], [`sub_product`],
//!   [`direction_update`]), every element rounded like the blocked GEMM
//!   product plus elementwise add it replaces.
//!
//! Every kernel splits its work over the pool by fixed bands of the
//! problem shape, so a block solve is bit-identical at any pool width.
//!
//! # Determinism and the one-vector case
//!
//! For a one-row block the recurrence collapses to textbook PCG, and this
//! implementation is engineered to be *bitwise* that loop, at the cost of
//! that loop: the `1×1` Gram systems are solved by direct division (never
//! via a Cholesky square root), every block kernel given one vector runs
//! the one-vector kernel (an SpMV, [`Preconditioner::apply`], a [`dot`],
//! an elementwise update pass), no multiply and add fuse into an FMA
//! anywhere in this crate, and the residual check and breakdown orderings
//! follow the textbook loop statement for statement. A one-row block is
//! therefore the workspace's single-right-hand-side solver too. The
//! property suite in `tests/block_cg_properties.rs` pins it against a
//! textbook PCG oracle kept there.
//!
//! Converged columns are *deflated*: they leave the active block, so late
//! stragglers keep iterating on a thin block instead of dragging the whole
//! batch through extra GEMMs.
//!
//! The preconditioner sees the whole residual block at once through
//! [`Preconditioner::apply_rows`], which gives each row the bits of
//! [`Preconditioner::apply`]; SSOR uses it to stream its triangles once
//! per group of right-hand sides instead of once per column.

use crate::{
    add_product, direction_update, dot, gram, norm2, row_norms, sub_product, Cholesky, CsrMatrix,
    LinalgError, Matrix, Preconditioner,
};

/// Options controlling [`block_cg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockCgOptions {
    /// Maximum number of block iterations before giving up.
    pub max_iterations: usize,
    /// Relative residual tolerance `‖rᵢ‖ / ‖bᵢ‖` at which a column is
    /// declared converged and deflated out of the active block.
    pub tolerance: f64,
    /// When `true`, records a per-iteration [`BlockCgTrace`].
    pub record_trace: bool,
}

impl Default for BlockCgOptions {
    fn default() -> Self {
        BlockCgOptions { max_iterations: 10_000, tolerance: 1e-10, record_trace: false }
    }
}

impl BlockCgOptions {
    /// Checks that the options describe a solvable configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimension`] if `max_iterations` is
    /// zero or `tolerance` is not a strictly positive finite number. A zero
    /// or negative tolerance can never be met by floating-point residuals,
    /// so it is rejected up front instead of burning `max_iterations`
    /// first.
    pub fn validate(&self) -> Result<(), LinalgError> {
        if self.max_iterations == 0 {
            return Err(LinalgError::InvalidDimension {
                op: "block_cg",
                what: "max_iterations must be at least 1".to_string(),
            });
        }
        if self.tolerance <= 0.0 || !self.tolerance.is_finite() {
            return Err(LinalgError::InvalidDimension {
                op: "block_cg",
                what: format!("tolerance must be a positive finite number, got {}", self.tolerance),
            });
        }
        Ok(())
    }
}

/// Per-iteration history recorded when [`BlockCgOptions::record_trace`] is
/// set. One entry per block iteration, observed at the top of the
/// iteration (before that iteration's deflation), and one for the state
/// the solve stopped in. For a one-row block that is `iterations + 1`
/// entries, and `max_residual` is the column's relative residual history,
/// ending with its final [`BlockCgColumn::relative_residual`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlockCgTrace {
    /// Number of still-active (unconverged) columns.
    pub active_columns: Vec<usize>,
    /// Worst per-column relative residual across the active block.
    pub max_residual: Vec<f64>,
}

/// The verdict for one right-hand-side column of a [`block_cg`] solve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockCgColumn {
    /// Block iterations this column participated in before it converged
    /// (or the attempt stopped).
    pub iterations: usize,
    /// Relative residual `‖bᵢ - A xᵢ‖ / ‖bᵢ‖` when the column left the
    /// active block.
    pub relative_residual: f64,
    /// Whether the column reached the requested tolerance.
    pub converged: bool,
    /// Whether the column was still active when the block recurrence broke
    /// down (a Gram system stopped being positive definite).
    pub breakdown: bool,
}

/// The result of one [`block_cg`] attempt. Non-convergence is data, not an
/// error: partial iterates are preserved per column so callers can
/// escalate column-by-column (restart from the iterate, switch
/// preconditioner, relax the tolerance) instead of starting over.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCgOutcome {
    /// The iterate block, one right-hand side per **row** (matching the
    /// row-major [`Matrix`] layout of the input `B`).
    pub solution: Matrix,
    /// Per-column verdicts, index-aligned with the rows of `B`.
    pub columns: Vec<BlockCgColumn>,
    /// Block iterations performed (the column counts never exceed this).
    pub iterations: usize,
    /// Whether the recurrence stopped on a Gram breakdown.
    pub breakdown: bool,
    /// Convergence trace, present iff [`BlockCgOptions::record_trace`].
    pub trace: Option<BlockCgTrace>,
}

impl BlockCgOutcome {
    /// Whether every column reached the tolerance.
    pub fn all_converged(&self) -> bool {
        self.columns.iter().all(|c| c.converged)
    }
}

/// Bookkeeping for a column deflated out of the block because its residual
/// became (numerically) linearly dependent on the others: `r_c ≈ Σ γⱼ rⱼ`
/// implies the remaining error is the same combination of the kept
/// columns' errors, so once those converge the deflated solution is
/// recovered as `x_c += Σ γⱼ (xⱼ_final − xⱼ_at_deflation)`.
struct DependentRecord {
    /// Original column index of the deflated right-hand side.
    column: usize,
    /// Original column indices of the still-active columns at deflation.
    kept: Vec<usize>,
    /// Least-squares coefficients of `r_column` on the kept residuals.
    gamma: Vec<f64>,
    /// Iterate rows of the kept columns at deflation time.
    snapshot: Matrix,
}

/// Least-squares fit of residual row `slot` on the other residual rows,
/// via Tikhonov-regularised normal equations (the kept rows may be nearly
/// dependent themselves — that is exactly the regime deflation runs in).
/// Returns `None` when no usable fit exists (nothing kept, or a degenerate
/// Gram), in which case the column is abandoned with a breakdown flag.
fn fit_dependent(r: &Matrix, slot: usize) -> Option<Vec<f64>> {
    let kept: Vec<usize> = (0..r.rows()).filter(|&s| s != slot).collect();
    if kept.is_empty() {
        return None;
    }
    let m = kept.len();
    // One pass gives every entry the fit needs, `‖r_slot‖²` included.
    let full = gram(r, r).ok()?;
    let g = Matrix::from_fn(m, m, |i, j| full.row(kept[i])[kept[j]]);
    let trace: f64 = (0..m).map(|i| g.row(i)[i]).sum();
    if trace <= 0.0 || !trace.is_finite() {
        return None;
    }
    let lambda = 1e-10 * trace / m as f64;
    let reg = Matrix::from_fn(m, m, |i, j| if i == j { g.row(i)[j] + lambda } else { g.row(i)[j] });
    let rhs: Vec<f64> = kept.iter().map(|&s| full.row(s)[slot]).collect();
    let gamma = Cholesky::new(&reg).ok()?.solve(&rhs).ok()?;
    if !gamma.iter().all(|v| v.is_finite()) {
        return None;
    }
    // The fit must actually explain the residual: a Gram breakdown can
    // also come from indefiniteness (the one-vector `pᵀAp ≤ 0` case), where
    // the column is NOT in the others' span and reconstruction would
    // silently return garbage.
    let mut err = r.row(slot).to_vec();
    for (j, &s) in kept.iter().enumerate() {
        crate::axpy(-gamma[j], r.row(s), &mut err);
    }
    let denom = full.row(slot)[slot].sqrt();
    if denom > 0.0 && norm2(&err) <= 1e-4 * denom {
        Some(gamma)
    } else {
        None
    }
}

/// Solves the small dense SPD system `S α = Rhs` column by column and
/// returns `αᵀ` (the operand shape the row-major block updates need).
/// A positive-definiteness breakdown or non-finite solve — the block-CG
/// analogue of the one-vector `pᵀAp ≤ 0` check — returns `Err` with the
/// offending pivot's index: the column whose direction became (numerically)
/// linearly dependent on the earlier ones.
fn solve_gram_transposed(s: &Matrix, rhs: &Matrix) -> Result<Matrix, usize> {
    let k = s.rows();
    let chol = match Cholesky::new(s) {
        Ok(chol) => chol,
        Err(LinalgError::NotPositiveDefinite { pivot, .. }) => return Err(pivot),
        Err(_) => return Err(0),
    };
    let mut alpha_t = Matrix::zeros(k, k);
    for j in 0..k {
        let col = chol.solve(&rhs.column(j)).map_err(|_| j)?;
        for (i, v) in col.into_iter().enumerate() {
            alpha_t.row_mut(j)[i] = v;
        }
    }
    if alpha_t.is_finite() {
        Ok(alpha_t)
    } else {
        Err(0)
    }
}

/// Solves `A X = B` for a symmetric positive-definite [`CsrMatrix`] and a
/// block of right-hand sides using preconditioned block conjugate
/// gradients with per-column deflation.
///
/// `b` holds one right-hand side per **row** (`k×n` for `k` systems over
/// an `n×n` operator), matching the row-major [`Matrix`] layout so block
/// updates are contiguous GEMM operands. `x0` optionally warm-starts the
/// iterate block (same shape); the initial residual is always recomputed
/// as the true residual `B − A X₀`, so restarting a stalled solve from its
/// partial iterate discards any drift the recurrence accumulated. Zero rows
/// of `b` short-circuit to a zero solution, even over a warm start.
///
/// # Errors
///
/// Only structural failures error: a non-square `a`, shape mismatches
/// between `a`, `b` and `x0`, an empty block, or invalid options. Running
/// out of iterations or hitting a Gram breakdown returns `Ok` with the
/// per-column verdicts describing what happened.
pub fn block_cg<P: Preconditioner>(
    a: &CsrMatrix,
    b: &Matrix,
    x0: Option<&Matrix>,
    preconditioner: &P,
    options: BlockCgOptions,
) -> Result<BlockCgOutcome, LinalgError> {
    options.validate()?;
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::InvalidDimension {
            op: "block_cg",
            what: format!("matrix is {}x{}, expected square", a.rows(), a.cols()),
        });
    }
    if b.cols() != n || b.rows() == 0 {
        return Err(LinalgError::ShapeMismatch { op: "block_cg", lhs: a.shape(), rhs: b.shape() });
    }
    if let Some(x0) = x0 {
        if x0.shape() != b.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "block_cg",
                lhs: b.shape(),
                rhs: x0.shape(),
            });
        }
    }
    let k = b.rows();
    let mut trace = if options.record_trace { Some(BlockCgTrace::default()) } else { None };

    let mut x = match x0 {
        Some(x0) => x0.clone(),
        None => Matrix::zeros(k, n),
    };
    let mut columns = vec![BlockCgColumn::default(); k];

    // Zero right-hand sides short-circuit to the zero solution (even over a
    // warm start); the rest become the active block.
    let b_norms = row_norms(b);
    let mut active: Vec<usize> = Vec::with_capacity(k);
    for (i, &bn) in b_norms.iter().enumerate() {
        if bn == 0.0 {
            x.row_mut(i).fill(0.0);
            columns[i] = BlockCgColumn {
                iterations: 0,
                relative_residual: 0.0,
                converged: true,
                breakdown: false,
            };
        } else {
            active.push(i);
        }
    }
    // Every exit path funnels through `finish`: dependent-deflated columns
    // are reconstructed (newest record first, so later records' kept
    // columns are already final), then re-measured against their true
    // residual.
    let mut records: Vec<DependentRecord> = Vec::new();
    let finish = |mut x: Matrix,
                  mut columns: Vec<BlockCgColumn>,
                  iterations: usize,
                  trace: Option<BlockCgTrace>,
                  records: &[DependentRecord]|
     -> Result<BlockCgOutcome, LinalgError> {
        let mut scratch = if records.is_empty() { Vec::new() } else { vec![0.0; n] };
        for rec in records.iter().rev() {
            let mut delta = vec![0.0; n];
            for (j, &ck) in rec.kept.iter().enumerate() {
                let g = rec.gamma[j];
                for ((d, &xv), &sv) in delta.iter_mut().zip(x.row(ck)).zip(rec.snapshot.row(j)) {
                    *d += g * (xv - sv);
                }
            }
            for (xi, &d) in x.row_mut(rec.column).iter_mut().zip(&delta) {
                *xi += d;
            }
            a.spmv_into(x.row(rec.column), &mut scratch)?;
            for (ri, &bi) in scratch.iter_mut().zip(b.row(rec.column)) {
                *ri = bi - *ri;
            }
            let res = norm2(&scratch) / b_norms[rec.column];
            columns[rec.column].iterations = iterations;
            columns[rec.column].relative_residual = res;
            columns[rec.column].converged = res <= options.tolerance;
        }
        let breakdown = columns.iter().any(|c| c.breakdown);
        Ok(BlockCgOutcome { solution: x, columns, iterations, breakdown, trace })
    };

    if active.is_empty() {
        if let Some(trace) = trace.as_mut() {
            trace.active_columns.push(0);
            trace.max_residual.push(0.0);
        }
        return finish(x, columns, 0, trace, &records);
    }

    // Builds the recurrence state (R = B − A X, Z = M⁻¹R, P = Z, ρ = RᵀZ)
    // from the *true* residual over the given active set. Used at entry and
    // on a breakdown restart: recomputing from the true residual discards
    // the drift the recurrence accumulated. An all-active block is `x`
    // itself, with no copy.
    let rebuild =
        |x: &Matrix, active: &[usize]| -> Result<(Matrix, Matrix, Matrix, Matrix), LinalgError> {
            let ka = active.len();
            let mut r = if ka == x.rows() { a.spmm(x)? } else { a.spmm(&x.select_rows(active))? };
            for (slot, &c) in active.iter().enumerate() {
                let row = r.row_mut(slot);
                for (ri, &bi) in row.iter_mut().zip(b.row(c)) {
                    *ri = bi - *ri;
                }
            }
            let mut z = Matrix::zeros(ka, n);
            preconditioner.apply_rows(&r, &mut z);
            let p = z.clone();
            let rho = gram(&r, &z)?;
            Ok((r, z, p, rho))
        };

    let (mut r, mut z, mut p, mut rho) = rebuild(&x, &active)?;
    let mut q = Matrix::zeros(active.len(), n);
    // One restart is allowed per successful iteration: near convergence the
    // residual block loses numerical rank and the Gram Cholesky fails even
    // though every column is healthy on its own. Rebuilding from true
    // residuals decorrelates the block; only if the failure recurs
    // immediately is a column genuinely dependent and deflated out.
    let mut allow_restart = true;

    let mut iterations_performed = 0;
    for iter in 0..options.max_iterations {
        iterations_performed = iter;

        // Top-of-iteration residual check; converged columns deflate out.
        let ka = active.len();
        let mut still: Vec<usize> = Vec::with_capacity(ka);
        let mut worst = 0.0f64;
        for ((slot, &c), r_norm) in active.iter().enumerate().zip(row_norms(&r)) {
            let res = r_norm / b_norms[c];
            worst = worst.max(res);
            columns[c].iterations = iter;
            columns[c].relative_residual = res;
            if res <= options.tolerance {
                columns[c].converged = true;
            } else {
                still.push(slot);
            }
        }
        if let Some(trace) = trace.as_mut() {
            trace.active_columns.push(ka);
            trace.max_residual.push(worst);
        }
        if still.len() < ka {
            active = still.iter().map(|&slot| active[slot]).collect();
            if active.is_empty() {
                return finish(x, columns, iter, trace, &records);
            }
            r = r.select_rows(&still);
            z = z.select_rows(&still);
            p = p.select_rows(&still);
            q = Matrix::zeros(active.len(), n);
            let old = rho;
            rho = Matrix::from_fn(still.len(), still.len(), |i, j| old.row(still[i])[still[j]]);
        }
        let ka = active.len();

        // Q = A P (one streaming pass over A for the whole block), then
        // the Gram system S α = ρ.
        a.spmm_into(&p, &mut q)?;
        let s = gram(&p, &q)?;
        let alpha_t = if ka == 1 {
            // Direct division: textbook PCG's `alpha = rz / pap`, where a
            // 1×1 Cholesky would round through a square root instead.
            let pap = s.row(0)[0];
            if pap <= 0.0 || !pap.is_finite() {
                // The operator is not SPD along this direction. A
                // single-direction breakdown is final, never restarted.
                let c = active[0];
                columns[c].breakdown = true;
                return finish(x, columns, iter, trace, &records);
            }
            Matrix::from_fn(1, 1, |_, _| rho.row(0)[0] / pap)
        } else {
            match solve_gram_transposed(&s, &rho) {
                Ok(alpha_t) => alpha_t,
                Err(pivot) => {
                    if allow_restart {
                        allow_restart = false;
                        (r, z, p, rho) = rebuild(&x, &active)?;
                        continue;
                    }
                    // The dependence survived a fresh Krylov space: the
                    // pivot column really is spanned by the others.
                    // Deflate it, recording how to reconstruct it from the
                    // kept columns once they converge.
                    let slot = pivot.min(active.len() - 1);
                    let c = active[slot];
                    match fit_dependent(&r, slot) {
                        Some(gamma) => {
                            let kept: Vec<usize> = active
                                .iter()
                                .enumerate()
                                .filter(|&(s, _)| s != slot)
                                .map(|(_, &c)| c)
                                .collect();
                            let snapshot = x.select_rows(&kept);
                            records.push(DependentRecord { column: c, kept, gamma, snapshot });
                        }
                        None => columns[c].breakdown = true,
                    }
                    active.remove(slot);
                    if active.is_empty() {
                        return finish(x, columns, iter, trace, &records);
                    }
                    (r, z, p, rho) = rebuild(&x, &active)?;
                    q = Matrix::zeros(active.len(), n);
                    continue;
                }
            }
        };

        // X += αᵀP and R −= αᵀQ: each element's product term is formed in
        // full, then added or subtracted (two roundings, as in `axpy`).
        add_product(&alpha_t, &p, &mut x, &active)?;
        sub_product(&alpha_t, &q, &mut r)?;

        // Z = M⁻¹R, ρ' = RᵀZ, then P = Z + βᵀP with ρ β = ρ'.
        preconditioner.apply_rows(&r, &mut z);
        let rho_new = gram(&r, &z)?;
        let beta_t = if ka == 1 {
            // Textbook PCG's `beta = rz_new / rz`, divided unconditionally.
            Matrix::from_fn(1, 1, |_, _| rho_new.row(0)[0] / rho.row(0)[0])
        } else {
            match solve_gram_transposed(&rho, &rho_new) {
                Ok(beta_t) => beta_t,
                Err(pivot) => {
                    if allow_restart {
                        allow_restart = false;
                        (r, z, p, rho) = rebuild(&x, &active)?;
                        continue;
                    }
                    let slot = pivot.min(active.len() - 1);
                    let c = active[slot];
                    match fit_dependent(&r, slot) {
                        Some(gamma) => {
                            let kept: Vec<usize> = active
                                .iter()
                                .enumerate()
                                .filter(|&(s, _)| s != slot)
                                .map(|(_, &c)| c)
                                .collect();
                            let snapshot = x.select_rows(&kept);
                            records.push(DependentRecord { column: c, kept, gamma, snapshot });
                        }
                        None => columns[c].breakdown = true,
                    }
                    active.remove(slot);
                    if active.is_empty() {
                        return finish(x, columns, iter, trace, &records);
                    }
                    (r, z, p, rho) = rebuild(&x, &active)?;
                    q = Matrix::zeros(active.len(), n);
                    continue;
                }
            }
        };
        direction_update(&beta_t, &z, &mut p)?;
        rho = rho_new;
        allow_restart = true;
        iterations_performed = iter + 1;
    }

    // Out of iterations: final residual check for whatever is still active.
    let mut worst = 0.0f64;
    for (&c, r_norm) in active.iter().zip(row_norms(&r)) {
        let res = r_norm / b_norms[c];
        worst = worst.max(res);
        columns[c].iterations = options.max_iterations;
        columns[c].relative_residual = res;
        columns[c].converged = res <= options.tolerance;
    }
    if let Some(trace) = trace.as_mut() {
        trace.active_columns.push(active.len());
        trace.max_residual.push(worst);
    }
    finish(x, columns, iterations_performed, trace, &records)
}

/// A recycled Krylov subspace shared by successive [`block_cg`] batches
/// over the *same* operator.
///
/// The basis is kept A-orthonormal (`wᵢᵀ A wⱼ = δᵢⱼ`) by modified
/// Gram–Schmidt in the A-inner product at [`RecycleSpace::absorb`] time,
/// so the Galerkin warm start `X₀ = (B Wᵀ) W` needs no small solve at all:
/// the projection coefficients are one [`gram`] pass and the expansion is
/// one blocked GEMM. Batches whose right-hand sides resemble earlier ones
/// start with a relative residual well below 1 and converge in a fraction
/// of the cold iteration count.
///
/// The space is tied to one operator: callers **must** drop it (or start a
/// new one) when `A` changes — the struct cannot detect that itself.
#[derive(Debug, Clone)]
pub struct RecycleSpace {
    max_dim: usize,
    /// A-orthonormal basis, one vector per row, oldest first.
    w: Matrix,
    /// `A·w` per basis row, cached for absorb-time orthogonalisation.
    aw: Matrix,
}

impl RecycleSpace {
    /// Creates an empty space holding at most `max_dim` basis vectors.
    /// When the cap is reached, absorbing evicts the oldest vector —
    /// recent solutions resemble upcoming right-hand sides the most.
    pub fn new(max_dim: usize) -> Self {
        RecycleSpace { max_dim, w: Matrix::zeros(0, 0), aw: Matrix::zeros(0, 0) }
    }

    /// Number of basis vectors currently held.
    pub fn dim(&self) -> usize {
        self.w.rows()
    }

    /// Whether the space holds no basis vectors yet.
    pub fn is_empty(&self) -> bool {
        self.w.rows() == 0
    }

    /// Galerkin warm start for a new right-hand-side block (`k×n`, one RHS
    /// per row): returns `X₀ = (B Wᵀ) W`, the A-optimal iterate within the
    /// recycled subspace, or `None` while the space is empty.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b`'s row length differs
    /// from the dimension the basis was absorbed at.
    pub fn warm_start(&self, b: &Matrix) -> Result<Option<Matrix>, LinalgError> {
        if self.is_empty() {
            return Ok(None);
        }
        if b.cols() != self.w.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "recycle_warm_start",
                lhs: self.w.shape(),
                rhs: b.shape(),
            });
        }
        // coeff[i][j] = ⟨w_j, b_i⟩, each the pooled dot `dot(w_j, b_i)`.
        let coeff = gram(&self.w, b)?.transpose();
        Ok(Some(coeff.matmul(&self.w)?))
    }

    /// Absorbs solved iterates (rows of `x`) into the basis:
    /// A-orthogonalises each against the current basis, drops directions
    /// that are numerically contained already, and A-normalises the rest.
    /// `a` must be the operator the solutions came from.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`LinalgError`] if `x`'s row length does not
    /// match `a`, or a shape error from the sparse product.
    pub fn absorb(&mut self, a: &CsrMatrix, x: &Matrix) -> Result<(), LinalgError> {
        if self.is_empty() {
            self.w = Matrix::zeros(0, a.rows());
            self.aw = Matrix::zeros(0, a.rows());
        }
        let n = self.w.cols();
        if x.cols() != n || a.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "recycle_absorb",
                lhs: (a.rows(), n),
                rhs: x.shape(),
            });
        }
        if self.max_dim == 0 {
            return Ok(());
        }
        for i in 0..x.rows() {
            let mut v = x.row(i).to_vec();
            let scale = norm2(&v);
            if scale == 0.0 {
                continue;
            }
            // Two MGS passes in the A-inner product: one is not enough to
            // keep `wᵢᵀAwⱼ = δᵢⱼ` once the basis grows.
            for _ in 0..2 {
                for j in 0..self.w.rows() {
                    let c = dot(self.aw.row(j), &v);
                    crate::axpy(-c, self.w.row(j), &mut v);
                }
            }
            let av = a.spmv(&v)?;
            let va = dot(&v, &av);
            // Direction already (numerically) inside the span, or the
            // operator is not SPD along it: skip rather than poisoning the
            // basis with a badly scaled vector.
            if va <= 1e-24 * scale * scale || !va.is_finite() {
                continue;
            }
            let inv = 1.0 / va.sqrt();
            crate::scale_in_place(inv, &mut v);
            let mut av = av;
            crate::scale_in_place(inv, &mut av);
            if self.w.rows() == self.max_dim {
                self.w.drop_first_row();
                self.aw.drop_first_row();
            }
            self.w.push_row(&v);
            self.aw.push_row(&av);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, IdentityPreconditioner, JacobiPreconditioner, SsorPreconditioner};

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

    /// Well-separated pseudo-random right-hand sides (LCG): the block stays
    /// numerically full-rank all the way to convergence.
    fn rhs_block(n: usize, k: usize) -> Matrix {
        let mut state = 0x9e3779b97f4a7c15u64;
        Matrix::from_fn(k, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    /// Shifted-sawtooth right-hand sides: full-rank as data, but the
    /// residual block collapses toward rank one mid-solve — the deflation
    /// and reconstruction path's natural habitat.
    fn sawtooth_block(n: usize, k: usize) -> Matrix {
        Matrix::from_fn(k, n, |i, j| ((i * 37 + j * 13) % 29) as f64 * 0.1 - 1.0)
    }

    #[test]
    fn solves_multi_rhs_block_to_tolerance() {
        let n = 60;
        let a = laplacian_1d(n);
        let b = rhs_block(n, 5);
        let jacobi = JacobiPreconditioner::new(&a).unwrap();
        let out = block_cg(&a, &b, None, &jacobi, BlockCgOptions::default()).unwrap();
        assert!(out.all_converged(), "{:?}", out.columns);
        for i in 0..5 {
            let ax = a.spmv(out.solution.row(i)).unwrap();
            let res: f64 = ax
                .iter()
                .zip(b.row(i))
                .map(|(axi, bi)| (axi - bi) * (axi - bi))
                .sum::<f64>()
                .sqrt();
            assert!(res / norm2(b.row(i)) < 1e-9, "column {i}: residual {res}");
        }
    }

    #[test]
    fn block_converges_in_fewer_iterations_than_sequential() {
        let n = 200;
        let a = laplacian_1d(n);
        let b = rhs_block(n, 8);
        let out =
            block_cg(&a, &b, None, &IdentityPreconditioner, BlockCgOptions::default()).unwrap();
        assert!(out.all_converged());
        let single = block_cg(
            &a,
            &b.select_rows(&[0]),
            None,
            &IdentityPreconditioner,
            BlockCgOptions::default(),
        )
        .unwrap();
        assert!(
            out.iterations < single.iterations,
            "block {} !< single {}",
            out.iterations,
            single.iterations
        );
    }

    #[test]
    fn zero_rows_short_circuit_and_mixed_blocks_deflate() {
        let n = 40;
        let a = laplacian_1d(n);
        let mut b = rhs_block(n, 3);
        b.row_mut(1).fill(0.0);
        let out =
            block_cg(&a, &b, None, &IdentityPreconditioner, BlockCgOptions::default()).unwrap();
        assert!(out.all_converged());
        assert_eq!(out.columns[1].iterations, 0);
        assert!(out.solution.row(1).iter().all(|&v| v == 0.0));
        assert!(out.columns[0].iterations > 0);
    }

    #[test]
    fn near_dependent_block_reconstructs_deflated_columns() {
        // The residual block collapses toward rank one mid-solve; deflated
        // columns must come back via the dependence reconstruction instead
        // of being abandoned at an O(1) residual.
        let n = 60;
        let a = laplacian_1d(n);
        let b = sawtooth_block(n, 5);
        let out =
            block_cg(&a, &b, None, &IdentityPreconditioner, BlockCgOptions::default()).unwrap();
        assert!(!out.breakdown, "{:?}", out.columns);
        for i in 0..5 {
            let ax = a.spmv(out.solution.row(i)).unwrap();
            let res: f64 = ax
                .iter()
                .zip(b.row(i))
                .map(|(axi, bi)| (axi - bi) * (axi - bi))
                .sum::<f64>()
                .sqrt();
            let rel = res / norm2(b.row(i));
            assert!(rel < 1e-6, "column {i}: relative residual {rel}");
            assert!(out.columns[i].relative_residual < 1e-6, "{:?}", out.columns[i]);
        }
    }

    #[test]
    fn reports_per_column_non_convergence() {
        let n = 150;
        let a = laplacian_1d(n);
        let b = rhs_block(n, 4);
        let opts = BlockCgOptions { max_iterations: 3, tolerance: 1e-14, record_trace: true };
        let out = block_cg(&a, &b, None, &IdentityPreconditioner, opts).unwrap();
        assert!(!out.all_converged());
        assert!(out.columns.iter().all(|c| !c.converged));
        assert!(out.columns.iter().all(|c| c.relative_residual.is_finite()));
        let trace = out.trace.expect("record_trace was set");
        assert_eq!(trace.active_columns.len(), trace.max_residual.len());
        assert_eq!(*trace.active_columns.first().unwrap(), 4);
    }

    #[test]
    fn breakdown_on_indefinite_matrix_flags_active_columns() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, -1.0);
        let a = coo.to_csr();
        let b = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let out =
            block_cg(&a, &b, None, &IdentityPreconditioner, BlockCgOptions::default()).unwrap();
        assert!(out.breakdown);
        assert!(out.columns.iter().any(|c| c.breakdown));
    }

    #[test]
    fn structural_errors_reject_bad_shapes() {
        let a = laplacian_1d(5);
        let err = block_cg(
            &a,
            &Matrix::zeros(2, 4),
            None,
            &IdentityPreconditioner,
            BlockCgOptions::default(),
        );
        assert!(matches!(err, Err(LinalgError::ShapeMismatch { .. })));
        let err = block_cg(
            &a,
            &Matrix::zeros(2, 5),
            Some(&Matrix::zeros(3, 5)),
            &IdentityPreconditioner,
            BlockCgOptions::default(),
        );
        assert!(matches!(err, Err(LinalgError::ShapeMismatch { .. })));
        let bad = BlockCgOptions { max_iterations: 0, ..BlockCgOptions::default() };
        let err = block_cg(&a, &Matrix::zeros(1, 5), None, &IdentityPreconditioner, bad);
        assert!(matches!(err, Err(LinalgError::InvalidDimension { .. })));
        // An empty block, and a non-square operator.
        let err = block_cg(
            &a,
            &Matrix::zeros(0, 5),
            None,
            &IdentityPreconditioner,
            BlockCgOptions::default(),
        );
        assert!(matches!(err, Err(LinalgError::ShapeMismatch { .. })));
        let wide = CooMatrix::new(5, 6).to_csr();
        let err = block_cg(
            &wide,
            &Matrix::zeros(1, 5),
            None,
            &IdentityPreconditioner,
            BlockCgOptions::default(),
        );
        assert!(matches!(err, Err(LinalgError::InvalidDimension { .. })));
    }

    #[test]
    fn options_validation_rejects_degenerate_configs() {
        let with = |max_iterations, tolerance| BlockCgOptions {
            max_iterations,
            tolerance,
            record_trace: false,
        };
        for bad in [
            with(0, 1e-10),
            with(100, 0.0),
            with(100, -1.0),
            with(100, f64::NAN),
            with(100, f64::INFINITY),
        ] {
            assert!(matches!(bad.validate(), Err(LinalgError::InvalidDimension { .. })), "{bad:?}");
            // The solver itself refuses invalid options up front.
            let err = block_cg(
                &laplacian_1d(4),
                &Matrix::filled(1, 4, 1.0),
                None,
                &IdentityPreconditioner,
                bad,
            );
            assert!(matches!(err, Err(LinalgError::InvalidDimension { .. })), "{bad:?}");
        }
        assert!(with(100, 1e-10).validate().is_ok());
    }

    #[test]
    fn one_row_solves_laplacian_with_every_preconditioner() {
        let n = 50;
        let a = laplacian_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = Matrix::from_vec(1, n, a.spmv(&x_true).unwrap()).unwrap();
        let opts = BlockCgOptions { max_iterations: 1000, tolerance: 1e-12, record_trace: false };
        let jacobi = JacobiPreconditioner::new(&a).unwrap();
        let ssor = SsorPreconditioner::new(&a, 1.4).unwrap();
        let preconditioners: [&dyn Preconditioner; 3] = [&IdentityPreconditioner, &jacobi, &ssor];
        for pre in preconditioners {
            let out = block_cg(&a, &b, None, &pre, opts).unwrap();
            assert!(out.all_converged(), "{:?}", out.columns);
            for (xi, ti) in out.solution.row(0).iter().zip(&x_true) {
                assert!((xi - ti).abs() < 1e-8, "cg solution mismatch: {xi} vs {ti}");
            }
        }
    }

    #[test]
    fn one_row_ssor_converges_faster_than_identity() {
        let n = 200;
        let a = laplacian_1d(n);
        let b = Matrix::filled(1, n, 1.0);
        let opts = BlockCgOptions::default();
        let plain = block_cg(&a, &b, None, &IdentityPreconditioner, opts).unwrap();
        let ssor = SsorPreconditioner::new(&a, 1.5).unwrap();
        let pre = block_cg(&a, &b, None, &ssor, opts).unwrap();
        assert!(plain.all_converged() && pre.all_converged());
        assert!(
            pre.iterations < plain.iterations,
            "ssor {} !< plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn one_row_warm_start_from_a_solution_needs_at_most_one_iteration() {
        let n = 100;
        let a = laplacian_1d(n);
        let b = Matrix::filled(1, n, 1.0);
        let jacobi = JacobiPreconditioner::new(&a).unwrap();
        let cold = block_cg(&a, &b, None, &jacobi, BlockCgOptions::default()).unwrap();
        let warm =
            block_cg(&a, &b, Some(&cold.solution), &jacobi, BlockCgOptions::default()).unwrap();
        assert!(warm.all_converged());
        assert!(warm.iterations <= 1, "warm start took {} iterations", warm.iterations);
    }

    #[test]
    fn one_row_zero_rhs_returns_the_zero_solution_over_a_warm_start() {
        let a = laplacian_1d(5);
        let opts = BlockCgOptions { record_trace: true, ..BlockCgOptions::default() };
        let start = Matrix::filled(1, 5, 3.0);
        let out = block_cg(&a, &Matrix::zeros(1, 5), Some(&start), &IdentityPreconditioner, opts)
            .unwrap();
        assert_eq!(out.solution.as_slice(), &[0.0; 5]);
        assert_eq!(out.iterations, 0);
        let column = BlockCgColumn {
            iterations: 0,
            relative_residual: 0.0,
            converged: true,
            breakdown: false,
        };
        assert_eq!(out.columns, vec![column]);
        let trace = out.trace.expect("record_trace was set");
        assert_eq!((trace.active_columns, trace.max_residual), (vec![0], vec![0.0]));
    }

    #[test]
    fn one_row_non_convergence_keeps_the_partial_iterate() {
        let n = 100;
        let a = laplacian_1d(n);
        let b = Matrix::filled(1, n, 1.0);
        let opts = BlockCgOptions { max_iterations: 5, tolerance: 1e-14, record_trace: false };
        let out = block_cg(&a, &b, None, &IdentityPreconditioner, opts).unwrap();
        let column = out.columns[0];
        assert!(!column.converged && !column.breakdown && !out.breakdown);
        assert_eq!((out.iterations, column.iterations), (5, 5));
        // The partial iterate is preserved (not reset to the zero start).
        assert!(column.relative_residual.is_finite());
        assert!(out.solution.iter().any(|&v| v != 0.0));

        // Restarting from the partial iterate finishes the solve.
        let resumed = block_cg(
            &a,
            &b,
            Some(&out.solution),
            &IdentityPreconditioner,
            BlockCgOptions::default(),
        )
        .unwrap();
        assert!(resumed.all_converged());
        assert!(resumed.columns[0].relative_residual <= 1e-10);
    }

    #[test]
    fn one_row_breakdown_on_indefinite_matrix_is_final() {
        // diag(1, -1) is symmetric but indefinite: pᵀAp < 0 at once.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, -1.0);
        let a = coo.to_csr();
        let b = Matrix::from_vec(1, 2, vec![0.0, 1.0]).unwrap();
        let out =
            block_cg(&a, &b, None, &IdentityPreconditioner, BlockCgOptions::default()).unwrap();
        assert!(out.breakdown);
        let column = BlockCgColumn {
            iterations: 0,
            relative_residual: 1.0,
            converged: false,
            breakdown: true,
        };
        assert_eq!(out.columns, vec![column]);
    }

    #[test]
    fn one_row_trace_ends_at_the_final_residual_and_leaves_the_arithmetic_alone() {
        let n = 80;
        let a = laplacian_1d(n);
        let b = Matrix::filled(1, n, 1.0);
        let jacobi = JacobiPreconditioner::new(&a).unwrap();
        let traced = BlockCgOptions { record_trace: true, ..BlockCgOptions::default() };
        let out = block_cg(&a, &b, None, &jacobi, traced).unwrap();
        let trace = out.trace.as_ref().expect("record_trace was set");
        // One residual per iteration plus the accepted final value.
        assert_eq!(trace.max_residual.len(), out.iterations + 1);
        assert_eq!(trace.active_columns, vec![1; out.iterations + 1]);
        assert_eq!(trace.max_residual.last(), Some(&out.columns[0].relative_residual));
        assert_eq!(trace.max_residual[0], 1.0); // zero initial guess: ‖b‖/‖b‖

        // Tracing must not change the arithmetic.
        let untraced = block_cg(&a, &b, None, &jacobi, BlockCgOptions::default()).unwrap();
        let bits = |m: &Matrix| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&untraced.solution), bits(&out.solution));
        assert_eq!(untraced.columns, out.columns);
        assert!(untraced.trace.is_none());

        // A warm start's history ends at its final residual too.
        let warm = block_cg(&a, &b, Some(&out.solution), &jacobi, traced).unwrap();
        let trace = warm.trace.expect("record_trace was set");
        assert_eq!(trace.max_residual.last(), Some(&warm.columns[0].relative_residual));
    }

    #[test]
    fn recycle_space_warm_start_cuts_iterations() {
        let n = 120;
        let a = laplacian_1d(n);
        let b1 = rhs_block(n, 4);
        let jacobi = JacobiPreconditioner::new(&a).unwrap();
        let cold = block_cg(&a, &b1, None, &jacobi, BlockCgOptions::default()).unwrap();
        assert!(cold.all_converged());

        let mut space = RecycleSpace::new(8);
        space.absorb(&a, &cold.solution).unwrap();
        assert_eq!(space.dim(), 4);

        // A second batch near the span of the first: the Galerkin start
        // must already be a good iterate.
        let b2 = b1.scaled(1.25);
        let x0 = space.warm_start(&b2).unwrap().expect("non-empty space");
        let warm = block_cg(&a, &b2, Some(&x0), &jacobi, BlockCgOptions::default()).unwrap();
        assert!(warm.all_converged());
        assert!(warm.iterations <= 2, "recycled warm start took {} iterations", warm.iterations);
        assert!(warm.iterations < cold.iterations);
    }

    #[test]
    fn recycle_space_caps_and_clears() {
        let n = 30;
        let a = laplacian_1d(n);
        let mut space = RecycleSpace::new(3);
        for batch in 0..3 {
            let b = Matrix::from_fn(2, n, |i, j| ((batch * 7 + i * 3 + j) % 11) as f64 - 5.0);
            let out =
                block_cg(&a, &b, None, &IdentityPreconditioner, BlockCgOptions::default()).unwrap();
            space.absorb(&a, &out.solution).unwrap();
        }
        assert_eq!(space.dim(), 3, "cap must hold");
        // Absorbing a vector already in the span leaves the basis alone.
        let dim_before = space.dim();
        let repeat = Matrix::from_vec(1, n, space.w.row(0).to_vec()).unwrap();
        space.absorb(&a, &repeat).unwrap();
        assert_eq!(space.dim(), dim_before);
        // A zero-capacity space keeps nothing.
        let mut none = RecycleSpace::new(0);
        none.absorb(&a, &repeat).unwrap();
        assert!(none.is_empty());
        assert!(none.warm_start(&Matrix::zeros(1, n)).unwrap().is_none());
    }

    #[test]
    fn recycle_space_rejects_mismatched_shapes() {
        let a = laplacian_1d(10);
        let mut space = RecycleSpace::new(4);
        let out = block_cg(
            &a,
            &rhs_block(10, 2),
            None,
            &IdentityPreconditioner,
            BlockCgOptions::default(),
        )
        .unwrap();
        space.absorb(&a, &out.solution).unwrap();
        assert!(space.warm_start(&Matrix::zeros(1, 7)).is_err());
        let wrong = laplacian_1d(7);
        assert!(space.absorb(&wrong, &Matrix::zeros(1, 7)).is_err());
    }
}
