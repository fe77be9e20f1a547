use crate::{CsrMatrix, LinalgError, Matrix};

/// Cholesky factorisation `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// Used by `deepoheat-grf` to sample Gaussian random fields: a field sample
/// is `L z` with `z ~ N(0, I)` where `L` factors the covariance matrix.
///
/// # Examples
///
/// ```
/// use deepoheat_linalg::{Cholesky, Matrix};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::new(&a)?;
/// let x = chol.solve(&[2.0, 3.0])?;
/// // A x = b  =>  4*0 + 2*1 = 2, 2*0 + 3*1 = 3
/// assert!((x[0] - 0.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), deepoheat_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely.
    l: Matrix,
}

impl Cholesky {
    /// Factors the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read, so callers may pass a matrix
    /// whose upper triangle is stale.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidDimension`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly
    ///   positive (within a small relative tolerance).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::InvalidDimension {
                op: "cholesky",
                what: format!("matrix is {}x{}, expected square", a.rows(), a.cols()),
            });
        }
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j, value: diag });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Returns the dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Returns the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Consumes the factorisation, returning the lower-triangular factor.
    pub fn into_factor(self) -> Matrix {
        self.l
    }

    /// Computes `L z` for a vector `z`; this is how correlated Gaussian
    /// samples are generated from i.i.d. standard normals.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `z.len() != self.dim()`.
    pub fn l_times(&self, z: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if z.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "l_times",
                lhs: (n, n),
                rhs: (z.len(), 1),
            });
        }
        let mut out = vec![0.0; n];
        for i in 0..n {
            let row = self.l.row(i);
            let mut acc = 0.0;
            for (j, zj) in z.iter().enumerate().take(i + 1) {
                acc += row[j] * zj;
            }
            out[i] = acc;
        }
        Ok(out)
    }

    /// Solves `A x = b` using the factorisation (forward then backward
    /// substitution).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward substitution: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let row = self.l.row(i);
            let mut acc = b[i];
            for (j, yj) in y.iter().enumerate().take(i) {
                acc -= row[j] * yj;
            }
            y[i] = acc / row[i];
        }
        // Backward substitution: Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.l[(j, i)] * x[j];
            }
            x[i] = acc / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Log-determinant of the factored matrix, `log det A = 2 Σ log Lᵢᵢ`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Zero-fill incomplete Cholesky factorisation `A ≈ L Lᵀ` of a sparse SPD
/// matrix, where `L` keeps exactly the sparsity pattern of the lower
/// triangle of `A` (IC(0)).
///
/// Used as a heavyweight rung of the conjugate-gradient fallback ladder:
/// stronger than Jacobi/SSOR on ill-conditioned operators, at the cost of
/// one sparse factorisation. For matrices whose lower triangle already
/// holds the full Cholesky pattern (e.g. tridiagonal operators) IC(0) *is*
/// the exact factorisation and preconditioned CG converges in one step.
///
/// # Examples
///
/// ```
/// use deepoheat_linalg::{block_cg, BlockCgOptions, CooMatrix, IncompleteCholesky, Matrix};
///
/// let n = 32;
/// let mut coo = CooMatrix::new(n, n);
/// for i in 0..n {
///     coo.push(i, i, 2.0);
///     if i > 0 { coo.push(i, i - 1, -1.0); coo.push(i - 1, i, -1.0); }
/// }
/// let a = coo.to_csr();
/// let ic = IncompleteCholesky::new(&a)?;
/// let b = Matrix::filled(1, n, 1.0); // one right-hand side
/// let out = block_cg(&a, &b, None, &ic, BlockCgOptions::default())?;
/// assert!(out.all_converged() && out.iterations <= 2); // tridiagonal: IC(0) is exact
/// # Ok::<(), deepoheat_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IncompleteCholesky {
    /// Strictly-lower entries of `L`, per row, sorted by column.
    rows: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `L`.
    diag: Vec<f64>,
}

impl IncompleteCholesky {
    /// Computes the IC(0) factorisation of `a`, reading only its lower
    /// triangle.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidDimension`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly
    ///   positive and finite — incomplete factorisation can break down even
    ///   for SPD matrices, and callers (the fallback ladder) are expected
    ///   to skip this rung when it does.
    pub fn new(a: &CsrMatrix) -> Result<Self, LinalgError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::InvalidDimension {
                op: "incomplete_cholesky",
                what: format!("matrix is {}x{}, expected square", a.rows(), a.cols()),
            });
        }
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut diag = Vec::with_capacity(n);
        for i in 0..n {
            let mut row_i: Vec<(usize, f64)> = Vec::new();
            let mut a_ii = 0.0;
            let (cols, values) = a.row_parts(i);
            for (&c, &v) in cols.iter().zip(values) {
                if c < i {
                    row_i.push((c, v));
                } else if c == i {
                    a_ii = v;
                }
            }
            // l_ij = (a_ij − Σₖ l_ik l_jk) / l_jj over the shared pattern
            // k < j; the two-pointer walk exploits both rows being sorted,
            // as every CSR row is.
            for idx in 0..row_i.len() {
                let j = row_i[idx].0;
                let mut v = row_i[idx].1;
                let row_j = &rows[j];
                let (mut pi, mut pj) = (0, 0);
                while pi < idx && pj < row_j.len() {
                    let (ci, vi) = row_i[pi];
                    let (cj, vj) = row_j[pj];
                    match ci.cmp(&cj) {
                        std::cmp::Ordering::Less => pi += 1,
                        std::cmp::Ordering::Greater => pj += 1,
                        std::cmp::Ordering::Equal => {
                            v -= vi * vj;
                            pi += 1;
                            pj += 1;
                        }
                    }
                }
                row_i[idx].1 = v / diag[j];
            }
            let pivot = a_ii - row_i.iter().map(|&(_, v)| v * v).sum::<f64>();
            if pivot <= 0.0 || !pivot.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: i, value: pivot });
            }
            diag.push(pivot.sqrt());
            rows.push(row_i);
        }
        Ok(IncompleteCholesky { rows, diag })
    }

    /// Returns the dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.diag.len()
    }
}

impl crate::Preconditioner for IncompleteCholesky {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = self.diag.len();
        debug_assert_eq!(r.len(), n, "ic0: residual length mismatch");
        debug_assert_eq!(z.len(), n, "ic0: output length mismatch");
        // Forward substitution L y = r (row-oriented), reusing `z` as `y`.
        for i in 0..n {
            let mut acc = r[i];
            for &(j, v) in &self.rows[i] {
                acc -= v * z[j];
            }
            z[i] = acc / self.diag[i];
        }
        // Backward substitution Lᵀ z = y (column-oriented: row i of L is
        // column i of Lᵀ).
        for i in (0..n).rev() {
            z[i] /= self.diag[i];
            let zi = z[i];
            for &(j, v) in &self.rows[i] {
                z[j] -= v * zi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        // Build A = B Bᵀ + n I from a deterministic pseudo-random B.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let b = Matrix::from_fn(n, n, |_, _| next());
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd(8, 3);
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.factor();
        let recon = l.matmul(&l.transpose()).unwrap();
        for (x, y) in recon.iter().zip(a.iter()) {
            assert!((x - y).abs() < 1e-10, "{x} vs {y}");
        }
    }

    #[test]
    fn solve_matches_direct_multiplication() {
        let a = spd(10, 7);
        let chol = Cholesky::new(&a).unwrap();
        let x_true: Vec<f64> = (0..10).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let b_mat = a.matmul(&Matrix::column_vector(&x_true)).unwrap();
        let x = chol.solve(b_mat.as_slice()).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Cholesky::new(&a), Err(LinalgError::InvalidDimension { .. })));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(Cholesky::new(&a), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn l_times_matches_matmul() {
        let a = spd(6, 11);
        let chol = Cholesky::new(&a).unwrap();
        let z: Vec<f64> = (0..6).map(|i| (i as f64 - 2.5) * 0.7).collect();
        let fast = chol.l_times(&z).unwrap();
        let slow = chol.factor().matmul(&Matrix::column_vector(&z)).unwrap();
        for (f, s) in fast.iter().zip(slow.iter()) {
            assert!((f - s).abs() < 1e-12);
        }
    }

    #[test]
    fn log_det_of_identity_is_zero() {
        let chol = Cholesky::new(&Matrix::identity(5)).unwrap();
        assert!(chol.log_det().abs() < 1e-14);
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let chol = Cholesky::new(&Matrix::identity(3)).unwrap();
        assert!(chol.solve(&[1.0, 2.0]).is_err());
        assert!(chol.l_times(&[1.0]).is_err());
    }

    fn laplacian_1d(n: usize) -> crate::CsrMatrix {
        let mut coo = crate::CooMatrix::new(n, n);
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
    fn ic0_is_exact_on_tridiagonal() {
        use crate::{block_cg, BlockCgOptions, Matrix};
        let n = 50;
        let a = laplacian_1d(n);
        let ic = IncompleteCholesky::new(&a).unwrap();
        assert_eq!(ic.dim(), n);
        let b = Matrix::filled(1, n, 1.0);
        let out = block_cg(&a, &b, None, &ic, BlockCgOptions::default()).unwrap();
        // Tridiagonal lower triangle = full Cholesky pattern, so the
        // preconditioner inverts A exactly and CG needs a single step.
        assert!(out.iterations <= 2, "iterations = {}", out.iterations);
        assert!(out.columns[0].relative_residual <= 1e-10);
    }

    #[test]
    fn ic0_beats_jacobi_on_2d_grid() {
        use crate::{block_cg, BlockCgOptions, JacobiPreconditioner, Matrix};
        // 2-D 5-point Laplacian on a 12×12 grid (not tridiagonal, so IC(0)
        // is genuinely incomplete here).
        let m = 12;
        let n = m * m;
        let mut coo = crate::CooMatrix::new(n, n);
        for y in 0..m {
            for x in 0..m {
                let i = y * m + x;
                coo.push(i, i, 4.0);
                if x > 0 {
                    coo.push(i, i - 1, -1.0);
                }
                if x + 1 < m {
                    coo.push(i, i + 1, -1.0);
                }
                if y > 0 {
                    coo.push(i, i - m, -1.0);
                }
                if y + 1 < m {
                    coo.push(i, i + m, -1.0);
                }
            }
        }
        let a = coo.to_csr();
        let b = Matrix::filled(1, n, 1.0);
        let opts = BlockCgOptions::default();
        let jacobi = JacobiPreconditioner::new(&a).unwrap();
        let plain = block_cg(&a, &b, None, &jacobi, opts).unwrap();
        let ic = IncompleteCholesky::new(&a).unwrap();
        let pre = block_cg(&a, &b, None, &ic, opts).unwrap();
        assert!(plain.all_converged() && pre.all_converged());
        assert!(
            pre.iterations < plain.iterations,
            "ic0 {} !< jacobi {}",
            pre.iterations,
            plain.iterations
        );
        for (x, y) in pre.solution.iter().zip(plain.solution.iter()) {
            assert!((x - y).abs() < 1e-7);
        }
    }

    #[test]
    fn ic0_rejects_structural_problems() {
        // Non-square.
        let mut coo = crate::CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        assert!(matches!(
            IncompleteCholesky::new(&coo.to_csr()),
            Err(LinalgError::InvalidDimension { .. })
        ));
        // Indefinite diagonal → breakdown.
        let mut coo = crate::CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, -1.0);
        assert!(matches!(
            IncompleteCholesky::new(&coo.to_csr()),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }
}
