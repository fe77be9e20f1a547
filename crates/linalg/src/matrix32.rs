use crate::kernels::{self, Epilogue, PackedRhs};
use crate::{LinalgError, Matrix};

/// A dense, row-major `f32` matrix for the opt-in single-precision
/// inference path.
///
/// `Matrix32` deliberately exposes only what batched inference needs —
/// conversion from/to [`Matrix`], elementwise map, horizontal concat and
/// the fused multiplication kernels — so `f64` stays the obvious default
/// everywhere else. It shares the packed microkernel driver in
/// `crate::kernels` with [`Matrix`], and inherits the same determinism
/// contract: results are bitwise independent of thread count *within this
/// precision* (an f32 product is of course not bit-comparable to f64).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Matrix32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix32 {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix32 { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Narrows an f64 matrix to f32, rounding each element to nearest.
    pub fn from_f64(m: &Matrix) -> Self {
        Matrix32 {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().iter().map(|&v| v as f32).collect(),
        }
    }

    /// Widens back to an f64 matrix (exact: every f32 is representable).
    pub fn to_f64(&self) -> Matrix {
        let data: Vec<f64> = self.data.iter().map(|&v| f64::from(v)).collect();
        Matrix::from_vec(self.rows, self.cols, data)
            .expect("invariant: Matrix32 stores rows*cols elements")
    }

    /// Returns the number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns the underlying row-major data as a slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix32 {
        Matrix32 {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Horizontally concatenates `self` and `rhs` (`[self | rhs]`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the row counts differ.
    pub fn hcat(&self, rhs: &Matrix32) -> Result<Matrix32, LinalgError> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hcat32",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let cols = self.cols + rhs.cols;
        let mut data = vec![0.0f32; self.rows * cols];
        for r in 0..self.rows {
            data[r * cols..r * cols + self.cols]
                .copy_from_slice(&self.data[r * self.cols..(r + 1) * self.cols]);
            data[r * cols + self.cols..(r + 1) * cols]
                .copy_from_slice(&rhs.data[r * rhs.cols..(r + 1) * rhs.cols]);
        }
        Ok(Matrix32 { rows: self.rows, cols, data })
    }

    /// Matrix multiplication `self * rhs` on the packed microkernel suite.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix32) -> Result<Matrix32, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul32",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix32::zeros(self.rows, rhs.cols);
        kernels::gemm(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
            false,
            &Epilogue::None,
        );
        Ok(out)
    }

    /// Fused `self * rhs + bias` (row-broadcast); see
    /// [`Matrix::matmul_bias`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`
    /// or `bias.len() != rhs.cols()`.
    pub fn matmul_bias(&self, rhs: &Matrix32, bias: &[f32]) -> Result<Matrix32, LinalgError> {
        if self.cols != rhs.rows || bias.len() != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_bias32",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix32::zeros(self.rows, rhs.cols);
        kernels::gemm(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
            false,
            &Epilogue::Bias(bias),
        );
        Ok(out)
    }

    /// Fused `f(self * rhs + bias)`; see [`Matrix::matmul_bias_map`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`
    /// or `bias.len() != rhs.cols()`.
    pub fn matmul_bias_map<F>(
        &self,
        rhs: &Matrix32,
        bias: &[f32],
        f: F,
    ) -> Result<Matrix32, LinalgError>
    where
        F: Fn(f32) -> f32 + Sync,
    {
        if self.cols != rhs.rows || bias.len() != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_bias_map32",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix32::zeros(self.rows, rhs.cols);
        kernels::gemm(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
            false,
            &Epilogue::BiasMap { bias, f: &f },
        );
        Ok(out)
    }

    /// Fused trunk-combine `offset + scale * (self * rhsᵀ)`; see
    /// [`Matrix::matmul_transposed_affine`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_transposed_affine(
        &self,
        rhs: &Matrix32,
        offset: f32,
        scale: f32,
    ) -> Result<Matrix32, LinalgError> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transposed_affine32",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix32::zeros(self.rows, rhs.rows);
        kernels::gemm(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.rows,
            true,
            &Epilogue::Affine { offset, scale },
        );
        Ok(out)
    }

    /// Single-precision [`Matrix::pack_row_chunks`].
    ///
    /// # Errors
    ///
    /// As [`Matrix::pack_row_chunks`].
    pub fn pack_row_chunks<E, F>(
        rows: usize,
        cols: usize,
        chunk_rows: usize,
        produce: F,
    ) -> Result<PackedRhs<f32>, E>
    where
        E: Send + From<LinalgError>,
        F: Fn(std::ops::Range<usize>) -> Result<Matrix32, E> + Sync,
    {
        kernels::pack_rows_chunked(rows, cols, chunk_rows, produce, Matrix32::as_slice)
    }

    /// Single-precision [`Matrix::matmul_packed_affine`]; bit-identical
    /// to [`Matrix32::matmul_transposed_affine`] on the unpacked operand.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_packed_affine(
        &self,
        rhs: &PackedRhs<f32>,
        offset: f32,
        scale: f32,
    ) -> Result<Matrix32, LinalgError> {
        if self.cols != rhs.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_packed_affine32",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix32::zeros(self.rows, rhs.rows());
        kernels::gemm_packed(
            &self.data,
            rhs,
            &mut out.data,
            self.rows,
            &Epilogue::Affine { offset, scale },
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
        Matrix::from_fn(rows, cols, f)
    }

    #[test]
    fn round_trip_and_shape() {
        let m = mk(3, 4, |r, c| (r * 4 + c) as f64 * 0.5);
        let m32 = Matrix32::from_f64(&m);
        assert_eq!(m32.shape(), (3, 4));
        // Halves are exact in both precisions.
        assert_eq!(m32.to_f64(), m);
    }

    #[test]
    fn matmul_matches_f64_on_exact_values() {
        // Small integers are exact in f32, so both precisions agree.
        let a = mk(5, 7, |r, c| ((r * 7 + c) % 9) as f64 - 4.0);
        let b = mk(7, 6, |r, c| ((r * 3 + c) % 5) as f64 - 2.0);
        let got = Matrix32::from_f64(&a).matmul(&Matrix32::from_f64(&b)).unwrap();
        assert_eq!(got.to_f64(), a.matmul(&b).unwrap());
    }

    #[test]
    fn fused_kernels_match_two_pass_f32() {
        let a = Matrix32::from_f64(&mk(9, 5, |r, c| ((r + 2 * c) % 7) as f64 - 3.0));
        let t = Matrix32::from_f64(&mk(8, 5, |r, c| ((r * 5 + c) % 11) as f64 - 5.0));
        let fused = a.matmul_transposed_affine(&t, 2.0, 0.5).unwrap();
        // Two-pass reference: full product, then the affine map.
        let prod = a.matmul(&Matrix32::from_f64(&t.to_f64().transpose())).unwrap();
        assert_eq!(fused, prod.map(|v| 2.0 + 0.5 * v));
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let a = Matrix32::zeros(2, 3);
        let b = Matrix32::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(a.matmul_bias(&Matrix32::zeros(3, 2), &[0.0; 3]).is_err());
        assert!(a.hcat(&Matrix32::zeros(3, 1)).is_err());
    }
}
