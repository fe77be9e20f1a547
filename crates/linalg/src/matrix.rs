use std::fmt;
use std::ops::{Add, Mul, Sub};

use deepoheat_parallel as parallel;

use crate::kernels::{self, Epilogue, PackedRhs};
use crate::{Element, LinalgError};

/// Fixed chunk length (in elements) for pooled elementwise kernels.
const ELEMENTWISE_CHUNK: usize = 64 * 1024;

/// Source rows [`Matrix::transpose`] copies per panel: eight `f64` fill a
/// 64-byte cache line of the output.
const TRANSPOSE_PANEL: usize = 8;

/// A dense, row-major matrix of [`Element`] values, `f64` unless named
/// otherwise.
///
/// `Matrix` is the workhorse value type of the whole reproduction: the
/// autodiff tape, the neural-network layers, the Gaussian-random-field
/// sampler and the experiment harnesses all operate on it. Storage is a
/// single contiguous `Vec` in row-major order, which keeps the hot
/// multiplication kernels cache friendly.
///
/// The constructors and the arithmetic that training and the solvers use
/// are `f64`'s. The shape accessors, [`Matrix::cast`], the products and
/// the few maps inference needs are generic, so single-precision inference
/// (`Matrix<f32>`) runs the same code; its results are bitwise independent
/// of thread count within that precision, as `f64`'s are.
///
/// # Examples
///
/// ```
/// use deepoheat_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])?;
/// assert_eq!(a.shape(), (2, 3));
/// assert_eq!(a[(1, 2)], 6.0);
/// let t = a.transpose();
/// assert_eq!(t.shape(), (3, 2));
/// # Ok::<(), deepoheat_linalg::LinalgError>(())
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Matrix<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: fmt::Debug> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 6.min(self.rows);
        for r in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for c in 0..max_cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4?}", self.data[r * self.cols + c])?;
            }
            if self.cols > max_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use deepoheat_linalg::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z.shape(), (2, 3));
    /// assert!(z.iter().all(|&v| v == 0.0));
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix::zeroed(rows, cols)
    }

    /// Creates a `rows × cols` matrix with every element equal to `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use deepoheat_linalg::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DataLengthMismatch`] if `data.len() != rows * cols`.
    ///
    /// # Examples
    ///
    /// ```
    /// use deepoheat_linalg::Matrix;
    /// let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
    /// assert_eq!(m[(1, 0)], 3.0);
    /// # Ok::<(), deepoheat_linalg::LinalgError>(())
    /// ```
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DataLengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimension`] if `rows` is empty or the
    /// rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidDimension {
                op: "from_rows",
                what: "no rows provided".into(),
            });
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinalgError::InvalidDimension {
                op: "from_rows",
                what: "rows have zero length".into(),
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::InvalidDimension {
                    op: "from_rows",
                    what: format!("row {i} has length {} but expected {cols}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Creates a column vector (an `n × 1` matrix) from a slice.
    pub fn column_vector(values: &[f64]) -> Self {
        Matrix { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    /// Creates a row vector (a `1 × n` matrix) from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    ///
    /// # Examples
    ///
    /// ```
    /// use deepoheat_linalg::Matrix;
    /// let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
    /// assert_eq!(m[(1, 1)], 11.0);
    /// ```
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }
}

impl<T: Element> Matrix<T> {
    /// A `rows × cols` matrix of zeros in any precision; [`Matrix::zeros`]
    /// is `f64`'s.
    fn zeroed(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![T::ZERO; rows * cols] }
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

    /// Returns the total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the underlying row-major data as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Returns the underlying row-major data as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix, returning the underlying row-major data.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Returns row `r` as a slice.
    ///
    /// # Contract
    ///
    /// `r` must be a valid row index. Every in-tree caller iterates
    /// `0..rows()`, so the bound is checked with `debug_assert!` only; an
    /// out-of-range index still stops at the slice bounds check rather
    /// than reading out of bounds.
    pub fn row(&self, r: usize) -> &[T] {
        debug_assert!(r < self.rows, "row index {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns row `r` as a mutable slice.
    ///
    /// # Contract
    ///
    /// `r` must be a valid row index; see [`Matrix::row`].
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        debug_assert!(r < self.rows, "row index {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Appends `row` as a new last row. `row.len()` must equal `cols()`;
    /// the in-crate callers size it from the matrix they append to, so the
    /// length is checked with `debug_assert!` only.
    pub(crate) fn push_row(&mut self, row: &[T]) {
        debug_assert_eq!(row.len(), self.cols, "push_row: row length mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Removes the first row, if any, shifting the rest up; the storage
    /// keeps its capacity.
    pub(crate) fn drop_first_row(&mut self) {
        if self.rows > 0 {
            self.data.drain(..self.cols);
            self.rows -= 1;
        }
    }

    /// Returns rows `range.start..range.end` as a new matrix. Rows are
    /// stored contiguously, so this is one `memcpy` of the block — the
    /// cheap way to hand a fixed chunk of a batch to the worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimension`] if the range is reversed
    /// or extends past the last row.
    ///
    /// # Examples
    ///
    /// ```
    /// use deepoheat_linalg::Matrix;
    /// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])?;
    /// let block = m.row_block(1..3)?;
    /// assert_eq!(block.shape(), (2, 2));
    /// assert_eq!(block.as_slice(), &[3.0, 4.0, 5.0, 6.0]);
    /// # Ok::<(), deepoheat_linalg::LinalgError>(())
    /// ```
    pub fn row_block(&self, range: std::ops::Range<usize>) -> Result<Self, LinalgError> {
        if range.start > range.end || range.end > self.rows {
            return Err(LinalgError::InvalidDimension {
                op: "row_block",
                what: format!(
                    "row range {}..{} out of bounds for {} rows",
                    range.start, range.end, self.rows
                ),
            });
        }
        let data = self.data[range.start * self.cols..range.end * self.cols].to_vec();
        Ok(Matrix { rows: range.end - range.start, cols: self.cols, data })
    }

    /// Returns an iterator over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Returns a mutable iterator over all elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }

    /// Returns the transpose of the matrix.
    ///
    /// Copies panels of `TRANSPOSE_PANEL` source rows column by column,
    /// so each column writes one contiguous run of the output — a whole
    /// cache line — instead of one element at a stride of `rows`.
    pub fn transpose(&self) -> Self {
        let (rows, cols) = (self.rows, self.cols);
        let mut data = vec![T::ZERO; rows * cols];
        for r0 in (0..rows).step_by(TRANSPOSE_PANEL) {
            let height = TRANSPOSE_PANEL.min(rows - r0);
            let panel = &self.data[r0 * cols..(r0 + height) * cols];
            for (c, out) in data.chunks_exact_mut(rows).enumerate() {
                let out = &mut out[r0..r0 + height];
                for i in 0..height {
                    out[i] = panel[i * cols + c];
                }
            }
        }
        Matrix { rows: cols, cols: rows, data }
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// Runs on the packed, register-blocked microkernel suite in
    /// `crate::kernels`: the right-hand side is packed once into
    /// `NR`-wide column panels, output tiles are produced by an `MR × NR`
    /// register-blocked kernel (AVX2 when the CPU has it, a bit-identical
    /// scalar tile otherwise), and large products dispatch fixed row bands
    /// to the persistent `deepoheat-parallel` pool. Results are bitwise
    /// independent of thread count and instruction set; each output
    /// element is a plain ascending-`k` sum of products.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use deepoheat_linalg::Matrix;
    /// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
    /// let b = Matrix::from_rows(&[&[5.0], &[6.0]])?;
    /// let c = a.matmul(&b)?;
    /// assert_eq!(c.as_slice(), &[17.0, 39.0]);
    /// # Ok::<(), deepoheat_linalg::LinalgError>(())
    /// ```
    pub fn matmul(&self, rhs: &Self) -> Result<Self, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeroed(self.rows, rhs.cols);
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

    /// Reference triple-loop multiplication with no packing, blocking,
    /// SIMD or pool dispatch. Bit-identical to [`Matrix::matmul`] by the
    /// kernel determinism contract; kept public so property tests and the
    /// benchmark suite can measure and verify the blocked kernels against
    /// a fixed naive baseline.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul_naive(&self, rhs: &Self) -> Result<Self, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_naive",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeroed(self.rows, rhs.cols);
        kernels::gemm_naive(
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

    /// Fused `self * rhs + bias` (row-broadcast): the bias add happens in
    /// the microkernel's store epilogue instead of a second pass, so no
    /// intermediate product matrix is materialised. Bit-identical to
    /// `matmul(rhs)?.add_row_broadcast(bias)` — the raw sum is fully
    /// formed before the bias is added, exactly like the two-pass version.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`
    /// or `bias.len() != rhs.cols()`.
    pub fn matmul_bias(&self, rhs: &Self, bias: &[T]) -> Result<Self, LinalgError> {
        if self.cols != rhs.rows || bias.len() != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_bias",
                lhs: self.shape(),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeroed(self.rows, rhs.cols);
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

    /// Fused `f(self * rhs + bias)`: bias add and activation both run in
    /// the store epilogue while the output tile is hot in L1. This is the
    /// dense-layer + activation forward path; bit-identical to matmul →
    /// broadcast → elementwise map.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`
    /// or `bias.len() != rhs.cols()`.
    pub fn matmul_bias_map<F>(&self, rhs: &Self, bias: &[T], f: F) -> Result<Self, LinalgError>
    where
        F: Fn(T) -> T + Sync,
    {
        if self.cols != rhs.rows || bias.len() != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_bias_map",
                lhs: self.shape(),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeroed(self.rows, rhs.cols);
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

    /// Computes `self * rhs.transpose()` without materialising the transpose.
    ///
    /// This is the hot kernel of the DeepONet combine step
    /// `T = B Φᵀ`, where both operands are tall-and-skinny. The transposed
    /// operand is handled entirely in the packing step — both
    /// multiplication shapes share the same microkernel.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_transposed(&self, rhs: &Self) -> Result<Self, LinalgError> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transposed",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeroed(self.rows, rhs.rows);
        kernels::gemm(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.rows,
            true,
            &Epilogue::None,
        );
        Ok(out)
    }

    /// Fused trunk-combine kernel: `offset + scale * (self * rhsᵀ)` with
    /// the affine output transform applied in the store epilogue. Replaces
    /// `matmul_transposed(rhs)?.map(|v| offset + scale * v)` — the
    /// Hadamard-multiply + row-sum and the output transform run in one
    /// pass with no intermediate matrix, and the result is bit-identical
    /// to the two-pass version (the raw dot product is fully accumulated
    /// before the affine expression is evaluated once per element).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_transposed_affine(
        &self,
        rhs: &Self,
        offset: T,
        scale: T,
    ) -> Result<Self, LinalgError> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_transposed_affine",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeroed(self.rows, rhs.rows);
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

    /// Packs a `rows × cols` operand that `produce` computes in row
    /// chunks, for `A · operandᵀ` products. Chunks run as jobs on the
    /// current pool and each packs its block into its own panels, so the
    /// unpacked operand is never held whole. Chunks are `chunk_rows`
    /// rounded up to a multiple of the kernel's 8-row panel width;
    /// boundaries depend on `rows` and `chunk_rows` only, and the packed
    /// result is bitwise the same for any `chunk_rows` whenever `produce`
    /// computes each row independently of the others.
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed chunk whose `produce`
    /// failed (every chunk still runs), or
    /// [`LinalgError::DataLengthMismatch`] (through `E`) when a chunk's
    /// block is not `chunk_len × cols`.
    pub fn pack_row_chunks<E, F>(
        rows: usize,
        cols: usize,
        chunk_rows: usize,
        produce: F,
    ) -> Result<PackedRhs<T>, E>
    where
        E: Send + From<LinalgError>,
        F: Fn(std::ops::Range<usize>) -> Result<Self, E> + Sync,
    {
        kernels::pack_rows_chunked(rows, cols, chunk_rows, produce, Matrix::as_slice)
    }

    /// [`Matrix::matmul_transposed_affine`] against an operand packed
    /// ahead of time: `offset + scale * (self * rhsᵀ)` where `rhs` was
    /// packed by [`Matrix::pack_row_chunks`]. Bit-identical to the
    /// unpacked call on the same operand, at any pool width. Runs on the
    /// calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_packed_affine(
        &self,
        rhs: &PackedRhs<T>,
        offset: T,
        scale: T,
    ) -> Result<Self, LinalgError> {
        if self.cols != rhs.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_packed_affine",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeroed(self.rows, rhs.rows());
        kernels::gemm_packed(
            &self.data,
            rhs,
            &mut out.data,
            self.rows,
            &Epilogue::Affine { offset, scale },
        );
        Ok(out)
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map<F: Fn(T) -> T>(&self, f: F) -> Self {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Horizontally concatenates `self` and `rhs` (`[self | rhs]`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the row counts differ.
    pub fn hcat(&self, rhs: &Self) -> Result<Self, LinalgError> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hcat",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeroed(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }

    /// This matrix in precision `U`, each element rounded to nearest
    /// through [`Element::from_f64`]: exact when `U` is at least as wide as
    /// `T`, and a copy when it is `T`.
    pub fn cast<U: Element>(&self) -> Matrix<U> {
        let data = self.data.iter().map(|&v| U::from_f64(v.to_f64())).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Matrix {
    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    fn zip_with<F: Fn(f64, f64) -> f64 + Sync>(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch { op, lhs: self.shape(), rhs: rhs.shape() });
        }
        let mut data = vec![0.0; self.data.len()];
        parallel::par_chunks_mut(&mut data, ELEMENTWISE_CHUNK, |ci, chunk| {
            let off = ci * ELEMENTWISE_CHUNK;
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = f(self.data[off + j], rhs.data[off + j]);
            }
        });
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Applies `f(self[i], rhs[i])` to every element of `self` in place, on
    /// the worker pool. Elementwise, so the result is bit-identical at any
    /// thread count. This is the in-place parallel dual of
    /// [`Matrix::hadamard`]-style combinators, used by the autodiff
    /// backward pass for gradient accumulation and chain-rule scaling.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the shapes differ.
    pub fn par_apply_with<F>(&mut self, rhs: &Matrix, f: F) -> Result<(), LinalgError>
    where
        F: Fn(f64, f64) -> f64 + Sync,
    {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "par_apply_with",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        parallel::par_chunks_mut(&mut self.data, ELEMENTWISE_CHUNK, |ci, chunk| {
            let off = ci * ELEMENTWISE_CHUNK;
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = f(*v, rhs.data[off + j]);
            }
        });
        Ok(())
    }

    /// Returns a new matrix with every element multiplied by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v * s).collect(),
        }
    }

    /// Like [`Matrix::map`], but evaluates chunks of elements on the worker
    /// pool. Elementwise, so the result is bit-identical to `map` at any
    /// thread count; requires `f: Sync` (transcendental activations in the
    /// hot batched-inference and collocation paths qualify).
    pub fn par_map<F: Fn(f64) -> f64 + Sync>(&self, f: F) -> Matrix {
        let mut data = vec![0.0; self.data.len()];
        parallel::par_chunks_mut(&mut data, ELEMENTWISE_CHUNK, |ci, chunk| {
            let off = ci * ELEMENTWISE_CHUNK;
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = f(self.data[off + j]);
            }
        });
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Adds `row` (a `1 × cols` bias) to every row of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `row` is not `1 × self.cols()`.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Result<Matrix, LinalgError> {
        if row.rows != 1 || row.cols != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: self.shape(),
                rhs: row.shape(),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            let dst = out.row_mut(r);
            for (d, &b) in dst.iter_mut().zip(&row.data) {
                *d += b;
            }
        }
        Ok(out)
    }

    /// Sums all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// Returns `0.0` for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum element (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum element (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&v| v * v).sum::<f64>().sqrt()
    }

    /// Vertically concatenates `self` on top of `rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the column counts differ.
    pub fn vcat(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vcat",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + rhs.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Ok(Matrix { rows: self.rows + rhs.rows, cols: self.cols, data })
    }

    /// Returns the sub-matrix formed by the rows with the given indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Returns column `c` as a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index {c} out of bounds for {} cols", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns `true` if all elements are finite (no NaN or infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Matrix::add`] for a fallible version.
    fn add(self, rhs: &Matrix) -> Matrix {
        Matrix::add(self, rhs).expect("matrix addition shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Matrix::sub`] for a fallible version.
    fn sub(self, rhs: &Matrix) -> Matrix {
        Matrix::sub(self, rhs).expect("matrix subtraction shape mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        self.scaled(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(z.shape(), (3, 2));
        assert_eq!(z.sum(), 0.0);
        let i = Matrix::identity(4);
        assert_eq!(i.sum(), 4.0);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_matches_the_naive_loop() {
        for (rows, cols) in [(0, 4), (4, 0), (1, 1), (7, 3), (8, 5), (9, 2), (17, 16), (130, 7)] {
            let m = Matrix::from_fn(rows, cols, |r, c| (r * 31 + c) as f64 - 0.5);
            let mut naive = Matrix::zeros(cols, rows);
            for r in 0..rows {
                for c in 0..cols {
                    naive[(c, r)] = m[(r, c)];
                }
            }
            assert_eq!(m.transpose(), naive, "{rows}x{cols}");
        }
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(err, LinalgError::DataLengthMismatch { expected: 4, actual: 3 }));
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidDimension { .. }));
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);

        // Small integers are exact in f32 too, so both precisions agree.
        let a = Matrix::from_fn(5, 7, |r, c| ((r * 7 + c) % 9) as f64 - 4.0);
        let b = Matrix::from_fn(7, 6, |r, c| ((r * 3 + c) % 5) as f64 - 2.0);
        let narrow = a.cast::<f32>().matmul(&b.cast()).unwrap();
        assert_eq!(narrow.cast::<f64>(), a.matmul(&b).unwrap());
    }

    #[test]
    fn cast_round_trips_values_both_precisions_hold() {
        // Halves are exact in both precisions.
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 * 0.5);
        let m32 = m.cast::<f32>();
        assert_eq!(m32.shape(), (3, 4));
        assert_eq!(m32.cast::<f64>(), m);
        assert_eq!(m.cast::<f64>(), m);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(a.cast::<f32>().matmul(&b.cast()).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(5, 5, |r, c| (r * 5 + c) as f64);
        let i = Matrix::identity(5);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r + 2 * c) as f64 * 0.5);
        let b = Matrix::from_fn(6, 3, |r, c| (r as f64 - c as f64) * 0.25);
        let fast = a.matmul_transposed(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // Large enough to exceed the parallel threshold.
        let a = Matrix::from_fn(128, 80, |r, c| ((r * 31 + c * 7) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(80, 64, |r, c| ((r * 17 + c * 3) % 11) as f64 - 5.0);
        let big = a.matmul(&b).unwrap();
        // Naive serial reference, bit for bit.
        assert_eq!(big, a.matmul_naive(&b).unwrap());
    }

    #[test]
    fn fused_epilogues_match_two_pass() {
        let a = Matrix::from_fn(13, 9, |r, c| ((r * 5 + c * 3) % 17) as f64 * 0.25 - 2.0);
        let b = Matrix::from_fn(9, 11, |r, c| ((r * 7 + c) % 13) as f64 * 0.5 - 3.0);
        let bias: Vec<f64> = (0..11).map(|j| j as f64 * 0.125 - 0.5).collect();
        let bias_row = Matrix::row_vector(&bias);

        let fused = a.matmul_bias(&b, &bias).unwrap();
        let two_pass = a.matmul(&b).unwrap().add_row_broadcast(&bias_row).unwrap();
        assert_eq!(fused, two_pass);

        let act = |v: f64| v * (1.0 / (1.0 + (-v).exp()));
        let fused = a.matmul_bias_map(&b, &bias, act).unwrap();
        assert_eq!(fused, two_pass.map(act));

        let t = Matrix::from_fn(11, 9, |r, c| ((r * 3 + c * 5) % 7) as f64 - 3.0);
        let fused = a.matmul_transposed_affine(&t, 1.5, -0.25).unwrap();
        let two_pass = a.matmul_transposed(&t).unwrap().map(|v| 1.5 + -0.25 * v);
        assert_eq!(fused, two_pass);

        // The same kernels in f32, against their f32 two-pass forms.
        let (a, b, t) = (a.cast::<f32>(), b.cast::<f32>(), t.cast::<f32>());
        let bias: Vec<f32> = bias.iter().map(|&v| v as f32).collect();
        let act = |v: f32| v * (1.0 / (1.0 + (-v).exp()));
        let fused = a.matmul_bias_map(&b, &bias, act).unwrap();
        assert_eq!(fused, a.matmul_bias(&b, &bias).unwrap().map(act));
        let fused = a.matmul_transposed_affine(&t, 2.0, 0.5).unwrap();
        let prod = a.matmul(&t.cast::<f64>().transpose().cast()).unwrap();
        assert_eq!(fused, prod.map(|v| 2.0 + 0.5 * v));
    }

    #[test]
    fn fused_epilogues_reject_bad_bias() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        assert!(a.matmul_bias(&b, &[0.0; 3]).is_err());
        assert!(a.matmul_bias_map(&b, &[0.0; 5], |v| v).is_err());
        assert!(a.cast::<f32>().matmul_bias(&b.cast(), &[0.0; 3]).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(3, 7, |r, c| (r * 7 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 6.0]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-2.0, -2.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[3.0, 8.0]);
        assert_eq!(a.scaled(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn broadcast_bias() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::row_vector(&[1.0, -1.0]);
        let c = a.add_row_broadcast(&b).unwrap();
        for r in 0..3 {
            assert_eq!(c.row(r), &[1.0, -1.0]);
        }
        let bad = Matrix::row_vector(&[1.0]);
        assert!(a.add_row_broadcast(&bad).is_err());
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), -2.0);
        assert!((a.frobenius_norm() - (30.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn concat() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0], &[4.0]]).unwrap();
        let h = a.hcat(&b).unwrap();
        assert_eq!(h.shape(), (2, 2));
        assert_eq!(h.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        let v = a.vcat(&b).unwrap();
        assert_eq!(v.shape(), (4, 1));
        assert_eq!(v.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.cast::<f32>().hcat(&b.cast()).unwrap().as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        assert!(a.cast::<f32>().hcat(&Matrix::zeros(3, 1).cast()).is_err());
    }

    #[test]
    fn select_rows_and_column() {
        let a = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f64);
        let s = a.select_rows(&[3, 0]);
        assert_eq!(s.row(0), &[6.0, 7.0]);
        assert_eq!(s.row(1), &[0.0, 1.0]);
        assert_eq!(a.column(1), vec![1.0, 3.0, 5.0, 7.0]);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = Matrix::zeros(2, 2);
        assert!(a.is_finite());
        a[(0, 1)] = f64::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn debug_is_nonempty() {
        let a = Matrix::zeros(10, 10);
        let s = format!("{a:?}");
        assert!(s.contains("Matrix 10x10"));
    }
}
