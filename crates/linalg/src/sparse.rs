use std::ops::Range;

use deepoheat_parallel::{self as parallel, Job};

use crate::kernels::{self, run_widest, LaneTail, Multiversion};
use crate::{LinalgError, Matrix};

/// Fixed row-chunk size for the pooled sparse matrix–vector product.
/// Depends only on this constant and the matrix's row count — never on the
/// thread count — so the work decomposition is reproducible.
const SPMV_ROW_CHUNK: usize = 2048;

/// Width of the fixed-size copy [`append_run`] uses for short runs: a
/// 7-point operator row has at most three entries on each side of its
/// diagonal.
const RUN: usize = 4;

/// Appends entries `run` of a CSR matrix's `cols`/`vals` arrays to `dst`
/// as `(col, value)` pairs. A run of at most [`RUN`] entries copies a
/// fixed [`RUN`]-wide window and cuts it back, which compiles to a few
/// moves instead of a length-dependent loop: the triangle split copies two
/// such runs per matrix row. Callers reserve [`RUN`] spare slots so the
/// window never reallocates.
fn append_run(dst: &mut Vec<(usize, f64)>, cols: &[usize], vals: &[f64], run: Range<usize>) {
    let copy = if run.len() <= RUN && run.start + RUN <= cols.len() {
        run.start..run.start + RUN
    } else {
        run.clone()
    };
    let keep = dst.len() + run.len();
    dst.extend(cols[copy.clone()].iter().copied().zip(vals[copy].iter().copied()));
    dst.truncate(keep);
}

/// One strict triangle of a square matrix: each row's `(col, value)`
/// entries on one side of the diagonal, in column order.
#[derive(Debug, Clone)]
pub(crate) struct Triangle {
    row_ptr: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl Triangle {
    /// Row `r`'s entries, in column order.
    pub(crate) fn row(&self, r: usize) -> &[(usize, f64)] {
        &self.entries[self.row_ptr[r]..self.row_ptr[r + 1]]
    }
}

/// A square matrix split by [`CsrMatrix::split_triangles`].
#[derive(Debug, Clone)]
pub(crate) struct Split {
    /// The strict lower triangle.
    pub(crate) lower: Triangle,
    /// The diagonal; missing entries are `0.0`.
    pub(crate) diag: Vec<f64>,
    /// The strict upper triangle.
    pub(crate) upper: Triangle,
    /// The wavefront block size, when the pattern admits one: the
    /// matrix's bandwidth `B`, the largest `|r - c|` over its stored
    /// off-diagonal entries, such that cutting the rows into blocks of `B`
    /// gives at least two blocks and every off-diagonal entry either stays
    /// in its row's block or lies exactly `B` columns away, at the row's
    /// own offset in the neighbouring block. A triangular sweep can then
    /// run consecutive blocks as chains, each one row behind the chain
    /// before it, and every row still reads only final values. A
    /// natural-order grid operator qualifies, with one plane of free rows
    /// per block (one x-line when there is one plane). Blocks of one row
    /// (`B = 1`, a tridiagonal matrix) do not: their schedule is the
    /// natural order.
    pub(crate) block: Option<usize>,
}

/// Whether row `i`, at offset `offset` of its block of `block` rows, fits
/// the wavefront schedule: its columns left (`below`) and right (`above`)
/// of the diagonal lie in its own block, except one at `i - block` and one
/// at `i + block`. `block` must be at least the row's reach. Both lists
/// are in column order, so only the farthest entry on each side and the
/// one inside it need looking at.
fn fits_block(i: usize, offset: usize, block: usize, below: &[usize], above: &[usize]) -> bool {
    let (first, end) = (i - offset, i - offset + block);
    // A missing entry reads as the row's own index, which fits.
    let (c0, c1) = (below.first().copied().unwrap_or(i), below.get(1).copied().unwrap_or(i));
    let last = above.last().copied().unwrap_or(i);
    let prev = above.len().checked_sub(2).map_or(i, |k| above[k]);
    // `block` is at least the row's reach, so an entry outside the block
    // fits only at exactly `block` away.
    let crosses_below = c0 + block > i && c0 < first;
    let crosses_above = last < i + block && last >= end;
    !crosses_below && c1 >= first && !crosses_above && prev < end
}

/// A sparse matrix in coordinate (triplet) form, used as a mutable builder
/// for [`CsrMatrix`].
///
/// Duplicate entries are *summed* on conversion, in the order they were
/// pushed, which matches how a finite-volume assembly accumulates face
/// contributions into the system matrix.
///
/// # Examples
///
/// ```
/// use deepoheat_linalg::CooMatrix;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 1.0);
/// coo.push(0, 0, 1.0); // accumulates
/// coo.push(1, 1, 3.0);
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(0, 0), 2.0);
/// assert_eq!(csr.get(1, 1), 3.0);
/// assert_eq!(csr.get(0, 1), 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty builder for a `rows × cols` sparse matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix { rows, cols, entries: Vec::new() }
    }

    /// Adds `value` at `(row, col)`; repeated pushes accumulate.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "coo entry ({row}, {col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Returns the number of stored (possibly duplicate) entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Returns `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Converts to compressed sparse row form, summing duplicates in the
    /// order they were pushed.
    ///
    /// Runs in `O(nnz)`: a counting sort scatters the entries by row, which
    /// keeps each row's entries in push order; each (short) row is then
    /// stably sorted by column, and runs of one column are summed left to
    /// right. The result is the same for any interleaving of the rows'
    /// pushes.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.entries {
            row_ptr[r + 1] += 1;
        }
        for r in 0..self.rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut slots = vec![(0usize, 0.0f64); self.entries.len()];
        let mut next = row_ptr.clone();
        for &(r, c, v) in &self.entries {
            slots[next[r]] = (c, v);
            next[r] += 1;
        }
        // Sort and merge row by row, compacting in place: the merged row
        // never starts after its raw entries, so `kept <= start` throughout.
        let mut kept = 0;
        let mut start = 0;
        for r in 0..self.rows {
            let end = row_ptr[r + 1];
            slots[start..end].sort_by_key(|&(c, _)| c);
            let row_start = kept;
            for k in start..end {
                let (c, v) = slots[k];
                if kept > row_start && slots[kept - 1].0 == c {
                    slots[kept - 1].1 += v;
                } else {
                    slots[kept] = (c, v);
                    kept += 1;
                }
            }
            row_ptr[r + 1] = kept;
            start = end;
        }
        slots.truncate(kept);
        let col_idx = slots.iter().map(|&(c, _)| c).collect();
        let values = slots.iter().map(|&(_, v)| v).collect();
        CsrMatrix { rows: self.rows, cols: self.cols, row_ptr, col_idx, values }
    }
}

/// A compressed-sparse-row matrix of `f64` values.
///
/// This is the storage format for the finite-volume operator assembled by
/// `deepoheat-fdm`. It supports matrix–vector products (the only operation
/// the conjugate-gradient solver needs), diagonal extraction for Jacobi
/// preconditioning and symmetry checks used in tests.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates a CSR matrix from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidDimension`] if the arrays are
    /// structurally inconsistent (wrong `row_ptr` length, non-monotone
    /// `row_ptr`, column indices out of range, or length mismatches), or if
    /// a row's column indices are not strictly increasing: [`CsrMatrix::get`]
    /// and [`CsrMatrix::diagonal`] binary-search each row, so an unsorted or
    /// repeated column would be read wrongly.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, LinalgError> {
        if row_ptr.len() != rows + 1 {
            return Err(LinalgError::InvalidDimension {
                op: "csr from_raw",
                what: format!("row_ptr has length {}, expected {}", row_ptr.len(), rows + 1),
            });
        }
        if col_idx.len() != values.len() {
            return Err(LinalgError::InvalidDimension {
                op: "csr from_raw",
                what: format!("col_idx length {} != values length {}", col_idx.len(), values.len()),
            });
        }
        if *row_ptr.last().unwrap_or(&0) != values.len() {
            return Err(LinalgError::InvalidDimension {
                op: "csr from_raw",
                what: "row_ptr does not end at values.len()".into(),
            });
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(LinalgError::InvalidDimension {
                op: "csr from_raw",
                what: "row_ptr is not monotone".into(),
            });
        }
        if col_idx.iter().any(|&c| c >= cols) {
            return Err(LinalgError::InvalidDimension {
                op: "csr from_raw",
                what: "column index out of range".into(),
            });
        }
        if let Some(r) = row_ptr
            .windows(2)
            .position(|w| col_idx[w[0]..w[1]].windows(2).any(|pair| pair[0] >= pair[1]))
        {
            return Err(LinalgError::InvalidDimension {
                op: "csr from_raw",
                what: format!("row {r} has unsorted or repeated column indices"),
            });
        }
        Ok(CsrMatrix { rows, cols, row_ptr, col_idx, values })
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

    /// Returns the number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the value at `(row, col)`, or `0.0` if it is not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "csr get ({row}, {col}) out of bounds");
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        match self.col_idx[start..end].binary_search(&col) {
            Ok(pos) => self.values[start + pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored entries of row `r` as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(r < self.rows, "csr row {r} out of bounds");
        let start = self.row_ptr[r];
        let end = self.row_ptr[r + 1];
        self.col_idx[start..end].iter().copied().zip(self.values[start..end].iter().copied())
    }

    /// Row `i`'s columns left and right of the diagonal, in column order.
    fn sides(&self, i: usize) -> (&[usize], &[usize]) {
        let cols = &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]];
        // Sorted columns, so the count left of the diagonal is its
        // position. On grid rows of at most seven entries counting beats
        // `partition_point`'s binary search, and the split copies every
        // entry anyway.
        let lo = cols.iter().filter(|&&c| c < i).count();
        let hi = lo + usize::from(cols.get(lo) == Some(&i));
        (&cols[..lo], &cols[hi..])
    }

    /// Splits a square matrix into its strict lower triangle, its diagonal
    /// and its strict upper triangle, and plans the wavefront schedule
    /// ([`Split::block`]), in one pass over the rows.
    ///
    /// Each triangle reserves half the off-diagonal entries: its exact
    /// size when the pattern is symmetric and every diagonal entry is
    /// stored, as in the SPD operators SSOR preconditions. Any other
    /// pattern grows a triangle as it fills.
    ///
    /// The plan checks each row against the bandwidth of the rows so far.
    /// Rows before the one that set the final bandwidth are checked again
    /// after the pass; a natural-order grid operator reaches its bandwidth
    /// in row 0, so it has none to recheck.
    pub(crate) fn split_triangles(&self) -> Split {
        debug_assert_eq!(self.rows, self.cols, "split_triangles: matrix must be square");
        let n = self.rows;
        let room = self.nnz().saturating_sub(n) / 2 + RUN;
        let (mut lower, mut upper) = (Vec::with_capacity(room), Vec::with_capacity(room));
        let mut lower_ptr = Vec::with_capacity(n + 1);
        let mut upper_ptr = Vec::with_capacity(n + 1);
        lower_ptr.push(0);
        upper_ptr.push(0);
        let mut diag = vec![0.0; n];
        // The bandwidth so far, the row that set it, whether every row
        // since fits it, and the current row's offset in its block.
        let (mut block, mut settled, mut fits, mut offset) = (0, 0, true, 0);
        for (i, d) in diag.iter_mut().enumerate() {
            let (start, end) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let (below, above) = self.sides(i);
            append_run(&mut lower, &self.col_idx, &self.values, start..start + below.len());
            append_run(&mut upper, &self.col_idx, &self.values, end - above.len()..end);
            if below.len() + above.len() < end - start {
                *d = self.values[start + below.len()];
            }
            lower_ptr.push(lower.len());
            upper_ptr.push(upper.len());

            let reach = below.first().map_or(0, |&c| i - c).max(above.last().map_or(0, |&c| c - i));
            if reach > block {
                (block, settled, fits, offset) = (reach, i, true, i % reach);
            }
            fits &= fits_block(i, offset, block, below, above);
            offset += 1;
            if offset == block {
                offset = 0;
            }
        }
        let plan = block > 1
            && n > block
            && fits
            && (0..settled).all(|i| {
                let (below, above) = self.sides(i);
                fits_block(i, i % block, block, below, above)
            });
        Split {
            lower: Triangle { row_ptr: lower_ptr, entries: lower },
            diag,
            upper: Triangle { row_ptr: upper_ptr, entries: upper },
            block: plan.then_some(block),
        }
    }

    /// Sparse matrix–vector product `y = A x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut y = vec![0.0; self.rows];
        self.spmv_into(x, &mut y)?;
        Ok(y)
    }

    /// Sparse matrix–vector product writing into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.cols()` or
    /// `y.len() != self.rows()`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "spmv",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        if y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "spmv",
                lhs: self.shape(),
                rhs: (y.len(), 1),
            });
        }
        // Each output row is one independent dot product, so splitting the
        // row range across the pool cannot change any bit of the result;
        // the fixed chunk size keeps small systems on the calling thread.
        parallel::par_chunks_mut(y, SPMV_ROW_CHUNK, |ci, yc| {
            let base = ci * SPMV_ROW_CHUNK;
            for (dr, yr) in yc.iter_mut().enumerate() {
                let r = base + dr;
                let start = self.row_ptr[r];
                let end = self.row_ptr[r + 1];
                let mut acc = 0.0;
                for k in start..end {
                    acc += self.values[k] * x[self.col_idx[k]];
                }
                *yr = acc;
            }
        });
        Ok(())
    }

    /// Sparse matrix–multi-vector product `Y = A Xᵀ` in row-per-vector
    /// form: `x` holds `k` input vectors (one per row, `k × self.cols()`),
    /// `y` receives the `k` products (`k × self.rows()`).
    ///
    /// Each output element accumulates in the same stored-nonzero order as
    /// [`CsrMatrix::spmv_into`], so row `r` of `y` is **bitwise identical**
    /// to `spmv_into(x.row(r), …)`. The vectors go through in groups of up
    /// to eight lanes: one sweep over a matrix row's entries feeds every
    /// lane of the group, so `A`'s values and indices stream once per
    /// group instead of once per vector, and the lanes' independent sums
    /// run side by side in vector registers. Pool jobs own fixed row chunks
    /// and write their slice of every output row directly.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.cols() != self.cols()`
    /// or `y`'s shape is not `(x.rows(), self.rows())`.
    pub fn spmm_into(&self, x: &Matrix, y: &mut Matrix) -> Result<(), LinalgError> {
        if x.cols() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "spmm",
                lhs: self.shape(),
                rhs: x.shape(),
            });
        }
        if y.shape() != (x.rows(), self.rows) {
            return Err(LinalgError::ShapeMismatch {
                op: "spmm",
                lhs: self.shape(),
                rhs: y.shape(),
            });
        }
        if self.rows == 0 {
            return Ok(());
        }
        for (v, count, lanes) in kernels::lane_groups(x.rows(), LaneTail::Pad) {
            let out = &mut y.as_mut_slice()[v * self.rows..(v + count) * self.rows];
            match lanes {
                8 => self.spmm_group::<8>(x, v, count, out),
                4 => self.spmm_group::<4>(x, v, count, out),
                2 => self.spmm_group::<2>(x, v, count, out),
                _ => self.spmm_group::<1>(x, v, count, out),
            }
        }
        Ok(())
    }

    /// Multiplies vectors `v..v + count` of `x` into `out` (their `count`
    /// product rows) as one `L`-lane group (`count <= L`; spare lanes
    /// repeat the last vector and are never stored). The group's vectors
    /// are first interleaved so that one load fetches column `c` of every
    /// lane. Pool jobs own fixed row chunks of every output row.
    fn spmm_group<const L: usize>(&self, x: &Matrix, v: usize, count: usize, out: &mut [f64]) {
        let mut lanes = vec![[0.0; L]; self.cols];
        parallel::par_chunks_mut(&mut lanes, SPMV_ROW_CHUNK, |ci, piece| {
            let cols = ci * SPMV_ROW_CHUNK..ci * SPMV_ROW_CHUNK + piece.len();
            for l in 0..L {
                let row = &x.row(v + l.min(count - 1))[cols.clone()];
                for (entry, &value) in piece.iter_mut().zip(row) {
                    entry[l] = value;
                }
            }
        });
        let lanes = &lanes;
        let jobs: Vec<Job<'_>> =
            kernels::bands_of(out.chunks_mut(self.rows), self.rows, SPMV_ROW_CHUNK)
                .into_iter()
                .enumerate()
                .map(|(ci, out)| {
                    Box::new(move || {
                        run_widest(&mut SpmmLanes {
                            a: self,
                            lanes,
                            out,
                            first: ci * SPMV_ROW_CHUNK,
                        });
                    }) as Job<'_>
                })
                .collect();
        parallel::run_scope(jobs);
    }

    /// Allocating variant of [`CsrMatrix::spmm_into`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.cols() != self.cols()`.
    pub fn spmm(&self, x: &Matrix) -> Result<Matrix, LinalgError> {
        let mut y = Matrix::zeros(x.rows(), self.rows);
        self.spmm_into(x, &mut y)?;
        Ok(y)
    }

    /// Extracts the main diagonal (missing entries are `0.0`).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols)).map(|i| self.get(i, i)).collect()
    }

    /// Checks structural + numerical symmetry within `tol` (absolute).
    ///
    /// Intended for tests and debug assertions on assembled FDM operators,
    /// which must be symmetric for conjugate gradients to apply.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                if (v - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// One lane group of [`CsrMatrix::spmm_into`] over one row chunk:
/// `lanes[c]` holds column `c` of every lane's vector, and lane `l`'s
/// products go to `out[l]`, whose piece starts at matrix row `first`.
struct SpmmLanes<'a, 'b, const L: usize> {
    a: &'a CsrMatrix,
    lanes: &'a [[f64; L]],
    out: Vec<&'b mut [f64]>,
    first: usize,
}

impl<const L: usize> Multiversion for SpmmLanes<'_, '_, L> {
    #[inline(always)]
    fn run(&mut self) {
        let a = self.a;
        let rows = self.out.first().map_or(0, |piece| piece.len());
        for dr in 0..rows {
            let r = self.first + dr;
            let entries = a.row_ptr[r]..a.row_ptr[r + 1];
            let mut acc = [0.0; L];
            for (&c, &v) in a.col_idx[entries.clone()].iter().zip(&a.values[entries]) {
                let x = self.lanes[c];
                for l in 0..L {
                    acc[l] += v * x[l];
                }
            }
            for (piece, &sum) in self.out.iter_mut().zip(&acc) {
                piece[dr] = sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csr() -> CsrMatrix {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3usize {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
                coo.push(i - 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn coo_accumulates_duplicates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.5);
        coo.push(0, 1, 2.5);
        coo.push(1, 0, -1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 1), 4.0);
        assert_eq!(csr.get(1, 0), -1.0);
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn coo_handles_empty_rows() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(3, 3, 2.0);
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 0), 1.0);
        assert_eq!(csr.get(3, 3), 2.0);
        assert_eq!(csr.get(1, 1), 0.0);
        assert_eq!(csr.spmv(&[1.0, 1.0, 1.0, 1.0]).unwrap(), vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn spmv_tridiagonal() {
        let a = sample_csr();
        let y = a.spmv(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn spmv_rejects_wrong_length() {
        let a = sample_csr();
        assert!(a.spmv(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn diagonal_and_symmetry() {
        let a = sample_csr();
        assert_eq!(a.diagonal(), vec![2.0, 2.0, 2.0]);
        assert!(a.is_symmetric(0.0));
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        assert!(!coo.to_csr().is_symmetric(1e-12));
    }

    #[test]
    fn from_raw_validates() {
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err()); // bad row_ptr len
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 3], vec![0, 1], vec![1.0, 1.0]).is_err()); // end mismatch
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err()); // non-monotone
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 1.0]).is_err()); // col oob
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
        // Column order: unsorted, repeated, and repeated out of order (the
        // last would otherwise report diagonal()[0] = 1 while A·e₀ = 4).
        let unsorted = CsrMatrix::from_raw(2, 2, vec![0, 2, 3], vec![1, 0, 1], vec![1.0; 3]);
        assert!(matches!(unsorted, Err(LinalgError::InvalidDimension { .. })));
        let repeated = CsrMatrix::from_raw(2, 2, vec![0, 2, 3], vec![0, 0, 1], vec![1.0; 3]);
        assert!(matches!(repeated, Err(LinalgError::InvalidDimension { .. })));
        let shadowed = CsrMatrix::from_raw(1, 2, vec![0, 3], vec![0, 1, 0], vec![1.0, 2.0, 3.0]);
        assert!(matches!(shadowed, Err(LinalgError::InvalidDimension { .. })));
        // Sorted rows, empty rows and a 0×0 matrix stay valid.
        assert!(CsrMatrix::from_raw(3, 3, vec![0, 2, 2, 3], vec![0, 2, 1], vec![1.0; 3]).is_ok());
        assert!(CsrMatrix::from_raw(0, 0, vec![0], vec![], vec![]).is_ok());
    }

    #[test]
    fn split_triangles_partitions_rows_without_a_diagonal_too() {
        // Row 1 has no stored diagonal, row 2 is empty, row 6 has more
        // entries on each side than one fixed-width copy holds, and the
        // last row's run ends the arrays.
        let n = 12;
        let mut coo = CooMatrix::new(n, n);
        for (r, c, v) in [(0, 0, 4.0), (0, 5, -1.0), (1, 0, -2.0), (1, 3, 1.5), (11, 0, 3.0)] {
            coo.push(r, c, v);
        }
        for c in 0..n {
            coo.push(6, c, c as f64 + 1.0);
        }
        coo.push(4, 4, 1.0);
        let a = coo.to_csr();
        let Split { lower, diag, upper, block } = a.split_triangles();
        assert_eq!(block, None, "row 6 spans every block");
        assert_eq!(diag, a.diagonal());
        assert_eq!(&diag[..7], &[4.0, 0.0, 0.0, 0.0, 1.0, 0.0, 7.0]);
        for r in 0..n {
            let below: Vec<_> = a.row_entries(r).filter(|&(c, _)| c < r).collect();
            let above: Vec<_> = a.row_entries(r).filter(|&(c, _)| c > r).collect();
            assert_eq!(lower.row(r), below, "row {r}");
            assert_eq!(upper.row(r), above, "row {r}");
        }
    }

    #[test]
    fn spmm_matches_spmv_bitwise_per_row() {
        let a = sample_csr();
        let x = Matrix::from_rows(&[
            &[1.0, 2.0, 3.0],
            &[-0.5, 0.25, 4.0],
            &[0.0, 0.0, 0.0],
            &[1e-300, -2.5, 1e3],
        ])
        .unwrap();
        let y = a.spmm(&x).unwrap();
        assert_eq!(y.shape(), (4, 3));
        for r in 0..4 {
            let serial = a.spmv(x.row(r)).unwrap();
            for (got, want) in y.row(r).iter().zip(&serial) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn spmm_rejects_bad_shapes_and_accepts_empty_blocks() {
        let a = sample_csr();
        assert!(a.spmm(&Matrix::zeros(2, 4)).is_err());
        let mut wrong = Matrix::zeros(3, 3);
        assert!(a.spmm_into(&Matrix::zeros(2, 3), &mut wrong).is_err());
        let empty = a.spmm(&Matrix::zeros(0, 3)).unwrap();
        assert_eq!(empty.shape(), (0, 3));
    }

    #[test]
    fn row_entries_iterates_stored_values() {
        let a = sample_csr();
        let row1: Vec<(usize, f64)> = a.row_entries(1).collect();
        assert_eq!(row1, vec![(0, -1.0), (1, 2.0), (2, -1.0)]);
    }
}
