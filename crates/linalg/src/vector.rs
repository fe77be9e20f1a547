//! BLAS-level-1 helpers on `&[f64]` slices, and the block kernels block CG
//! runs on row-major blocks of such vectors.
//!
//! The iterative solvers in [`crate::conjugate_gradient`] and the optimiser
//! loops in `deepoheat-nn` are built on the level-1 helpers. Long vectors
//! are processed in fixed [`VEC_CHUNK`]-element chunks on the
//! `deepoheat-parallel` pool; the chunk boundaries depend only on the
//! vector length, and reduction partials combine in chunk order, so every
//! result is bit-identical regardless of the pool's thread count. Vectors
//! of at most [`VEC_CHUNK`] elements take a serial fast path that never
//! touches the pool.
//!
//! The block kernels ([`gram`], [`row_norms`], [`add_product`],
//! [`sub_product`], [`direction_update`]) give every entry the bits of the
//! level-1 or GEMM computation it stands for, but do the whole block in one
//! pass: independent sums run side by side as lanes instead of one
//! latency-bound chain after another, and the pool gets one dispatch per
//! block instead of one per entry.

use std::ops::Range;

use deepoheat_parallel::{self as parallel, Job};

use crate::kernels::{self, lane_groups, run_widest, LaneTail, Multiversion};
use crate::{LinalgError, Matrix};

/// Fixed chunk length for vector kernels. Part of the determinism
/// contract: changing this value changes the summation order of long
/// reductions (and therefore their low-order bits), so it is a compile-time
/// constant, never derived from the thread count.
pub const VEC_CHUNK: usize = 32 * 1024;

fn dot_serial(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Dot product of two slices.
///
/// The slices must have equal lengths; the precondition is checked with a
/// debug assertion (release builds still halt on a shorter `b` via slice
/// bounds, but with a less helpful message).
///
/// # Examples
///
/// ```
/// use deepoheat_linalg::dot;
/// assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    parallel::par_reduce(a.len(), VEC_CHUNK, |r| dot_serial(&a[r.clone()], &b[r]))
}

/// Euclidean norm of a slice.
///
/// # Examples
///
/// ```
/// use deepoheat_linalg::norm2;
/// assert_eq!(norm2(&[3.0, 4.0]), 5.0);
/// ```
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Computes `y += alpha * x` in place.
///
/// The slices must have equal lengths; the precondition is checked with a
/// debug assertion (release builds still halt on a shorter `x` via slice
/// bounds, but with a less helpful message).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch {} vs {}", x.len(), y.len());
    parallel::par_chunks_mut(y, VEC_CHUNK, |ci, yc| {
        let xc = &x[ci * VEC_CHUNK..][..yc.len()];
        for (yi, &xi) in yc.iter_mut().zip(xc) {
            *yi += alpha * xi;
        }
    });
}

/// Scales a slice in place: `x *= alpha`.
pub fn scale_in_place(alpha: f64, x: &mut [f64]) {
    parallel::par_chunks_mut(x, VEC_CHUNK, |_, xc| {
        for xi in xc {
            *xi *= alpha;
        }
    });
}

/// Columns per tile of the fused block updates. Each column is an
/// independent sum, so one output row's tile is 64 lanes the compiler
/// vectorises; at 16 it unrolls them into scalar chains instead. A tile of
/// eight source rows (4 KiB) stays in L1 while every output row reads it.
const UPDATE_TILE: usize = 64;

/// Target multiply-adds per pooled band of the fused block updates; a
/// band is this many multiply-adds' worth of columns, rounded to whole
/// tiles. It depends on the block shape only, never on the thread count.
const UPDATE_BAND_WORK: usize = 128 * 1024;

/// Folds per-chunk partials (`len` entries each) in chunk order from
/// `-0.0`, the order in which [`dot`]'s `par_reduce` sums its partials.
fn fold_chunks(len: usize, partials: &[Vec<f64>]) -> Vec<f64> {
    let mut total = vec![-0.0; len];
    for partial in partials {
        for (t, &p) in total.iter_mut().zip(partial) {
            *t += p;
        }
    }
    total
}

/// Gram block `G[i][j] = dot(x.row(i), y.row(j))` of two row blocks with
/// equal row length (`k × m` for `k` rows of `x` and `m` rows of `y`).
///
/// Every entry is bit-identical to the [`dot`] it stands for: each
/// [`VEC_CHUNK`] chunk of the rows is summed sequentially from `-0.0`, and
/// the chunk partials are folded in chunk order from `-0.0`. Unlike `k·m`
/// separate dots, the block is one pass: each row of `x` runs against the
/// rows of `y` in groups of 8, 4, 2 or 1 independent lanes, each lane
/// continuing its own sequential sum, and the pool runs one job per chunk
/// for the whole block. A 1 × 1 block costs one `dot`.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if `x.cols() != y.cols()`.
pub fn gram(x: &Matrix, y: &Matrix) -> Result<Matrix, LinalgError> {
    if x.cols() != y.cols() {
        return Err(LinalgError::ShapeMismatch { op: "gram", lhs: x.shape(), rhs: y.shape() });
    }
    let (k, m) = (x.rows(), y.rows());
    let partials = parallel::par_map_chunks(x.cols(), VEC_CHUNK, |range| {
        let mut acc = vec![-0.0; k * m];
        for (i, acc) in acc.chunks_exact_mut(m.max(1)).enumerate() {
            let xi = &x.row(i)[range.clone()];
            for (j, count, lanes) in lane_groups(m, LaneTail::Split) {
                let acc = &mut acc[j..j + count];
                match lanes {
                    8 => dot_lanes::<8>(xi, y, j, &range, acc),
                    4 => dot_lanes::<4>(xi, y, j, &range, acc),
                    2 => dot_lanes::<2>(xi, y, j, &range, acc),
                    _ => dot_lanes::<1>(xi, y, j, &range, acc),
                }
            }
        }
        acc
    });
    Matrix::from_vec(k, m, fold_chunks(k * m, &partials))
}

/// Continues `L` dot partials at once: `acc[l]` adds `x[e] · y[j0 + l][e]`
/// for every element `e` of `range`, in element order, exactly as
/// `dot_serial` sums one of them.
fn dot_lanes<const L: usize>(
    x: &[f64],
    y: &Matrix,
    j0: usize,
    range: &Range<usize>,
    acc: &mut [f64],
) {
    let n = x.len();
    let ys: [&[f64]; L] = std::array::from_fn(|l| &y.row(j0 + l)[range.clone()][..n]);
    let mut lanes: [f64; L] = std::array::from_fn(|l| acc[l]);
    for e in 0..n {
        let xv = x[e];
        for l in 0..L {
            lanes[l] += xv * ys[l][e];
        }
    }
    acc.copy_from_slice(&lanes);
}

/// Euclidean norm of every row of `x`, each bit-identical to [`norm2`] of
/// that row, in one pass: up to eight rows' sums of squares accumulate
/// side by side, split over the pool by [`VEC_CHUNK`] chunk like [`dot`].
pub fn row_norms(x: &Matrix) -> Vec<f64> {
    let k = x.rows();
    let partials = parallel::par_map_chunks(x.cols(), VEC_CHUNK, |range| {
        let mut acc = vec![-0.0; k];
        for (i, count, lanes) in lane_groups(k, LaneTail::Split) {
            let acc = &mut acc[i..i + count];
            match lanes {
                8 => square_lanes::<8>(x, i, &range, acc),
                4 => square_lanes::<4>(x, i, &range, acc),
                2 => square_lanes::<2>(x, i, &range, acc),
                _ => square_lanes::<1>(x, i, &range, acc),
            }
        }
        acc
    });
    fold_chunks(k, &partials).into_iter().map(f64::sqrt).collect()
}

/// Continues the sums of squares of rows `i0..i0 + L` over `range`.
fn square_lanes<const L: usize>(x: &Matrix, i0: usize, range: &Range<usize>, acc: &mut [f64]) {
    let n = range.len();
    let xs: [&[f64]; L] = std::array::from_fn(|l| &x.row(i0 + l)[range.clone()][..n]);
    let mut lanes: [f64; L] = std::array::from_fn(|l| acc[l]);
    for e in 0..n {
        for l in 0..L {
            let v = xs[l][e];
            lanes[l] += v * v;
        }
    }
    acc.copy_from_slice(&lanes);
}

/// How a fused block update combines a destination element `d` with the
/// element `acc` of the product.
#[derive(Clone, Copy)]
enum Combine<'a> {
    /// `d + acc`.
    Add,
    /// `d - acc`.
    Sub,
    /// `z + acc`, with `z` at the destination's own position.
    Onto(&'a Matrix),
}

/// `x.row(rows[s]) += Σⱼ coef[s][j] · p.row(j)` for every `s`: block CG's
/// iterate update `X[active] += αᵀP`.
///
/// Bit-identical to `coef.matmul(p)` followed by an elementwise add into
/// the selected rows: each product element starts from `+0.0` and adds
/// its terms in ascending `j`, multiply and add kept separate (no FMA),
/// then one add folds it into `x`. It runs as one column-tiled pass with
/// no temporary, split over the pool by fixed column bands.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `coef` is not `rows.len() ×
///   p.rows()` or `p` and `x` differ in row length.
/// * [`LinalgError::InvalidDimension`] if a row index is out of range or
///   repeated.
pub fn add_product(
    coef: &Matrix,
    p: &Matrix,
    x: &mut Matrix,
    rows: &[usize],
) -> Result<(), LinalgError> {
    check_product("add_product", coef, p, (rows.len(), x.cols()))?;
    let mut slots: Vec<Option<&mut [f64]>> = rows_mut(x).into_iter().map(Some).collect();
    let mut dst = Vec::with_capacity(rows.len());
    for &r in rows {
        match slots.get_mut(r).and_then(Option::take) {
            Some(row) => dst.push(row),
            None => {
                return Err(LinalgError::InvalidDimension {
                    op: "add_product",
                    what: format!("row {r} is out of range or repeated"),
                })
            }
        }
    }
    fused_update(coef, Some(p), dst, Combine::Add);
    Ok(())
}

/// `r -= coef · q`: block CG's residual update `R −= αᵀQ`, bit-identical
/// to `coef.matmul(q)` followed by an elementwise subtract, in one fused
/// pass like [`add_product`].
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if `coef` is not `r.rows() ×
/// q.rows()` or `q` and `r` differ in row length.
pub fn sub_product(coef: &Matrix, q: &Matrix, r: &mut Matrix) -> Result<(), LinalgError> {
    check_product("sub_product", coef, q, r.shape())?;
    fused_update(coef, Some(q), rows_mut(r), Combine::Sub);
    Ok(())
}

/// `p = z + coef · p`, in place: block CG's direction update
/// `P = Z + βᵀP`, bit-identical to `z + coef.matmul(p)` elementwise, in one
/// fused pass like [`add_product`]. Each tile of `p` is read whole before
/// any of it is overwritten.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if `coef` is not square with
/// `p.rows()` rows or `z` is not shaped like `p`.
pub fn direction_update(coef: &Matrix, z: &Matrix, p: &mut Matrix) -> Result<(), LinalgError> {
    check_product("direction_update", coef, p, p.shape())?;
    if z.shape() != p.shape() {
        return Err(LinalgError::ShapeMismatch {
            op: "direction_update",
            lhs: p.shape(),
            rhs: z.shape(),
        });
    }
    fused_update(coef, None, rows_mut(p), Combine::Onto(z));
    Ok(())
}

/// Checks that `coef · src` is defined and shaped `out` (rows, row length).
fn check_product(
    op: &'static str,
    coef: &Matrix,
    src: &Matrix,
    out: (usize, usize),
) -> Result<(), LinalgError> {
    if coef.cols() != src.rows() {
        return Err(LinalgError::ShapeMismatch { op, lhs: coef.shape(), rhs: src.shape() });
    }
    if (coef.rows(), src.cols()) != out {
        return Err(LinalgError::ShapeMismatch { op, lhs: (coef.rows(), src.cols()), rhs: out });
    }
    Ok(())
}

/// The rows of `m` as disjoint mutable slices, one per row even when the
/// rows are empty.
fn rows_mut(m: &mut Matrix) -> Vec<&mut [f64]> {
    let (rows, cols) = m.shape();
    if cols == 0 {
        return (0..rows).map(|_| <&mut [f64]>::default()).collect();
    }
    m.as_mut_slice().chunks_mut(cols).collect()
}

/// `dst[s] = combine(dst[s], Σⱼ coef[s][j] · src[j])` for every
/// destination row, with `src` the rows of `src`, or of `dst` itself when
/// `None`. Pool jobs own fixed column bands of every destination row.
fn fused_update(coef: &Matrix, src: Option<&Matrix>, dst: Vec<&mut [f64]>, combine: Combine<'_>) {
    let n = dst.first().map_or(0, |row| row.len());
    let band = (UPDATE_BAND_WORK / (coef.rows() * coef.cols()).max(1))
        .max(UPDATE_TILE)
        .next_multiple_of(UPDATE_TILE);
    let jobs: Vec<Job<'_>> = kernels::bands_of(dst, n, band)
        .into_iter()
        .enumerate()
        .map(|(b, dst)| {
            Box::new(move || {
                run_widest(&mut UpdateBand { coef, src, dst, col0: b * band, combine });
            }) as Job<'_>
        })
        .collect();
    parallel::run_scope(jobs);
}

/// One column band of a fused block update: `dst` holds the band's piece
/// of every destination row, starting at column `col0`.
struct UpdateBand<'a, 'b> {
    coef: &'a Matrix,
    src: Option<&'a Matrix>,
    dst: Vec<&'b mut [f64]>,
    col0: usize,
    combine: Combine<'a>,
}

impl Multiversion for UpdateBand<'_, '_> {
    #[inline(always)]
    fn run(&mut self) {
        let width = self.dst.first().map_or(0, |row| row.len());
        // The source rows' current tile. It is loaded whole before any
        // destination element is written, which makes the in-place
        // direction update safe.
        let mut tile = vec![[0.0; UPDATE_TILE]; self.coef.cols()];
        let mut t0 = 0;
        while t0 < width {
            let tw = UPDATE_TILE.min(width - t0);
            let col = self.col0 + t0;
            for (j, lanes) in tile.iter_mut().enumerate() {
                *lanes = tile_lanes(match self.src {
                    Some(src) => &src.row(j)[col..col + tw],
                    None => &self.dst[j][t0..t0 + tw],
                });
            }
            for (s, d) in self.dst.iter_mut().enumerate() {
                let mut acc = [0.0; UPDATE_TILE];
                for (&a, lanes) in self.coef.row(s).iter().zip(&tile) {
                    for t in 0..UPDATE_TILE {
                        acc[t] += a * lanes[t];
                    }
                }
                let d = &mut d[t0..t0 + tw];
                match self.combine {
                    Combine::Add => {
                        for (dv, &av) in d.iter_mut().zip(&acc) {
                            *dv += av;
                        }
                    }
                    Combine::Sub => {
                        for (dv, &av) in d.iter_mut().zip(&acc) {
                            *dv -= av;
                        }
                    }
                    Combine::Onto(z) => {
                        for ((dv, &zv), &av) in d.iter_mut().zip(&z.row(s)[col..]).zip(&acc) {
                            *dv = zv + av;
                        }
                    }
                }
            }
            t0 += tw;
        }
    }
}

/// `piece` (at most [`UPDATE_TILE`] elements) as one tile of lanes,
/// zero-padded past its end: padded lanes are computed and never stored.
#[inline(always)]
fn tile_lanes(piece: &[f64]) -> [f64; UPDATE_TILE] {
    match <[f64; UPDATE_TILE]>::try_from(piece) {
        Ok(full) => full,
        Err(_) => std::array::from_fn(|t| piece.get(t).copied().unwrap_or(0.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[1.0, -1.0, 2.0], &[2.0, 2.0, 0.5]), 1.0);
        assert!((norm2(&[1.0, 1.0, 1.0, 1.0]) - 2.0).abs() < 1e-15);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics_in_debug() {
        dot(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 2.0, 3.0];
        axpy(2.0, &[1.0, 0.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn scale_in_place_works() {
        let mut x = vec![1.0, -2.0];
        scale_in_place(-0.5, &mut x);
        assert_eq!(x, vec![-0.5, 1.0]);
    }

    #[test]
    fn long_kernels_match_their_serial_forms() {
        let n = 3 * VEC_CHUNK + 17;
        let a: Vec<f64> = (0..n).map(|i| ((i * 31) % 97) as f64 * 0.01 - 0.4).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 17) % 89) as f64 * 0.02 - 0.8).collect();

        let chunked: f64 =
            parallel::chunk_ranges(n, VEC_CHUNK).map(|r| dot_serial(&a[r.clone()], &b[r])).sum();
        assert_eq!(dot(&a, &b).to_bits(), chunked.to_bits());

        let mut y = b.clone();
        axpy(0.3, &a, &mut y);
        let mut y_ref = b.clone();
        for (yi, &xi) in y_ref.iter_mut().zip(&a) {
            *yi += 0.3 * xi;
        }
        assert!(y.iter().zip(&y_ref).all(|(p, q)| p.to_bits() == q.to_bits()));
    }
}
