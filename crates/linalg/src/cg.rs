//! Preconditioners for conjugate gradients over [`CsrMatrix`] operators:
//! the [`Preconditioner`] trait [`crate::block_cg`] applies, and its
//! identity, Jacobi and SSOR implementations.
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
//!   so do layered conductivities. Any other pattern keeps the natural
//!   order.
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
//! sweep already has its lanes to overlap and keeps the natural order; a
//! group of one vector is [`Preconditioner::apply`], wavefront included.

use crate::kernels::{lane_groups, LaneTail};
use crate::sparse::{Split, Triangle};
use crate::{CsrMatrix, LinalgError, Matrix};

/// A preconditioner for conjugate gradients: given a residual `r` it
/// computes `z ≈ A⁻¹ r`.
///
/// Implementations must represent a symmetric positive-definite operator for
/// CG to remain valid.
///
/// # Contract
///
/// `r` and `z` must both have the operator's dimension. [`crate::block_cg`]
/// is the only in-tree caller and always sizes both buffers from the system
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
    /// override must give every row the bits `apply` gives it, so that a
    /// one-row block CG solve is the one-vector PCG recurrence bit for bit
    /// whichever method the preconditioner overrides.
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
                _ => self.apply(r.row(first), z.row_mut(first)),
            }
        }
    }
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
