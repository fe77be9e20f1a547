use deepoheat_linalg::Matrix;

use crate::{Face, StructuredGrid};

/// The temperature field produced by [`crate::HeatProblem::solve`],
/// together with solver diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    grid: StructuredGrid,
    temperatures: Vec<f64>,
    iterations: usize,
    relative_residual: f64,
    cg_trace: Option<Vec<f64>>,
    degraded: bool,
}

impl Solution {
    pub(crate) fn from_parts(
        grid: StructuredGrid,
        temperatures: Vec<f64>,
        iterations: usize,
        relative_residual: f64,
        cg_trace: Option<Vec<f64>>,
        degraded: bool,
    ) -> Self {
        debug_assert_eq!(temperatures.len(), grid.node_count());
        Solution { grid, temperatures, iterations, relative_residual, cg_trace, degraded }
    }

    /// The grid the solution lives on.
    pub fn grid(&self) -> &StructuredGrid {
        &self.grid
    }

    /// Temperatures in flat node-index order (Kelvin).
    pub fn temperatures(&self) -> &[f64] {
        &self.temperatures
    }

    /// Consumes the solution, returning the temperature vector.
    pub fn into_temperatures(self) -> Vec<f64> {
        self.temperatures
    }

    /// CG iterations used by the solve (0 when fully pinned by Dirichlet
    /// data).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Final relative residual of the linear solve.
    pub fn relative_residual(&self) -> f64 {
        self.relative_residual
    }

    /// Per-iteration CG relative residuals, present iff the solve ran with
    /// [`crate::SolveOptions::record_cg_trace`]; unless the ladder escalated,
    /// `iterations() + 1` of them, the last [`Solution::relative_residual`].
    pub fn cg_trace(&self) -> Option<&[f64]> {
        self.cg_trace.as_deref()
    }

    /// `true` if the solve only met the relaxed
    /// [`crate::SolveOptions::degraded_tolerance`] after exhausting the
    /// conjugate-gradient fallback ladder. Degraded fields are usable for
    /// monitoring and coarse comparisons but should not be treated as
    /// reference-accuracy data; check [`Solution::relative_residual`] for
    /// the accuracy actually achieved.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Temperature at vertex `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.temperatures[self.grid.index(i, j, k)]
    }

    /// Maximum temperature over the whole domain.
    pub fn max_temperature(&self) -> f64 {
        self.temperatures.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum temperature over the whole domain.
    pub fn min_temperature(&self) -> f64 {
        self.temperatures.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The temperature field on one face, indexed by the face's in-plane
    /// axes (see [`Face`] for the convention). For `ZMax` this is the
    /// `nx × ny` top-surface field plotted throughout the paper's Fig. 3.
    pub fn face_temperatures(&self, face: Face) -> Matrix {
        let g = &self.grid;
        match face {
            Face::XMin | Face::XMax => {
                let i = if face.is_max() { g.nx() - 1 } else { 0 };
                Matrix::from_fn(g.ny(), g.nz(), |j, k| self.at(i, j, k))
            }
            Face::YMin | Face::YMax => {
                let j = if face.is_max() { g.ny() - 1 } else { 0 };
                Matrix::from_fn(g.nx(), g.nz(), |i, k| self.at(i, j, k))
            }
            Face::ZMin | Face::ZMax => {
                let k = if face.is_max() { g.nz() - 1 } else { 0 };
                Matrix::from_fn(g.nx(), g.ny(), |i, j| self.at(i, j, k))
            }
        }
    }

    /// Trilinearly interpolates the temperature at an arbitrary physical
    /// position (metres), clamping positions outside the domain to its
    /// surface.
    ///
    /// This is how the reference field is compared against surrogate
    /// predictions at off-grid collocation points (the §V.B experiment
    /// evaluates at random positions rather than mesh vertices).
    pub fn sample(&self, x: f64, y: f64, z: f64) -> f64 {
        let g = &self.grid;
        let locate = |v: f64, d: f64, n: usize| -> (usize, usize, f64) {
            let t = (v / d).clamp(0.0, (n - 1) as f64);
            let lo = (t.floor() as usize).min(n - 2);
            (lo, lo + 1, t - lo as f64)
        };
        let (i0, i1, tx) = locate(x, g.dx(), g.nx());
        let (j0, j1, ty) = locate(y, g.dy(), g.ny());
        let (k0, k1, tz) = locate(z, g.dz(), g.nz());
        let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
        let c00 = lerp(self.at(i0, j0, k0), self.at(i1, j0, k0), tx);
        let c10 = lerp(self.at(i0, j1, k0), self.at(i1, j1, k0), tx);
        let c01 = lerp(self.at(i0, j0, k1), self.at(i1, j0, k1), tx);
        let c11 = lerp(self.at(i0, j1, k1), self.at(i1, j1, k1), tx);
        lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_solution() -> Solution {
        // T = 300 + 10 i + 20 j + 30 k on a 3x3x3 grid.
        let grid = StructuredGrid::new(3, 3, 3, 1.0, 1.0, 1.0).unwrap();
        let mut temps = vec![0.0; grid.node_count()];
        for idx in 0..grid.node_count() {
            let (i, j, k) = grid.coordinates(idx);
            temps[idx] = 300.0 + 10.0 * i as f64 + 20.0 * j as f64 + 30.0 * k as f64;
        }
        Solution::from_parts(grid, temps, 7, 1e-11, None, false)
    }

    #[test]
    fn accessors() {
        let s = linear_solution();
        assert_eq!(s.at(1, 2, 0), 350.0);
        assert_eq!(s.min_temperature(), 300.0);
        assert_eq!(s.max_temperature(), 300.0 + 20.0 + 40.0 + 60.0);
        assert_eq!(s.iterations(), 7);
        assert!((s.relative_residual() - 1e-11).abs() < 1e-24);
        assert_eq!(s.temperatures().len(), 27);
    }

    #[test]
    fn face_fields_use_face_conventions() {
        let s = linear_solution();
        let top = s.face_temperatures(Face::ZMax);
        assert_eq!(top.shape(), (3, 3));
        assert_eq!(top[(1, 2)], 300.0 + 10.0 + 40.0 + 60.0); // (i=1, j=2, k=2)
        let xmin = s.face_temperatures(Face::XMin);
        assert_eq!(xmin.shape(), (3, 3));
        assert_eq!(xmin[(2, 1)], 300.0 + 0.0 + 40.0 + 30.0); // (i=0, j=2, k=1)
    }

    #[test]
    fn trilinear_sampling_is_exact_on_linear_fields() {
        // The test field is affine, so trilinear interpolation reproduces
        // it exactly anywhere in the domain (grid spacing is 0.5).
        let s = linear_solution();
        for &(x, y, z) in
            &[(0.0, 0.0, 0.0), (0.25, 0.6, 0.9), (1.0, 1.0, 1.0), (0.123, 0.456, 0.789)]
        {
            let expected = 300.0 + 20.0 * x + 40.0 * y + 60.0 * z;
            assert!((s.sample(x, y, z) - expected).abs() < 1e-12, "at ({x},{y},{z})");
        }
    }

    #[test]
    fn sampling_at_vertices_matches_at() {
        let s = linear_solution();
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    let p = (i as f64 * 0.5, j as f64 * 0.5, k as f64 * 0.5);
                    assert!((s.sample(p.0, p.1, p.2) - s.at(i, j, k)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn sampling_clamps_out_of_domain_queries() {
        let s = linear_solution();
        assert_eq!(s.sample(-1.0, -1.0, -1.0), s.at(0, 0, 0));
        assert_eq!(s.sample(9.0, 9.0, 9.0), s.at(2, 2, 2));
    }
}
