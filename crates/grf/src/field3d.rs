use deepoheat_linalg::{Cholesky, Matrix};
use rand::Rng;

use crate::GrfError;

/// Diagonal jitter keeping the covariance factorisation positive definite.
const COVARIANCE_JITTER: f64 = 1e-10;

/// A zero-mean Gaussian random field with a squared-exponential kernel
/// over a 3-D grid in the unit cube — the workload generator for
/// *volumetric* (3-D) power maps, the configuration family §III of the
/// paper defines and its conclusion names as future work
/// ("optimizing 3D power maps").
///
/// Sampling cost is dominated by the one-off Cholesky factorisation of
/// the `n×n` covariance (`n = nx·ny·nz`), so keep sensor grids coarse
/// (the paper encodes 3-D maps "by its values on three-dimensional
/// equispaced grid points", which need not match the simulation mesh).
///
/// # Examples
///
/// ```
/// use deepoheat_grf::GaussianRandomField3;
/// use rand::SeedableRng;
///
/// let grf = GaussianRandomField3::on_unit_grid(7, 7, 4, 0.4)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let sample = grf.sample(&mut rng)?;
/// assert_eq!(sample.len(), 7 * 7 * 4);
/// # Ok::<(), deepoheat_grf::GrfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GaussianRandomField3 {
    dims: (usize, usize, usize),
    factor: Cholesky,
}

impl GaussianRandomField3 {
    /// Builds a field over an `nx × ny × nz` equispaced grid covering the
    /// unit cube (endpoints included). Flat ordering is x-fastest:
    /// `idx = (k·ny + j)·nx + i`, matching `StructuredGrid`.
    ///
    /// # Errors
    ///
    /// Returns [`GrfError::InvalidConfig`] for dimensions below 2 or an
    /// invalid length scale, and [`GrfError::Linalg`] if the covariance
    /// cannot be factored.
    pub fn on_unit_grid(
        nx: usize,
        ny: usize,
        nz: usize,
        length_scale: f64,
    ) -> Result<Self, GrfError> {
        if nx < 2 || ny < 2 || nz < 2 {
            return Err(GrfError::InvalidConfig {
                what: format!("grid must be at least 2x2x2, got {nx}x{ny}x{nz}"),
            });
        }
        if length_scale <= 0.0 || !length_scale.is_finite() {
            return Err(GrfError::InvalidConfig {
                what: format!("length scale must be positive and finite, got {length_scale}"),
            });
        }
        let n = nx * ny * nz;
        let pos = |idx: usize| -> [f64; 3] {
            let i = idx % nx;
            let j = (idx / nx) % ny;
            let k = idx / (nx * ny);
            [i as f64 / (nx - 1) as f64, j as f64 / (ny - 1) as f64, k as f64 / (nz - 1) as f64]
        };
        let two_l2 = 2.0 * length_scale * length_scale;
        let mut cov = Matrix::from_fn(n, n, |a, b| {
            let pa = pos(a);
            let pb = pos(b);
            let d2 = (pa[0] - pb[0]).powi(2) + (pa[1] - pb[1]).powi(2) + (pa[2] - pb[2]).powi(2);
            (-d2 / two_l2).exp()
        });
        for i in 0..n {
            cov[(i, i)] += COVARIANCE_JITTER;
        }
        let factor = Cholesky::new(&cov)?;
        Ok(GaussianRandomField3 { dims: (nx, ny, nz), factor })
    }

    /// The grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Returns `true` if the field has no points (never the case for a
    /// constructed field).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draws one sample as a flat vector in x-fastest order.
    ///
    /// # Errors
    ///
    /// Returns [`GrfError::Linalg`] only on internal shape corruption.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Vec<f64>, GrfError> {
        let n = self.len();
        let mut z = Vec::with_capacity(n);
        while z.len() < n {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = std::f64::consts::TAU * u2;
            z.push(r * theta.cos());
            if z.len() < n {
                z.push(r * theta.sin());
            }
        }
        Ok(self.factor.l_times(&z)?)
    }

    /// Draws one sample rectified to be non-negative (`max(s, 0)`) — a
    /// convenient way to generate physical (heating-only) volumetric
    /// power maps.
    ///
    /// # Errors
    ///
    /// As [`GaussianRandomField3::sample`].
    pub fn sample_rectified<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Vec<f64>, GrfError> {
        let mut s = self.sample(rng)?;
        for v in &mut s {
            *v = v.max(0.0);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn validates_dimensions_and_scale() {
        assert!(GaussianRandomField3::on_unit_grid(1, 3, 3, 0.3).is_err());
        assert!(GaussianRandomField3::on_unit_grid(3, 3, 3, 0.0).is_err());
        assert!(GaussianRandomField3::on_unit_grid(3, 3, 3, f64::NAN).is_err());
        let grf = GaussianRandomField3::on_unit_grid(4, 3, 2, 0.4).unwrap();
        assert_eq!(grf.dims(), (4, 3, 2));
        assert_eq!(grf.len(), 24);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let grf = GaussianRandomField3::on_unit_grid(3, 3, 3, 0.4).unwrap();
        let a = grf.sample(&mut rand::rngs::StdRng::seed_from_u64(4)).unwrap();
        let b = grf.sample(&mut rand::rngs::StdRng::seed_from_u64(4)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rectified_samples_are_non_negative() {
        let grf = GaussianRandomField3::on_unit_grid(4, 4, 3, 0.3).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let s = grf.sample_rectified(&mut rng).unwrap();
            assert!(s.iter().all(|&v| v >= 0.0));
            assert!(
                s.iter().any(|&v| v > 0.0),
                "all-zero rectified sample is astronomically unlikely"
            );
        }
    }

    #[test]
    fn neighbours_are_correlated_along_every_axis() {
        // Empirically: adjacent samples along x, y and z should co-move.
        let grf = GaussianRandomField3::on_unit_grid(4, 4, 4, 0.8).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut corr = [0.0f64; 3];
        let n_samples = 400;
        for _ in 0..n_samples {
            let s = grf.sample(&mut rng).unwrap();
            let idx = |i: usize, j: usize, k: usize| (k * 4 + j) * 4 + i;
            corr[0] += s[idx(1, 1, 1)] * s[idx(2, 1, 1)];
            corr[1] += s[idx(1, 1, 1)] * s[idx(1, 2, 1)];
            corr[2] += s[idx(1, 1, 1)] * s[idx(1, 1, 2)];
        }
        for (axis, c) in corr.iter().enumerate() {
            assert!(c / n_samples as f64 > 0.5, "axis {axis} correlation {}", c / n_samples as f64);
        }
    }
}
