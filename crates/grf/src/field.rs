use deepoheat_linalg::{Cholesky, Matrix};
use rand::Rng;

use crate::GrfError;

/// Diagonal jitter added to the covariance matrix so the Cholesky
/// factorisation stays positive definite despite floating-point round-off
/// on nearly-coincident points.
const COVARIANCE_JITTER: f64 = 1e-10;

/// A zero-mean Gaussian random field with a squared-exponential
/// (RBF) covariance kernel
///
/// ```text
/// k(x, x') = exp(-‖x - x'‖² / (2 ℓ²))
/// ```
///
/// over a fixed set of 2-D sample points. Sampling draws i.i.d. standard
/// normals `z` and returns `L z`, where `L Lᵀ` factors the covariance
/// matrix.
///
/// The length scale `ℓ` controls smoothness; the paper uses `ℓ = 0.3` on
/// the unit square to generate "relatively smooth" training power maps
/// (§V.A.2, Fig. 4 left).
///
/// # Examples
///
/// ```
/// use deepoheat_grf::GaussianRandomField;
/// use rand::SeedableRng;
///
/// let grf = GaussianRandomField::on_unit_grid(8, 0.3)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let sample = grf.sample(&mut rng)?;
/// assert_eq!(sample.len(), 64);
/// # Ok::<(), deepoheat_grf::GrfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GaussianRandomField {
    points: Vec<[f64; 2]>,
    length_scale: f64,
    grid_side: Option<usize>,
    factor: Cholesky,
}

impl GaussianRandomField {
    /// Builds a field over arbitrary 2-D points.
    ///
    /// # Errors
    ///
    /// * [`GrfError::InvalidConfig`] if `points` is empty or
    ///   `length_scale <= 0`.
    /// * [`GrfError::Linalg`] if the covariance matrix cannot be factored
    ///   (e.g. exactly duplicated points).
    pub fn new(points: Vec<[f64; 2]>, length_scale: f64) -> Result<Self, GrfError> {
        if points.is_empty() {
            return Err(GrfError::InvalidConfig { what: "no sample points provided".into() });
        }
        if length_scale <= 0.0 || !length_scale.is_finite() {
            return Err(GrfError::InvalidConfig {
                what: format!("length scale must be positive and finite, got {length_scale}"),
            });
        }
        let n = points.len();
        let two_l2 = 2.0 * length_scale * length_scale;
        let mut cov = Matrix::from_fn(n, n, |i, j| {
            let dx = points[i][0] - points[j][0];
            let dy = points[i][1] - points[j][1];
            (-(dx * dx + dy * dy) / two_l2).exp()
        });
        for i in 0..n {
            cov[(i, i)] += COVARIANCE_JITTER;
        }
        let factor = Cholesky::new(&cov)?;
        Ok(GaussianRandomField { points, length_scale, grid_side: None, factor })
    }

    /// Builds a field over an `n × n` equispaced grid covering the unit
    /// square (including both endpoints), matching the paper's `21 × 21`
    /// power-map encoding.
    ///
    /// # Errors
    ///
    /// Returns [`GrfError::InvalidConfig`] if `n < 2` or the length scale
    /// is invalid, and [`GrfError::Linalg`] if factorisation fails.
    pub fn on_unit_grid(n: usize, length_scale: f64) -> Result<Self, GrfError> {
        if n < 2 {
            return Err(GrfError::InvalidConfig {
                what: format!("grid side must be >= 2, got {n}"),
            });
        }
        let step = 1.0 / (n - 1) as f64;
        let mut points = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                points.push([i as f64 * step, j as f64 * step]);
            }
        }
        let mut field = Self::new(points, length_scale)?;
        field.grid_side = Some(n);
        Ok(field)
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the field has no sample points (never the case for
    /// a successfully constructed field).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The sample-point locations.
    pub fn points(&self) -> &[[f64; 2]] {
        &self.points
    }

    /// Draws one field sample as a flat vector aligned with
    /// [`GaussianRandomField::points`].
    ///
    /// # Errors
    ///
    /// Returns [`GrfError::Linalg`] only on internal shape corruption
    /// (which would indicate a bug).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Vec<f64>, GrfError> {
        let z = standard_normals(self.len(), rng);
        Ok(self.factor.l_times(&z)?)
    }

    /// Draws one sample reshaped to the `n × n` grid; only available for
    /// fields built with [`GaussianRandomField::on_unit_grid`].
    ///
    /// # Errors
    ///
    /// Returns [`GrfError::InvalidConfig`] for point-cloud fields.
    pub fn sample_grid<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Matrix, GrfError> {
        let n = self.grid_side.ok_or_else(|| GrfError::InvalidConfig {
            what: "sample_grid requires a field built with on_unit_grid".into(),
        })?;
        let flat = self.sample(rng)?;
        Ok(Matrix::from_vec(n, n, flat)?)
    }

    /// Covariance between the samples at points `i` and `j` (exact, from
    /// the kernel — useful for statistical tests).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn kernel(&self, i: usize, j: usize) -> f64 {
        let dx = self.points[i][0] - self.points[j][0];
        let dy = self.points[i][1] - self.points[j][1];
        (-(dx * dx + dy * dy) / (2.0 * self.length_scale * self.length_scale)).exp()
    }
}

/// Draws `n` i.i.d. standard normals by Box–Muller.
fn standard_normals<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        out.push(r * theta.cos());
        if out.len() < n {
            out.push(r * theta.sin());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_config() {
        assert!(GaussianRandomField::new(vec![], 0.3).is_err());
        assert!(GaussianRandomField::new(vec![[0.0, 0.0]], 0.0).is_err());
        assert!(GaussianRandomField::new(vec![[0.0, 0.0]], -1.0).is_err());
        assert!(GaussianRandomField::on_unit_grid(1, 0.3).is_err());
    }

    #[test]
    fn grid_layout_and_dims() {
        let grf = GaussianRandomField::on_unit_grid(5, 0.5).unwrap();
        assert_eq!(grf.len(), 25);
        assert_eq!(grf.points()[0], [0.0, 0.0]);
        assert_eq!(grf.points()[24], [1.0, 1.0]);
        assert_eq!(grf.points()[4], [0.0, 1.0]); // row-major: j varies fastest
    }

    #[test]
    fn samples_are_deterministic_per_seed_and_vary_across_seeds() {
        let grf = GaussianRandomField::on_unit_grid(6, 0.3).unwrap();
        let a = grf.sample(&mut rand::rngs::StdRng::seed_from_u64(1)).unwrap();
        let b = grf.sample(&mut rand::rngs::StdRng::seed_from_u64(1)).unwrap();
        let c = grf.sample(&mut rand::rngs::StdRng::seed_from_u64(2)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empirical_variance_is_near_one() {
        // Marginal variance of the field is k(x,x) = 1.
        let grf = GaussianRandomField::on_unit_grid(4, 0.3).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let n_samples = 2000;
        let mut acc = vec![0.0f64; grf.len()];
        for _ in 0..n_samples {
            let s = grf.sample(&mut rng).unwrap();
            for (a, v) in acc.iter_mut().zip(&s) {
                *a += v * v;
            }
        }
        for a in acc {
            let var = a / n_samples as f64;
            assert!((var - 1.0).abs() < 0.15, "marginal variance {var}");
        }
    }

    #[test]
    fn nearby_points_are_highly_correlated() {
        let grf = GaussianRandomField::on_unit_grid(21, 0.3).unwrap();
        // Adjacent grid points at distance 1/20 with l = 0.3: corr ≈ 0.986.
        assert!(grf.kernel(0, 1) > 0.98);
        // Opposite corners: essentially independent.
        assert!(grf.kernel(0, grf.len() - 1) < 0.01);
    }

    #[test]
    fn smoothness_increases_with_length_scale() {
        // Mean squared difference between neighbours should shrink as l grows.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let rough = GaussianRandomField::on_unit_grid(12, 0.05).unwrap();
        let smooth = GaussianRandomField::on_unit_grid(12, 0.6).unwrap();
        let roughness = |field: &GaussianRandomField, rng: &mut rand::rngs::StdRng| {
            let mut total = 0.0;
            for _ in 0..20 {
                let m = field.sample_grid(rng).unwrap();
                for r in 0..12 {
                    for c in 0..11 {
                        let d = m[(r, c + 1)] - m[(r, c)];
                        total += d * d;
                    }
                }
            }
            total
        };
        assert!(roughness(&rough, &mut rng) > 10.0 * roughness(&smooth, &mut rng));
    }

    #[test]
    fn sample_grid_requires_grid_construction() {
        let grf = GaussianRandomField::new(vec![[0.0, 0.0], [1.0, 1.0]], 0.3).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(grf.sample_grid(&mut rng).is_err());
    }
}
