//! Opt-in single-precision (`f32`) trunk evaluation.
//!
//! [`TrunkF32`] is an inference-only lowering of the trunk side of a
//! trained [`DeepOHeat`] model: the Fourier layer, the trunk MLP, the
//! MIONet combine `B Φᵀ` and the affine output transform all run through
//! the `Matrix32` fused kernels of `deepoheat-linalg`. Parameters are
//! narrowed once at lowering time. [`TrunkF32::trunk_basis`] builds the
//! same [`TrunkBasis`] type as [`DeepOHeat::trunk_basis`], so both
//! precisions share one combine, which widens its result back to `f64`
//! (exactly — every `f32` is representable).
//!
//! **Determinism contract.** Within the `f32` precision, results are
//! bitwise independent of thread count and chunk size — the lowering uses
//! the same fixed chunk boundaries and the same thread-count-oblivious
//! kernels as the `f64` path. Across precisions the outputs differ by
//! accumulated rounding; `trunk_divergence_is_bounded` in this module's
//! tests bounds that divergence, and `f64` remains the serving default
//! (`deepoheat-serve` exposes the choice as a `Precision` option).

use deepoheat_linalg::{Matrix, Matrix32};
use deepoheat_nn::{LoweredFourier, LoweredMlp};

use crate::basis::{self, TrunkBasis};
use crate::{DeepOHeat, DeepOHeatError};

/// An `f32` lowering of the trunk-side inference path of a [`DeepOHeat`]
/// model; build one with [`DeepOHeat::lower_trunk`] and evaluate with
/// [`TrunkF32::trunk_basis`] and [`TrunkBasis::combine`].
#[derive(Debug, Clone)]
pub struct TrunkF32 {
    fourier: Option<LoweredFourier>,
    trunk: LoweredMlp,
    output_offset: f32,
    output_scale: f32,
}

impl DeepOHeat {
    /// Narrows the trunk-side parameters (Fourier frequencies, trunk MLP,
    /// output transform) to `f32` for the opt-in single-precision
    /// inference path. Branch nets are not lowered: branch encoding runs
    /// once per design and is cached, so the trunk dominates the serving
    /// hot path.
    pub fn lower_trunk(&self) -> TrunkF32 {
        let (offset, scale) = self.output_transform();
        TrunkF32 {
            fourier: self.fourier().map(LoweredFourier::from_fourier),
            trunk: LoweredMlp::from_mlp(self.trunk()),
            output_offset: offset as f32,
            output_scale: scale as f32,
        }
    }
}

impl TrunkF32 {
    /// Latent feature width `q` produced by the lowered trunk.
    pub fn latent_dim(&self) -> usize {
        self.trunk.output_dim()
    }

    /// Single-precision counterpart of [`DeepOHeat::trunk_basis`]: the
    /// lowered trunk's `Φ` for every row of `coords`, packed chunk by
    /// chunk, with the narrowed output transform. Chunk boundaries and the
    /// `stop` contract are exactly those of the `f64` path, so the
    /// combined result is bit-identical at any pool width and any
    /// chunking.
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InputMismatch`] unless `coords` is
    /// `points × 3`, and [`DeepOHeatError::Stopped`] when `stop` fired.
    pub fn trunk_basis(
        &self,
        coords: &Matrix,
        chunk_rows: usize,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Result<TrunkBasis, DeepOHeatError> {
        let _span = deepoheat_telemetry::span("model.trunk_basis_f32");
        if coords.cols() != 3 {
            return Err(DeepOHeatError::InputMismatch {
                what: format!("coordinates must be points x 3, got {:?}", coords.shape()),
            });
        }
        let n_points = coords.rows();
        let chunk = if chunk_rows == 0 { n_points.max(1) } else { chunk_rows };
        let packed = Matrix32::pack_row_chunks(n_points, self.latent_dim(), chunk, |rows| {
            let sub = Matrix32::from_f64(&basis::chunk_coords(coords, rows, stop)?);
            let trunk_in = match &self.fourier {
                Some(ff) => ff.forward(&sub)?,
                None => sub,
            };
            Ok::<Matrix32, DeepOHeatError>(self.trunk.forward(&trunk_in)?)
        })?;
        Ok(TrunkBasis::f32(packed, self.output_offset, self.output_scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchEmbedding, DeepOHeatConfig};
    use rand::SeedableRng;

    fn model() -> DeepOHeat {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let cfg = DeepOHeatConfig::single_branch(4, &[16], &[16, 16], 8)
            .with_fourier(8, 1.0)
            .with_output_transform(298.15, 10.0);
        DeepOHeat::new(&cfg, &mut rng).unwrap()
    }

    fn eval(low: &TrunkF32, emb: &BranchEmbedding, y: &Matrix, chunk: usize) -> Matrix {
        low.trunk_basis(y, chunk, &|| false).unwrap().combine(emb).unwrap()
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    fn inputs() -> (Matrix, Matrix) {
        let u = Matrix::from_fn(3, 4, |i, j| 0.1 * (i + j) as f64 - 0.15);
        let y = Matrix::from_fn(57, 3, |i, j| 0.017 * i as f64 + 0.09 * j as f64);
        (u, y)
    }

    #[test]
    fn trunk_divergence_is_bounded() {
        let model = model();
        let low = model.lower_trunk();
        assert_eq!(low.latent_dim(), model.latent_dim());
        let (u, y) = inputs();
        let emb = model.encode_branches(&[&u]).unwrap();
        let full = model.predict(&[&u], &y).unwrap();
        let narrow = eval(&low, &emb, &y, 16);
        assert_eq!(full.shape(), narrow.shape());
        // The output transform maps to ~298 K; f32 carries ~7 significant
        // decimal digits, so after a few narrowed matmuls the fields should
        // agree to well under a millikelvin relative to the field scale.
        let scale = full.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (a, b) in full.iter().zip(narrow.iter()) {
            assert!(
                (a - b).abs() <= 1e-4 * scale,
                "f32 trunk diverged: {a} vs {b} (scale {scale})"
            );
        }
    }

    #[test]
    fn f32_path_is_bit_identical_across_pool_widths_and_chunking() {
        let model = model();
        let low = model.lower_trunk();
        let (u, y) = inputs();
        let emb = model.encode_branches(&[&u]).unwrap();
        let base = bits(&eval(&low, &emb, &y, 8));
        for chunk in [0, 1, 5, 57, 4096] {
            assert_eq!(base, bits(&eval(&low, &emb, &y, chunk)), "chunk_rows = {chunk}");
        }
        for threads in [1, 2, 4] {
            let pool = deepoheat_parallel::ThreadPool::new(threads);
            let got = pool.install(|| eval(&low, &emb, &y, 8));
            assert_eq!(base, bits(&got), "threads = {threads}");
        }
    }

    #[test]
    fn f32_path_validates_inputs() {
        let model = model();
        let low = model.lower_trunk();
        let (u, _) = inputs();
        assert!(low.trunk_basis(&Matrix::zeros(5, 2), 8, &|| false).is_err());
        assert!(low.trunk_basis(&inputs().1, 8, &|| true).is_err());

        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let other =
            DeepOHeat::new(&DeepOHeatConfig::single_branch(4, &[8], &[8], 3), &mut rng).unwrap();
        let wrong = other.encode_branches(&[&Matrix::zeros(3, 4)]).unwrap();
        let basis = low.trunk_basis(&Matrix::zeros(5, 3), 8, &|| false).unwrap();
        assert!(basis.combine(&wrong).is_err());
        assert!(basis.combine(&model.encode_branches(&[&u]).unwrap()).is_ok());
    }

    #[test]
    fn works_without_fourier_layer() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let cfg = DeepOHeatConfig::single_branch(4, &[8], &[8], 6);
        let model = DeepOHeat::new(&cfg, &mut rng).unwrap();
        let low = model.lower_trunk();
        let (u, y) = inputs();
        let emb = model.encode_branches(&[&u]).unwrap();
        let full = model.predict(&[&u], &y).unwrap();
        let narrow = eval(&low, &emb, &y, 16);
        let scale = full.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (a, b) in full.iter().zip(narrow.iter()) {
            assert!((a - b).abs() <= 1e-4 * scale, "{a} vs {b}");
        }
    }
}
