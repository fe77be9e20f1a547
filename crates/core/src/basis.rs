//! The coordinate half of the MIONet factorisation, computed once per
//! query mesh.
//!
//! `T(u)(y) = offset + scale · Σ_q B_q(u) Φ_q(y)`: the trunk features `Φ`
//! depend only on the query coordinates, so a [`TrunkBasis`] — `Φ` for one
//! mesh, packed into the GEMM kernel's panel layout — serves every design
//! evaluated on that mesh. A [`Trunk`] computes `Φ` in either precision;
//! [`DeepOHeat::trunk_basis`](crate::DeepOHeat::trunk_basis) builds the
//! model's `f64` basis and [`Trunk::trunk_basis`] the `f32` one.
//! [`TrunkBasis::combine`] turns a basis and a [`BranchEmbedding`] into
//! temperatures with one fused affine product. `deepoheat-serve` caches
//! bases keyed by coordinate content.

use deepoheat_linalg::{Element, Matrix, PackedRhs};
use deepoheat_nn::{FourierFeatures, Mlp};

use crate::{BranchEmbedding, DeepOHeatError};

/// The trunk side of a [`DeepOHeat`](crate::DeepOHeat) model in precision
/// `T`: the optional Fourier-features layer, the trunk MLP and the output
/// transform `T = offset + scale · θ`.
///
/// A model holds its `f64` trunk.
/// [`DeepOHeat::lower_trunk`](crate::DeepOHeat::lower_trunk) narrows it to
/// `f32` once, for single-precision serving. Both precisions compute `Φ`
/// with the same code, so within a precision a basis is bitwise
/// independent of pool width and chunking. Across precisions the answers
/// differ by rounding, within `1e-4` of the field's scale in this module's
/// tests.
#[derive(Debug, Clone)]
pub struct Trunk<T> {
    pub(crate) fourier: Option<FourierFeatures<T>>,
    pub(crate) mlp: Mlp<T>,
    pub(crate) offset: T,
    pub(crate) scale: T,
}

impl<T: Element> Trunk<T> {
    /// Latent feature width `q`.
    pub fn latent_dim(&self) -> usize {
        self.mlp.output_dim()
    }

    /// This trunk with its parameters and output transform in precision
    /// `U`.
    pub(crate) fn cast<U: Element>(&self) -> Trunk<U> {
        Trunk {
            fourier: self.fourier.as_ref().map(FourierFeatures::cast),
            mlp: self.mlp.cast(),
            offset: U::from_f64(self.offset.to_f64()),
            scale: U::from_f64(self.scale.to_f64()),
        }
    }

    /// `Φ` for every row of `coords`, computed in `chunk_rows`-row chunks
    /// on the pool and packed chunk by chunk; the contract is
    /// [`DeepOHeat::trunk_basis`](crate::DeepOHeat::trunk_basis)'s.
    pub(crate) fn pack(
        &self,
        coords: &Matrix,
        chunk_rows: usize,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Result<PackedRhs<T>, DeepOHeatError> {
        let _span = deepoheat_telemetry::span("model.trunk_basis");
        if coords.cols() != 3 {
            return Err(DeepOHeatError::InputMismatch {
                what: format!("coordinates must be points x 3, got {:?}", coords.shape()),
            });
        }
        let n_points = coords.rows();
        let chunk = if chunk_rows == 0 { n_points.max(1) } else { chunk_rows };
        Matrix::pack_row_chunks(n_points, self.latent_dim(), chunk, |rows| {
            if stop() {
                return Err(DeepOHeatError::Stopped);
            }
            let sub = coords.row_block(rows)?.cast();
            let trunk_in = match &self.fourier {
                Some(ff) => ff.forward_inference(&sub)?,
                None => sub,
            };
            Ok(self.mlp.forward_inference(&trunk_in)?)
        })
    }
}

impl Trunk<f32> {
    /// Single-precision counterpart of
    /// [`DeepOHeat::trunk_basis`](crate::DeepOHeat::trunk_basis), with the
    /// same chunking and `stop` contract: the combined result is
    /// bit-identical at any pool width and any chunking.
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
        Ok(TrunkBasis::f32(self.pack(coords, chunk_rows, stop)?, self.offset, self.scale))
    }
}

/// Trunk features `Φ` (`n_points × q`) of one query mesh, pre-packed for
/// the combine, together with the output transform of the trunk that
/// produced them (in that trunk's precision).
///
/// Built chunk by chunk with each chunk packed into place, so building
/// one never holds the unpacked `Φ` whole. Combining is bit-identical at
/// any pool width and chunk size; [`DeepOHeat::predict`](crate::DeepOHeat::predict)
/// is the combine of an `f64` basis.
#[derive(Debug)]
pub struct TrunkBasis {
    phi: Phi,
}

#[derive(Debug)]
enum Phi {
    F64 { packed: PackedRhs<f64>, offset: f64, scale: f64 },
    F32 { packed: PackedRhs<f32>, offset: f32, scale: f32 },
}

impl TrunkBasis {
    pub(crate) fn f64(packed: PackedRhs<f64>, offset: f64, scale: f64) -> Self {
        TrunkBasis { phi: Phi::F64 { packed, offset, scale } }
    }

    fn f32(packed: PackedRhs<f32>, offset: f32, scale: f32) -> Self {
        TrunkBasis { phi: Phi::F32 { packed, offset, scale } }
    }

    /// Latent feature width `q`.
    pub fn latent_dim(&self) -> usize {
        match &self.phi {
            Phi::F64 { packed, .. } => packed.cols(),
            Phi::F32 { packed, .. } => packed.cols(),
        }
    }

    /// Bytes held by the packed features.
    pub fn bytes(&self) -> usize {
        match &self.phi {
            Phi::F64 { packed, .. } => packed.bytes(),
            Phi::F32 { packed, .. } => packed.bytes(),
        }
    }

    /// The temperature (Kelvin, after the output transform) of every
    /// encoded configuration at every point of the basis, as an
    /// `n_configs × n_points` matrix: one fused `offset + scale · B Φᵀ`
    /// product against the pre-packed `Φ`. A basis from the `f32` trunk
    /// narrows `B` and widens the result back to `f64` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InputMismatch`] if the embedding's latent
    /// width differs from the basis'.
    pub fn combine(&self, embedding: &BranchEmbedding) -> Result<Matrix, DeepOHeatError> {
        let _span = deepoheat_telemetry::span("model.combine");
        if embedding.latent_dim() != self.latent_dim() {
            return Err(DeepOHeatError::InputMismatch {
                what: format!(
                    "embedding has latent width {}, trunk basis has {}",
                    embedding.latent_dim(),
                    self.latent_dim()
                ),
            });
        }
        Ok(match &self.phi {
            Phi::F64 { packed, offset, scale } => {
                embedding.features().matmul_packed_affine(packed, *offset, *scale)?
            }
            Phi::F32 { packed, offset, scale } => {
                embedding.features().cast().matmul_packed_affine(packed, *offset, *scale)?.cast()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeepOHeat, DeepOHeatConfig};
    use rand::SeedableRng;

    fn model() -> DeepOHeat {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let cfg = DeepOHeatConfig::single_branch(4, &[16], &[16, 16], 8)
            .with_fourier(8, 1.0)
            .with_output_transform(298.15, 10.0);
        DeepOHeat::new(&cfg, &mut rng).unwrap()
    }

    fn eval(low: &Trunk<f32>, emb: &BranchEmbedding, y: &Matrix, chunk: usize) -> Matrix {
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

    /// Asserts the `f32` trunk's answers stay within `1e-4` of the field's
    /// scale of the `f64` model's.
    fn assert_f32_divergence_is_bounded(model: &DeepOHeat) {
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
    fn f32_trunk_divergence_is_bounded_with_and_without_fourier() {
        assert_f32_divergence_is_bounded(&model());
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let cfg = DeepOHeatConfig::single_branch(4, &[8], &[8], 6);
        assert_f32_divergence_is_bounded(&DeepOHeat::new(&cfg, &mut rng).unwrap());
    }

    #[test]
    fn f32_basis_is_bit_identical_across_pool_widths_and_chunking() {
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
    fn f32_basis_validates_inputs() {
        let model = model();
        let low = model.lower_trunk();
        let (u, y) = inputs();
        assert!(low.trunk_basis(&Matrix::zeros(5, 2), 8, &|| false).is_err());
        assert_eq!(low.trunk_basis(&y, 8, &|| true).unwrap_err(), DeepOHeatError::Stopped);

        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let other =
            DeepOHeat::new(&DeepOHeatConfig::single_branch(4, &[8], &[8], 3), &mut rng).unwrap();
        let wrong = other.encode_branches(&[&Matrix::zeros(3, 4)]).unwrap();
        let basis = low.trunk_basis(&Matrix::zeros(5, 3), 8, &|| false).unwrap();
        assert!(basis.combine(&wrong).is_err());
        assert!(basis.combine(&model.encode_branches(&[&u]).unwrap()).is_ok());
    }
}
