//! The coordinate half of the MIONet factorisation, computed once per
//! query mesh.
//!
//! `T(u)(y) = offset + scale · Σ_q B_q(u) Φ_q(y)`: the trunk features `Φ`
//! depend only on the query coordinates, so a [`TrunkBasis`] — `Φ` for one
//! mesh, packed into the GEMM kernel's panel layout — serves every design
//! evaluated on that mesh. [`DeepOHeat::trunk_basis`](crate::DeepOHeat::trunk_basis)
//! and [`TrunkF32::trunk_basis`](crate::TrunkF32::trunk_basis) build one;
//! [`TrunkBasis::combine`] turns it and a [`BranchEmbedding`] into
//! temperatures with one fused affine product. `deepoheat-serve` caches
//! bases keyed by coordinate content.

use deepoheat_linalg::{Matrix, Matrix32, PackedRhs};

use crate::{BranchEmbedding, DeepOHeatError};

/// Trunk features `Φ` (`n_points × q`) of one query mesh, pre-packed for
/// the combine, together with the output transform of the trunk that
/// produced them (in that trunk's precision).
///
/// Built chunk by chunk with each chunk packed into place, so building
/// one never holds the unpacked `Φ` whole. Combining is bit-identical to
/// [`DeepOHeat::predict`](crate::DeepOHeat::predict) (for a basis from
/// the `f64` trunk) at any pool width and chunk size.
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

    pub(crate) fn f32(packed: PackedRhs<f32>, offset: f32, scale: f32) -> Self {
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
            Phi::F32 { packed, offset, scale } => Matrix32::from_f64(embedding.features())
                .matmul_packed_affine(packed, *offset, *scale)?
                .to_f64(),
        })
    }
}

/// The chunk gate both trunks run before each chunk: checks the caller's
/// stop predicate, then cuts the chunk's coordinates.
pub(crate) fn chunk_coords(
    coords: &Matrix,
    rows: std::ops::Range<usize>,
    stop: &(dyn Fn() -> bool + Sync),
) -> Result<Matrix, DeepOHeatError> {
    if stop() {
        return Err(DeepOHeatError::Stopped);
    }
    Ok(coords.row_block(rows)?)
}
