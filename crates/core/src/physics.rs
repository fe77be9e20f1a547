//! Physics-informed residual builders for the heat equation and the §III
//! boundary-condition families, in *normalized* variables.
//!
//! The surrogate trains on the nondimensional temperature
//! `θ = (T - T_amb) / ΔT` over unit-cube coordinates `xᵢ = yᵢ / Lᵢ`.
//! Substituting into the physical equations and dividing by natural
//! scales makes every residual O(1), which is what keeps a physics-
//! informed loss trainable:
//!
//! * PDE: `Σᵢ (L_ref/Lᵢ)² ∂²θ/∂xᵢ² + q_V L_ref² / (k ΔT) = 0`
//! * imposed flux `q` on a face with outward sign `s`:
//!   `s ∂θ/∂xₙ - q Lₙ / (k ΔT) = 0`
//! * convection `(h, T_amb)`: `s ∂θ/∂xₙ + (h Lₙ / k) θ = 0`
//!   (the dimensionless group `h Lₙ / k` is the Biot number)
//! * adiabatic: `∂θ/∂xₙ = 0`
//! * Dirichlet `T = T_d`: `θ - (T_d - T_amb)/ΔT = 0`
//!
//! Each builder returns the residual as an `n_configs × n_points` graph
//! node; squaring and averaging it (e.g. [`Graph::mean_square`]) yields
//! the corresponding loss term `ℒᵢ` of the paper's Eq. (8)–(11).

use deepoheat_autodiff::{Graph, Var};
use deepoheat_fdm::Face;
use deepoheat_linalg::Matrix;
use deepoheat_nn::JetChannels;

use crate::{DeepOHeatError, TemperatureJet};

/// Physical scales shared by all residual builders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicsScales {
    /// Isotropic thermal conductivity `k` in `W/(m K)`.
    pub conductivity: f64,
    /// Temperature scale `ΔT` of the nondimensionalisation (Kelvin).
    pub delta_t: f64,
    /// Physical domain extents `(Lx, Ly, Lz)` in metres.
    pub extents: [f64; 3],
    /// Reference length `L_ref` (usually `Lx`).
    pub reference_length: f64,
}

impl PhysicsScales {
    /// Creates scales with `L_ref = Lx`.
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InvalidConfig`] if any scale is not
    /// strictly positive and finite.
    pub fn new(conductivity: f64, delta_t: f64, extents: [f64; 3]) -> Result<Self, DeepOHeatError> {
        for (name, v) in [
            ("conductivity", conductivity),
            ("delta_t", delta_t),
            ("lx", extents[0]),
            ("ly", extents[1]),
            ("lz", extents[2]),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(DeepOHeatError::InvalidConfig {
                    what: format!("{name} must be positive, got {v}"),
                });
            }
        }
        Ok(PhysicsScales { conductivity, delta_t, extents, reference_length: extents[0] })
    }

    /// `(L_ref / Lᵢ)²`, the PDE coefficient of axis `i`.
    pub fn laplacian_coefficient(&self, axis: usize) -> f64 {
        let r = self.reference_length / self.extents[axis];
        r * r
    }

    /// `q_V L_ref² / (k ΔT)` — converts a volumetric power density to its
    /// nondimensional PDE source.
    pub fn source_coefficient(&self) -> f64 {
        self.reference_length * self.reference_length / (self.conductivity * self.delta_t)
    }

    /// `Lₙ / (k ΔT)` for the face's normal axis — converts a heat flux
    /// (`W/m²`) to its nondimensional target.
    pub fn flux_coefficient(&self, face: Face) -> f64 {
        self.extents[face.normal_axis()] / (self.conductivity * self.delta_t)
    }

    /// The Biot number `h Lₙ / k` of a convection face.
    pub fn biot_number(&self, face: Face, htc: f64) -> f64 {
        htc * self.extents[face.normal_axis()] / self.conductivity
    }

    /// Converts a physical temperature to `θ` given the ambient the scale
    /// was built around.
    pub fn to_theta(&self, temperature: f64, ambient: f64) -> f64 {
        (temperature - ambient) / self.delta_t
    }
}

/// The residual families the experiments train on, by the jet
/// channels each reads; a Dirichlet residual reads the value alone
/// ([`JetChannels::VALUE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResidualKind {
    /// The heat equation: every second derivative ([`pde_residual`]).
    Pde,
    /// A flux, adiabatic or convection condition on a face: the value and
    /// the derivative along the face normal.
    Face(Face),
}

impl ResidualKind {
    /// The channels the residual reads; the jet carries no others.
    pub(crate) fn channels(self) -> Result<JetChannels, DeepOHeatError> {
        Ok(match self {
            ResidualKind::Pde => JetChannels::ALL,
            ResidualKind::Face(face) => JetChannels::VALUE.with_d1(face.normal_axis())?,
        })
    }
}

/// A heat-transfer coefficient input to [`convection_residual`]: uniform,
/// or one value per configuration in the batch (the §V.B branch input).
#[derive(Debug, Clone, PartialEq)]
pub enum HtcInput {
    /// The same coefficient for every configuration.
    Uniform(f64),
    /// An `n_configs × 1` column of coefficients.
    PerConfiguration(Matrix),
}

/// Interior PDE residual `Σᵢ (L_ref/Lᵢ)² θ_xᵢxᵢ + s` where `s` is the
/// nondimensional volumetric source (`None` for source-free regions).
///
/// `source`, when given, must match the `n_configs × n_points` shape of
/// the jet channels.
///
/// # Errors
///
/// Returns [`DeepOHeatError::Nn`] if the jet does not carry every second
/// derivative, and propagates graph shape errors.
pub fn pde_residual(
    graph: &mut Graph,
    jet: &TemperatureJet,
    scales: &PhysicsScales,
    source: Option<&Matrix>,
) -> Result<Var, DeepOHeatError> {
    let mut acc = graph.scale(jet.d2(0)?, scales.laplacian_coefficient(0))?;
    for axis in 1..3 {
        let term = graph.scale(jet.d2(axis)?, scales.laplacian_coefficient(axis))?;
        acc = graph.add(acc, term)?;
    }
    if let Some(q) = source {
        let s = graph.leaf(q.scaled(scales.source_coefficient()), false);
        acc = graph.add(acc, s)?;
    }
    Ok(acc)
}

/// Imposed-flux (2-D power map) residual on `face`:
/// `s θ_xₙ - q Lₙ/(k ΔT)` with `q` in `W/m²` as an
/// `n_configs × n_points` matrix.
///
/// # Errors
///
/// Returns [`DeepOHeatError::Nn`] if the jet does not carry the
/// face-normal derivative, and propagates graph shape errors.
pub fn flux_residual(
    graph: &mut Graph,
    jet: &TemperatureJet,
    face: Face,
    scales: &PhysicsScales,
    flux: &Matrix,
) -> Result<Var, DeepOHeatError> {
    let directional = graph.scale(jet.d1(face.normal_axis())?, face.normal_sign())?;
    let target = graph.leaf(flux.scaled(scales.flux_coefficient(face)), false);
    Ok(graph.sub(directional, target)?)
}

/// Adiabatic residual on `face`: `θ_xₙ`.
///
/// # Errors
///
/// Returns [`DeepOHeatError::Nn`] if the jet does not carry the
/// face-normal derivative.
pub fn adiabatic_residual(
    graph: &mut Graph,
    jet: &TemperatureJet,
    face: Face,
) -> Result<Var, DeepOHeatError> {
    let _ = graph; // kept for signature symmetry with the other residuals
    Ok(jet.d1(face.normal_axis())?)
}

/// Convection residual on `face`: `s θ_xₙ + Bi θ` with the Biot number
/// `Bi = h Lₙ / k`, per configuration when `htc` is
/// [`HtcInput::PerConfiguration`].
///
/// The `θ` entering the product is the jet's value channel, which is
/// relative to the convection ambient (the nondimensionalisation is built
/// around `T_amb`).
///
/// # Errors
///
/// Returns [`DeepOHeatError::InputMismatch`] if a per-configuration column
/// is not `n_configs × 1`, [`DeepOHeatError::Nn`] if the jet does not
/// carry the face-normal derivative, and propagates graph shape errors.
pub fn convection_residual(
    graph: &mut Graph,
    jet: &TemperatureJet,
    face: Face,
    scales: &PhysicsScales,
    htc: &HtcInput,
) -> Result<Var, DeepOHeatError> {
    let axis = face.normal_axis();
    let directional = graph.scale(jet.d1(axis)?, face.normal_sign())?;
    let cooling = match htc {
        HtcInput::Uniform(h) => graph.scale(jet.value(), scales.biot_number(face, *h))?,
        HtcInput::PerConfiguration(col) => {
            if col.cols() != 1 {
                return Err(DeepOHeatError::InputMismatch {
                    what: format!("per-configuration htc must be a column, got {:?}", col.shape()),
                });
            }
            let biot = col.scaled(scales.extents[axis] / scales.conductivity);
            let biot_leaf = graph.leaf(biot, false);
            graph.mul_col_broadcast(jet.value(), biot_leaf)?
        }
    };
    Ok(graph.add(directional, cooling)?)
}

/// Dirichlet residual: `θ - θ_d` where `θ_d` is the nondimensional target
/// (see [`PhysicsScales::to_theta`]).
///
/// # Errors
///
/// Propagates graph shape errors.
pub fn dirichlet_residual(
    graph: &mut Graph,
    jet: &TemperatureJet,
    theta_target: f64,
) -> Result<Var, DeepOHeatError> {
    Ok(graph.add_scalar(jet.value(), -theta_target)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepoheat_nn::Jet3;

    /// Builds a jet with explicitly chosen constant channels.
    fn constant_jet(graph: &mut Graph, n: usize, value: f64, d1: [f64; 3], d2: [f64; 3]) -> Jet3 {
        let mk = |graph: &mut Graph, v: f64| graph.leaf(Matrix::filled(1, n, v), false);
        let value = mk(graph, value);
        let d1 = [mk(graph, d1[0]), mk(graph, d1[1]), mk(graph, d1[2])];
        let d2 = [mk(graph, d2[0]), mk(graph, d2[1]), mk(graph, d2[2])];
        Jet3::new(value, d1.map(Some), d2.map(Some)).unwrap()
    }

    fn paper_scales() -> PhysicsScales {
        // §V.A: k = 0.1 W/mK, 1mm x 1mm x 0.5mm, ΔT reference 10 K.
        PhysicsScales::new(0.1, 10.0, [1e-3, 1e-3, 0.5e-3]).unwrap()
    }

    #[test]
    fn scales_validation_and_groups() {
        assert!(PhysicsScales::new(0.0, 1.0, [1.0; 3]).is_err());
        assert!(PhysicsScales::new(1.0, -1.0, [1.0; 3]).is_err());
        assert!(PhysicsScales::new(1.0, 1.0, [1.0, 0.0, 1.0]).is_err());
        let s = paper_scales();
        assert_eq!(s.laplacian_coefficient(0), 1.0);
        assert_eq!(s.laplacian_coefficient(2), 4.0); // (1mm / 0.5mm)²
                                                     // Biot at the bottom with h = 500: 500 * 5e-4 / 0.1 = 2.5.
        assert!((s.biot_number(Face::ZMin, 500.0) - 2.5).abs() < 1e-12);
        // Flux coefficient at the top: 5e-4 / (0.1 * 10) = 5e-4.
        assert!((s.flux_coefficient(Face::ZMax) - 5e-4).abs() < 1e-18);
        assert_eq!(s.to_theta(308.15, 298.15), 1.0);
    }

    #[test]
    fn slab_solution_zeroes_every_residual() {
        // The exact 1-D slab solution (§V.A geometry, uniform flux):
        // T(z) = T_amb + q/h + q z / k  =>  θ(x₃) = (q/h + q x₃ L_z/k)/ΔT.
        let s = paper_scales();
        let q = 2500.0;
        let h = 500.0;
        let theta0 = (q / h) / s.delta_t; // bottom θ
        let slope = q * s.extents[2] / (s.conductivity * s.delta_t); // dθ/dx₃

        let mut g = Graph::new();
        // Bottom jet (x₃ = 0).
        let bottom = constant_jet(&mut g, 4, theta0, [0.0, 0.0, slope], [0.0; 3]);
        let r =
            convection_residual(&mut g, &bottom, Face::ZMin, &s, &HtcInput::Uniform(h)).unwrap();
        assert!(g.value(r).iter().all(|v| v.abs() < 1e-12), "convection residual {:?}", g.value(r));

        // Top jet (x₃ = 1).
        let theta_top = theta0 + slope;
        let top = constant_jet(&mut g, 4, theta_top, [0.0, 0.0, slope], [0.0; 3]);
        let flux_target = Matrix::filled(1, 4, q);
        let r = flux_residual(&mut g, &top, Face::ZMax, &s, &flux_target).unwrap();
        assert!(g.value(r).iter().all(|v| v.abs() < 1e-12), "flux residual {:?}", g.value(r));

        // Interior jet: linear profile has zero second derivatives.
        let mid = constant_jet(&mut g, 4, theta0 + 0.5 * slope, [0.0, 0.0, slope], [0.0; 3]);
        let r = pde_residual(&mut g, &mid, &s, None).unwrap();
        assert!(g.value(r).iter().all(|v| v.abs() < 1e-12));

        // Side faces are adiabatic: zero x/y gradients.
        let r = adiabatic_residual(&mut g, &mid, Face::XMin).unwrap();
        assert!(g.value(r).iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn pde_residual_with_source() {
        let s = paper_scales();
        let mut g = Graph::new();
        // θ'' channels chosen so the Laplacian exactly cancels the source.
        let q_v = 1e7; // W/m³
        let source_nd = q_v * s.source_coefficient();
        let jet = constant_jet(&mut g, 3, 0.0, [0.0; 3], [0.0, 0.0, -source_nd / 4.0]);
        let source = Matrix::filled(1, 3, q_v);
        let r = pde_residual(&mut g, &jet, &s, Some(&source)).unwrap();
        assert!(g.value(r).iter().all(|v| v.abs() < 1e-9), "{:?}", g.value(r));
    }

    #[test]
    fn per_configuration_htc_broadcasts_rows() {
        let s = paper_scales();
        let mut g = Graph::new();
        // Two configurations with different θ values and HTCs.
        let value = g.leaf(Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]).unwrap(), false);
        let zeros = g.leaf(Matrix::zeros(2, 2), false);
        let jet = Jet3::new(value, [Some(zeros); 3], [Some(zeros); 3]).unwrap();
        let htc = HtcInput::PerConfiguration(Matrix::column_vector(&[500.0, 1000.0]));
        let r = convection_residual(&mut g, &jet, Face::ZMin, &s, &htc).unwrap();
        let rv = g.value(r);
        // Row 0: Bi = 2.5, θ = 1 -> 2.5. Row 1: Bi = 5, θ = 2 -> 10.
        assert!((rv[(0, 0)] - 2.5).abs() < 1e-12);
        assert!((rv[(1, 1)] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn per_configuration_htc_validates_shape() {
        let s = paper_scales();
        let mut g = Graph::new();
        let jet = constant_jet(&mut g, 2, 0.0, [0.0; 3], [0.0; 3]);
        let bad = HtcInput::PerConfiguration(Matrix::zeros(2, 2));
        assert!(convection_residual(&mut g, &jet, Face::ZMin, &s, &bad).is_err());
    }

    #[test]
    fn dirichlet_residual_subtracts_target() {
        let s = paper_scales();
        let mut g = Graph::new();
        let jet = constant_jet(&mut g, 2, 1.5, [0.0; 3], [0.0; 3]);
        let target = s.to_theta(313.15, 298.15); // 1.5
        let r = dirichlet_residual(&mut g, &jet, target).unwrap();
        assert!(g.value(r).iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn flux_sign_flips_with_face_orientation() {
        // On a min face, the outward normal is -x₃, so the same positive
        // slope produces the opposite directional derivative.
        let s = paper_scales();
        let mut g = Graph::new();
        let jet = constant_jet(&mut g, 1, 0.0, [0.0, 0.0, 1.0], [0.0; 3]);
        let zero_flux = Matrix::zeros(1, 1);
        let r_top = flux_residual(&mut g, &jet, Face::ZMax, &s, &zero_flux).unwrap();
        let r_bottom = flux_residual(&mut g, &jet, Face::ZMin, &s, &zero_flux).unwrap();
        assert!((g.value(r_top).as_slice()[0] - 1.0).abs() < 1e-15);
        assert!((g.value(r_bottom).as_slice()[0] + 1.0).abs() < 1e-15);
    }
}
