use deepoheat_autodiff::{Activation, Graph, Var};
use deepoheat_linalg::Matrix;
use deepoheat_nn::{
    BoundMlp, BoundParameters, FourierFeatures, Jet3, JetChannels, Mlp, MlpConfig, Parameterized,
};
use rand::Rng;

use crate::basis::{self, TrunkBasis};
use crate::physics::ResidualKind;
use crate::DeepOHeatError;

/// The jet of the predicted temperature field: `T`, `∂T/∂xᵢ` and
/// `∂²T/∂xᵢ²` in normalized coordinates (those the jet carries), each an
/// `n_configs × n_points` graph node.
pub type TemperatureJet = Jet3;

/// Default row-chunk size for [`DeepOHeat::trunk_basis`]: large
/// enough that per-chunk dispatch cost is negligible against the trunk
/// matmuls, small enough that a full-mesh query (4851 points in §V.A)
/// still splits across workers. Chunk boundaries derive from this
/// constant and the query count only — never the thread count — which is
/// what keeps batched evaluation bit-identical at any pool width.
pub const DEFAULT_TRUNK_CHUNK: usize = 256;

/// The reusable branch-side encoding of one set of input functions: the
/// Hadamard product of all branch-net outputs, an `n_configs × q` matrix.
///
/// In the MIONet-style combine `θ = B Φᵀ` (PAPER.md §IV), `B` depends
/// only on the input functions (power map, HTC, …) and `Φ` only on the
/// query coordinates, so one embedding serves every query point of every
/// repeated design. Produced by [`DeepOHeat::encode_branches`], consumed
/// by [`TrunkBasis::combine`]; the `deepoheat-serve` engine caches these
/// keyed by sensor content.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchEmbedding {
    features: Matrix,
}

impl BranchEmbedding {
    /// The combined branch features `B` (`n_configs × q`).
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Number of input-function configurations encoded.
    pub fn n_configs(&self) -> usize {
        self.features.rows()
    }

    /// Latent feature width `q`.
    pub fn latent_dim(&self) -> usize {
        self.features.cols()
    }
}

/// Configuration of the trunk net's Fourier-features first layer.
///
/// §V.A.3 samples the coefficients from `N(0, (2π)²)`; §V.B uses `N(0, π²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FourierConfig {
    /// Number of random frequencies (the mapped feature width is twice
    /// this).
    pub n_frequencies: usize,
    /// Standard deviation of the frequency entries.
    pub std: f64,
}

/// One branch net specification: the sensor dimension of its input
/// function and its hidden widths. Every branch outputs `latent_dim`
/// features.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchSpec {
    /// Number of sensor values identifying the input function (441 for a
    /// flattened 21×21 power map; 1 for a constant HTC).
    pub input_dim: usize,
    /// Hidden-layer widths.
    pub hidden: Vec<usize>,
    /// Hidden-layer activation.
    pub activation: Activation,
}

/// Architecture description for a [`DeepOHeat`] operator network.
///
/// # Examples
///
/// ```
/// use deepoheat::DeepOHeatConfig;
///
/// // The paper's §V.A single-input network: 441-sensor branch of 9x256,
/// // trunk of 6x128 behind 128 Fourier features with std 2π, latent 128.
/// let cfg = DeepOHeatConfig::single_branch(441, &[256; 9], &[128; 5], 128)
///     .with_fourier(128, std::f64::consts::TAU);
/// assert_eq!(cfg.branches.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeepOHeatConfig {
    /// Branch-net specifications, one per PDE configuration function.
    pub branches: Vec<BranchSpec>,
    /// Trunk hidden widths (behind the optional Fourier layer).
    pub trunk_hidden: Vec<usize>,
    /// Trunk hidden-layer activation.
    pub trunk_activation: Activation,
    /// Optional Fourier-features first layer of the trunk.
    pub fourier: Option<FourierConfig>,
    /// Width `q` of the feature vectors combined by Hadamard product.
    pub latent_dim: usize,
    /// Additive output transform: `T = offset + scale · θ`.
    pub output_offset: f64,
    /// Multiplicative output transform.
    pub output_scale: f64,
}

impl DeepOHeatConfig {
    /// A single-branch configuration with Swish activations everywhere and
    /// no Fourier layer or output transform.
    pub fn single_branch(
        branch_input_dim: usize,
        branch_hidden: &[usize],
        trunk_hidden: &[usize],
        latent_dim: usize,
    ) -> Self {
        DeepOHeatConfig {
            branches: vec![BranchSpec {
                input_dim: branch_input_dim,
                hidden: branch_hidden.to_vec(),
                activation: Activation::Swish,
            }],
            trunk_hidden: trunk_hidden.to_vec(),
            trunk_activation: Activation::Swish,
            fourier: None,
            latent_dim,
            output_offset: 0.0,
            output_scale: 1.0,
        }
    }

    /// Adds another branch net (multi-input DeepONet / MIONet style).
    pub fn add_branch(mut self, input_dim: usize, hidden: &[usize]) -> Self {
        self.branches.push(BranchSpec {
            input_dim,
            hidden: hidden.to_vec(),
            activation: Activation::Swish,
        });
        self
    }

    /// Enables the Fourier-features trunk first layer.
    pub fn with_fourier(mut self, n_frequencies: usize, std: f64) -> Self {
        self.fourier = Some(FourierConfig { n_frequencies, std });
        self
    }

    /// Sets the affine output transform `T = offset + scale · θ`, used at
    /// inference to map the network's nondimensional output to Kelvin.
    pub fn with_output_transform(mut self, offset: f64, scale: f64) -> Self {
        self.output_offset = offset;
        self.output_scale = scale;
        self
    }

    /// Sets the trunk activation (the paper compares Swish vs Tanh/Sine).
    pub fn with_trunk_activation(mut self, activation: Activation) -> Self {
        self.trunk_activation = activation;
        self
    }
}

/// A physics-informed multi-input DeepONet mapping chip-configuration
/// functions to the temperature field (see the
/// [crate-level documentation](crate)).
#[derive(Debug, Clone)]
pub struct DeepOHeat {
    branches: Vec<Mlp>,
    fourier: Option<FourierFeatures>,
    trunk: Mlp,
    output_offset: f64,
    output_scale: f64,
}

impl DeepOHeat {
    /// Builds a network from the configuration with freshly initialised
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InvalidConfig`] for zero-width layers,
    /// an empty branch list, a zero latent width, or a non-positive
    /// `output_scale`.
    pub fn new<R: Rng + ?Sized>(
        config: &DeepOHeatConfig,
        rng: &mut R,
    ) -> Result<Self, DeepOHeatError> {
        if config.branches.is_empty() {
            return Err(DeepOHeatError::InvalidConfig {
                what: "at least one branch net is required".into(),
            });
        }
        if config.latent_dim == 0 {
            return Err(DeepOHeatError::InvalidConfig {
                what: "latent width must be positive".into(),
            });
        }
        if !(config.output_scale.is_finite() && config.output_scale > 0.0) {
            return Err(DeepOHeatError::InvalidConfig {
                what: format!("output scale must be positive, got {}", config.output_scale),
            });
        }
        let mut branches = Vec::with_capacity(config.branches.len());
        for spec in &config.branches {
            let cfg =
                MlpConfig::new(spec.input_dim, &spec.hidden, config.latent_dim, spec.activation);
            branches.push(Mlp::new(&cfg, rng)?);
        }
        let (fourier, trunk_input) = match config.fourier {
            Some(FourierConfig { n_frequencies, std }) => {
                if n_frequencies == 0 {
                    return Err(DeepOHeatError::InvalidConfig {
                        what: "fourier layer needs frequencies".into(),
                    });
                }
                let ff = FourierFeatures::new(3, n_frequencies, std, rng);
                let out = ff.output_dim();
                (Some(ff), out)
            }
            None => (None, 3),
        };
        let trunk_cfg = MlpConfig::new(
            trunk_input,
            &config.trunk_hidden,
            config.latent_dim,
            config.trunk_activation,
        );
        let trunk = Mlp::new(&trunk_cfg, rng)?;
        Ok(DeepOHeat {
            branches,
            fourier,
            trunk,
            output_offset: config.output_offset,
            output_scale: config.output_scale,
        })
    }

    /// Number of branch nets (the `k` of the multi-input DeepONet).
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Sensor dimension of branch `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn branch_input_dim(&self, i: usize) -> usize {
        self.branches[i].input_dim()
    }

    /// Latent feature width `q`.
    pub fn latent_dim(&self) -> usize {
        self.trunk.output_dim()
    }

    /// The affine output transform `(offset, scale)`.
    pub fn output_transform(&self) -> (f64, f64) {
        (self.output_offset, self.output_scale)
    }

    /// Validates a batch of branch inputs, returning the shared batch size.
    fn check_branch_inputs(&self, branch_inputs: &[&Matrix]) -> Result<usize, DeepOHeatError> {
        if branch_inputs.len() != self.branches.len() {
            return Err(DeepOHeatError::InputMismatch {
                what: format!(
                    "model has {} branches, got {} inputs",
                    self.branches.len(),
                    branch_inputs.len()
                ),
            });
        }
        let n_funcs = branch_inputs.first().map_or(0, |m| m.rows());
        for (i, (input, branch)) in branch_inputs.iter().zip(&self.branches).enumerate() {
            if input.cols() != branch.input_dim() {
                return Err(DeepOHeatError::InputMismatch {
                    what: format!(
                        "branch {i} expects {} sensors, got {}",
                        branch.input_dim(),
                        input.cols()
                    ),
                });
            }
            if input.rows() != n_funcs {
                return Err(DeepOHeatError::InputMismatch {
                    what: format!("branch {i} has {} rows, expected {n_funcs}", input.rows()),
                });
            }
        }
        Ok(n_funcs)
    }

    /// Validates a query-coordinate batch.
    fn check_coords(&self, coords: &Matrix) -> Result<(), DeepOHeatError> {
        if coords.cols() != 3 {
            return Err(DeepOHeatError::InputMismatch {
                what: format!("coordinates must be points x 3, got {:?}", coords.shape()),
            });
        }
        Ok(())
    }

    /// Runs every branch net exactly once on its input batch and combines
    /// the features by Hadamard product into a reusable
    /// [`BranchEmbedding`].
    ///
    /// The embedding depends only on the input functions — not on any
    /// query coordinate — so callers evaluating many points (or the same
    /// design repeatedly) should encode once and combine the result with
    /// a [`TrunkBasis`]; `deepoheat-serve` adds the content-addressed
    /// caches on top.
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InputMismatch`] for wrong branch counts
    /// or sensor dimensions.
    pub fn encode_branches(
        &self,
        branch_inputs: &[&Matrix],
    ) -> Result<BranchEmbedding, DeepOHeatError> {
        let _span = deepoheat_telemetry::span("model.encode_branches");
        self.check_branch_inputs(branch_inputs)?;
        let mut product: Option<Matrix> = None;
        for (input, branch) in branch_inputs.iter().zip(&self.branches) {
            let features = branch.forward_inference(input)?;
            product = Some(match product {
                Some(p) => p.hadamard(&features)?,
                None => features,
            });
        }
        let features = product.expect("invariant: construction rejects models with zero branches");
        Ok(BranchEmbedding { features })
    }

    /// Graph-free trunk features `Φ` (`n_points × q`) for a batch of
    /// normalized coordinates: the Fourier layer (when configured)
    /// followed by the trunk MLP, dispatched in fixed row chunks on the
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InputMismatch`] unless `coords` is
    /// `points × 3`.
    pub fn trunk_features_inference(&self, coords: &Matrix) -> Result<Matrix, DeepOHeatError> {
        self.check_coords(coords)?;
        let trunk_in = match &self.fourier {
            Some(ff) => ff.forward_inference(coords)?,
            None => coords.clone(),
        };
        Ok(self.trunk.forward_inference_chunked(&trunk_in, DEFAULT_TRUNK_CHUNK)?)
    }

    /// The trunk basis of a query mesh: `Φ` for every row of `coords`,
    /// computed in fixed `chunk_rows`-row chunks on the `deepoheat-parallel`
    /// pool (the Fourier layer, when configured, then the trunk MLP) and
    /// packed chunk by chunk into the combine kernel's panel layout. Pair
    /// it with any number of embeddings through [`TrunkBasis::combine`].
    ///
    /// `stop` is checked before each chunk; once it returns `true` the
    /// remaining chunks do no work and the call fails with
    /// [`DeepOHeatError::Stopped`], so a caller with a deadline never gets
    /// a partial basis. Pass `&|| false` to run to completion.
    ///
    /// Every per-point quantity is a function of that point's row alone,
    /// so `basis.combine(&embedding)` is **bit-identical** to
    /// [`DeepOHeat::predict`] — and to a point-at-a-time loop — at any
    /// thread count and any `chunk_rows` (`0` means "one chunk"; chunks are
    /// rounded up to the kernel's 8-row panel width).
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
        let _span = deepoheat_telemetry::span("model.trunk_basis");
        self.check_coords(coords)?;
        let n_points = coords.rows();
        let chunk = if chunk_rows == 0 { n_points.max(1) } else { chunk_rows };
        let packed = Matrix::pack_row_chunks(n_points, self.latent_dim(), chunk, |rows| {
            let sub = basis::chunk_coords(coords, rows, stop)?;
            let trunk_in = match &self.fourier {
                Some(ff) => ff.forward_inference(&sub)?,
                None => sub,
            };
            Ok::<Matrix, DeepOHeatError>(self.trunk.forward_inference(&trunk_in)?)
        })?;
        Ok(TrunkBasis::f64(packed, self.output_offset, self.output_scale))
    }

    /// Fast graph-free prediction: the temperature (Kelvin, after the
    /// output transform) of every configuration in the batch at every
    /// coordinate, as an `n_configs × n_points` matrix.
    ///
    /// This is the "0.1 s on a CPU" path of the paper's §V.A.7 speedup
    /// comparison.
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InputMismatch`] for wrong branch counts or
    /// dimensions.
    pub fn predict(
        &self,
        branch_inputs: &[&Matrix],
        coords: &Matrix,
    ) -> Result<Matrix, DeepOHeatError> {
        let _span = deepoheat_telemetry::span("model.predict");
        let theta = self.predict_theta(branch_inputs, coords)?;
        Ok(theta.map(|v| self.output_offset + self.output_scale * v))
    }

    /// Like [`DeepOHeat::predict`] but returning the raw nondimensional
    /// operator output `θ` (the quantity the physics losses constrain).
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InputMismatch`] for wrong branch counts or
    /// dimensions.
    pub fn predict_theta(
        &self,
        branch_inputs: &[&Matrix],
        coords: &Matrix,
    ) -> Result<Matrix, DeepOHeatError> {
        let embedding = self.encode_branches(branch_inputs)?;
        let phi = self.trunk_features_inference(coords)?;
        Ok(embedding.features().matmul_transposed(&phi)?)
    }

    /// Reassembles a model from its parts (used by [`crate::model_io`]).
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InvalidConfig`] if the branch/trunk output
    /// widths disagree or the branch list is empty.
    pub fn from_parts(
        branches: Vec<Mlp>,
        fourier: Option<FourierFeatures>,
        trunk: Mlp,
        output_offset: f64,
        output_scale: f64,
    ) -> Result<Self, DeepOHeatError> {
        if branches.is_empty() {
            return Err(DeepOHeatError::InvalidConfig {
                what: "at least one branch net is required".into(),
            });
        }
        let q = trunk.output_dim();
        for (i, b) in branches.iter().enumerate() {
            if b.output_dim() != q {
                return Err(DeepOHeatError::InvalidConfig {
                    what: format!(
                        "branch {i} outputs {} features, trunk outputs {q}",
                        b.output_dim()
                    ),
                });
            }
        }
        if let Some(ff) = &fourier {
            if ff.output_dim() != trunk.input_dim() {
                return Err(DeepOHeatError::InvalidConfig {
                    what: format!(
                        "fourier outputs {} features, trunk expects {}",
                        ff.output_dim(),
                        trunk.input_dim()
                    ),
                });
            }
        } else if trunk.input_dim() != 3 {
            return Err(DeepOHeatError::InvalidConfig {
                what: format!(
                    "trunk without fourier must take 3 coordinates, takes {}",
                    trunk.input_dim()
                ),
            });
        }
        if !(output_scale.is_finite() && output_scale > 0.0) {
            return Err(DeepOHeatError::InvalidConfig {
                what: format!("output scale must be positive, got {output_scale}"),
            });
        }
        Ok(DeepOHeat { branches, fourier, trunk, output_offset, output_scale })
    }

    /// The branch nets, in input order.
    pub fn branches(&self) -> &[Mlp] {
        &self.branches
    }

    /// The trunk net (behind the optional Fourier layer).
    pub fn trunk(&self) -> &Mlp {
        &self.trunk
    }

    /// The Fourier-features layer, if configured.
    pub fn fourier(&self) -> Option<&FourierFeatures> {
        self.fourier.as_ref()
    }

    /// Inserts all trainable parameters into `graph`, returning the bound
    /// model used to build a physics-informed training step.
    pub fn bind(&self, graph: &mut Graph) -> BoundDeepOHeat {
        BoundDeepOHeat {
            branches: self.branches.iter().map(|b| b.bind(graph)).collect(),
            trunk: self.trunk.bind(graph),
            fourier: self.fourier.clone(),
        }
    }
}

impl Parameterized for DeepOHeat {
    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        let mut params = Vec::new();
        for b in &mut self.branches {
            params.extend(b.parameters_mut());
        }
        params.extend(self.trunk.parameters_mut());
        params
    }

    fn parameter_count(&self) -> usize {
        self.branches.iter().map(|b| b.parameter_count()).sum::<usize>()
            + self.trunk.parameter_count()
    }
}

/// Graph handles for a [`DeepOHeat`]'s parameters within one [`Graph`];
/// produced by [`DeepOHeat::bind`].
#[derive(Debug, Clone)]
pub struct BoundDeepOHeat {
    branches: Vec<BoundMlp>,
    trunk: BoundMlp,
    fourier: Option<FourierFeatures>,
}

impl BoundDeepOHeat {
    /// Forwards every branch on its input batch (each `n_configs × mᵢ`)
    /// and Hadamard-combines the features into the `n_configs × q` branch
    /// product.
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InputMismatch`] on a branch-count
    /// mismatch, or propagates graph shape errors.
    pub fn branch_product(
        &self,
        graph: &mut Graph,
        inputs: &[Matrix],
    ) -> Result<Var, DeepOHeatError> {
        if inputs.len() != self.branches.len() {
            return Err(DeepOHeatError::InputMismatch {
                what: format!(
                    "model has {} branches, got {} inputs",
                    self.branches.len(),
                    inputs.len()
                ),
            });
        }
        let mut product: Option<Var> = None;
        for (input, branch) in inputs.iter().zip(&self.branches) {
            let leaf = graph.leaf(input.clone(), false);
            let features = branch.forward(graph, leaf)?;
            product = Some(match product {
                Some(p) => graph.mul(p, features)?,
                None => features,
            });
        }
        Ok(product.expect("invariant: construction rejects models with zero branches"))
    }

    /// Runs the trunk on `points × 3` normalized coordinates, returning
    /// the `points × q` feature matrix (no derivatives).
    ///
    /// # Errors
    ///
    /// Propagates graph shape errors.
    pub fn trunk_features(
        &self,
        graph: &mut Graph,
        coords: &Matrix,
    ) -> Result<Var, DeepOHeatError> {
        let leaf = graph.leaf(coords.clone(), false);
        let trunk_in = match &self.fourier {
            Some(ff) => ff.forward(graph, leaf)?,
            None => leaf,
        };
        Ok(self.trunk.forward(graph, trunk_in)?)
    }

    /// Runs the trunk on coordinates with full second-order jet
    /// propagation, returning value + derivative feature channels.
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::Nn`] if `coords` is not `points × 3`, and
    /// propagates graph shape errors.
    pub fn trunk_jet(&self, graph: &mut Graph, coords: &Matrix) -> Result<Jet3, DeepOHeatError> {
        self.trunk_jet_carrying(graph, coords, JetChannels::ALL)
    }

    /// [`BoundDeepOHeat::trunk_jet`] building only `channels`.
    fn trunk_jet_carrying(
        &self,
        graph: &mut Graph,
        coords: &Matrix,
        channels: JetChannels,
    ) -> Result<Jet3, DeepOHeatError> {
        let seed = Jet3::seed_coordinates(graph, coords.clone(), channels)?;
        let trunk_in = match &self.fourier {
            Some(ff) => ff.forward_jet(graph, &seed)?,
            None => seed,
        };
        Ok(self.trunk.forward_jet(graph, &trunk_in)?)
    }

    /// The temperature jet at `coords` carrying only the channels a
    /// `kind` residual reads: the trunk jet and the combine, each built
    /// for those channels alone. Its loss and parameter gradients are
    /// bitwise those of [`BoundDeepOHeat::trunk_jet`] followed by
    /// [`BoundDeepOHeat::combine_jet`], whose extra channels never reach
    /// the residual.
    pub(crate) fn residual_jet(
        &self,
        graph: &mut Graph,
        branch_product: Var,
        coords: &Matrix,
        kind: ResidualKind,
    ) -> Result<TemperatureJet, DeepOHeatError> {
        let jet = self.trunk_jet_carrying(graph, coords, kind.channels()?)?;
        self.combine_jet(graph, branch_product, &jet)
    }

    /// Combines the branch product with plain trunk features into the raw
    /// operator output `θ = B Φᵀ` (`n_configs × n_points`).
    ///
    /// # Errors
    ///
    /// Propagates graph shape errors.
    pub fn combine(
        &self,
        graph: &mut Graph,
        branch_product: Var,
        trunk_features: Var,
    ) -> Result<Var, DeepOHeatError> {
        Ok(graph.matmul_transposed(branch_product, trunk_features)?)
    }

    /// Combines the branch product with a trunk jet into the temperature
    /// jet, carrying the trunk jet's channels: since the branch features
    /// do not depend on coordinates, every derivative channel is
    /// `B (∂Φ)ᵀ`.
    ///
    /// # Errors
    ///
    /// Propagates graph shape errors.
    pub fn combine_jet(
        &self,
        graph: &mut Graph,
        branch_product: Var,
        trunk_jet: &Jet3,
    ) -> Result<TemperatureJet, DeepOHeatError> {
        let value = graph.matmul_transposed(branch_product, trunk_jet.value())?;
        Ok(trunk_jet.map_derivatives(value, |d| graph.matmul_transposed(branch_product, d))?)
    }
}

impl BoundParameters for BoundDeepOHeat {
    fn parameter_vars(&self) -> Vec<Var> {
        let mut vars = Vec::new();
        for b in &self.branches {
            vars.extend(b.parameter_vars());
        }
        vars.extend(self.trunk.parameter_vars());
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    fn small_config() -> DeepOHeatConfig {
        DeepOHeatConfig::single_branch(4, &[8], &[8], 6).with_fourier(4, 1.0)
    }

    #[test]
    fn config_validation() {
        let mut r = rng();
        assert!(DeepOHeat::new(&small_config(), &mut r).is_ok());
        let mut bad = small_config();
        bad.branches.clear();
        assert!(DeepOHeat::new(&bad, &mut r).is_err());
        let mut bad = small_config();
        bad.latent_dim = 0;
        assert!(DeepOHeat::new(&bad, &mut r).is_err());
        let mut bad = small_config();
        bad.output_scale = 0.0;
        assert!(DeepOHeat::new(&bad, &mut r).is_err());
        let bad = small_config().with_fourier(0, 1.0);
        assert!(DeepOHeat::new(&bad, &mut r).is_err());
    }

    #[test]
    fn predict_shapes_and_transform() {
        let mut r = rng();
        let cfg = small_config().with_output_transform(298.15, 10.0);
        let model = DeepOHeat::new(&cfg, &mut r).unwrap();
        let u = Matrix::from_fn(3, 4, |i, j| 0.1 * (i + j) as f64);
        let y = Matrix::from_fn(7, 3, |i, j| 0.05 * (i * 3 + j) as f64);
        let theta = model.predict_theta(&[&u], &y).unwrap();
        let t = model.predict(&[&u], &y).unwrap();
        assert_eq!(theta.shape(), (3, 7));
        assert_eq!(t.shape(), (3, 7));
        for (ti, thi) in t.iter().zip(theta.iter()) {
            assert!((ti - (298.15 + 10.0 * thi)).abs() < 1e-12);
        }
    }

    #[test]
    fn split_path_matches_predict_bitwise() {
        let mut r = rng();
        let cfg = small_config().with_output_transform(298.15, 10.0);
        let model = DeepOHeat::new(&cfg, &mut r).unwrap();
        let u = Matrix::from_fn(3, 4, |i, j| 0.1 * (i + j) as f64 - 0.15);
        let y = Matrix::from_fn(41, 3, |i, j| 0.02 * (i * 3 + j) as f64);
        let direct = model.predict(&[&u], &y).unwrap();

        let emb = model.encode_branches(&[&u]).unwrap();
        assert_eq!(emb.n_configs(), 3);
        assert_eq!(emb.latent_dim(), model.latent_dim());
        for chunk in [0, 1, 7, 41, 4096] {
            let batched = model.trunk_basis(&y, chunk, &|| false).unwrap().combine(&emb).unwrap();
            assert_eq!(batched.shape(), (3, 41));
            assert_eq!(bits(&direct), bits(&batched), "chunk_rows = {chunk}");
        }
    }

    #[test]
    fn batched_eval_matches_per_query_loop_at_any_width() {
        let mut r = rng();
        let model = DeepOHeat::new(&small_config(), &mut r).unwrap();
        let u = Matrix::from_fn(2, 4, |i, j| 0.3 * i as f64 - 0.05 * j as f64);
        let y = Matrix::from_fn(23, 3, |i, j| 0.04 * i as f64 + 0.1 * j as f64);

        // Sequential reference: one full-network prediction per point.
        let mut sequential = Matrix::zeros(2, y.rows());
        for p in 0..y.rows() {
            let point = y.row_block(p..p + 1).unwrap();
            let t = model.predict(&[&u], &point).unwrap();
            for c in 0..2 {
                sequential[(c, p)] = t[(c, 0)];
            }
        }

        let emb = model.encode_branches(&[&u]).unwrap();
        for threads in [1, 2, 4] {
            let pool = deepoheat_parallel::ThreadPool::new(threads);
            let batched =
                pool.install(|| model.trunk_basis(&y, 8, &|| false)?.combine(&emb)).unwrap();
            assert_eq!(bits(&sequential), bits(&batched), "threads = {threads}");
        }
    }

    #[test]
    fn basis_and_combine_validate_embedding_and_coords() {
        let mut r = rng();
        let model = DeepOHeat::new(&small_config(), &mut r).unwrap();
        let other =
            DeepOHeat::new(&DeepOHeatConfig::single_branch(4, &[8], &[8], 3), &mut r).unwrap();
        let u = Matrix::zeros(2, 4);
        let wrong_latent = other.encode_branches(&[&u]).unwrap();
        let basis = model.trunk_basis(&Matrix::zeros(5, 3), 4, &|| false).unwrap();
        assert!(basis.combine(&wrong_latent).is_err());
        assert!(model.trunk_basis(&Matrix::zeros(5, 2), 4, &|| false).is_err());
        assert!(model.trunk_features_inference(&Matrix::zeros(5, 4)).is_err());
    }

    #[test]
    fn stopped_basis_fails_whole_and_empty_mesh_combines_to_no_columns() {
        let mut r = rng();
        let model = DeepOHeat::new(&small_config(), &mut r).unwrap();
        let y = Matrix::from_fn(40, 3, |i, j| 0.02 * (i + j) as f64);
        let err = model.trunk_basis(&y, 8, &|| true).unwrap_err();
        assert_eq!(err, DeepOHeatError::Stopped);
        let emb = model.encode_branches(&[&Matrix::zeros(2, 4)]).unwrap();
        let empty = model.trunk_basis(&Matrix::zeros(0, 3), 8, &|| true).unwrap();
        assert_eq!(empty.combine(&emb).unwrap().shape(), (2, 0));
    }

    #[test]
    fn input_validation() {
        let mut r = rng();
        let model = DeepOHeat::new(&small_config(), &mut r).unwrap();
        let y = Matrix::zeros(5, 3);
        // Wrong branch count.
        assert!(model.predict(&[], &y).is_err());
        // Wrong sensor dimension.
        let bad = Matrix::zeros(2, 5);
        assert!(model.predict(&[&bad], &y).is_err());
        // Wrong coordinate width.
        let u = Matrix::zeros(2, 4);
        assert!(model.predict(&[&u], &Matrix::zeros(5, 2)).is_err());
        // Mismatched batch rows across branches.
        let cfg = small_config().add_branch(1, &[4]);
        let model2 = DeepOHeat::new(&cfg, &mut r).unwrap();
        let u1 = Matrix::zeros(2, 4);
        let u2 = Matrix::zeros(3, 1);
        assert!(model2.predict(&[&u1, &u2], &y).is_err());
    }

    #[test]
    fn bound_forward_matches_inference() {
        let mut r = rng();
        let model = DeepOHeat::new(&small_config(), &mut r).unwrap();
        let u = Matrix::from_fn(2, 4, |i, j| 0.2 * i as f64 - 0.1 * j as f64);
        let y = Matrix::from_fn(5, 3, |i, j| 0.1 + 0.05 * (i + j) as f64);
        let fast = model.predict_theta(&[&u], &y).unwrap();

        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let b = bound.branch_product(&mut g, &[u]).unwrap();
        let phi = bound.trunk_features(&mut g, &y).unwrap();
        let theta = bound.combine(&mut g, b, phi).unwrap();
        for (a, b) in g.value(theta).iter().zip(fast.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn jet_value_channel_matches_combine() {
        let mut r = rng();
        let model = DeepOHeat::new(&small_config(), &mut r).unwrap();
        let u = Matrix::from_fn(2, 4, |i, j| 0.1 * (i * 4 + j) as f64);
        let y = Matrix::from_fn(4, 3, |i, j| 0.2 * i as f64 + 0.1 * j as f64);

        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let b = bound.branch_product(&mut g, std::slice::from_ref(&u)).unwrap();
        let jet = bound.trunk_jet(&mut g, &y).unwrap();
        let t_jet = bound.combine_jet(&mut g, b, &jet).unwrap();
        let direct = model.predict_theta(&[&u], &y).unwrap();
        for (a, b) in g.value(t_jet.value()).iter().zip(direct.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn temperature_jet_matches_finite_differences() {
        let mut r = rng();
        let model = DeepOHeat::new(&small_config(), &mut r).unwrap();
        let u = Matrix::from_fn(1, 4, |_, j| 0.3 - 0.1 * j as f64);
        let y0 = Matrix::from_rows(&[&[0.4, 0.6, 0.3]]).unwrap();
        let h = 1e-4;

        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let b = bound.branch_product(&mut g, std::slice::from_ref(&u)).unwrap();
        let jet = bound.trunk_jet(&mut g, &y0).unwrap();
        let t_jet = bound.combine_jet(&mut g, b, &jet).unwrap();

        for axis in 0..3 {
            let mut plus = y0.clone();
            let mut minus = y0.clone();
            plus[(0, axis)] += h;
            minus[(0, axis)] -= h;
            let fp = model.predict_theta(&[&u], &plus).unwrap().as_slice()[0];
            let fm = model.predict_theta(&[&u], &minus).unwrap().as_slice()[0];
            let f0 = model.predict_theta(&[&u], &y0).unwrap().as_slice()[0];
            let fd1 = (fp - fm) / (2.0 * h);
            let fd2 = (fp - 2.0 * f0 + fm) / (h * h);
            let a1 = g.value(t_jet.d1(axis).unwrap()).as_slice()[0];
            let a2 = g.value(t_jet.d2(axis).unwrap()).as_slice()[0];
            assert!((a1 - fd1).abs() < 1e-5, "axis {axis}: {a1} vs {fd1}");
            assert!((a2 - fd2).abs() < 1e-3, "axis {axis}: {a2} vs {fd2}");
        }
    }

    /// A residual builder on a temperature jet.
    type Residual<'a> =
        Box<dyn Fn(&mut Graph, &TemperatureJet) -> Result<Var, DeepOHeatError> + 'a>;

    /// A term's loss and its parameter gradients, as bit patterns.
    type TermBits = (u64, Vec<Option<Vec<u64>>>);

    /// One residual term from a jet carrying `channels` (`None`: the full
    /// public path).
    fn residual_term(
        model: &DeepOHeat,
        channels: Option<JetChannels>,
        residual: &Residual,
    ) -> Result<TermBits, DeepOHeatError> {
        let u = Matrix::from_fn(3, 4, |i, j| 0.15 * (i + 2 * j) as f64 - 0.4);
        let y = Matrix::from_fn(6, 3, |i, j| ((i * 3 + j) % 7) as f64 / 7.0 + 0.05);
        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let b = bound.branch_product(&mut g, &[u])?;
        let jet = match channels {
            Some(channels) => bound.trunk_jet_carrying(&mut g, &y, channels)?,
            None => bound.trunk_jet(&mut g, &y)?,
        };
        let t_jet = bound.combine_jet(&mut g, b, &jet)?;
        let r = residual(&mut g, &t_jet)?;
        let loss = g.mean_square(r)?;
        let grads = g.backward(loss)?;
        let params = bound.parameter_vars().iter().map(|&v| grads.get(v).map(bits)).collect();
        Ok((g.scalar(loss).to_bits(), params))
    }

    #[test]
    fn channel_pruned_jets_match_full_jets_bitwise_for_every_residual() {
        use crate::physics::{self, HtcInput, PhysicsScales, ResidualKind};
        use deepoheat_fdm::Face;
        use deepoheat_nn::NnError;

        let scales = PhysicsScales::new(0.1, 10.0, [1e-3, 1e-3, 0.5e-3]).unwrap();
        let source = Matrix::from_fn(3, 6, |i, j| 1e6 * (1.0 + (i * 6 + j) as f64));
        let flux = Matrix::from_fn(3, 6, |i, j| 500.0 * (i + j) as f64);
        let htc = HtcInput::PerConfiguration(Matrix::column_vector(&[300.0, 700.0, 1100.0]));
        let pde = ResidualKind::Pde.channels().unwrap();
        let face = |f: Face| ResidualKind::Face(f).channels().unwrap();
        let cases: Vec<(&str, JetChannels, Residual)> = vec![
            ("pde", pde, Box::new(|g, j| physics::pde_residual(g, j, &scales, None))),
            (
                "pde+source",
                pde,
                Box::new(|g, j| physics::pde_residual(g, j, &scales, Some(&source))),
            ),
            (
                "flux",
                face(Face::ZMax),
                Box::new(|g, j| physics::flux_residual(g, j, Face::ZMax, &scales, &flux)),
            ),
            (
                "convection uniform",
                face(Face::ZMin),
                Box::new(|g, j| {
                    physics::convection_residual(
                        g,
                        j,
                        Face::ZMin,
                        &scales,
                        &HtcInput::Uniform(500.0),
                    )
                }),
            ),
            (
                "convection per configuration",
                face(Face::ZMax),
                Box::new(|g, j| physics::convection_residual(g, j, Face::ZMax, &scales, &htc)),
            ),
            (
                "adiabatic x",
                face(Face::XMin),
                Box::new(|g, j| physics::adiabatic_residual(g, j, Face::XMin)),
            ),
            (
                "adiabatic y",
                face(Face::YMax),
                Box::new(|g, j| physics::adiabatic_residual(g, j, Face::YMax)),
            ),
            (
                "dirichlet",
                JetChannels::VALUE,
                Box::new(|g, j| physics::dirichlet_residual(g, j, 0.25)),
            ),
        ];
        assert_eq!(face(Face::YMin), JetChannels::VALUE.with_d1(1).unwrap());
        for config in [small_config(), DeepOHeatConfig::single_branch(4, &[8], &[8, 8], 6)] {
            let model = DeepOHeat::new(&config, &mut rng()).unwrap();
            for (name, channels, residual) in &cases {
                let full = residual_term(&model, None, residual).unwrap();
                let pruned = residual_term(&model, Some(*channels), residual).unwrap();
                assert!(full.1.iter().filter(|g| g.is_some()).count() > 1, "{name}");
                assert_eq!(full, pruned, "{name}, fourier {:?}", config.fourier);
            }

            // A residual reading a channel its jet does not carry is a typed error.
            let absent = |channels, residual: Residual| {
                residual_term(&model, Some(channels), &residual).unwrap_err()
            };
            let flux_jet = face(Face::ZMax);
            let err = absent(flux_jet, Box::new(|g, j| physics::pde_residual(g, j, &scales, None)));
            assert_eq!(err, DeepOHeatError::Nn(NnError::AbsentJetChannel { order: 2, axis: 0 }));
            let err = absent(
                JetChannels::VALUE,
                Box::new(|g, j| physics::flux_residual(g, j, Face::ZMax, &scales, &flux)),
            );
            assert_eq!(err, DeepOHeatError::Nn(NnError::AbsentJetChannel { order: 1, axis: 2 }));
            let err =
                absent(flux_jet, Box::new(|g, j| physics::adiabatic_residual(g, j, Face::XMax)));
            assert_eq!(err, DeepOHeatError::Nn(NnError::AbsentJetChannel { order: 1, axis: 0 }));
        }
    }

    #[test]
    fn trunk_jet_rejects_coordinates_without_three_columns() {
        let model = DeepOHeat::new(&small_config(), &mut rng()).unwrap();
        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let err = bound.trunk_jet(&mut g, &Matrix::zeros(4, 2)).unwrap_err();
        assert!(matches!(err, DeepOHeatError::Nn(_)), "{err:?}");
    }

    #[test]
    fn multi_branch_product_is_elementwise() {
        let mut r = rng();
        let cfg = DeepOHeatConfig::single_branch(2, &[4], &[4], 3).add_branch(1, &[4]);
        let model = DeepOHeat::new(&cfg, &mut r).unwrap();
        assert_eq!(model.branch_count(), 2);
        assert_eq!(model.branch_input_dim(1), 1);
        let u1 = Matrix::from_fn(2, 2, |i, j| (i + j) as f64 * 0.1);
        let u2 = Matrix::from_fn(2, 1, |i, _| i as f64 * 0.5);
        let y = Matrix::zeros(3, 3);
        let t = model.predict_theta(&[&u1, &u2], &y).unwrap();
        assert_eq!(t.shape(), (2, 3));
    }

    #[test]
    fn parameter_ordering_is_stable() {
        let mut r = rng();
        let cfg = small_config().add_branch(1, &[4]);
        let mut model = DeepOHeat::new(&cfg, &mut r).unwrap();
        let n = model.parameter_count();
        assert_eq!(model.parameters_mut().len(), n);
        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        assert_eq!(bound.parameter_vars().len(), n);
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let mut r = rng();
        let model = DeepOHeat::new(&small_config(), &mut r).unwrap();
        let u = Matrix::from_fn(2, 4, |i, j| 0.1 * (i + j) as f64 + 0.05);
        let y = Matrix::from_fn(4, 3, |i, j| 0.1 * (i + j) as f64);
        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let b = bound.branch_product(&mut g, &[u]).unwrap();
        let phi = bound.trunk_features(&mut g, &y).unwrap();
        let theta = bound.combine(&mut g, b, phi).unwrap();
        let loss = g.mean_square(theta).unwrap();
        let grads = g.backward(loss).unwrap();
        for (i, var) in bound.parameter_vars().iter().enumerate() {
            assert!(grads.get(*var).is_some(), "parameter {i} missing gradient");
        }
    }
}
