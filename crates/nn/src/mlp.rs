use deepoheat_autodiff::{Activation, Graph, Var};
use deepoheat_linalg::Matrix;
use rand::Rng;

use crate::{activation_jet, BoundDense, BoundParameters, Dense, Jet3, NnError, Parameterized};

/// Architecture description for an [`Mlp`].
///
/// # Examples
///
/// ```
/// use deepoheat_autodiff::Activation;
/// use deepoheat_nn::MlpConfig;
///
/// // The paper's §V.A branch net: 441 -> 9 layers of 256 -> 128 features.
/// let cfg = MlpConfig::new(441, &[256; 9], 128, Activation::Swish);
/// assert_eq!(cfg.layer_dims(), vec![441, 256, 256, 256, 256, 256, 256, 256, 256, 256, 128]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Widths of the hidden layers.
    pub hidden: Vec<usize>,
    /// Output feature dimension.
    pub output_dim: usize,
    /// Activation applied after every layer except the last.
    pub activation: Activation,
}

impl MlpConfig {
    /// Creates a configuration.
    pub fn new(
        input_dim: usize,
        hidden: &[usize],
        output_dim: usize,
        activation: Activation,
    ) -> Self {
        MlpConfig { input_dim, hidden: hidden.to_vec(), output_dim, activation }
    }

    /// Returns the full list of layer dimensions, input first.
    pub fn layer_dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.hidden.len() + 2);
        dims.push(self.input_dim);
        dims.extend_from_slice(&self.hidden);
        dims.push(self.output_dim);
        dims
    }
}

/// A multi-layer perceptron with a shared activation on all hidden layers
/// and a linear output layer.
///
/// Serves as both the branch nets and (behind a Fourier-features mapping)
/// the trunk net of DeepOHeat. See the
/// [crate-level example](crate) for a training loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP with Glorot-initialised weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArchitecture`] if any dimension is zero.
    pub fn new<R: Rng + ?Sized>(config: &MlpConfig, rng: &mut R) -> Result<Self, NnError> {
        let dims = config.layer_dims();
        if dims.contains(&0) {
            return Err(NnError::InvalidArchitecture {
                what: format!("zero-width layer in {dims:?}"),
            });
        }
        let layers = dims.windows(2).map(|w| Dense::new(w[0], w[1], rng)).collect();
        Ok(Mlp { layers, activation: config.activation })
    }

    /// Builds an MLP from pre-constructed layers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArchitecture`] if the list is empty or
    /// consecutive layer dimensions do not chain.
    pub fn from_layers(layers: Vec<Dense>, activation: Activation) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::InvalidArchitecture {
                what: "mlp needs at least one layer".into(),
            });
        }
        for pair in layers.windows(2) {
            if pair[0].output_dim() != pair[1].input_dim() {
                return Err(NnError::InvalidArchitecture {
                    what: format!(
                        "layer output {} does not match next input {}",
                        pair[0].output_dim(),
                        pair[1].input_dim()
                    ),
                });
            }
        }
        Ok(Mlp { layers, activation })
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].input_dim()
    }

    /// Output feature dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("invariant: from_layers rejects empty layer lists").output_dim()
    }

    /// Hidden-layer activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The layers, input side first.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Inserts all parameters into `graph` as trainable leaves.
    pub fn bind(&self, graph: &mut Graph) -> BoundMlp {
        BoundMlp {
            layers: self.layers.iter().map(|l| l.bind(graph)).collect(),
            activation: self.activation,
        }
    }

    /// Graph-free forward pass for fast inference.
    ///
    /// Every hidden layer runs as a single fused `f(x W + b)` kernel pass
    /// ([`Dense::forward_inference_fused`]): bias add and activation happen
    /// in the matmul store epilogue, so no intermediate pre-activation
    /// matrix is materialised. Bit-identical to the unfused
    /// matmul → broadcast → elementwise-map sequence it replaces.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.cols() != self.input_dim()`.
    pub fn forward_inference(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let act = |v: f64| self.activation.eval(0, v);
        let (last, hidden) =
            self.layers.split_last().expect("invariant: from_layers rejects empty layer lists");
        let mut h: Option<Matrix> = None;
        for layer in hidden {
            let input = h.as_ref().unwrap_or(x);
            h = Some(layer.forward_inference_fused(input, act)?);
        }
        last.forward_inference(h.as_ref().unwrap_or(x))
    }

    /// Graph-free forward pass dispatched in fixed row chunks on the
    /// `deepoheat-parallel` pool.
    ///
    /// Every layer of [`Mlp::forward_inference`] is row-independent
    /// (each output row is a function of the matching input row alone), so
    /// forwarding `chunk_rows`-sized blocks and stitching them back in
    /// chunk-index order is **bit-identical** to the unchunked pass at any
    /// thread count — chunk boundaries depend only on `x.rows()` and
    /// `chunk_rows`, never on the pool width. A batch that fits in one
    /// chunk (or `chunk_rows == 0`) falls through to the plain pass.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.cols() != self.input_dim()`.
    pub fn forward_inference_chunked(
        &self,
        x: &Matrix,
        chunk_rows: usize,
    ) -> Result<Matrix, NnError> {
        let n = x.rows();
        if chunk_rows == 0 || n <= chunk_rows {
            return self.forward_inference(x);
        }
        let blocks = deepoheat_parallel::par_try_map_chunks(n, chunk_rows, |range| {
            let block = x.row_block(range)?;
            self.forward_inference(&block).map(Matrix::into_vec)
        })?;
        let mut data = Vec::with_capacity(n * self.output_dim());
        for block in blocks {
            data.extend_from_slice(&block);
        }
        Ok(Matrix::from_vec(n, self.output_dim(), data)?)
    }
}

impl Parameterized for Mlp {
    fn parameters_mut(&mut self) -> Vec<&mut Matrix> {
        self.layers.iter_mut().flat_map(|l| l.parameters_mut()).collect()
    }

    fn parameter_count(&self) -> usize {
        self.layers.len() * 2
    }
}

/// Graph handles for an [`Mlp`]'s parameters within a specific [`Graph`];
/// produced by [`Mlp::bind`].
#[derive(Debug, Clone)]
pub struct BoundMlp {
    layers: Vec<BoundDense>,
    activation: Activation,
}

impl BoundMlp {
    /// Forward pass on the graph: hidden layers with activation, linear
    /// output layer.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying graph operations.
    pub fn forward(&self, graph: &mut Graph, x: Var) -> Result<Var, NnError> {
        let mut h = self.layers[0].forward(graph, x)?;
        for layer in &self.layers[1..] {
            let a = graph.activation(h, self.activation, 0)?;
            h = layer.forward(graph, a)?;
        }
        Ok(h)
    }

    /// Forward pass of a second-order jet through the whole stack,
    /// building only the channels `x` carries.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying graph operations.
    pub fn forward_jet(&self, graph: &mut Graph, x: &Jet3) -> Result<Jet3, NnError> {
        let mut h = self.layers[0].forward_jet(graph, x)?;
        for layer in &self.layers[1..] {
            let a = activation_jet(graph, self.activation, &h)?;
            h = layer.forward_jet(graph, &a)?;
        }
        Ok(h)
    }
}

impl BoundParameters for BoundMlp {
    fn parameter_vars(&self) -> Vec<Var> {
        self.layers.iter().flat_map(|l| [l.weight_var(), l.bias_var()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JetChannels;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(123)
    }

    #[test]
    fn config_dims() {
        let cfg = MlpConfig::new(3, &[8, 8], 1, Activation::Swish);
        assert_eq!(cfg.layer_dims(), vec![3, 8, 8, 1]);
    }

    #[test]
    fn rejects_zero_width() {
        let cfg = MlpConfig::new(3, &[0], 1, Activation::Swish);
        assert!(Mlp::new(&cfg, &mut rng()).is_err());
    }

    #[test]
    fn from_layers_validates_chaining() {
        let mut r = rng();
        let good = vec![Dense::new(2, 3, &mut r), Dense::new(3, 1, &mut r)];
        assert!(Mlp::from_layers(good, Activation::Tanh).is_ok());
        let bad = vec![Dense::new(2, 3, &mut r), Dense::new(4, 1, &mut r)];
        assert!(Mlp::from_layers(bad, Activation::Tanh).is_err());
        assert!(Mlp::from_layers(vec![], Activation::Tanh).is_err());
    }

    #[test]
    fn graph_forward_matches_inference() {
        let mut r = rng();
        let mlp = Mlp::new(&MlpConfig::new(3, &[5, 7], 2, Activation::Swish), &mut r).unwrap();
        let x = Matrix::from_fn(4, 3, |i, j| 0.1 * (i + j) as f64 - 0.2);
        let fast = mlp.forward_inference(&x).unwrap();

        let mut g = Graph::new();
        let bound = mlp.bind(&mut g);
        let xv = g.leaf(x, false);
        let y = bound.forward(&mut g, xv).unwrap();
        let slow = g.value(y);
        for (a, b) in slow.iter().zip(fast.iter()) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn jet_value_channel_matches_plain_forward() {
        let mut r = rng();
        let mlp = Mlp::new(&MlpConfig::new(3, &[6, 6], 1, Activation::Swish), &mut r).unwrap();
        let coords = Matrix::from_fn(5, 3, |i, j| 0.15 * i as f64 - 0.1 * j as f64);
        let plain = mlp.forward_inference(&coords).unwrap();

        let mut g = Graph::new();
        let bound = mlp.bind(&mut g);
        let jet = Jet3::seed_coordinates(&mut g, coords, JetChannels::ALL).unwrap();
        let out = bound.forward_jet(&mut g, &jet).unwrap();
        for (a, b) in g.value(out.value()).iter().zip(plain.iter()) {
            assert!((a - b).abs() < 1e-13);
        }
    }

    #[test]
    fn jet_derivatives_match_finite_differences_of_network() {
        let mut r = rng();
        let mlp = Mlp::new(&MlpConfig::new(3, &[8], 1, Activation::Tanh), &mut r).unwrap();
        let coords = Matrix::from_rows(&[&[0.2, -0.3, 0.4]]).unwrap();
        let h = 1e-4;

        let mut g = Graph::new();
        let bound = mlp.bind(&mut g);
        let jet = Jet3::seed_coordinates(&mut g, coords.clone(), JetChannels::ALL).unwrap();
        let out = bound.forward_jet(&mut g, &jet).unwrap();

        for axis in 0..3 {
            let mut plus = coords.clone();
            let mut minus = coords.clone();
            plus[(0, axis)] += h;
            minus[(0, axis)] -= h;
            let fp = mlp.forward_inference(&plus).unwrap().as_slice()[0];
            let fm = mlp.forward_inference(&minus).unwrap().as_slice()[0];
            let f0 = mlp.forward_inference(&coords).unwrap().as_slice()[0];
            let fd1 = (fp - fm) / (2.0 * h);
            let fd2 = (fp - 2.0 * f0 + fm) / (h * h);
            let a1 = g.value(out.d1(axis).unwrap()).as_slice()[0];
            let a2 = g.value(out.d2(axis).unwrap()).as_slice()[0];
            assert!((a1 - fd1).abs() < 1e-6, "axis {axis}: {a1} vs {fd1}");
            assert!((a2 - fd2).abs() < 1e-4, "axis {axis}: {a2} vs {fd2}");
        }
    }

    #[test]
    fn chunked_inference_is_bit_identical_to_plain() {
        let mut r = rng();
        let mlp = Mlp::new(&MlpConfig::new(3, &[16, 16], 4, Activation::Swish), &mut r).unwrap();
        let x = Matrix::from_fn(37, 3, |i, j| 0.05 * (i as f64) - 0.3 * (j as f64) + 0.1);
        let plain = mlp.forward_inference(&x).unwrap();
        for chunk in [1, 5, 16, 37, 1000, 0] {
            let chunked = mlp.forward_inference_chunked(&x, chunk).unwrap();
            assert_eq!(plain, chunked, "chunk_rows = {chunk}");
        }
        // ... and across pool widths.
        for threads in [1, 3] {
            let pool = deepoheat_parallel::ThreadPool::new(threads);
            let under = pool.install(|| mlp.forward_inference_chunked(&x, 8)).unwrap();
            assert_eq!(plain, under, "threads = {threads}");
        }
    }

    #[test]
    #[allow(clippy::identity_op)] // 4 * 1 documents the (in x out) shape
    fn parameter_traversal_is_stable() {
        let mut r = rng();
        let mut mlp = Mlp::new(&MlpConfig::new(2, &[4], 1, Activation::Swish), &mut r).unwrap();
        assert_eq!(mlp.parameter_count(), 4); // 2 layers x (W, b)
        assert_eq!(mlp.parameters_mut().len(), 4);
        assert_eq!(mlp.scalar_count(), 2 * 4 + 4 + 4 * 1 + 1);

        let mut g = Graph::new();
        let bound = mlp.bind(&mut g);
        assert_eq!(bound.parameter_vars().len(), 4);
    }
}
