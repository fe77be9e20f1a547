use deepoheat_autodiff::{Graph, Var};
use deepoheat_linalg::{Element, Matrix};
use rand::Rng;

use crate::{glorot_uniform, Jet3, NnError};

/// A fully connected layer `z = x W + b`, with `f64` parameters unless
/// named otherwise.
///
/// The layer owns its parameter matrices; [`Dense::bind`] inserts them into
/// a fresh autodiff graph each training iteration, returning a
/// [`BoundDense`] whose handles drive the forward pass. Training is
/// `f64`'s; the graph-free inference passes are generic over the
/// [`Element`] type, and [`Dense::cast`] narrows a trained layer for them.
///
/// # Examples
///
/// ```
/// use deepoheat_autodiff::Graph;
/// use deepoheat_linalg::Matrix;
/// use deepoheat_nn::Dense;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layer = Dense::new(3, 4, &mut rng);
/// let mut g = Graph::new();
/// let bound = layer.bind(&mut g);
/// let x = g.leaf(Matrix::zeros(5, 3), false);
/// let z = bound.forward(&mut g, x)?;
/// assert_eq!(g.value(z).shape(), (5, 4));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dense<T = f64> {
    weight: Matrix<T>,
    bias: Matrix<T>,
}

impl Dense {
    /// Creates a layer with Glorot-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(input_dim: usize, output_dim: usize, rng: &mut R) -> Self {
        Dense {
            weight: glorot_uniform(input_dim, output_dim, rng),
            bias: Matrix::zeros(1, output_dim),
        }
    }

    /// Creates a layer from explicit parameter matrices.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArchitecture`] if `bias` is not
    /// `1 × weight.cols()`.
    pub fn from_parameters(weight: Matrix, bias: Matrix) -> Result<Self, NnError> {
        if bias.rows() != 1 || bias.cols() != weight.cols() {
            return Err(NnError::InvalidArchitecture {
                what: format!(
                    "bias must be 1x{}, got {}x{}",
                    weight.cols(),
                    bias.rows(),
                    bias.cols()
                ),
            });
        }
        Ok(Dense { weight, bias })
    }

    /// Mutable access to the parameters, in `[weight, bias]` order.
    pub fn parameters_mut(&mut self) -> [&mut Matrix; 2] {
        [&mut self.weight, &mut self.bias]
    }

    /// Inserts the current parameter values into `graph` as trainable
    /// leaves.
    pub fn bind(&self, graph: &mut Graph) -> BoundDense {
        BoundDense {
            weight: graph.leaf(self.weight.clone(), true),
            bias: graph.leaf(self.bias.clone(), true),
        }
    }
}

impl<T: Element> Dense<T> {
    /// Input dimension (rows of the weight matrix).
    pub fn input_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimension (columns of the weight matrix).
    pub fn output_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Returns the weight matrix.
    pub fn weight(&self) -> &Matrix<T> {
        &self.weight
    }

    /// Returns the bias row vector.
    pub fn bias(&self) -> &Matrix<T> {
        &self.bias
    }

    /// This layer with its parameters in precision `U` (see
    /// [`Matrix::cast`]).
    pub fn cast<U: Element>(&self) -> Dense<U> {
        Dense { weight: self.weight.cast(), bias: self.bias.cast() }
    }

    /// Graph-free forward pass for fast inference: `x W + b`, with the
    /// bias add fused into the matmul epilogue (no intermediate product
    /// matrix). Bit-identical to `matmul` followed by a broadcast add.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.cols() != self.input_dim()`.
    pub fn forward_inference(&self, x: &Matrix<T>) -> Result<Matrix<T>, NnError> {
        Ok(x.matmul_bias(&self.weight, self.bias.as_slice())?)
    }

    /// Fused forward + activation for fast inference: `f(x W + b)` in a
    /// single kernel pass, applying bias and activation in the matmul
    /// store epilogue while each output tile is hot in cache. This is the
    /// hidden-layer hot path of [`crate::Mlp::forward_inference`];
    /// bit-identical to `forward_inference` followed by an elementwise map.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.cols() != self.input_dim()`.
    pub fn forward_inference_fused<F>(&self, x: &Matrix<T>, f: F) -> Result<Matrix<T>, NnError>
    where
        F: Fn(T) -> T + Sync,
    {
        Ok(x.matmul_bias_map(&self.weight, self.bias.as_slice(), f)?)
    }
}

/// Graph handles for one [`Dense`] layer's parameters within a specific
/// [`Graph`]; produced by [`Dense::bind`].
#[derive(Debug, Clone, Copy)]
pub struct BoundDense {
    weight: Var,
    bias: Var,
}

impl BoundDense {
    /// The weight leaf handle.
    pub fn weight_var(&self) -> Var {
        self.weight
    }

    /// The bias leaf handle.
    pub fn bias_var(&self) -> Var {
        self.bias
    }

    /// Forward pass `x W + b` on the graph.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying graph operations.
    pub fn forward(&self, graph: &mut Graph, x: Var) -> Result<Var, NnError> {
        let z = graph.matmul(x, self.weight)?;
        Ok(graph.add_row_broadcast(z, self.bias)?)
    }

    /// Forward pass of a second-order jet through the linear layer,
    /// building only the channels `x` carries.
    ///
    /// The value channel receives the bias; the derivative channels are
    /// linear maps of the incoming derivative channels because
    /// `∂(xW + b)/∂yᵢ = (∂x/∂yᵢ) W`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying graph operations.
    pub fn forward_jet(&self, graph: &mut Graph, x: &Jet3) -> Result<Jet3, NnError> {
        let value = self.forward(graph, x.value())?;
        Ok(x.map_derivatives(value, |d| graph.matmul(d, self.weight))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepoheat_autodiff::check_gradients;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_inference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let layer = Dense::new(3, 2, &mut rng);
        let x = Matrix::from_fn(4, 3, |r, c| (r + c) as f64 * 0.1);
        let fast = layer.forward_inference(&x).unwrap();

        let mut g = Graph::new();
        let bound = layer.bind(&mut g);
        let xv = g.leaf(x, false);
        let z = bound.forward(&mut g, xv).unwrap();
        assert_eq!(g.value(z), &fast);
    }

    #[test]
    fn from_parameters_validates_bias() {
        let w = Matrix::zeros(2, 3);
        assert!(Dense::from_parameters(w.clone(), Matrix::zeros(1, 2)).is_err());
        assert!(Dense::from_parameters(w.clone(), Matrix::zeros(2, 3)).is_err());
        assert!(Dense::from_parameters(w, Matrix::zeros(1, 3)).is_ok());
    }

    #[test]
    fn gradients_flow_through_layer() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let layer = Dense::new(2, 2, &mut rng);
        let x = Matrix::from_fn(3, 2, |r, c| 0.5 * r as f64 - 0.3 * c as f64);
        let report =
            check_gradients(&[layer.weight().clone(), layer.bias().clone()], |g, leaves| {
                let x = g.leaf(x.clone(), false);
                let z = g.matmul(x, leaves[0])?;
                let z = g.add_row_broadcast(z, leaves[1])?;
                g.mean_square(z)
            })
            .unwrap();
        assert!(report.passes(1e-6), "{report:?}");
    }

    #[test]
    fn dims_reported_correctly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let layer = Dense::new(7, 11, &mut rng);
        assert_eq!(layer.input_dim(), 7);
        assert_eq!(layer.output_dim(), 11);
        assert_eq!(layer.weight().shape(), (7, 11));
        assert_eq!(layer.bias().shape(), (1, 11));
    }

    #[test]
    fn inference_shape_errors_propagate_in_both_precisions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let layer = Dense::new(4, 2, &mut rng);
        assert!(layer.forward_inference(&Matrix::zeros(3, 5)).is_err());
        assert!(layer.cast::<f32>().forward_inference(&Matrix::zeros(3, 5).cast()).is_err());
    }
}
