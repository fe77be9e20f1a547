#![deny(unsafe_code)]
//! Neural-network building blocks for the DeepOHeat reproduction.
//!
//! Provides [`Dense`] layers, [`Mlp`] stacks, the [`FourierFeatures`]
//! mapping used by the DeepOHeat trunk net (Tancik et al. 2020), parameter
//! initialisation, the [`Adam`] optimiser with [`LrSchedule`] support, and
//! — crucially for physics-informed training — [`Jet3`] propagation, which
//! carries the network value together with its first and second derivatives
//! with respect to the three spatial coordinates through every layer.
//!
//! Parameters are `f64` and training runs in `f64`. The graph-free
//! inference passes of [`Dense`], [`Mlp`] and [`FourierFeatures`] are
//! generic over the [`deepoheat_linalg::Element`] type, and `cast` narrows a
//! trained network to `f32` for them.
//!
//! # Examples
//!
//! Train a tiny MLP to fit `y = x²` on a few points:
//!
//! ```
//! use deepoheat_autodiff::{Activation, Graph};
//! use deepoheat_linalg::Matrix;
//! use deepoheat_nn::{Adam, AdamConfig, Mlp, MlpConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut mlp = Mlp::new(&MlpConfig::new(1, &[16, 16], 1, Activation::Tanh), &mut rng)?;
//! let mut adam = Adam::new(AdamConfig::with_learning_rate(1e-2));
//!
//! let x = Matrix::column_vector(&[-1.0, -0.5, 0.0, 0.5, 1.0]);
//! let y = x.map(|v| v * v);
//! for _ in 0..200 {
//!     let mut g = Graph::new();
//!     let bound = mlp.bind(&mut g);
//!     let xi = g.leaf(x.clone(), false);
//!     let yi = g.leaf(y.clone(), false);
//!     let pred = bound.forward(&mut g, xi)?;
//!     let loss = g.mse(pred, yi)?;
//!     let grads = g.backward(loss)?;
//!     adam.step_model(&mut mlp, &bound, &grads)?;
//! }
//! let pred = mlp.forward_inference(&x)?;
//! assert!((pred.as_slice()[4] - 1.0).abs() < 0.2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod adam;
mod dense;
mod error;
mod fourier;
mod init;
mod jet;
mod mlp;
mod schedule;

pub use adam::{Adam, AdamConfig, AdamState};
pub use dense::{BoundDense, Dense};
pub use error::NnError;
pub use fourier::FourierFeatures;
pub use init::{glorot_uniform, normal_matrix};
pub use jet::{activation_jet, Jet3, JetChannels};
pub use mlp::{BoundMlp, Mlp, MlpConfig};
pub use schedule::LrSchedule;

use deepoheat_autodiff::Var;
use deepoheat_linalg::Matrix;

/// A model whose trainable parameters can be visited for optimisation.
///
/// Implemented by [`Mlp`] and by composite models such as the DeepOHeat
/// operator network in the `deepoheat` crate.
pub trait Parameterized {
    /// Returns mutable references to every trainable parameter matrix, in a
    /// stable order matching [`BoundParameters::parameter_vars`].
    fn parameters_mut(&mut self) -> Vec<&mut Matrix>;

    /// Returns the number of trainable parameter matrices.
    fn parameter_count(&self) -> usize;

    /// Returns the total number of trainable scalars.
    fn scalar_count(&mut self) -> usize {
        self.parameters_mut().iter().map(|p| p.len()).sum()
    }
}

/// The graph-bound counterpart of a [`Parameterized`] model: the leaf
/// [`Var`]s created for each parameter during [`Mlp::bind`] (or the
/// composite equivalent), in the same stable order.
pub trait BoundParameters {
    /// Returns the graph leaf handle of every parameter.
    fn parameter_vars(&self) -> Vec<Var>;
}
