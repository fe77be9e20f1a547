#![deny(unsafe_code)]
//! Reverse-mode automatic differentiation over dense matrices.
//!
//! This crate provides the training backend of the DeepOHeat reproduction:
//! a tape/graph of matrix-valued operations supporting exact reverse-mode
//! gradients. Physics-informed training needs first *and second* spatial
//! derivatives of the network output as differentiable quantities, so the
//! [`Activation`] ops expose analytic derivatives up to third order (the
//! backward pass of a second-derivative channel needs the third derivative).
//!
//! The design is "tape per step": a training iteration builds a fresh
//! [`Graph`], inserts the current parameter values as leaves, runs the
//! forward computation, calls [`Graph::backward`] and reads the gradients of
//! the parameter leaves. Parameter state itself lives outside the graph (see
//! `deepoheat-nn`).
//!
//! [`check_gradients`] compares a graph's reverse-mode gradients with
//! central finite differences; the autodiff and nn property tests run the
//! ops and layers through it.
//!
//! # Examples
//!
//! ```
//! use deepoheat_autodiff::Graph;
//! use deepoheat_linalg::Matrix;
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Matrix::from_rows(&[&[1.0, 2.0]])?, true);
//! let w = g.leaf(Matrix::from_rows(&[&[3.0], &[4.0]])?, true);
//! let y = g.matmul(x, w)?;              // y = [11]
//! let loss = g.mean_square(y)?;         // loss = 121
//! let grads = g.backward(loss)?;
//! let gw = grads.get(w).expect("w requires grad");
//! // d(y^2)/dw = 2 * y * x^T = [22, 44]
//! assert_eq!(gw.as_slice(), &[22.0, 44.0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod activation;
mod error;
mod gradcheck;
mod graph;

pub use activation::Activation;
pub use error::AutodiffError;
pub use gradcheck::{check_gradients, GradCheckReport};
pub use graph::{Gradients, Graph, JetVars, Var};
