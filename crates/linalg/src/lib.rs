#![deny(unsafe_code)]
//! Dense and sparse linear-algebra kernels used throughout the DeepOHeat
//! thermal-simulation stack.
//!
//! This crate is deliberately self-contained (no BLAS/LAPACK bindings) so the
//! whole reproduction builds offline from source. It provides:
//!
//! * [`Matrix`] — a dense, row-major matrix with cache-friendly and
//!   (for large operands) multi-threaded multiplication; `f64` unless
//!   named otherwise, with its inference operations generic over the
//!   [`Element`] type so `f32` runs the same code,
//! * [`Cholesky`] — an LLᵀ factorisation for symmetric positive-definite
//!   systems (used for Gaussian-random-field sampling),
//! * [`CsrMatrix`] — compressed sparse row storage for the finite-volume
//!   operator assembled by `deepoheat-fdm`,
//! * [`block_cg`] — preconditioned (block) conjugate gradients for one or
//!   many right-hand sides, with [`Preconditioner`] implementations
//!   (identity, Jacobi, SSOR, IC(0)); a one-row block is the
//!   single-right-hand-side solver.
//!
//! # Examples
//!
//! ```
//! use deepoheat_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c, a);
//! # Ok::<(), deepoheat_linalg::LinalgError>(())
//! ```

mod block_cg;
mod cg;
mod cholesky;
mod error;
mod kernels;
mod matrix;
mod sparse;
mod vector;

pub use block_cg::{
    block_cg, BlockCgColumn, BlockCgOptions, BlockCgOutcome, BlockCgTrace, RecycleSpace,
};
pub use cg::{IdentityPreconditioner, JacobiPreconditioner, Preconditioner, SsorPreconditioner};
pub use cholesky::{Cholesky, IncompleteCholesky};
pub use error::LinalgError;
pub use kernels::{Element, PackedRhs};
pub use matrix::Matrix;
pub use sparse::{CooMatrix, CsrMatrix};
pub use vector::{
    add_product, axpy, direction_update, dot, gram, norm2, row_norms, scale_in_place, sub_product,
    VEC_CHUNK,
};
