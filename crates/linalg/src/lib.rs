#![deny(unsafe_code)]
//! Dense and sparse linear-algebra kernels used throughout the DeepOHeat
//! thermal-simulation stack.
//!
//! This crate is deliberately self-contained (no BLAS/LAPACK bindings) so the
//! whole reproduction builds offline from source. It provides:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with cache-friendly and
//!   (for large operands) multi-threaded multiplication,
//! * [`Cholesky`] — an LLᵀ factorisation for symmetric positive-definite
//!   systems (used for Gaussian-random-field sampling),
//! * [`CsrMatrix`] — compressed sparse row storage for the finite-volume
//!   operator assembled by `deepoheat-fdm`,
//! * [`conjugate_gradient`] — a preconditioned conjugate-gradient solver with
//!   [`Preconditioner`] implementations (identity, Jacobi, SSOR).
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
mod matrix32;
mod sparse;
mod vector;

pub use block_cg::{
    block_cg, BlockCgColumn, BlockCgOptions, BlockCgOutcome, BlockCgTrace, RecycleSpace,
};
pub use cg::{
    conjugate_gradient, conjugate_gradient_attempt, CgAttempt, CgOptions, CgOutcome, CgTrace,
    IdentityPreconditioner, JacobiPreconditioner, Preconditioner, SsorPreconditioner,
};
pub use cholesky::{Cholesky, IncompleteCholesky};
pub use error::LinalgError;
pub use kernels::PackedRhs;
pub use matrix::Matrix;
pub use matrix32::Matrix32;
pub use sparse::{CooMatrix, CsrMatrix};
pub use vector::{
    add_product, axpy, direction_update, dot, gram, norm2, row_norms, scale_in_place, sub_product,
    VEC_CHUNK,
};
