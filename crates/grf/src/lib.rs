#![deny(unsafe_code)]
//! Gaussian random fields and tile-based power maps for chip thermal
//! workloads.
//!
//! The DeepOHeat paper (§V.A.2) trains on 2-D power maps sampled from a
//! standard Gaussian random field with a squared-exponential kernel of
//! length scale 0.3; test maps are *tile-based* block layouts (as produced
//! by industrial floorplans) that are bilinearly interpolated onto the
//! training grid (§V.A.5, Fig. 4). This crate provides all three pieces:
//!
//! * [`GaussianRandomField`] — GRF sampling via Cholesky factorisation of
//!   the covariance matrix,
//! * [`TilePowerMap`] — block-based power-map construction plus a
//!   deterministic test-suite generator ([`paper_test_suite`]) standing in
//!   for the paper's proprietary Cadence test cases,
//! * [`tiles_to_grid`] — the tile→grid bilinear interpolation.
//!
//! [`GaussianRandomField::new`] builds a field over arbitrary points, and
//! [`GaussianRandomField::kernel`] gives the exact covariance the
//! statistical tests check samples against. [`GaussianRandomField3`] is
//! the 3-D field over a grid of [`GaussianRandomField3::dims`] points.
//! [`TilePowerMap::peak_power`] is a map's hottest tile.
//!
//! # Examples
//!
//! ```
//! use deepoheat_grf::GaussianRandomField;
//! use rand::SeedableRng;
//!
//! let grf = GaussianRandomField::on_unit_grid(21, 0.3)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let map = grf.sample_grid(&mut rng)?;
//! assert_eq!(map.shape(), (21, 21));
//! # Ok::<(), deepoheat_grf::GrfError>(())
//! ```

mod error;
mod field;
mod field3d;
mod interp;
mod tile;

pub use error::GrfError;
pub use field::GaussianRandomField;
pub use field3d::GaussianRandomField3;
pub use interp::{bilinear_sample, tiles_to_grid};
pub use tile::{paper_test_suite, TilePowerMap};
