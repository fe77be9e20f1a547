#![deny(unsafe_code)]
//! A 3-D finite-volume steady-state heat-conduction solver.
//!
//! This crate is the reproduction's stand-in for **Celsius 3D**, the
//! commercial FEM solver the DeepOHeat paper compares against: it solves
//! the same elliptic PDE
//!
//! ```text
//! ∇·(k ∇T) + q_V = 0
//! ```
//!
//! on a structured vertex-centred grid with per-node conductivity and
//! volumetric power and per-surface boundary conditions (Dirichlet,
//! Neumann heat-flux / 2-D power maps, adiabatic, convection). The
//! discretisation integrates fluxes over control volumes with
//! harmonic-mean face conductivities, producing a symmetric
//! positive-definite system solved by preconditioned conjugate gradients.
//!
//! It provides the *reference temperatures* for every accuracy table in
//! the paper and the *baseline timings* for every speedup claim.
//!
//! Its tests check it against closed forms: [`slab_conduction_profile`]
//! for one slab and [`SlabAnalytic`] for a layered stack
//! ([`SlabAnalytic::new`], [`SlabAnalytic::top_temperature`],
//! [`SlabAnalytic::unit_resistance`]). [`StructuredGrid::control_volume`]
//! is the volume a node's source term integrates over.
//!
//! # Examples
//!
//! A 1 mm × 1 mm × 0.5 mm chip heated from the top, cooled by convection
//! at the bottom (the §V.A geometry):
//!
//! ```
//! use deepoheat_fdm::{BoundaryCondition, Face, FluxMap, HeatProblem, SolveOptions, StructuredGrid};
//!
//! let grid = StructuredGrid::new(21, 21, 11, 1e-3, 1e-3, 0.5e-3)?;
//! let mut problem = HeatProblem::new(grid, 0.1); // k = 0.1 W/(m K)
//! problem.set_boundary(Face::ZMax, BoundaryCondition::HeatFlux { flux: FluxMap::Uniform(1000.0) })?;
//! problem.set_boundary(
//!     Face::ZMin,
//!     BoundaryCondition::Convection { htc: 500.0, ambient: 298.15 },
//! )?;
//! let solution = problem.solve(SolveOptions::default())?;
//! assert!(solution.max_temperature() > 298.15);
//! # Ok::<(), deepoheat_fdm::FdmError>(())
//! ```

mod analytic;
mod batch;
mod boundary;
mod error;
mod grid;
mod problem;
mod solution;

pub use analytic::{slab_conduction_profile, SlabAnalytic};
pub use batch::{BatchOutcome, BatchReport, BatchSolveOptions};
pub use boundary::{BoundaryCondition, Face, FluxMap};
pub use error::FdmError;
pub use grid::StructuredGrid;
pub use problem::{HeatProblem, SolveOptions};
pub use solution::Solution;
