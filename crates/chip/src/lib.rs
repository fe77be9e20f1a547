#![deny(unsafe_code)]
//! Modular 3D-IC chip thermal configuration.
//!
//! §III of the DeepOHeat paper models a chip as stacked rectangular
//! cuboids, each with its own material properties and optional volumetric
//! power, bounded by per-surface conditions (Dirichlet, Neumann/2-D power
//! map, adiabatic, convection). This crate realises that model:
//!
//! * [`Layer`] — one cuboidal slab of the stack (thickness, conductivity,
//!   uniform volumetric power, set by [`Layer::with_volumetric_power`]),
//! * [`Chip`] — a stack of layers on a common footprint with per-face
//!   boundary conditions and a unit-based top power map, convertible to a
//!   [`deepoheat_fdm::HeatProblem`] for reference solves,
//! * [`MeshPartition`] / [`sample_volume_points`] — collocation-point
//!   machinery for physics-informed training (mesh-based for §V.A,
//!   random for §V.B),
//! * [`UNIT_POWER_WATTS`] — the paper's "one-unit power corresponds to
//!   0.00625 mW" encoding of power maps.
//!
//! # Examples
//!
//! Build the §V.A chip and solve it with the reference solver:
//!
//! ```
//! use deepoheat_chip::{Chip, Layer};
//! use deepoheat_fdm::{BoundaryCondition, Face, SolveOptions};
//! use deepoheat_linalg::Matrix;
//!
//! let mut chip = Chip::single_cuboid(1e-3, 1e-3, 0.5e-3, 21, 21, 11, 0.1)?;
//! chip.set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: 500.0, ambient: 298.15 })?;
//! chip.set_top_power_map_units(&Matrix::filled(21, 21, 1.0))?;
//! let solution = chip.heat_problem()?.solve(SolveOptions::default())?;
//! assert!(solution.max_temperature() > 298.15);
//! # Ok::<(), deepoheat_chip::ChipError>(())
//! ```

mod chip;
mod error;
mod layer;
mod sample;

pub use crate::chip::{Chip, UNIT_POWER_WATTS};
pub use error::ChipError;
pub use layer::Layer;
pub use sample::{sample_face_points, sample_volume_points, MeshPartition};
