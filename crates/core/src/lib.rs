#![deny(unsafe_code)]
//! **DeepOHeat**: physics-aware operator learning for ultra-fast 3D-IC
//! thermal simulation — a Rust reproduction of Liu et al., DAC 2023.
//!
//! DeepOHeat learns the *solution operator* of the steady heat equation
//! `k∇²T + q_V = 0` over a family of chip design configurations: each
//! configuration function (a 2-D power map, a heat-transfer coefficient,
//! …) feeds a dedicated **branch net**; query coordinates feed a **trunk
//! net** whose first layer is a Fourier-features mapping; the branch and
//! trunk features combine by Hadamard product and sum (a multi-input
//! DeepONet / MIONet). Training is self-supervised: the loss is the PDE
//! residual on interior collocation points plus one residual per boundary
//! condition, with first/second spatial derivatives obtained by
//! propagating second-order jets through the trunk (see `deepoheat-nn`).
//!
//! # Crate layout
//!
//! * [`DeepOHeat`] / [`DeepOHeatConfig`] — the operator network itself,
//!   with graph-bound training forward passes and a fast inference path.
//!   A config takes more branch nets with [`DeepOHeatConfig::add_branch`];
//!   a model reports [`DeepOHeat::branch_count`] and
//!   [`DeepOHeat::latent_dim`], and [`DeepOHeat::predict_theta`] returns
//!   the nondimensional output the physics losses constrain.
//! * [`physics`] — residual builders for the heat PDE and all §III
//!   boundary-condition families, in normalized coordinates; a
//!   [`physics::dirichlet_residual`] takes its target temperature through
//!   [`physics::PhysicsScales::to_theta`].
//! * [`experiments`] — runnable reproductions of the paper's §V.A
//!   (power-map) and §V.B (dual-HTC) experiments against the
//!   finite-volume reference solver.
//!   [`experiments::PowerMapExperimentConfig::paper`] and
//!   [`experiments::HtcExperimentConfig::paper`] hold the paper's
//!   full-scale settings,
//!   [`experiments::VolumetricExperimentConfig::physics_informed`] trains
//!   the volumetric experiment on the physics loss, and
//!   [`experiments::Experiment::save_checkpoint`] writes a checkpoint on
//!   demand.
//! * [`metrics`] — MAPE/PAPE, [`metrics::relative_l2`] and
//!   field-comparison utilities used by Table I and Fig. 5.
//! * [`model_io`] — the model file format, written to a path with
//!   [`model_io::save_to_path`] and read back with
//!   [`model_io::load_from_path`].
//! * [`report`] — ASCII heat maps and CSV export used by the experiment
//!   harness binaries.
//! * [`checkpoint`] / [`resilience`] — crash-safe training checkpoints
//!   with bit-identical resume, and the divergence-guarded training
//!   runner (see `RESILIENCE.md`).
//!
//! # Examples
//!
//! Fast inference with an untrained model (shape-level quickstart; see
//! `examples/` for full training flows):
//!
//! ```
//! use deepoheat::{DeepOHeat, DeepOHeatConfig};
//! use deepoheat_linalg::Matrix;
//! use rand::SeedableRng;
//!
//! let config = DeepOHeatConfig::single_branch(9, &[16, 16], &[16, 16], 8)
//!     .with_output_transform(298.15, 10.0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = DeepOHeat::new(&config, &mut rng)?;
//!
//! let power_maps = Matrix::zeros(2, 9);  // two configurations
//! let coords = Matrix::zeros(5, 3);      // five query points
//! let t = model.predict(&[&power_maps], &coords)?;
//! assert_eq!(t.shape(), (2, 5));         // one field row per configuration
//! # Ok::<(), deepoheat::DeepOHeatError>(())
//! ```

mod basis;
mod error;

pub mod checkpoint;
pub mod experiments;
pub mod metrics;
mod model;
pub mod model_io;
pub mod physics;
pub mod report;
pub mod resilience;

pub use basis::{Trunk, TrunkBasis};
pub use checkpoint::{CheckpointError, TrainingSnapshot};
pub use error::DeepOHeatError;
pub use model::{
    BoundDeepOHeat, BranchEmbedding, DeepOHeat, DeepOHeatConfig, FourierConfig, TemperatureJet,
    DEFAULT_TRUNK_CHUNK,
};
pub use resilience::{FaultPlan, ResilienceConfig, ResilienceError, ResilientReport};
