//! Runnable reproductions of the paper's evaluation experiments. Every
//! design family trains through one generic [`Experiment`]; a
//! [`Scenario`] supplies only what differs:
//!
//! * [`power_map`] — §V.A: top-surface 2-D power maps to the 3-D
//!   temperature field (Table I, Fig. 3, Fig. 4).
//! * [`htc`] — §V.B: the joint dependence on the top and bottom
//!   heat-transfer coefficients (Fig. 5).
//! * [`volumetric`] — extension: 3-D volumetric power maps, the §III
//!   configuration family the paper's conclusion names as future work.
//!
//! The experiments train against physics residuals (or, as a baseline,
//! reference fields) and evaluate against the `deepoheat-fdm` reference
//! solver. Defaults are CPU-friendly; `paper()` constructors give the
//! paper's full-scale settings.

pub mod experiment;
pub mod htc;
pub mod power_map;
pub mod volumetric;

pub use experiment::{Coefficient, Experiment, Points, Residual, Scenario, Settings, Source, Term};
pub use htc::{Htc, HtcExperiment, HtcExperimentConfig};
pub use power_map::{PowerMap, PowerMapExperiment, PowerMapExperimentConfig};
pub use volumetric::{
    volumetric_test_suite, Volumetric, VolumetricExperiment, VolumetricExperimentConfig,
};

use crate::checkpoint::TrainingSnapshot;
use crate::DeepOHeatError;

/// The uniform training interface shared by all experiments, providing
/// everything the resilience layer ([`crate::resilience`] and
/// [`crate::checkpoint`]) needs: stepping, snapshot/restore, and the
/// learning-rate backoff knob.
pub trait Trainable {
    /// Runs one training step, returning the loss.
    ///
    /// # Errors
    ///
    /// Propagates graph/optimiser errors; reports
    /// [`DeepOHeatError::Diverged`] on a non-finite loss.
    fn train_step(&mut self) -> Result<f64, DeepOHeatError>;

    /// Training iterations completed so far.
    fn iterations_done(&self) -> usize;

    /// The learning rate the next step will use (schedule × backoff).
    fn learning_rate(&self) -> f64;

    /// The divergence-backoff multiplier currently applied on top of the
    /// schedule (1.0 until a recovery decays it).
    fn learning_rate_scale(&self) -> f64;

    /// Sets the divergence-backoff multiplier.
    fn set_learning_rate_scale(&mut self, scale: f64);

    /// Captures the full mutable training state.
    fn snapshot(&self) -> TrainingSnapshot;

    /// Restores a snapshot captured from a compatible experiment,
    /// rewinding model, optimiser, RNG and iteration counter so the
    /// trajectory replays bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InputMismatch`] if the snapshot's model
    /// does not fit this experiment and propagates optimiser-state
    /// mismatches.
    fn restore(&mut self, snapshot: &TrainingSnapshot) -> Result<(), DeepOHeatError>;

    /// Mutable access to the model, for fault injection and advanced
    /// surgery. Mutating weights invalidates the optimiser moments'
    /// correspondence; prefer [`Trainable::restore`] for state changes.
    fn model_mut(&mut self) -> &mut crate::DeepOHeat;

    /// Fault-injection hook: poisons one model weight with NaN so the next
    /// step's loss is non-finite. Deterministic; used by the resilience
    /// tests to exercise the divergence guard.
    fn inject_nan_parameter(&mut self) {
        use deepoheat_nn::Parameterized;
        if let Some(p) = self.model_mut().parameters_mut().into_iter().next() {
            if p.rows() > 0 && p.cols() > 0 {
                p[(0, 0)] = f64::NAN;
            }
        }
    }
}

/// How an experiment trains its operator network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingMode {
    /// The paper's self-supervised mode: minimise PDE + boundary residuals
    /// (Eq. 8–11), no solver data. Faithful but slow to converge — the
    /// paper budgets 10 V100-hours for §V.A.
    PhysicsInformed,
    /// Data-driven DeepONet regression (Lu et al. 2021, the paper's
    /// reference \[16\]): fit solver-generated fields directly. On this
    /// reproduction the reference solver is a fast finite-volume code, so
    /// the paper's "data collection is prohibitive" premise does not
    /// apply; this mode reaches Table-I-level accuracy in minutes on a
    /// CPU and doubles as the data-driven baseline.
    Supervised {
        /// Number of reference solves used to build the training set.
        dataset_size: usize,
    },
}

/// One logged entry of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingRecord {
    /// Zero-based iteration index.
    pub iteration: usize,
    /// Total physics loss at this iteration.
    pub loss: f64,
    /// Learning rate in effect at this iteration.
    pub learning_rate: f64,
}

/// Relative weights of the physics-loss terms in Eq. (11) of the paper
/// (the paper sums them unweighted; the weights allow ablations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossWeights {
    /// Weight of the interior PDE residual `ℒ_r`.
    pub pde: f64,
    /// Weight of the imposed-flux (power-map) residual.
    pub flux: f64,
    /// Weight of convection residuals.
    pub convection: f64,
    /// Weight of adiabatic residuals.
    pub adiabatic: f64,
}

impl Default for LossWeights {
    fn default() -> Self {
        LossWeights { pde: 1.0, flux: 1.0, convection: 1.0, adiabatic: 1.0 }
    }
}
