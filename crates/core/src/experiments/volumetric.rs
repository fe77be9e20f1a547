//! Extension experiment — *volumetric (3-D) power maps*.
//!
//! §III of the paper defines volumetric power maps as a first-class
//! configuration family ("if we consider a 3D power map, everything will
//! be exactly the same except it will be identified by its values on
//! three-dimensional equispaced grid points") and the conclusion names
//! optimising them as future work. This module realises that experiment:
//! a single-input DeepOHeat whose branch consumes a full 3-D power map in
//! paper units per node, trained against the reference solver
//! (supervised, the default here) or against the physics residuals with
//! per-point PDE sources.

use deepoheat_autodiff::{Activation, Graph};
use deepoheat_chip::{Chip, MeshPartition};
use deepoheat_fdm::{BoundaryCondition, Face, SolveOptions};
use deepoheat_grf::GaussianRandomField3;
use deepoheat_linalg::Matrix;
use deepoheat_nn::{Adam, AdamConfig, LrSchedule};
use deepoheat_telemetry as telemetry;
use rand::{Rng, SeedableRng};

use crate::checkpoint::{self, CheckpointError, TrainingSnapshot};
use crate::experiments::{
    check_snapshot_model, run_training_loop, LossWeights, SupervisedDataset, Trainable,
    TrainingMode, TrainingRecord, DATASET_SEED_SALT,
};
use crate::metrics::FieldErrors;
use crate::physics::{self, HtcInput, PhysicsScales, ResidualKind};
use crate::resilience::{self, ResilienceConfig, ResilienceError, ResilientReport};
use crate::{DeepOHeat, DeepOHeatConfig, DeepOHeatError, FourierConfig};

/// Configuration of the volumetric-power-map experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct VolumetricExperimentConfig {
    /// Grid (and branch-sensor) vertices along x.
    pub nx: usize,
    /// Grid vertices along y.
    pub ny: usize,
    /// Grid vertices along z.
    pub nz: usize,
    /// Footprint x extent in metres.
    pub lx: f64,
    /// Footprint y extent in metres.
    pub ly: f64,
    /// Chip thickness in metres.
    pub lz: f64,
    /// Isotropic conductivity.
    pub conductivity: f64,
    /// Heat-transfer coefficient on both the top and bottom surfaces.
    pub htc: f64,
    /// Ambient temperature.
    pub ambient: f64,
    /// 3-D GRF length scale for training maps (samples are rectified to
    /// be non-negative, i.e. heating only).
    pub grf_length_scale: f64,
    /// Branch hidden widths.
    pub branch_hidden: Vec<usize>,
    /// Trunk hidden widths.
    pub trunk_hidden: Vec<usize>,
    /// Optional Fourier trunk layer.
    pub fourier: Option<FourierConfig>,
    /// Latent feature width.
    pub latent_dim: usize,
    /// Hidden activation.
    pub activation: Activation,
    /// Temperature scale of the nondimensionalisation.
    pub delta_t: f64,
    /// Maps per training iteration.
    pub functions_per_batch: usize,
    /// Interior collocation points per iteration (physics) or target
    /// points per minibatch (supervised); `None` = all.
    pub interior_points: Option<usize>,
    /// Boundary collocation points per face per iteration.
    pub boundary_points: Option<usize>,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Loss-term weights (physics mode).
    pub loss_weights: LossWeights,
    /// Training mode; defaults to supervised (the volumetric source has
    /// the same curvature stiffness that limits §V.B's physics mode on
    /// CPU budgets — see DESIGN.md §4.0).
    pub mode: TrainingMode,
    /// RNG seed.
    pub seed: u64,
}

impl Default for VolumetricExperimentConfig {
    fn default() -> Self {
        VolumetricExperimentConfig {
            nx: 13,
            ny: 13,
            nz: 7,
            lx: 1e-3,
            ly: 1e-3,
            lz: 0.5e-3,
            conductivity: 0.1,
            htc: 500.0,
            ambient: 298.15,
            grf_length_scale: 0.4,
            branch_hidden: vec![128; 3],
            trunk_hidden: vec![64; 3],
            fourier: Some(FourierConfig { n_frequencies: 32, std: std::f64::consts::TAU }),
            latent_dim: 64,
            activation: Activation::Swish,
            delta_t: 10.0,
            functions_per_batch: 8,
            interior_points: Some(512),
            boundary_points: Some(96),
            schedule: LrSchedule::ExponentialDecay { initial: 1e-3, factor: 0.9, every: 250 },
            loss_weights: LossWeights { pde: 1.0, flux: 1.0, convection: 100.0, adiabatic: 10.0 },
            mode: TrainingMode::Supervised { dataset_size: 150 },
            seed: 0,
        }
    }
}

impl VolumetricExperimentConfig {
    /// Switches to the paper's physics-informed training (clears the
    /// supervised-unfriendly Fourier default — see DESIGN.md §4.0).
    pub fn physics_informed(mut self) -> Self {
        self.mode = TrainingMode::PhysicsInformed;
        self.fourier = None;
        self
    }
}

/// Deterministic 3-D test power maps of increasing complexity: cuboidal
/// heat blocks in paper units per node, flat x-fastest order.
///
/// # Examples
///
/// ```
/// use deepoheat::experiments::volumetric_test_suite;
/// let suite = volumetric_test_suite(13, 13, 7);
/// assert_eq!(suite.len(), 4);
/// assert_eq!(suite[0].1.len(), 13 * 13 * 7);
/// ```
pub fn volumetric_test_suite(nx: usize, ny: usize, nz: usize) -> Vec<(String, Vec<f64>)> {
    /// An axis-aligned powered block: x/y/z index ranges and its power.
    type Block = (std::ops::Range<usize>, std::ops::Range<usize>, std::ops::Range<usize>, f64);
    let idx = |i: usize, j: usize, k: usize| (k * ny + j) * nx + i;
    let mut suite = Vec::new();
    let mut push = |name: &str, blocks: &[Block]| {
        let mut map = vec![0.0; nx * ny * nz];
        for (xr, yr, zr, p) in blocks {
            for k in zr.clone() {
                for j in yr.clone() {
                    for i in xr.clone() {
                        map[idx(i.min(nx - 1), j.min(ny - 1), k.min(nz - 1))] += p;
                    }
                }
            }
        }
        suite.push((name.to_string(), map));
    };
    let (hx, hy, hz) = (nx / 2, ny / 2, nz / 2);
    // v1: one central cube.
    push("v1", &[(hx - 2..hx + 2, hy - 2..hy + 2, hz - 1..hz + 1, 1.0)]);
    // v2: a hot slab near the top (like a powered device layer).
    push("v2", &[(1..nx - 1, 1..ny - 1, nz - 2..nz - 1, 0.8)]);
    // v3: two stacked blocks at different heights (3D-IC tiers).
    push("v3", &[(1..hx, 1..hy, 1..2, 1.2), (hx + 1..nx - 1, hy + 1..ny - 1, nz - 2..nz - 1, 0.9)]);
    // v4: several small sources, one strong (the p10 analogue).
    push(
        "v4",
        &[
            (1..3, 1..3, 1..2, 1.0),
            (nx - 3..nx - 1, 1..3, hz..hz + 1, 1.0),
            (1..3, ny - 3..ny - 1, nz - 2..nz - 1, 1.0),
            (hx..hx + 2, hy..hy + 2, hz..hz + 1, 3.0),
        ],
    );
    suite
}

/// The volumetric-power-map experiment.
///
/// # Examples
///
/// ```no_run
/// use deepoheat::experiments::{volumetric_test_suite, VolumetricExperiment, VolumetricExperimentConfig};
///
/// let mut exp = VolumetricExperiment::new(VolumetricExperimentConfig::default())?;
/// exp.run(2000, 200, |r| eprintln!("iter {} loss {:.3e}", r.iteration, r.loss))?;
/// for (name, map) in volumetric_test_suite(13, 13, 7) {
///     let errors = exp.evaluate_units(&map)?;
///     println!("{name}: MAPE {:.3}% PAPE {:.3}%", errors.mape, errors.pape);
/// }
/// # Ok::<(), deepoheat::DeepOHeatError>(())
/// ```
#[derive(Debug)]
pub struct VolumetricExperiment {
    config: VolumetricExperimentConfig,
    chip: Chip,
    partition: MeshPartition,
    grf: GaussianRandomField3,
    model: DeepOHeat,
    adam: Adam,
    scales: PhysicsScales,
    coords: Matrix,
    rng: rand::rngs::StdRng,
    iteration: usize,
    dataset: Option<SupervisedDataset>,
}

impl VolumetricExperiment {
    /// Builds the experiment.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from any substrate.
    pub fn new(config: VolumetricExperimentConfig) -> Result<Self, DeepOHeatError> {
        let mut chip = Chip::single_cuboid(
            config.lx,
            config.ly,
            config.lz,
            config.nx,
            config.ny,
            config.nz,
            config.conductivity,
        )?;
        for face in [Face::ZMin, Face::ZMax] {
            chip.set_boundary(
                face,
                BoundaryCondition::Convection { htc: config.htc, ambient: config.ambient },
            )?;
        }
        let partition = MeshPartition::new(chip.grid());
        let grf = GaussianRandomField3::on_unit_grid(
            config.nx,
            config.ny,
            config.nz,
            config.grf_length_scale,
        )?;

        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let sensors = config.nx * config.ny * config.nz;
        let mut model_cfg = DeepOHeatConfig::single_branch(
            sensors,
            &config.branch_hidden,
            &config.trunk_hidden,
            config.latent_dim,
        )
        .with_output_transform(config.ambient, config.delta_t)
        .with_trunk_activation(config.activation);
        model_cfg.branches[0].activation = config.activation;
        model_cfg.fourier = config.fourier;
        let model = DeepOHeat::new(&model_cfg, &mut rng)?;

        let scales = PhysicsScales::new(
            config.conductivity,
            config.delta_t,
            [config.lx, config.ly, config.lz],
        )?;
        let coords = chip.grid().node_positions_normalized();
        let adam = Adam::new(AdamConfig::with_schedule(config.schedule));

        Ok(VolumetricExperiment {
            config,
            chip,
            partition,
            grf,
            model,
            adam,
            scales,
            coords,
            rng,
            iteration: 0,
            dataset: None,
        })
    }

    /// The experiment configuration.
    pub fn config(&self) -> &VolumetricExperimentConfig {
        &self.config
    }

    /// The chip under study.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The trained (or in-training) surrogate.
    pub fn model(&self) -> &DeepOHeat {
        &self.model
    }

    /// Number of training iterations performed so far.
    pub fn iterations_done(&self) -> usize {
        self.iteration
    }

    fn check_map(&self, units: &[f64]) -> Result<(), DeepOHeatError> {
        let expected = self.chip.grid().node_count();
        if units.len() != expected {
            return Err(DeepOHeatError::InputMismatch {
                what: format!("volumetric map has {} entries, expected {expected}", units.len()),
            });
        }
        Ok(())
    }

    /// Predicts the full-mesh temperature field for a volumetric map in
    /// paper units per node (flat x-fastest order).
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InputMismatch`] on a length mismatch.
    pub fn predict_field(&self, units: &[f64]) -> Result<Vec<f64>, DeepOHeatError> {
        let fields = self.predict_fields(std::slice::from_ref(&units))?;
        Ok(fields.into_iter().next().expect("invariant: one map in, one field out"))
    }

    /// Predicts the temperature fields for a batch of volumetric maps in
    /// one pass: the branch net runs once over all maps (one
    /// [`crate::BranchEmbedding`]) and the trunk once over the mesh.
    /// Bit-identical to calling [`VolumetricExperiment::predict_field`]
    /// per map.
    ///
    /// # Errors
    ///
    /// Returns [`DeepOHeatError::InputMismatch`] on a length mismatch.
    pub fn predict_fields(&self, maps: &[&[f64]]) -> Result<Vec<Vec<f64>>, DeepOHeatError> {
        for units in maps {
            self.check_map(units)?;
        }
        let sensors = self.chip.grid().node_count();
        let input = Matrix::from_fn(maps.len(), sensors, |i, j| maps[i][j]);
        let embedding = self.model.encode_branches(&[&input])?;
        let basis = self.model.trunk_basis(&self.coords, crate::DEFAULT_TRUNK_CHUNK, &|| false)?;
        let t = basis.combine(&embedding)?;
        Ok((0..maps.len()).map(|i| t.row(i).to_vec()).collect())
    }

    /// The normalized mesh coordinates every prediction is evaluated at
    /// (`n_points × 3`, flat node order).
    pub fn eval_coords(&self) -> &Matrix {
        &self.coords
    }

    /// Solves the same configuration with the reference solver.
    ///
    /// # Errors
    ///
    /// Propagates chip and solver errors.
    pub fn reference_field(&self, units: &[f64]) -> Result<Vec<f64>, DeepOHeatError> {
        self.check_map(units)?;
        let mut chip = self.chip.clone();
        chip.set_volumetric_power_units(units)?;
        Ok(chip.heat_problem()?.solve(SolveOptions::default())?.into_temperatures())
    }

    /// Compares surrogate and reference on one volumetric map.
    ///
    /// # Errors
    ///
    /// Propagates prediction and solver errors.
    pub fn evaluate_units(&self, units: &[f64]) -> Result<FieldErrors, DeepOHeatError> {
        let predicted = self.predict_field(units)?;
        let reference = self.reference_field(units)?;
        FieldErrors::compare(&predicted, &reference)
    }

    /// Runs one training step in the configured mode.
    ///
    /// # Errors
    ///
    /// Propagates graph/optimiser errors; reports
    /// [`DeepOHeatError::Diverged`] on a non-finite loss.
    pub fn train_step(&mut self) -> Result<f64, DeepOHeatError> {
        let _span = telemetry::span("train.step");
        match self.config.mode {
            TrainingMode::PhysicsInformed => self.physics_step(),
            TrainingMode::Supervised { dataset_size } => self.supervised_step(dataset_size),
        }
    }

    fn sample_map_batch(&mut self) -> Result<Matrix, DeepOHeatError> {
        let n = self.config.functions_per_batch;
        let sensors = self.chip.grid().node_count();
        let mut batch = Matrix::zeros(n, sensors);
        for f in 0..n {
            let sample = self.grf.sample_rectified(&mut self.rng)?;
            batch.row_mut(f).copy_from_slice(&sample);
        }
        Ok(batch)
    }

    fn subsample(&mut self, pool: &[usize], count: Option<usize>) -> Vec<usize> {
        match count {
            Some(c) if c < pool.len() => {
                (0..c).map(|_| pool[self.rng.gen_range(0..pool.len())]).collect()
            }
            _ => pool.to_vec(),
        }
    }

    fn physics_step(&mut self) -> Result<f64, DeepOHeatError> {
        let units = self.sample_map_batch()?;
        let interior_pool = self.partition.interior().to_vec();
        let interior = self.subsample(&interior_pool, self.config.interior_points);
        let top_pool = self.partition.face(Face::ZMax).to_vec();
        let top = self.subsample(&top_pool, self.config.boundary_points);
        let bottom_pool = self.partition.face(Face::ZMin).to_vec();
        let bottom = self.subsample(&bottom_pool, self.config.boundary_points);
        let mut x_pool = self.partition.face(Face::XMin).to_vec();
        x_pool.extend_from_slice(self.partition.face(Face::XMax));
        let x_sides = self.subsample(&x_pool, self.config.boundary_points.map(|c| 2 * c));
        let mut y_pool = self.partition.face(Face::YMin).to_vec();
        y_pool.extend_from_slice(self.partition.face(Face::YMax));
        let y_sides = self.subsample(&y_pool, self.config.boundary_points.map(|c| 2 * c));

        // Per-function, per-point volumetric sources at the sampled nodes.
        let density = self.chip.unit_volumetric_density();
        let source =
            Matrix::from_fn(units.rows(), interior.len(), |f, p| units[(f, interior[p])] * density);
        let source_scale = (density * self.scales.source_coefficient()).max(1.0);

        let weights = self.config.loss_weights;
        let mut graph = Graph::new();
        let bound = self.model.bind(&mut graph);
        let branch = bound.branch_product(&mut graph, &[units])?;

        let rows = self.coords.select_rows(&interior);
        let t_jet = bound.residual_jet(&mut graph, branch, &rows, ResidualKind::Pde)?;
        let r = physics::pde_residual(&mut graph, &t_jet, &self.scales, Some(&source))?;
        let l_pde = graph.mean_square(r)?;

        let mut terms = Vec::new();
        for (nodes, face) in [(&top, Face::ZMax), (&bottom, Face::ZMin)] {
            let rows = self.coords.select_rows(nodes);
            let t_jet = bound.residual_jet(&mut graph, branch, &rows, ResidualKind::Face(face))?;
            let r = physics::convection_residual(
                &mut graph,
                &t_jet,
                face,
                &self.scales,
                &HtcInput::Uniform(self.config.htc),
            )?;
            terms.push((graph.mean_square(r)?, weights.convection));
        }
        for (nodes, face) in [(&x_sides, Face::XMin), (&y_sides, Face::YMin)] {
            let rows = self.coords.select_rows(nodes);
            let t_jet = bound.residual_jet(&mut graph, branch, &rows, ResidualKind::Face(face))?;
            let r = physics::adiabatic_residual(&mut graph, &t_jet, face)?;
            terms.push((graph.mean_square(r)?, weights.adiabatic));
        }

        let mut total = graph.scale(l_pde, weights.pde / (source_scale * source_scale))?;
        let term_nodes: Vec<_> = terms.iter().map(|(t, _)| *t).collect();
        for (term, w) in terms {
            let scaled = graph.scale(term, w)?;
            total = graph.add(total, scaled)?;
        }

        let loss = graph.scalar(total);
        if !loss.is_finite() {
            return Err(DeepOHeatError::Diverged { iteration: self.iteration });
        }
        if telemetry::is_enabled() {
            // term_nodes order follows the construction above: convection
            // top/bottom, then the adiabatic x/y sides.
            telemetry::event(
                "train.step",
                &[
                    ("iteration", self.iteration.into()),
                    ("loss", loss.into()),
                    ("l_pde", graph.scalar(l_pde).into()),
                    ("l_conv_top", graph.scalar(term_nodes[0]).into()),
                    ("l_conv_bottom", graph.scalar(term_nodes[1]).into()),
                    ("l_adia_x", graph.scalar(term_nodes[2]).into()),
                    ("l_adia_y", graph.scalar(term_nodes[3]).into()),
                ],
            );
        }
        let grads = graph.backward(total)?;
        self.adam.step_model(&mut self.model, &bound, &grads)?;
        self.iteration += 1;
        telemetry::counter("train.steps.count", 1);
        Ok(loss)
    }

    fn ensure_dataset(&mut self, dataset_size: usize) -> Result<(), DeepOHeatError> {
        if self.dataset.is_some() {
            return Ok(());
        }
        if dataset_size == 0 {
            return Err(DeepOHeatError::InvalidConfig {
                what: "supervised mode needs a non-empty dataset".into(),
            });
        }
        // A dedicated RNG keeps dataset construction off the training
        // stream, so a resumed run rebuilds the identical dataset without
        // perturbing the checkpointed RNG state.
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed ^ DATASET_SEED_SALT);
        let sensors = self.chip.grid().node_count();
        let mut inputs = Matrix::zeros(dataset_size, sensors);
        let mut targets = Matrix::zeros(dataset_size, sensors);
        for s in 0..dataset_size {
            let sample = self.grf.sample_rectified(&mut rng)?;
            inputs.row_mut(s).copy_from_slice(&sample);
            let field = self.reference_field(&sample)?;
            for (t, f) in targets.row_mut(s).iter_mut().zip(&field) {
                *t = (f - self.config.ambient) / self.config.delta_t;
            }
        }
        self.dataset = Some(SupervisedDataset { inputs: vec![inputs], targets });
        Ok(())
    }

    fn supervised_step(&mut self, dataset_size: usize) -> Result<f64, DeepOHeatError> {
        self.ensure_dataset(dataset_size)?;
        let n_funcs = self.config.functions_per_batch;
        let n_points = self.config.interior_points.unwrap_or(self.chip.grid().node_count());
        let dataset =
            self.dataset.as_ref().expect("invariant: ensure_dataset ran at the top of this method");
        let (inputs, cols, targets) = dataset.minibatch(n_funcs, n_points, &mut self.rng);

        let mut graph = Graph::new();
        let bound = self.model.bind(&mut graph);
        let branch = bound.branch_product(&mut graph, &inputs)?;
        let phi = bound.trunk_features(&mut graph, &self.coords.select_rows(&cols))?;
        let theta = bound.combine(&mut graph, branch, phi)?;
        let target_leaf = graph.leaf(targets, false);
        let total = graph.mse(theta, target_leaf)?;

        let loss = graph.scalar(total);
        if !loss.is_finite() {
            return Err(DeepOHeatError::Diverged { iteration: self.iteration });
        }
        if telemetry::is_enabled() {
            telemetry::event(
                "train.step",
                &[
                    ("iteration", self.iteration.into()),
                    ("loss", loss.into()),
                    ("l_mse", loss.into()),
                ],
            );
        }
        let grads = graph.backward(total)?;
        self.adam.step_model(&mut self.model, &bound, &grads)?;
        self.iteration += 1;
        telemetry::counter("train.steps.count", 1);
        Ok(loss)
    }

    /// Trains for `iterations` steps, logging every `log_every`.
    ///
    /// # Errors
    ///
    /// Propagates training-step errors.
    pub fn run<F>(
        &mut self,
        iterations: usize,
        log_every: usize,
        progress: F,
    ) -> Result<Vec<TrainingRecord>, DeepOHeatError>
    where
        F: FnMut(&TrainingRecord),
    {
        run_training_loop(self, iterations, log_every, progress)
    }

    /// Trains under the divergence guard and checkpoint cadence of
    /// [`crate::resilience::run_resilient`].
    ///
    /// # Errors
    ///
    /// As [`crate::resilience::run_resilient`].
    pub fn run_with_checkpoints<F>(
        &mut self,
        iterations: usize,
        log_every: usize,
        config: &ResilienceConfig,
        progress: F,
    ) -> Result<ResilientReport, ResilienceError>
    where
        F: FnMut(&TrainingRecord),
    {
        resilience::run_resilient(self, iterations, log_every, config, progress)
    }

    /// Writes the current training state to `path` (atomically).
    ///
    /// # Errors
    ///
    /// As [`checkpoint::save_to_path`].
    pub fn save_checkpoint<P: AsRef<std::path::Path>>(
        &self,
        path: P,
    ) -> Result<(), CheckpointError> {
        checkpoint::save_to_path(&Trainable::snapshot(self), path)
    }

    /// Restores training state from a checkpoint file, returning the
    /// iteration the run resumes from. The subsequent trajectory is
    /// bit-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// As [`checkpoint::load_from_path`], plus a
    /// [`CheckpointError::Model`] when the checkpointed state does not fit
    /// this experiment.
    pub fn resume_from<P: AsRef<std::path::Path>>(
        &mut self,
        path: P,
    ) -> Result<usize, CheckpointError> {
        let snapshot = checkpoint::load_from_path(path)?;
        Trainable::restore(self, &snapshot)
            .map_err(|e| CheckpointError::Model(crate::model_io::ModelIoError::Model(e)))?;
        Ok(snapshot.iteration)
    }
}

impl Trainable for VolumetricExperiment {
    fn train_step(&mut self) -> Result<f64, DeepOHeatError> {
        VolumetricExperiment::train_step(self)
    }

    fn iterations_done(&self) -> usize {
        self.iteration
    }

    fn learning_rate(&self) -> f64 {
        self.adam.current_learning_rate()
    }

    fn learning_rate_scale(&self) -> f64 {
        self.adam.learning_rate_scale()
    }

    fn set_learning_rate_scale(&mut self, scale: f64) {
        self.adam.set_learning_rate_scale(scale);
    }

    fn snapshot(&self) -> TrainingSnapshot {
        TrainingSnapshot {
            model: self.model.clone(),
            adam: self.adam.export_state(),
            rng: self.rng.state(),
            iteration: self.iteration,
        }
    }

    fn restore(&mut self, snapshot: &TrainingSnapshot) -> Result<(), DeepOHeatError> {
        check_snapshot_model(&self.model, snapshot)?;
        self.adam.import_state(snapshot.adam.clone())?;
        self.model = snapshot.model.clone();
        self.rng = rand::rngs::StdRng::from_state(snapshot.rng);
        self.iteration = snapshot.iteration;
        Ok(())
    }

    fn model_mut(&mut self) -> &mut DeepOHeat {
        &mut self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> VolumetricExperimentConfig {
        VolumetricExperimentConfig {
            nx: 7,
            ny: 7,
            nz: 5,
            branch_hidden: vec![32, 32],
            trunk_hidden: vec![24, 24],
            fourier: None,
            latent_dim: 16,
            functions_per_batch: 4,
            interior_points: Some(96),
            boundary_points: Some(32),
            seed: 2,
            ..Default::default()
        }
    }

    #[test]
    fn construction_and_shapes() {
        let exp = VolumetricExperiment::new(tiny_config()).unwrap();
        assert_eq!(exp.model().branch_input_dim(0), 7 * 7 * 5);
        let map = vec![0.5; 7 * 7 * 5];
        assert_eq!(exp.predict_field(&map).unwrap().len(), 245);
        assert!(exp.predict_field(&[1.0]).is_err());
    }

    #[test]
    fn reference_field_heats_where_the_map_says() {
        let exp = VolumetricExperiment::new(tiny_config()).unwrap();
        let grid = *exp.chip().grid();
        let mut map = vec![0.0; grid.node_count()];
        map[grid.index(3, 3, 2)] = 2.0; // a point source mid-chip
        let field = exp.reference_field(&map).unwrap();
        let hottest =
            (0..grid.node_count()).max_by(|&a, &b| field[a].total_cmp(&field[b])).unwrap();
        assert_eq!(grid.coordinates(hottest), (3, 3, 2));
        assert!(field[hottest] > 298.15);
    }

    #[test]
    fn supervised_training_reduces_loss() {
        let mut cfg = tiny_config();
        cfg.mode = TrainingMode::Supervised { dataset_size: 10 };
        let mut exp = VolumetricExperiment::new(cfg).unwrap();
        let losses: Vec<f64> = (0..40).map(|_| exp.train_step().unwrap()).collect();
        let early: f64 = losses[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = losses[35..].iter().sum::<f64>() / 5.0;
        assert!(late < 0.5 * early, "{early} -> {late}");
    }

    #[test]
    fn physics_training_runs_and_stays_finite() {
        let cfg = tiny_config().physics_informed();
        let mut exp = VolumetricExperiment::new(cfg).unwrap();
        for _ in 0..10 {
            assert!(exp.train_step().unwrap().is_finite());
        }
        assert_eq!(exp.iterations_done(), 10);
    }

    #[test]
    fn test_suite_layouts_are_well_formed() {
        let suite = volumetric_test_suite(13, 13, 7);
        assert_eq!(suite.len(), 4);
        for (name, map) in &suite {
            assert_eq!(map.len(), 13 * 13 * 7, "{name}");
            assert!(map.iter().all(|&v| v >= 0.0), "{name}");
            assert!(map.iter().sum::<f64>() > 0.0, "{name}");
        }
        // v4 has the strongest single source.
        let peak = |m: &Vec<f64>| m.iter().copied().fold(0.0f64, f64::max);
        assert!(peak(&suite[3].1) >= 3.0);
    }

    #[test]
    fn evaluation_is_wired_up() {
        let exp = VolumetricExperiment::new(tiny_config()).unwrap();
        for (name, map) in volumetric_test_suite(7, 7, 5) {
            let errors = exp.evaluate_units(&map).unwrap();
            assert!(errors.mape.is_finite(), "{name}");
        }
    }
}
