//! §V.B — heat-transfer-coefficient configurations on both the top and
//! bottom surfaces.
//!
//! A dual-input DeepOHeat learns the joint dependence of the temperature
//! field on the top and bottom HTCs of a 1 mm × 1 mm × 0.55 mm chip whose
//! 0.05 mm middle layer dissipates 0.625 mW. Each training iteration
//! samples HTC pairs uniformly from `[333.33, 1000]²` and draws fresh
//! random collocation points (the paper's mesh-free style); the sides are
//! adiabatic and `k = 0.1 W/mK`, `T_amb = 298.15 K` as in §V.A.

use deepoheat_autodiff::{Activation, Graph};
use deepoheat_chip::{sample_face_points, sample_volume_points, Chip, Layer};
use deepoheat_fdm::{BoundaryCondition, Face, SolveOptions};
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
use crate::physics::{self, HtcInput, PhysicsScales};
use crate::resilience::{self, ResilienceConfig, ResilienceError, ResilientReport};
use crate::{DeepOHeat, DeepOHeatConfig, DeepOHeatError, FourierConfig};

/// Normalisation constant for HTC branch inputs: coefficients are divided
/// by this before entering the branch nets so the inputs sit in
/// `[0.33, 1.0]`.
pub const HTC_INPUT_SCALE: f64 = 1000.0;

/// Configuration of the §V.B experiment. `Default` gives CPU-friendly
/// scaled-down settings; [`HtcExperimentConfig::paper`] gives the paper's.
#[derive(Debug, Clone, PartialEq)]
pub struct HtcExperimentConfig {
    /// Footprint x extent (paper: 1 mm).
    pub lx: f64,
    /// Footprint y extent (paper: 1 mm).
    pub ly: f64,
    /// Passive layer thickness below the power layer (0.25 mm).
    pub bottom_thickness: f64,
    /// Power-layer thickness (paper: 0.05 mm).
    pub power_thickness: f64,
    /// Passive layer thickness above the power layer (0.25 mm).
    pub top_thickness: f64,
    /// Total dissipated power of the middle layer (paper: 0.625 mW).
    pub total_power: f64,
    /// Isotropic conductivity (paper: 0.1 W/mK).
    pub conductivity: f64,
    /// Ambient temperature (paper: 298.15 K).
    pub ambient: f64,
    /// HTC sampling range for both surfaces (paper: `[333.33, 1000]`).
    pub htc_range: (f64, f64),
    /// Reference-grid vertices along x/y for evaluation solves.
    pub nx: usize,
    /// Reference-grid vertices along z.
    pub nz: usize,
    /// Hidden widths of each HTC branch (paper: 4 × 20).
    pub branch_hidden: Vec<usize>,
    /// Trunk hidden widths (paper: 5 × 128 behind the Fourier layer).
    pub trunk_hidden: Vec<usize>,
    /// Fourier layer (paper: std π).
    pub fourier: Option<FourierConfig>,
    /// Latent feature width (paper: 50).
    pub latent_dim: usize,
    /// Hidden activation.
    pub activation: Activation,
    /// Temperature scale of the nondimensionalisation.
    pub delta_t: f64,
    /// HTC pairs sampled per iteration (paper: 20).
    pub functions_per_batch: usize,
    /// Random interior points per iteration.
    pub volume_points: usize,
    /// Extra interior points stratified into the thin power layer per
    /// iteration (the layer is <10% of the volume, so uniform sampling
    /// alone starves the source region of collocation points).
    pub power_layer_points: usize,
    /// Random points per face per iteration.
    pub face_points: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// Loss-term weights.
    pub loss_weights: LossWeights,
    /// Physics-informed (paper) or supervised (data-driven baseline)
    /// training.
    pub mode: TrainingMode,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HtcExperimentConfig {
    /// Scaled-down settings (see DESIGN.md §7).
    fn default() -> Self {
        HtcExperimentConfig {
            lx: 1e-3,
            ly: 1e-3,
            bottom_thickness: 0.25e-3,
            power_thickness: 0.05e-3,
            top_thickness: 0.25e-3,
            total_power: 0.000625,
            conductivity: 0.1,
            ambient: 298.15,
            htc_range: (333.33, 1000.0),
            nx: 21,
            nz: 12,
            branch_hidden: vec![16; 3],
            trunk_hidden: vec![64; 3],
            // Plain trunk by default — see the power-map experiment's note
            // on Fourier-features conditioning.
            fourier: None,
            latent_dim: 48,
            activation: Activation::Swish,
            delta_t: 1.0,
            functions_per_batch: 8,
            volume_points: 512,
            power_layer_points: 256,
            face_points: 96,
            schedule: LrSchedule::ExponentialDecay { initial: 1e-3, factor: 0.9, every: 250 },
            loss_weights: LossWeights { pde: 1.0, flux: 1.0, convection: 20.0, adiabatic: 5.0 },
            mode: TrainingMode::PhysicsInformed,
            seed: 0,
        }
    }
}

impl HtcExperimentConfig {
    /// The paper's full-scale §V.B settings (5000 iterations of 20 HTC
    /// pairs over 7000 random points; ~2 GPU-hours in the paper).
    pub fn paper() -> Self {
        HtcExperimentConfig {
            branch_hidden: vec![20; 4],
            trunk_hidden: vec![128; 5],
            fourier: Some(FourierConfig { n_frequencies: 64, std: std::f64::consts::PI }),
            latent_dim: 50,
            functions_per_batch: 20,
            volume_points: 5000,
            power_layer_points: 1000,
            face_points: 350,
            schedule: LrSchedule::paper_default(),
            loss_weights: LossWeights::default(),
            ..Default::default()
        }
    }

    /// Switches to supervised (data-driven) training with `dataset_size`
    /// reference solves.
    pub fn supervised(mut self, dataset_size: usize) -> Self {
        self.mode = TrainingMode::Supervised { dataset_size };
        self
    }

    /// Total stack thickness.
    pub fn lz(&self) -> f64 {
        self.bottom_thickness + self.power_thickness + self.top_thickness
    }

    /// Normalized z bounds `[z0, z1]` of the power layer.
    pub fn power_layer_bounds(&self) -> (f64, f64) {
        let lz = self.lz();
        (self.bottom_thickness / lz, (self.bottom_thickness + self.power_thickness) / lz)
    }

    /// The volumetric power density (`W/m³`) inside the power layer.
    pub fn power_density(&self) -> f64 {
        self.total_power / (self.lx * self.ly * self.power_thickness)
    }
}

/// The §V.B experiment: dual-input DeepOHeat over the HTC square.
///
/// # Examples
///
/// ```no_run
/// use deepoheat::experiments::{HtcExperiment, HtcExperimentConfig};
///
/// let mut exp = HtcExperiment::new(HtcExperimentConfig::default())?;
/// exp.run(1000, 100, |r| eprintln!("iter {} loss {:.3e}", r.iteration, r.loss))?;
/// // The paper's two test cases.
/// for (top, bottom) in [(1000.0, 333.33), (500.0, 500.0)] {
///     let errors = exp.evaluate(top, bottom)?;
///     println!("({top}, {bottom}): MAPE {:.3}% PAPE {:.3}%", errors.mape, errors.pape);
/// }
/// # Ok::<(), deepoheat::DeepOHeatError>(())
/// ```
#[derive(Debug)]
pub struct HtcExperiment {
    config: HtcExperimentConfig,
    model: DeepOHeat,
    adam: Adam,
    scales: PhysicsScales,
    rng: rand::rngs::StdRng,
    iteration: usize,
    eval_coords: Matrix,
    dataset: Option<SupervisedDataset>,
}

impl HtcExperiment {
    /// Builds the experiment with a freshly initialised dual-branch model.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn new(config: HtcExperimentConfig) -> Result<Self, DeepOHeatError> {
        let (lo, hi) = config.htc_range;
        if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo < hi) {
            return Err(DeepOHeatError::InvalidConfig {
                what: format!("htc range must satisfy 0 < lo < hi, got ({lo}, {hi})"),
            });
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let mut model_cfg = DeepOHeatConfig::single_branch(
            1,
            &config.branch_hidden,
            &config.trunk_hidden,
            config.latent_dim,
        )
        .add_branch(1, &config.branch_hidden)
        .with_output_transform(config.ambient, config.delta_t)
        .with_trunk_activation(config.activation);
        model_cfg.branches[0].activation = config.activation;
        model_cfg.branches[1].activation = config.activation;
        model_cfg.fourier = config.fourier;
        let model = DeepOHeat::new(&model_cfg, &mut rng)?;
        let scales = PhysicsScales::new(
            config.conductivity,
            config.delta_t,
            [config.lx, config.ly, config.lz()],
        )?;
        let adam = Adam::new(AdamConfig::with_schedule(config.schedule));
        let mut exp = HtcExperiment {
            config,
            model,
            adam,
            scales,
            rng,
            iteration: 0,
            eval_coords: Matrix::zeros(1, 3),
            dataset: None,
        };
        exp.eval_coords = exp.reference_chip(500.0, 500.0)?.grid().node_positions_normalized();
        Ok(exp)
    }

    /// The experiment configuration.
    pub fn config(&self) -> &HtcExperimentConfig {
        &self.config
    }

    /// The trained (or in-training) surrogate.
    pub fn model(&self) -> &DeepOHeat {
        &self.model
    }

    /// Number of training iterations performed so far.
    pub fn iterations_done(&self) -> usize {
        self.iteration
    }

    /// Builds the nondimensional PDE source row for a set of normalized
    /// points: the power-layer density where `z` falls inside the layer,
    /// zero elsewhere (shared by every configuration in the batch).
    fn source_row(&self, points: &Matrix) -> Matrix {
        let (z0, z1) = self.config.power_layer_bounds();
        let density = self.config.power_density();
        Matrix::from_fn(1, points.rows(), |_, p| {
            let z = points[(p, 2)];
            if (z0..=z1).contains(&z) {
                density
            } else {
                0.0
            }
        })
    }

    /// Runs one training step in the configured [`TrainingMode`],
    /// returning the loss.
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

    /// Builds the supervised dataset on first use: `dataset_size` HTC
    /// pairs solved by the reference solver, targets stored as θ fields.
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
        let (lo, hi) = self.config.htc_range;
        let mut top = Matrix::zeros(dataset_size, 1);
        let mut bottom = Matrix::zeros(dataset_size, 1);
        let mut targets = Matrix::zeros(dataset_size, self.eval_coords.rows());
        for s in 0..dataset_size {
            let ht = rng.gen_range(lo..=hi);
            let hb = rng.gen_range(lo..=hi);
            top[(s, 0)] = ht / HTC_INPUT_SCALE;
            bottom[(s, 0)] = hb / HTC_INPUT_SCALE;
            let field = self.reference_field(ht, hb)?;
            for (t, f) in targets.row_mut(s).iter_mut().zip(&field) {
                *t = (f - self.config.ambient) / self.config.delta_t;
            }
        }
        self.dataset = Some(SupervisedDataset { inputs: vec![top, bottom], targets });
        Ok(())
    }

    /// One data-driven step: MSE against reference θ fields on a
    /// minibatch of HTC pairs × points.
    fn supervised_step(&mut self, dataset_size: usize) -> Result<f64, DeepOHeatError> {
        self.ensure_dataset(dataset_size)?;
        let n_funcs = self.config.functions_per_batch;
        let n_points = self.config.volume_points;
        let dataset =
            self.dataset.as_ref().expect("invariant: ensure_dataset ran at the top of this method");
        let (inputs, cols, targets) = dataset.minibatch(n_funcs, n_points, &mut self.rng);

        let mut graph = Graph::new();
        let bound = self.model.bind(&mut graph);
        let branch = bound.branch_product(&mut graph, &inputs)?;
        let phi = bound.trunk_features(&mut graph, &self.eval_coords.select_rows(&cols))?;
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

    /// One self-supervised step on the physics residuals.
    fn physics_step(&mut self) -> Result<f64, DeepOHeatError> {
        let n = self.config.functions_per_batch;
        let (lo, hi) = self.config.htc_range;
        let htc_top = Matrix::from_fn(n, 1, |_, _| self.rng.gen_range(lo..=hi));
        let htc_bottom = Matrix::from_fn(n, 1, |_, _| self.rng.gen_range(lo..=hi));

        let mut volume = sample_volume_points(self.config.volume_points, &mut self.rng);
        if self.config.power_layer_points > 0 {
            let (z0, z1) = self.config.power_layer_bounds();
            let layer_pts = Matrix::from_fn(self.config.power_layer_points, 3, |_, c| {
                if c == 2 {
                    self.rng.gen_range(z0..=z1)
                } else {
                    self.rng.gen_range(0.0..=1.0)
                }
            });
            volume = volume.vcat(&layer_pts)?;
        }
        let top_pts = sample_face_points(Face::ZMax, self.config.face_points, &mut self.rng);
        let bottom_pts = sample_face_points(Face::ZMin, self.config.face_points, &mut self.rng);
        let mut x_sides =
            sample_face_points(Face::XMin, self.config.face_points / 2 + 1, &mut self.rng);
        x_sides = x_sides.vcat(&sample_face_points(
            Face::XMax,
            self.config.face_points / 2 + 1,
            &mut self.rng,
        ))?;
        let mut y_sides =
            sample_face_points(Face::YMin, self.config.face_points / 2 + 1, &mut self.rng);
        y_sides = y_sides.vcat(&sample_face_points(
            Face::YMax,
            self.config.face_points / 2 + 1,
            &mut self.rng,
        ))?;

        // Replicate the shared source row across the batch.
        let source_row = self.source_row(&volume);
        let source = Matrix::from_fn(n, volume.rows(), |_, p| source_row[(0, p)]);

        let weights = self.config.loss_weights;
        let mut graph = Graph::new();
        let bound = self.model.bind(&mut graph);
        let branch = bound.branch_product(
            &mut graph,
            &[htc_top.scaled(1.0 / HTC_INPUT_SCALE), htc_bottom.scaled(1.0 / HTC_INPUT_SCALE)],
        )?;

        // Interior PDE with the layered source.
        let jet = bound.trunk_jet(&mut graph, &volume)?;
        let t_jet = bound.combine_jet(&mut graph, branch, &jet)?;
        let r = physics::pde_residual(&mut graph, &t_jet, &self.scales, Some(&source))?;
        let l_pde = graph.mean_square(r)?;

        // Convection with per-configuration coefficients, top and bottom.
        let jet = bound.trunk_jet(&mut graph, &top_pts)?;
        let t_jet = bound.combine_jet(&mut graph, branch, &jet)?;
        let r = physics::convection_residual(
            &mut graph,
            &t_jet,
            Face::ZMax,
            &self.scales,
            &HtcInput::PerConfiguration(htc_top.clone()),
        )?;
        let l_top = graph.mean_square(r)?;

        let jet = bound.trunk_jet(&mut graph, &bottom_pts)?;
        let t_jet = bound.combine_jet(&mut graph, branch, &jet)?;
        let r = physics::convection_residual(
            &mut graph,
            &t_jet,
            Face::ZMin,
            &self.scales,
            &HtcInput::PerConfiguration(htc_bottom.clone()),
        )?;
        let l_bottom = graph.mean_square(r)?;

        // Adiabatic sides.
        let jet = bound.trunk_jet(&mut graph, &x_sides)?;
        let t_jet = bound.combine_jet(&mut graph, branch, &jet)?;
        let r = physics::adiabatic_residual(&mut graph, &t_jet, Face::XMin)?;
        let l_adia_x = graph.mean_square(r)?;

        let jet = bound.trunk_jet(&mut graph, &y_sides)?;
        let t_jet = bound.combine_jet(&mut graph, branch, &jet)?;
        let r = physics::adiabatic_residual(&mut graph, &t_jet, Face::YMin)?;
        let l_adia_y = graph.mean_square(r)?;

        // The nondimensional source is O(100) for the paper's power
        // density; normalising the PDE term by its square keeps the five
        // loss terms comparably scaled so none is ignored early on.
        let source_scale =
            (self.config.power_density() * self.scales.source_coefficient()).max(1.0);
        let mut total = graph.scale(l_pde, weights.pde / (source_scale * source_scale))?;
        for (term, w) in [
            (l_top, weights.convection),
            (l_bottom, weights.convection),
            (l_adia_x, weights.adiabatic),
            (l_adia_y, weights.adiabatic),
        ] {
            let scaled = graph.scale(term, w)?;
            total = graph.add(total, scaled)?;
        }

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
                    ("l_pde", graph.scalar(l_pde).into()),
                    ("l_top", graph.scalar(l_top).into()),
                    ("l_bottom", graph.scalar(l_bottom).into()),
                    ("l_adia_x", graph.scalar(l_adia_x).into()),
                    ("l_adia_y", graph.scalar(l_adia_y).into()),
                ],
            );
        }
        let grads = graph.backward(total)?;
        self.adam.step_model(&mut self.model, &bound, &grads)?;
        self.iteration += 1;
        telemetry::counter("train.steps.count", 1);
        Ok(loss)
    }

    /// Trains for `iterations` steps, logging every `log_every` steps.
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

    /// Builds the reference chip for a `(htc_top, htc_bottom)` pair.
    ///
    /// # Errors
    ///
    /// Propagates chip construction errors.
    pub fn reference_chip(&self, htc_top: f64, htc_bottom: f64) -> Result<Chip, DeepOHeatError> {
        let c = &self.config;
        let footprint = c.lx * c.ly;
        let layers = vec![
            Layer::new(c.bottom_thickness, c.conductivity)?,
            Layer::with_total_power(c.power_thickness, c.conductivity, c.total_power, footprint)?,
            Layer::new(c.top_thickness, c.conductivity)?,
        ];
        let mut chip = Chip::new(c.lx, c.ly, c.nx, c.nx, c.nz, layers)?;
        chip.set_boundary(
            Face::ZMax,
            BoundaryCondition::Convection { htc: htc_top, ambient: c.ambient },
        )?;
        chip.set_boundary(
            Face::ZMin,
            BoundaryCondition::Convection { htc: htc_bottom, ambient: c.ambient },
        )?;
        Ok(chip)
    }

    /// Predicts the temperature field (Kelvin) at the reference grid's
    /// nodes for one HTC pair.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn predict_field(&self, htc_top: f64, htc_bottom: f64) -> Result<Vec<f64>, DeepOHeatError> {
        let fields = self.predict_fields(&[(htc_top, htc_bottom)])?;
        Ok(fields.into_iter().next().expect("invariant: one pair in, one field out"))
    }

    /// Predicts the temperature fields for a batch of `(htc_top,
    /// htc_bottom)` pairs in one pass: both branch nets run once over all
    /// pairs (one [`crate::BranchEmbedding`]) and the trunk once over the
    /// grid — the HTC pairs share the geometry, so the coordinates are
    /// encoded once at construction instead of per call. Bit-identical to
    /// calling [`HtcExperiment::predict_field`] per pair.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn predict_fields(&self, pairs: &[(f64, f64)]) -> Result<Vec<Vec<f64>>, DeepOHeatError> {
        let u1 = Matrix::from_fn(pairs.len(), 1, |i, _| pairs[i].0 / HTC_INPUT_SCALE);
        let u2 = Matrix::from_fn(pairs.len(), 1, |i, _| pairs[i].1 / HTC_INPUT_SCALE);
        let embedding = self.model.encode_branches(&[&u1, &u2])?;
        let basis =
            self.model.trunk_basis(&self.eval_coords, crate::DEFAULT_TRUNK_CHUNK, &|| false)?;
        let t = basis.combine(&embedding)?;
        Ok((0..pairs.len()).map(|i| t.row(i).to_vec()).collect())
    }

    /// The normalized grid coordinates every prediction is evaluated at
    /// (`n_points × 3`, flat node order).
    pub fn eval_coords(&self) -> &Matrix {
        &self.eval_coords
    }

    /// Solves one HTC pair with the reference solver.
    ///
    /// # Errors
    ///
    /// Propagates chip and solver errors.
    pub fn reference_field(
        &self,
        htc_top: f64,
        htc_bottom: f64,
    ) -> Result<Vec<f64>, DeepOHeatError> {
        let chip = self.reference_chip(htc_top, htc_bottom)?;
        let solution = chip.heat_problem()?.solve(SolveOptions::default())?;
        Ok(solution.into_temperatures())
    }

    /// Compares surrogate and reference for one HTC pair (the Fig. 5
    /// metrics).
    ///
    /// # Errors
    ///
    /// Propagates prediction and solver errors.
    pub fn evaluate(&self, htc_top: f64, htc_bottom: f64) -> Result<FieldErrors, DeepOHeatError> {
        let predicted = self.predict_field(htc_top, htc_bottom)?;
        let reference = self.reference_field(htc_top, htc_bottom)?;
        FieldErrors::compare(&predicted, &reference)
    }
}

impl Trainable for HtcExperiment {
    fn train_step(&mut self) -> Result<f64, DeepOHeatError> {
        HtcExperiment::train_step(self)
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

    fn tiny_config() -> HtcExperimentConfig {
        HtcExperimentConfig {
            nx: 9,
            nz: 12,
            branch_hidden: vec![8, 8],
            trunk_hidden: vec![24, 24],
            fourier: Some(FourierConfig { n_frequencies: 8, std: std::f64::consts::PI }),
            latent_dim: 16,
            functions_per_batch: 4,
            volume_points: 96,
            power_layer_points: 48,
            face_points: 24,
            seed: 3,
            ..Default::default()
        }
    }

    #[test]
    fn construction_and_geometry() {
        let exp = HtcExperiment::new(tiny_config()).unwrap();
        assert_eq!(exp.model().branch_count(), 2);
        let (z0, z1) = exp.config().power_layer_bounds();
        assert!((z0 - 0.25 / 0.55).abs() < 1e-12);
        assert!((z1 - 0.30 / 0.55).abs() < 1e-12);
        assert!((exp.config().power_density() - 1.25e7).abs() < 1.0);
    }

    #[test]
    fn rejects_bad_htc_range() {
        let mut cfg = tiny_config();
        cfg.htc_range = (1000.0, 333.0);
        assert!(HtcExperiment::new(cfg).is_err());
        let mut cfg = tiny_config();
        cfg.htc_range = (0.0, 10.0);
        assert!(HtcExperiment::new(cfg).is_err());
    }

    #[test]
    fn source_row_respects_layer_bounds() {
        let exp = HtcExperiment::new(tiny_config()).unwrap();
        let pts = Matrix::from_rows(&[
            &[0.5, 0.5, 0.1], // below layer
            &[0.5, 0.5, 0.5], // inside (0.4545..0.5454)
            &[0.5, 0.5, 0.9], // above
        ])
        .unwrap();
        let s = exp.source_row(&pts);
        assert_eq!(s[(0, 0)], 0.0);
        assert!(s[(0, 1)] > 1e6);
        assert_eq!(s[(0, 2)], 0.0);
    }

    #[test]
    fn training_reduces_loss() {
        // Each step resamples points and HTCs, so individual losses are
        // noisy; compare the mean of the first and last few steps.
        let mut exp = HtcExperiment::new(tiny_config()).unwrap();
        let losses: Vec<f64> = (0..60).map(|_| exp.train_step().unwrap()).collect();
        let early: f64 = losses[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = losses[55..].iter().sum::<f64>() / 5.0;
        assert!(late.is_finite());
        assert!(late < early, "loss did not decrease: {early} -> {late}");
    }

    #[test]
    fn reference_solution_is_physical() {
        let exp = HtcExperiment::new(tiny_config()).unwrap();
        let field = exp.reference_field(500.0, 500.0).unwrap();
        let max = field.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = field.iter().copied().fold(f64::INFINITY, f64::min);
        // 0.625 mW over two 500 W/m²K films in parallel: mean rise
        // q_total / ((h_top + h_bot) A) = 0.000625 / (1000 * 1e-6) = 0.625 K.
        assert!(max > 298.15 + 0.5, "max {max}");
        assert!(min > 298.15, "min {min}");
        assert!(max < 298.15 + 2.0, "max {max} unexpectedly hot");
    }

    #[test]
    fn prediction_has_reference_grid_shape() {
        let exp = HtcExperiment::new(tiny_config()).unwrap();
        let pred = exp.predict_field(700.0, 400.0).unwrap();
        assert_eq!(pred.len(), 9 * 9 * 12);
        let errors = exp.evaluate(700.0, 400.0).unwrap();
        assert!(errors.mape.is_finite());
    }
}
