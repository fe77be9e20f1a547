//! The generic experiment. DeepOHeat casts every design family as one
//! operator-learning problem (§III): sample configurations, sample
//! collocation points, and sum the weighted PDE and boundary residuals of
//! Eq. (11). A [`Scenario`] supplies what differs between families, its
//! loss as a list of [`Term`]s; [`Experiment`] owns everything else.

use std::borrow::{Borrow, Cow};
use std::fmt;

use deepoheat_autodiff::{Activation, Graph, Var};
use deepoheat_chip::{sample_face_points, sample_volume_points, Chip};
use deepoheat_fdm::{Face, SolveOptions};
use deepoheat_linalg::Matrix;
use deepoheat_nn::{Adam, AdamConfig, LrSchedule};
use deepoheat_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::{self, CheckpointError, TrainingSnapshot};
use crate::experiments::{Trainable, TrainingMode, TrainingRecord};
use crate::metrics::FieldErrors;
use crate::model::BranchSpec;
use crate::physics::{self, HtcInput, PhysicsScales, ResidualKind};
use crate::resilience::{self, ResilienceConfig, ResilienceError, ResilientReport};
use crate::{BoundDeepOHeat, DeepOHeat, DeepOHeatConfig, DeepOHeatError, FourierConfig};

/// Seed salt for the dedicated dataset RNG: supervised datasets are drawn
/// from `seed ^ DATASET_SEED_SALT` instead of the training RNG, so a
/// resumed process rebuilds the identical dataset without perturbing the
/// training stream (required for bit-identical resume).
const DATASET_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// What one design family supplies to [`Experiment`]: its chip, how it
/// samples and encodes branch inputs, and its physics loss as data.
pub trait Scenario: fmt::Debug + Sized {
    /// The family's configuration.
    type Config;
    /// One design (a power map, an HTC pair, a volumetric map).
    type Input: ?Sized + ToOwned;

    /// Builds the chip and samplers; [`DeepOHeatError::InvalidConfig`] for
    /// a configuration the family cannot train on.
    fn new(config: Self::Config) -> Result<Self, DeepOHeatError>;

    /// The configuration.
    fn config(&self) -> &Self::Config;

    /// The settings every family's configuration carries.
    fn settings(&self) -> Settings<'_>;

    /// The chip every design is applied to; its grid is the mesh every
    /// prediction is evaluated on.
    fn chip(&self) -> &Chip;

    /// The terms of the physics loss, in the order they enter the tape.
    fn terms(&self, scales: &PhysicsScales) -> Vec<Term>;

    /// Draws one design.
    fn draw(&self, rng: &mut StdRng) -> Result<<Self::Input as ToOwned>::Owned, DeepOHeatError>;

    /// Encodes designs as branch inputs, one matrix per branch, rejecting
    /// a malformed design with [`DeepOHeatError::InputMismatch`].
    fn encode(&self, inputs: &[&Self::Input]) -> Result<Vec<Matrix>, DeepOHeatError>;

    /// The chip with `input` applied, for the reference solver; the chip
    /// rejects a malformed design.
    fn reference_chip(&self, input: &Self::Input) -> Result<Chip, DeepOHeatError>;

    /// Draws one physics step's `n` configurations, a matrix per branch in
    /// the units the terms read: by default `n` designs, drawn and encoded.
    fn sample(&self, n: usize, rng: &mut StdRng) -> Result<Vec<Matrix>, DeepOHeatError> {
        let designs = (0..n).map(|_| self.draw(rng)).collect::<Result<Vec<_>, _>>()?;
        self.encode(&designs.iter().map(Borrow::borrow).collect::<Vec<_>>())
    }

    /// The branch inputs of a physics batch: by default the batch itself.
    fn branch_batch<'a>(&self, batch: &'a [Matrix]) -> Cow<'a, [Matrix]> {
        Cow::Borrowed(batch)
    }

    /// The batch column a mesh node's per-configuration data reads.
    fn sensor(&self, node: usize) -> usize {
        node
    }
}

/// The settings [`Experiment`] reads from a scenario's configuration:
/// each branch net's input width, the target points per supervised
/// minibatch, and the fields every configuration names alike (built by
/// `settings!(config, branch_inputs, supervised_points)`).
#[derive(Debug, Clone)]
pub struct Settings<'a> {
    pub(crate) branch_inputs: Vec<usize>,
    pub(crate) branch_hidden: &'a [usize],
    pub(crate) trunk_hidden: &'a [usize],
    pub(crate) fourier: Option<FourierConfig>,
    pub(crate) latent_dim: usize,
    pub(crate) activation: Activation,
    pub(crate) conductivity: f64,
    pub(crate) ambient: f64,
    pub(crate) delta_t: f64,
    pub(crate) functions_per_batch: usize,
    pub(crate) supervised_points: usize,
    pub(crate) schedule: LrSchedule,
    pub(crate) mode: TrainingMode,
    pub(crate) seed: u64,
}

macro_rules! settings {
    ($c:expr, $branch_inputs:expr, $supervised_points:expr) => {
        $crate::experiments::Settings {
            branch_inputs: $branch_inputs,
            branch_hidden: &$c.branch_hidden,
            trunk_hidden: &$c.trunk_hidden,
            fourier: $c.fourier,
            latent_dim: $c.latent_dim,
            activation: $c.activation,
            conductivity: $c.conductivity,
            ambient: $c.ambient,
            delta_t: $c.delta_t,
            functions_per_batch: $c.functions_per_batch,
            supervised_points: $supervised_points,
            schedule: $c.schedule,
            mode: $c.mode,
            seed: $c.seed,
        }
    };
}
pub(crate) use settings;

/// One weighted residual term of the physics loss (Eq. 11).
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    /// The term's field in the `train.step` event (`l_pde`, `l_flux`, …).
    pub name: &'static str,
    /// Where the term draws its collocation points each step.
    pub points: Points,
    /// The residual it penalises.
    pub residual: Residual,
    /// Its weight in the total loss.
    pub weight: f64,
}

impl Term {
    /// The term `name`: `residual` at `points`, weighted by `weight`.
    pub(crate) fn new(name: &'static str, points: Points, residual: Residual, weight: f64) -> Self {
        Term { name, points, residual, weight }
    }
}

/// Where a [`Term`] draws its collocation points each step.
#[derive(Debug, Clone, PartialEq)]
pub enum Points {
    /// `count` mesh nodes drawn with replacement from `pool`, or the whole
    /// pool in order when `count` is `None` or not below its size.
    Nodes { pool: Vec<usize>, count: Option<usize> },
    /// `count` uniform random points on each of `faces`, face after face.
    Faces { faces: Vec<Face>, count: usize },
    /// `count` uniform random points in the unit cube, then `band_count`
    /// more whose normalized `z` is drawn from `band`.
    Volume { count: usize, band_count: usize, band: (f64, f64) },
}

/// The residual a [`Term`] penalises (Eq. 8–10), with the data it reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Residual {
    /// The heat equation with a volumetric source.
    Pde(Source),
    /// An imposed heat flux on the face: each configuration's batch value
    /// at the node's [`Scenario::sensor`] column times the W/m² per unit.
    Flux(Face, f64),
    /// Convection on the face.
    Convection(Face, Coefficient),
    /// An adiabatic face (faces sharing a normal axis share the residual).
    Adiabatic(Face),
}

/// A PDE term's volumetric source (W/m³).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// Source-free.
    None,
    /// A per-point source shared by every configuration: `density` where
    /// the normalized `z` lies in `band`, zero elsewhere.
    PerPoint { band: (f64, f64), density: f64 },
    /// A per-function source: each configuration's batch value at the
    /// node times `scale` (W/m³ per unit).
    PerFunction { scale: f64 },
}

/// A convection term's heat-transfer coefficient (W/m²K).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Coefficient {
    /// One coefficient for every configuration.
    Uniform(f64),
    /// Each configuration's own: the batch's `k`-th matrix, a column.
    Batch(usize),
}

impl Points {
    /// Points per draw.
    fn count(&self) -> usize {
        match self {
            Points::Nodes { pool, count } => count.map_or(pool.len(), |c| c.min(pool.len())),
            Points::Faces { faces, count } => faces.len() * count,
            Points::Volume { count, band_count, .. } => count + band_count,
        }
    }

    /// Draws one point set: normalized coordinates, and the mesh nodes
    /// (rows of `mesh`) they sit on, empty for mesh-free points.
    fn draw(
        &self,
        mesh: &Matrix,
        rng: &mut StdRng,
    ) -> Result<(Matrix, Vec<usize>), DeepOHeatError> {
        Ok(match self {
            Points::Nodes { pool, count } => {
                let n = pool.len();
                let nodes = match *count {
                    Some(c) if c < n => (0..c).map(|_| pool[rng.gen_range(0..n)]).collect(),
                    _ => pool.clone(),
                };
                (mesh.select_rows(&nodes), nodes)
            }
            Points::Faces { faces, count } => {
                let mut points = Matrix::zeros(0, 3);
                for &face in faces {
                    points = points.vcat(&sample_face_points(face, *count, rng))?;
                }
                (points, Vec::new())
            }
            Points::Volume { count, band_count, band: (z0, z1) } => {
                let mut points = sample_volume_points(*count, rng);
                if *band_count > 0 {
                    let axis = |c| if c == 2 { *z0..=*z1 } else { 0.0..=1.0 };
                    let band = Matrix::from_fn(*band_count, 3, |_, c| rng.gen_range(axis(c)));
                    points = points.vcat(&band)?;
                }
                (points, Vec::new())
            }
        })
    }
}

impl Source {
    /// The `n × points` source matrix, `None` when source-free; `nodal`
    /// reads per-configuration node data times a scale.
    pub(crate) fn values(
        self,
        n: usize,
        points: &Matrix,
        nodal: impl Fn(f64) -> Matrix,
    ) -> Option<Matrix> {
        match self {
            Source::None => None,
            Source::PerPoint { band: (z0, z1), density } => {
                let at = |p| if (z0..=z1).contains(&points[(p, 2)]) { density } else { 0.0 };
                Some(Matrix::from_fn(n, points.rows(), |_, p| at(p)))
            }
            Source::PerFunction { scale } => Some(nodal(scale)),
        }
    }
}

/// The PDE term's weight for a source of peak `density` (W/m³). The
/// nondimensional source is O(100) for the paper's power densities;
/// dividing by its square keeps the terms comparably scaled, so none is
/// ignored early on.
pub(crate) fn pde_weight(weight: f64, density: f64, scales: &PhysicsScales) -> f64 {
    let source_scale = (density * scales.source_coefficient()).max(1.0);
    weight / (source_scale * source_scale)
}

/// A supervised training set: branch inputs paired with nondimensional
/// reference fields at every mesh point.
#[derive(Debug, Clone)]
struct SupervisedDataset {
    /// `n_samples × sensors` branch inputs, one matrix per branch.
    inputs: Vec<Matrix>,
    /// `n_samples × n_points` nondimensional target fields.
    targets: Matrix,
}

impl SupervisedDataset {
    /// Draws a minibatch: `n_funcs` sample rows × `n_points` point columns
    /// (with replacement), returning per-branch input batches, the
    /// selected point indices and the target block.
    fn minibatch(
        &self,
        n_funcs: usize,
        n_points: usize,
        rng: &mut StdRng,
    ) -> (Vec<Matrix>, Vec<usize>, Matrix) {
        let rows: Vec<usize> =
            (0..n_funcs).map(|_| rng.gen_range(0..self.targets.rows())).collect();
        let cols: Vec<usize> = (0..n_points.min(self.targets.cols()))
            .map(|_| rng.gen_range(0..self.targets.cols()))
            .collect();
        let inputs = self.inputs.iter().map(|m| m.select_rows(&rows)).collect();
        let targets =
            Matrix::from_fn(rows.len(), cols.len(), |f, p| self.targets[(rows[f], cols[p])]);
        (inputs, cols, targets)
    }
}

/// The dataset in `slot`, built on first use: `size` designs solved by the
/// reference solver, targets stored as θ fields.
fn ensure_dataset<'a, S: Scenario>(
    slot: &'a mut Option<SupervisedDataset>,
    scenario: &S,
    size: usize,
) -> Result<&'a SupervisedDataset, DeepOHeatError> {
    if let Some(dataset) = slot {
        return Ok(dataset);
    }
    if size == 0 {
        let what = "supervised mode needs a non-empty dataset".into();
        return Err(DeepOHeatError::InvalidConfig { what });
    }
    let s = scenario.settings();
    // A dedicated RNG keeps the dataset off the training stream, so a
    // resumed run rebuilds it without perturbing the checkpointed RNG.
    let mut rng = StdRng::seed_from_u64(s.seed ^ DATASET_SEED_SALT);
    let designs = (0..size).map(|_| scenario.draw(&mut rng)).collect::<Result<Vec<_>, _>>()?;
    let designs: Vec<&S::Input> = designs.iter().map(Borrow::borrow).collect();
    let mut targets = Matrix::zeros(size, scenario.chip().grid().node_count());
    for (row, design) in designs.iter().enumerate() {
        let field = solve_reference(scenario, design)?;
        for (t, f) in targets.row_mut(row).iter_mut().zip(&field) {
            *t = (f - s.ambient) / s.delta_t;
        }
    }
    Ok(slot.insert(SupervisedDataset { inputs: scenario.encode(&designs)?, targets }))
}

/// Solves one design with the finite-volume reference solver.
fn solve_reference<S: Scenario>(
    scenario: &S,
    input: &S::Input,
) -> Result<Vec<f64>, DeepOHeatError> {
    let problem = scenario.reference_chip(input)?.heat_problem()?;
    Ok(problem.solve(SolveOptions::default())?.into_temperatures())
}

/// One design family's experiment: its scenario, model, optimiser and RNG,
/// with training, checkpoint, prediction and evaluation entry points.
///
/// # Examples
///
/// ```no_run
/// use deepoheat::experiments::{PowerMapExperiment, PowerMapExperimentConfig};
/// use deepoheat_grf::paper_test_suite;
///
/// let mut exp = PowerMapExperiment::new(PowerMapExperimentConfig::default())?;
/// exp.run(1500, 100, |r| eprintln!("iter {} loss {:.3e}", r.iteration, r.loss))?;
/// for (name, map) in paper_test_suite(20) {
///     let errors = exp.evaluate(&map.to_grid(21))?;
///     println!("{name}: MAPE {:.3}% PAPE {:.3}%", errors.mape, errors.pape);
/// }
/// # Ok::<(), deepoheat::DeepOHeatError>(())
/// ```
#[derive(Debug)]
pub struct Experiment<S: Scenario> {
    scenario: S,
    terms: Vec<Term>,
    model: DeepOHeat,
    adam: Adam,
    scales: PhysicsScales,
    coords: Matrix,
    rng: StdRng,
    iteration: usize,
    dataset: Option<SupervisedDataset>,
}

impl<S: Scenario> Experiment<S> {
    /// Builds the experiment: the scenario's chip and samplers, its loss
    /// terms and a freshly initialised model.
    ///
    /// # Errors
    ///
    /// [`DeepOHeatError::InvalidConfig`] when a step would draw no
    /// configurations or a term no points; the scenario's own errors.
    pub fn new(config: S::Config) -> Result<Self, DeepOHeatError> {
        let scenario = S::new(config)?;
        let (s, grid) = (scenario.settings(), scenario.chip().grid());
        let extents = [grid.lx(), grid.ly(), grid.lz()];
        let scales = PhysicsScales::new(s.conductivity, s.delta_t, extents)?;
        let terms = scenario.terms(&scales);
        if s.functions_per_batch == 0 {
            let what = "functions_per_batch must be positive".into();
            return Err(DeepOHeatError::InvalidConfig { what });
        }
        if let Some(term) = terms.iter().find(|t| t.points.count() == 0) {
            let what = format!("the {} term would draw no collocation points", term.name);
            return Err(DeepOHeatError::InvalidConfig { what });
        }
        let branch = |&input_dim: &usize| BranchSpec {
            input_dim,
            hidden: s.branch_hidden.to_vec(),
            activation: s.activation,
        };
        let model_cfg = DeepOHeatConfig {
            branches: s.branch_inputs.iter().map(branch).collect(),
            trunk_hidden: s.trunk_hidden.to_vec(),
            trunk_activation: s.activation,
            fourier: s.fourier,
            latent_dim: s.latent_dim,
            output_offset: s.ambient,
            output_scale: s.delta_t,
        };
        let mut rng = StdRng::seed_from_u64(s.seed);
        let model = DeepOHeat::new(&model_cfg, &mut rng)?;
        let adam = Adam::new(AdamConfig::with_schedule(s.schedule));
        let coords = grid.node_positions_normalized();
        let (iteration, dataset) = (0, None);
        Ok(Experiment { scenario, terms, model, adam, scales, coords, rng, iteration, dataset })
    }

    /// The experiment configuration.
    pub fn config(&self) -> &S::Config {
        self.scenario.config()
    }

    /// The chip every design is applied to.
    pub fn chip(&self) -> &Chip {
        self.scenario.chip()
    }

    /// The trained (or in-training) surrogate.
    pub fn model(&self) -> &DeepOHeat {
        &self.model
    }

    /// Number of training iterations performed so far.
    pub fn iterations_done(&self) -> usize {
        self.iteration
    }

    /// The normalized mesh coordinates every prediction is evaluated at
    /// (`n_points × 3`, flat node order).
    pub fn eval_coords(&self) -> &Matrix {
        &self.coords
    }

    /// Runs one training step in the configured [`TrainingMode`],
    /// returning the loss; a non-finite loss is [`DeepOHeatError::Diverged`].
    pub fn train_step(&mut self) -> Result<f64, DeepOHeatError> {
        let _span = telemetry::span("train.step");
        match self.scenario.settings().mode {
            TrainingMode::PhysicsInformed => self.physics_step(),
            TrainingMode::Supervised { dataset_size } => self.supervised_step(dataset_size),
        }
    }

    /// One self-supervised step on the physics residuals (Eq. 8–11): draw
    /// the configurations, then each term's points in term order; build
    /// each term's jet, residual and mean square in turn; sum in order.
    fn physics_step(&mut self) -> Result<f64, DeepOHeatError> {
        let batch =
            self.scenario.sample(self.scenario.settings().functions_per_batch, &mut self.rng)?;
        let drawn = self
            .terms
            .iter()
            .map(|term| term.points.draw(&self.coords, &mut self.rng))
            .collect::<Result<Vec<_>, _>>()?;

        let mut graph = Graph::new();
        let bound = self.model.bind(&mut graph);
        let branch = bound.branch_product(&mut graph, &self.scenario.branch_batch(&batch))?;
        let mut losses = Vec::with_capacity(self.terms.len());
        for (term, (points, nodes)) in self.terms.iter().zip(&drawn) {
            let kind = match term.residual {
                Residual::Pde(_) => ResidualKind::Pde,
                Residual::Flux(face, _)
                | Residual::Convection(face, _)
                | Residual::Adiabatic(face) => ResidualKind::Face(face),
            };
            let jet = bound.residual_jet(&mut graph, branch, points, kind)?;
            let values = &batch[0];
            let nodal = |scale: f64| {
                Matrix::from_fn(values.rows(), nodes.len(), |f, p| {
                    values[(f, self.scenario.sensor(nodes[p]))] * scale
                })
            };
            let r = match term.residual {
                Residual::Pde(source) => {
                    let source = source.values(values.rows(), points, nodal);
                    physics::pde_residual(&mut graph, &jet, &self.scales, source.as_ref())?
                }
                Residual::Flux(face, scale) => {
                    physics::flux_residual(&mut graph, &jet, face, &self.scales, &nodal(scale))?
                }
                Residual::Convection(face, htc) => {
                    let htc = match htc {
                        Coefficient::Uniform(h) => HtcInput::Uniform(h),
                        Coefficient::Batch(k) => HtcInput::PerConfiguration(batch[k].clone()),
                    };
                    physics::convection_residual(&mut graph, &jet, face, &self.scales, &htc)?
                }
                Residual::Adiabatic(face) => physics::adiabatic_residual(&mut graph, &jet, face)?,
            };
            losses.push((term.name, graph.mean_square(r)?));
        }

        let mut total = None;
        for (term, &(_, loss)) in self.terms.iter().zip(&losses) {
            let scaled = graph.scale(loss, term.weight)?;
            total = Some(match total {
                Some(sum) => graph.add(sum, scaled)?,
                None => scaled,
            });
        }
        let what = "the physics loss has no terms".into();
        let total = total.ok_or(DeepOHeatError::InvalidConfig { what })?;
        self.apply(&graph, &bound, total, &losses)
    }

    /// One data-driven step: MSE against reference θ fields on a
    /// minibatch of designs × points.
    fn supervised_step(&mut self, dataset_size: usize) -> Result<f64, DeepOHeatError> {
        let s = self.scenario.settings();
        let (n_funcs, n_points) = (s.functions_per_batch, s.supervised_points);
        let dataset = ensure_dataset(&mut self.dataset, &self.scenario, dataset_size)?;
        let (inputs, cols, targets) = dataset.minibatch(n_funcs, n_points, &mut self.rng);

        let mut graph = Graph::new();
        let bound = self.model.bind(&mut graph);
        let branch = bound.branch_product(&mut graph, &inputs)?;
        let phi = bound.trunk_features(&mut graph, &self.coords.select_rows(&cols))?;
        let theta = bound.combine(&mut graph, branch, phi)?;
        let target_leaf = graph.leaf(targets, false);
        let total = graph.mse(theta, target_leaf)?;
        self.apply(&graph, &bound, total, &[("l_mse", total)])
    }

    /// Finishes a step: rejects a non-finite loss, reports the `train.step`
    /// event with the per-term breakdown, and applies one Adam update.
    fn apply(
        &mut self,
        graph: &Graph,
        bound: &BoundDeepOHeat,
        total: Var,
        terms: &[(&'static str, Var)],
    ) -> Result<f64, DeepOHeatError> {
        let loss = graph.scalar(total);
        if !loss.is_finite() {
            return Err(DeepOHeatError::Diverged { iteration: self.iteration });
        }
        if telemetry::is_enabled() {
            // Reading already-evaluated graph nodes is a cheap lookup.
            let mut fields = vec![("iteration", self.iteration.into()), ("loss", loss.into())];
            fields.extend(terms.iter().map(|&(name, var)| (name, graph.scalar(var).into())));
            telemetry::event("train.step", &fields);
        }
        let grads = graph.backward(total)?;
        self.adam.step_model(&mut self.model, bound, &grads)?;
        self.iteration += 1;
        telemetry::counter("train.steps.count", 1);
        Ok(loss)
    }

    /// Trains for `iterations` steps, invoking `progress` every
    /// `log_every` steps (and on the final step), and returns the logged
    /// records; stops at the first failing step.
    pub fn run<F>(
        &mut self,
        iterations: usize,
        log_every: usize,
        mut progress: F,
    ) -> Result<Vec<TrainingRecord>, DeepOHeatError>
    where
        F: FnMut(&TrainingRecord),
    {
        let mut records = Vec::new();
        for step in 0..iterations {
            let learning_rate = self.adam.current_learning_rate();
            let loss = self.train_step()?;
            if step.is_multiple_of(log_every.max(1)) || step + 1 == iterations {
                let record = TrainingRecord { iteration: self.iteration - 1, loss, learning_rate };
                telemetry::gauge("train.loss", loss);
                progress(&record);
                records.push(record);
            }
        }
        Ok(records)
    }

    /// Trains under the divergence guard and checkpoint cadence of
    /// [`crate::resilience::run_resilient`], failing as it does.
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

    /// Writes the current training state to `path` (atomically), failing
    /// as [`checkpoint::save_to_path`] does.
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

    /// Predicts the full-mesh temperature field (Kelvin, flat node order)
    /// for one design. A design the reference solver rejects is rejected
    /// here too, with the same error (see [`Experiment::predict_fields`]).
    pub fn predict_field(&self, input: &S::Input) -> Result<Vec<f64>, DeepOHeatError> {
        let fields = self.predict_fields(std::slice::from_ref(&input))?;
        Ok(fields.into_iter().next().expect("invariant: one design in, one field out"))
    }

    /// Predicts the fields of a batch of designs in one pass: the branch
    /// nets run once over all designs (one [`crate::BranchEmbedding`]) and
    /// the trunk once over the mesh. Bit-identical to calling
    /// [`Experiment::predict_field`] per design.
    ///
    /// Each design first goes through [`Scenario::reference_chip`], the
    /// check [`Experiment::reference_field`] applies, and the first one it
    /// rejects is the error: a non-finite power-map entry or HTC, or a
    /// non-positive HTC, gives no prediction rather than a NaN or
    /// extrapolated field.
    pub fn predict_fields<I: Borrow<S::Input>>(
        &self,
        inputs: &[I],
    ) -> Result<Vec<Vec<f64>>, DeepOHeatError> {
        let inputs: Vec<&S::Input> = inputs.iter().map(Borrow::borrow).collect();
        for input in &inputs {
            self.scenario.reference_chip(input)?;
        }
        let branch = self.scenario.encode(&inputs)?;
        let embedding = self.model.encode_branches(&branch.iter().collect::<Vec<_>>())?;
        let basis = self.model.trunk_basis(&self.coords, crate::DEFAULT_TRUNK_CHUNK, &|| false)?;
        let t = basis.combine(&embedding)?;
        Ok((0..inputs.len()).map(|i| t.row(i).to_vec()).collect())
    }

    /// The chip with one design applied, as the reference solver sees it;
    /// a malformed design is a chip error.
    pub fn reference_chip(&self, input: &S::Input) -> Result<Chip, DeepOHeatError> {
        self.scenario.reference_chip(input)
    }

    /// Solves one design with the finite-volume reference solver
    /// ("Celsius"), returning the field in flat node order.
    pub fn reference_field(&self, input: &S::Input) -> Result<Vec<f64>, DeepOHeatError> {
        solve_reference(&self.scenario, input)
    }

    /// Compares surrogate and reference on one design: the MAPE/PAPE pair
    /// of Table I and Fig. 5.
    pub fn evaluate(&self, input: &S::Input) -> Result<FieldErrors, DeepOHeatError> {
        let predicted = self.predict_field(input)?;
        let reference = self.reference_field(input)?;
        FieldErrors::compare(&predicted, &reference)
    }
}

impl<S: Scenario> Trainable for Experiment<S> {
    fn train_step(&mut self) -> Result<f64, DeepOHeatError> {
        Experiment::train_step(self)
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
        let widths = |m: &DeepOHeat| {
            (0..m.branch_count()).map(|i| m.branch_input_dim(i)).collect::<Vec<_>>()
        };
        let (theirs, ours) = (widths(&snapshot.model), widths(&self.model));
        if theirs != ours {
            let what = format!("snapshot branches take {theirs:?} inputs, experiment's {ours:?}");
            return Err(DeepOHeatError::InputMismatch { what });
        }
        self.adam.import_state(snapshot.adam.clone())?;
        self.model = snapshot.model.clone();
        self.rng = StdRng::from_state(snapshot.rng);
        self.iteration = snapshot.iteration;
        Ok(())
    }

    fn model_mut(&mut self) -> &mut DeepOHeat {
        &mut self.model
    }
}
