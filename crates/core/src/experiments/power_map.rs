//! §V.A — 2-D power-map configuration on the top surface.
//!
//! A single-input DeepOHeat learns the solution operator from top-surface
//! power maps (sampled during training from a Gaussian random field with
//! length scale 0.3) to the full 3-D temperature field of a
//! 1 mm × 1 mm × 0.5 mm chip with adiabatic sides and bottom convection
//! (`h = 500 W/m²K`, `T_amb = 298.15 K`, `k = 0.1 W/mK`). Training is
//! purely physics-informed on the 21 × 21 × 11 mesh.

use deepoheat_autodiff::Activation;
use deepoheat_chip::{Chip, MeshPartition};
use deepoheat_fdm::{BoundaryCondition, Face};
use deepoheat_grf::GaussianRandomField;
use deepoheat_linalg::Matrix;
use deepoheat_nn::LrSchedule;
use rand::rngs::StdRng;

use crate::experiments::experiment::settings;
use crate::experiments::{
    Coefficient, Experiment, LossWeights, Points, Residual, Scenario, Settings, Source, Term,
    TrainingMode,
};
use crate::physics::PhysicsScales;
use crate::{DeepOHeatError, FourierConfig};

/// Configuration of the §V.A experiment. `Default` gives CPU-friendly
/// scaled-down settings; [`PowerMapExperimentConfig::paper`] gives the
/// paper's full-scale ones.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerMapExperimentConfig {
    /// Grid vertices along x (paper: 21).
    pub nx: usize,
    /// Grid vertices along y (paper: 21).
    pub ny: usize,
    /// Grid vertices along z (paper: 11).
    pub nz: usize,
    /// Chip footprint x extent in metres (paper: 1 mm).
    pub lx: f64,
    /// Chip footprint y extent in metres (paper: 1 mm).
    pub ly: f64,
    /// Chip thickness in metres (paper: 0.5 mm).
    pub lz: f64,
    /// Isotropic conductivity (paper: 0.1 W/mK).
    pub conductivity: f64,
    /// Bottom-surface heat-transfer coefficient (paper: 500 W/m²K).
    pub htc_bottom: f64,
    /// Ambient temperature (paper: 298.15 K).
    pub ambient: f64,
    /// GRF length scale for training maps (paper: 0.3).
    pub grf_length_scale: f64,
    /// Branch-net hidden widths (paper: 9 × 256).
    pub branch_hidden: Vec<usize>,
    /// Trunk-net hidden widths (paper: 5 × 128 behind the Fourier layer).
    pub trunk_hidden: Vec<usize>,
    /// Fourier-features layer (paper: std 2π).
    pub fourier: Option<FourierConfig>,
    /// Latent feature width `q` (paper: 128).
    pub latent_dim: usize,
    /// Hidden activation (paper: Swish).
    pub activation: Activation,
    /// Temperature scale ΔT of the nondimensionalisation.
    pub delta_t: f64,
    /// Power maps sampled per iteration (paper: 50).
    pub functions_per_batch: usize,
    /// Interior collocation points per iteration (`None` = all 3249).
    pub interior_points: Option<usize>,
    /// Boundary collocation points per face per iteration
    /// (`None` = all).
    pub boundary_points: Option<usize>,
    /// Learning-rate schedule (paper: 1e-3 decayed 0.9× every 500).
    pub schedule: LrSchedule,
    /// Loss-term weights (paper: all 1; the defaults upweight the
    /// boundary terms, the standard PI-DeepONet conditioning fix).
    pub loss_weights: LossWeights,
    /// Physics-informed (paper) or supervised (data-driven baseline)
    /// training.
    pub mode: TrainingMode,
    /// RNG seed for initialisation and sampling.
    pub seed: u64,
}

impl Default for PowerMapExperimentConfig {
    /// Scaled-down settings that train to sub-percent MAPE in minutes on
    /// a CPU (see DESIGN.md §7 for the mapping to the paper's settings).
    fn default() -> Self {
        PowerMapExperimentConfig {
            nx: 21,
            ny: 21,
            nz: 11,
            lx: 1e-3,
            ly: 1e-3,
            lz: 0.5e-3,
            conductivity: 0.1,
            htc_bottom: 500.0,
            ambient: 298.15,
            grf_length_scale: 0.3,
            branch_hidden: vec![128; 4],
            trunk_hidden: vec![64; 3],
            // NOTE: the paper's Fourier-features layer (std 2π) makes the
            // *initial* PDE residual O(1e5) and physics-informed training
            // needs the paper's 10-GPU-hour budget to recover; with a plain
            // trunk the same losses converge in minutes on a CPU. The
            // Fourier layer remains available (see `paper()` and the
            // ablation benches).
            fourier: None,
            latent_dim: 64,
            activation: Activation::Swish,
            delta_t: 10.0,
            functions_per_batch: 8,
            interior_points: Some(512),
            boundary_points: Some(128),
            schedule: LrSchedule::ExponentialDecay { initial: 1e-3, factor: 0.9, every: 250 },
            loss_weights: LossWeights { pde: 1.0, flux: 100.0, convection: 100.0, adiabatic: 10.0 },
            mode: TrainingMode::PhysicsInformed,
            seed: 0,
        }
    }
}

impl PowerMapExperimentConfig {
    /// The paper's full-scale §V.A settings (10 000 iterations of 50 maps
    /// over all 4851 mesh points; 10 GPU-hours in the paper).
    pub fn paper() -> Self {
        PowerMapExperimentConfig {
            branch_hidden: vec![256; 9],
            trunk_hidden: vec![128; 5],
            fourier: Some(FourierConfig { n_frequencies: 64, std: std::f64::consts::TAU }),
            latent_dim: 128,
            functions_per_batch: 50,
            interior_points: None,
            boundary_points: None,
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
}

/// The §V.A experiment (see [`Experiment`] for an example).
pub type PowerMapExperiment = Experiment<PowerMap>;

/// The §V.A scenario: the chip with bottom convection, its mesh partition,
/// and a GRF sampler of `nx × ny` top-surface power maps (paper units per
/// node).
#[derive(Debug)]
pub struct PowerMap {
    config: PowerMapExperimentConfig,
    chip: Chip,
    partition: MeshPartition,
    grf: GaussianRandomField,
}

impl Scenario for PowerMap {
    type Config = PowerMapExperimentConfig;
    type Input = Matrix;

    fn new(config: PowerMapExperimentConfig) -> Result<Self, DeepOHeatError> {
        let c = &config;
        if c.nx != c.ny {
            let what = format!("power-map encoding requires nx == ny, got {} x {}", c.nx, c.ny);
            return Err(DeepOHeatError::InvalidConfig { what });
        }
        let mut chip = Chip::single_cuboid(c.lx, c.ly, c.lz, c.nx, c.ny, c.nz, c.conductivity)?;
        let bottom = BoundaryCondition::Convection { htc: c.htc_bottom, ambient: c.ambient };
        chip.set_boundary(Face::ZMin, bottom)?;
        let partition = MeshPartition::new(chip.grid());
        let grf = GaussianRandomField::on_unit_grid(c.nx, c.grf_length_scale)?;
        Ok(PowerMap { config, chip, partition, grf })
    }

    fn config(&self) -> &PowerMapExperimentConfig {
        &self.config
    }

    fn settings(&self) -> Settings<'_> {
        let c = &self.config;
        settings!(c, vec![c.nx * c.ny], c.interior_points.unwrap_or(self.chip.grid().node_count()))
    }

    fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Interior PDE; the power map as an imposed flux on the top face;
    /// bottom convection; adiabatic sides, grouped by normal axis.
    fn terms(&self, _scales: &PhysicsScales) -> Vec<Term> {
        let (c, w) = (&self.config, self.config.loss_weights);
        let nodes = |faces: &[Face], count| Points::Nodes {
            pool: faces.iter().flat_map(|&face| self.partition.face(face)).copied().collect(),
            count,
        };
        let interior = self.partition.interior().to_vec();
        let interior = Points::Nodes { pool: interior, count: c.interior_points };
        let top = nodes(&[Face::ZMax], c.boundary_points);
        let bottom = nodes(&[Face::ZMin], c.boundary_points);
        let sides = c.boundary_points.map(|n| 2 * n);
        let x_sides = nodes(&[Face::XMin, Face::XMax], sides);
        let y_sides = nodes(&[Face::YMin, Face::YMax], sides);
        let flux = Residual::Flux(Face::ZMax, self.chip.unit_flux_density());
        let convection = Residual::Convection(Face::ZMin, Coefficient::Uniform(c.htc_bottom));
        vec![
            Term::new("l_pde", interior, Residual::Pde(Source::None), w.pde),
            Term::new("l_flux", top, flux, w.flux),
            Term::new("l_conv", bottom, convection, w.convection),
            Term::new("l_adia_x", x_sides, Residual::Adiabatic(Face::XMin), w.adiabatic),
            Term::new("l_adia_y", y_sides, Residual::Adiabatic(Face::YMin), w.adiabatic),
        ]
    }

    fn draw(&self, rng: &mut StdRng) -> Result<Matrix, DeepOHeatError> {
        Ok(Matrix::from_vec(self.config.nx, self.config.ny, self.grf.sample(rng)?)?)
    }

    fn encode(&self, maps: &[&Matrix]) -> Result<Vec<Matrix>, DeepOHeatError> {
        let (nx, ny) = (self.config.nx, self.config.ny);
        if let Some(map) = maps.iter().find(|map| map.shape() != (nx, ny)) {
            let what = format!("power map is {}x{}, expected {nx}x{ny}", map.rows(), map.cols());
            return Err(DeepOHeatError::InputMismatch { what });
        }
        Ok(vec![Matrix::from_fn(maps.len(), nx * ny, |i, j| maps[i].as_slice()[j])])
    }

    fn reference_chip(&self, power_units: &Matrix) -> Result<Chip, DeepOHeatError> {
        let mut chip = self.chip.clone();
        chip.set_top_power_map_units(power_units)?;
        Ok(chip)
    }

    /// The power-map entry `(i, j)` above the node.
    fn sensor(&self, node: usize) -> usize {
        let (i, j, _) = self.chip.grid().coordinates(node);
        i * self.config.ny + j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PowerMapExperimentConfig {
        PowerMapExperimentConfig {
            nx: 9,
            ny: 9,
            nz: 5,
            branch_hidden: vec![24, 24],
            trunk_hidden: vec![24, 24],
            fourier: Some(FourierConfig { n_frequencies: 8, std: std::f64::consts::TAU }),
            latent_dim: 16,
            functions_per_batch: 4,
            interior_points: Some(64),
            boundary_points: Some(32),
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn construction_and_shapes() {
        let exp = PowerMapExperiment::new(tiny_config()).unwrap();
        assert_eq!(exp.model().branch_count(), 1);
        assert_eq!(exp.model().branch_input_dim(0), 81);
        assert_eq!(exp.iterations_done(), 0);
        let map = Matrix::filled(9, 9, 1.0);
        let field = exp.predict_field(&map).unwrap();
        assert_eq!(field.len(), 9 * 9 * 5);
    }

    #[test]
    fn map_shape_is_validated() {
        let exp = PowerMapExperiment::new(tiny_config()).unwrap();
        assert!(exp.predict_field(&Matrix::zeros(8, 9)).is_err());
        assert!(exp.reference_field(&Matrix::zeros(9, 8)).is_err());
    }

    #[test]
    fn training_reduces_loss() {
        let mut exp = PowerMapExperiment::new(tiny_config()).unwrap();
        let first = exp.train_step().unwrap();
        let mut last = first;
        for _ in 0..30 {
            last = exp.train_step().unwrap();
        }
        assert!(last.is_finite());
        assert!(last < first, "loss did not decrease: {first} -> {last}");
        assert_eq!(exp.iterations_done(), 31);
    }

    #[test]
    fn run_logs_records() {
        let mut exp = PowerMapExperiment::new(tiny_config()).unwrap();
        let mut seen = 0;
        let records = exp.run(5, 2, |_| seen += 1).unwrap();
        assert_eq!(records.len(), seen);
        assert!(records.len() >= 3); // iterations 0, 2, 4 (+ final)
        assert_eq!(records.last().unwrap().iteration, 4);
    }

    #[test]
    fn supervised_training_fits_quickly() {
        let mut cfg = tiny_config();
        cfg.mode = TrainingMode::Supervised { dataset_size: 12 };
        cfg.interior_points = Some(128);
        let mut exp = PowerMapExperiment::new(cfg).unwrap();
        let losses: Vec<f64> = (0..40).map(|_| exp.train_step().unwrap()).collect();
        let early: f64 = losses[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = losses[35..].iter().sum::<f64>() / 5.0;
        assert!(late < 0.5 * early, "supervised loss did not drop: {early} -> {late}");
    }

    #[test]
    fn supervised_mode_rejects_empty_dataset() {
        let mut cfg = tiny_config();
        cfg.mode = TrainingMode::Supervised { dataset_size: 0 };
        let mut exp = PowerMapExperiment::new(cfg).unwrap();
        assert!(matches!(exp.train_step(), Err(DeepOHeatError::InvalidConfig { .. })));
    }

    #[test]
    fn evaluation_produces_finite_errors() {
        let exp = PowerMapExperiment::new(tiny_config()).unwrap();
        let map = Matrix::filled(9, 9, 1.0);
        let errors = exp.evaluate(&map).unwrap();
        assert!(errors.mape.is_finite());
        assert!(errors.pape >= errors.mape);
    }

    #[test]
    fn reference_field_matches_1d_physics_for_uniform_map() {
        let exp = PowerMapExperiment::new(tiny_config()).unwrap();
        let map = Matrix::filled(9, 9, 1.0);
        let reference = exp.reference_field(&map).unwrap();
        // Uniform map -> 1-D: bottom at T_amb + q/h.
        let q = exp.chip().unit_flux_density();
        let expected_bottom = 298.15 + q / 500.0;
        let idx = exp.chip().grid().index(4, 4, 0);
        assert!((reference[idx] - expected_bottom).abs() < 1e-6);
    }
}
