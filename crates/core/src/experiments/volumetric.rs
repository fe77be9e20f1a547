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

use deepoheat_autodiff::Activation;
use deepoheat_chip::{Chip, MeshPartition};
use deepoheat_fdm::{BoundaryCondition, Face};
use deepoheat_grf::GaussianRandomField3;
use deepoheat_linalg::Matrix;
use deepoheat_nn::LrSchedule;
use rand::rngs::StdRng;

use crate::experiments::experiment::{pde_weight, settings};
use crate::experiments::{
    Coefficient, Experiment, LossWeights, Points, Residual, Scenario, Settings, Source, Term,
    TrainingMode,
};
use crate::physics::PhysicsScales;
use crate::{DeepOHeatError, FourierConfig};

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
/// ```no_run
/// use deepoheat::experiments::{volumetric_test_suite, VolumetricExperiment, VolumetricExperimentConfig};
///
/// let mut exp = VolumetricExperiment::new(VolumetricExperimentConfig::default())?;
/// exp.run(2000, 200, |r| eprintln!("iter {} loss {:.3e}", r.iteration, r.loss))?;
/// let errors = exp.evaluate(&volumetric_test_suite(13, 13, 7)[0].1)?;
/// # Ok::<(), deepoheat::DeepOHeatError>(())
/// ```
pub type VolumetricExperiment = Experiment<Volumetric>;

/// The volumetric scenario: the chip with top and bottom convection, its
/// mesh partition, and a rectified 3-D GRF sampler of per-node power maps
/// (paper units, flat x-fastest order).
#[derive(Debug)]
pub struct Volumetric {
    config: VolumetricExperimentConfig,
    chip: Chip,
    partition: MeshPartition,
    grf: GaussianRandomField3,
}

impl Scenario for Volumetric {
    type Config = VolumetricExperimentConfig;
    type Input = [f64];

    fn new(config: VolumetricExperimentConfig) -> Result<Self, DeepOHeatError> {
        let c = &config;
        let mut chip = Chip::single_cuboid(c.lx, c.ly, c.lz, c.nx, c.ny, c.nz, c.conductivity)?;
        for face in [Face::ZMin, Face::ZMax] {
            chip.set_boundary(
                face,
                BoundaryCondition::Convection { htc: c.htc, ambient: c.ambient },
            )?;
        }
        let partition = MeshPartition::new(chip.grid());
        let grf = GaussianRandomField3::on_unit_grid(c.nx, c.ny, c.nz, c.grf_length_scale)?;
        Ok(Volumetric { config, chip, partition, grf })
    }

    fn config(&self) -> &VolumetricExperimentConfig {
        &self.config
    }

    fn settings(&self) -> Settings<'_> {
        let c = &self.config;
        let nodes = self.chip.grid().node_count();
        settings!(c, vec![nodes], c.interior_points.unwrap_or(nodes))
    }

    fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Interior PDE with each map's per-node source; convection on top and
    /// bottom; adiabatic sides, grouped by normal axis.
    fn terms(&self, scales: &PhysicsScales) -> Vec<Term> {
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
        let density = self.chip.unit_volumetric_density();
        let source = Residual::Pde(Source::PerFunction { scale: density });
        let convection = |face| Residual::Convection(face, Coefficient::Uniform(c.htc));
        vec![
            Term::new("l_pde", interior, source, pde_weight(w.pde, density, scales)),
            Term::new("l_conv_top", top, convection(Face::ZMax), w.convection),
            Term::new("l_conv_bottom", bottom, convection(Face::ZMin), w.convection),
            Term::new("l_adia_x", x_sides, Residual::Adiabatic(Face::XMin), w.adiabatic),
            Term::new("l_adia_y", y_sides, Residual::Adiabatic(Face::YMin), w.adiabatic),
        ]
    }

    fn draw(&self, rng: &mut StdRng) -> Result<Vec<f64>, DeepOHeatError> {
        Ok(self.grf.sample_rectified(rng)?)
    }

    fn encode(&self, maps: &[&[f64]]) -> Result<Vec<Matrix>, DeepOHeatError> {
        let sensors = self.chip.grid().node_count();
        if let Some(map) = maps.iter().find(|map| map.len() != sensors) {
            let what = format!("volumetric map has {} entries, expected {sensors}", map.len());
            return Err(DeepOHeatError::InputMismatch { what });
        }
        Ok(vec![Matrix::from_fn(maps.len(), sensors, |i, j| maps[i][j])])
    }

    fn reference_chip(&self, units: &[f64]) -> Result<Chip, DeepOHeatError> {
        let mut chip = self.chip.clone();
        chip.set_volumetric_power_units(units)?;
        Ok(chip)
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
            let errors = exp.evaluate(&map).unwrap();
            assert!(errors.mape.is_finite(), "{name}");
        }
    }
}
