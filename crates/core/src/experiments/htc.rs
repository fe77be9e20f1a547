//! §V.B — heat-transfer-coefficient configurations on both the top and
//! bottom surfaces.
//!
//! A dual-input DeepOHeat learns the joint dependence of the temperature
//! field on the top and bottom HTCs of a 1 mm × 1 mm × 0.55 mm chip whose
//! 0.05 mm middle layer dissipates 0.625 mW. Each training iteration
//! samples HTC pairs uniformly from `[333.33, 1000]²` and draws fresh
//! random collocation points (the paper's mesh-free style); the sides are
//! adiabatic and `k = 0.1 W/mK`, `T_amb = 298.15 K` as in §V.A.

use std::borrow::Cow;

use deepoheat_autodiff::Activation;
use deepoheat_chip::{Chip, Layer};
use deepoheat_fdm::{BoundaryCondition, Face};
use deepoheat_linalg::Matrix;
use deepoheat_nn::LrSchedule;
use rand::rngs::StdRng;
use rand::Rng;

use crate::experiments::experiment::{pde_weight, settings};
use crate::experiments::{
    Coefficient, Experiment, LossWeights, Points, Residual, Scenario, Settings, Source, Term,
    TrainingMode,
};
use crate::physics::PhysicsScales;
use crate::{DeepOHeatError, FourierConfig};

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
/// ```no_run
/// use deepoheat::experiments::{HtcExperiment, HtcExperimentConfig};
///
/// let mut exp = HtcExperiment::new(HtcExperimentConfig::default())?;
/// exp.run(1000, 100, |r| eprintln!("iter {} loss {:.3e}", r.iteration, r.loss))?;
/// let errors = exp.evaluate(&(1000.0, 333.33))?; // (top, bottom), one of the paper's cases
/// # Ok::<(), deepoheat::DeepOHeatError>(())
/// ```
pub type HtcExperiment = Experiment<Htc>;

/// The §V.B scenario: the three-layer stack with its powered middle
/// layer, whose designs are `(htc_top, htc_bottom)` pairs in W/m²K.
#[derive(Debug)]
pub struct Htc {
    config: HtcExperimentConfig,
    chip: Chip,
}

impl Scenario for Htc {
    type Config = HtcExperimentConfig;
    type Input = (f64, f64);

    fn new(config: HtcExperimentConfig) -> Result<Self, DeepOHeatError> {
        let c = &config;
        let (lo, hi) = c.htc_range;
        if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo < hi) {
            let what = format!("htc range must satisfy 0 < lo < hi, got ({lo}, {hi})");
            return Err(DeepOHeatError::InvalidConfig { what });
        }
        let footprint = c.lx * c.ly;
        let layers = vec![
            Layer::new(c.bottom_thickness, c.conductivity)?,
            Layer::with_total_power(c.power_thickness, c.conductivity, c.total_power, footprint)?,
            Layer::new(c.top_thickness, c.conductivity)?,
        ];
        let chip = Chip::new(c.lx, c.ly, c.nx, c.nx, c.nz, layers)?;
        Ok(Htc { config, chip })
    }

    fn config(&self) -> &HtcExperimentConfig {
        &self.config
    }

    fn settings(&self) -> Settings<'_> {
        let c = &self.config;
        settings!(c, vec![1, 1], c.volume_points)
    }

    /// The stack with adiabatic faces; each design sets the top and bottom
    /// convection.
    fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Interior PDE with the power layer's source, with extra points in the
    /// layer; per-configuration convection on top and bottom; adiabatic
    /// sides, grouped by normal axis. All points are mesh-free.
    fn terms(&self, scales: &PhysicsScales) -> Vec<Term> {
        let (c, w) = (&self.config, self.config.loss_weights);
        let faces = |faces: &[Face], count| Points::Faces { faces: faces.to_vec(), count };
        let (band, density) = (c.power_layer_bounds(), c.power_density());
        let volume =
            Points::Volume { count: c.volume_points, band_count: c.power_layer_points, band };
        let top = faces(&[Face::ZMax], c.face_points);
        let bottom = faces(&[Face::ZMin], c.face_points);
        let x_sides = faces(&[Face::XMin, Face::XMax], c.face_points / 2 + 1);
        let y_sides = faces(&[Face::YMin, Face::YMax], c.face_points / 2 + 1);
        let source = Residual::Pde(Source::PerPoint { band, density });
        let convection = |face, k| Residual::Convection(face, Coefficient::Batch(k));
        vec![
            Term::new("l_pde", volume, source, pde_weight(w.pde, density, scales)),
            Term::new("l_top", top, convection(Face::ZMax, 0), w.convection),
            Term::new("l_bottom", bottom, convection(Face::ZMin, 1), w.convection),
            Term::new("l_adia_x", x_sides, Residual::Adiabatic(Face::XMin), w.adiabatic),
            Term::new("l_adia_y", y_sides, Residual::Adiabatic(Face::YMin), w.adiabatic),
        ]
    }

    /// One pair, top then bottom.
    fn draw(&self, rng: &mut StdRng) -> Result<(f64, f64), DeepOHeatError> {
        let (lo, hi) = self.config.htc_range;
        Ok((rng.gen_range(lo..=hi), rng.gen_range(lo..=hi)))
    }

    fn encode(&self, pairs: &[&(f64, f64)]) -> Result<Vec<Matrix>, DeepOHeatError> {
        Ok(vec![
            Matrix::from_fn(pairs.len(), 1, |i, _| pairs[i].0 / HTC_INPUT_SCALE),
            Matrix::from_fn(pairs.len(), 1, |i, _| pairs[i].1 / HTC_INPUT_SCALE),
        ])
    }

    fn reference_chip(&self, &(htc_top, htc_bottom): &(f64, f64)) -> Result<Chip, DeepOHeatError> {
        let ambient = self.config.ambient;
        let mut chip = self.chip.clone();
        chip.set_boundary(Face::ZMax, BoundaryCondition::Convection { htc: htc_top, ambient })?;
        chip.set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: htc_bottom, ambient })?;
        Ok(chip)
    }

    /// All top coefficients, then all bottom ones, as W/m²K columns.
    fn sample(&self, n: usize, rng: &mut StdRng) -> Result<Vec<Matrix>, DeepOHeatError> {
        let (lo, hi) = self.config.htc_range;
        let top = Matrix::from_fn(n, 1, |_, _| rng.gen_range(lo..=hi));
        let bottom = Matrix::from_fn(n, 1, |_, _| rng.gen_range(lo..=hi));
        Ok(vec![top, bottom])
    }

    /// The columns times `1/HTC_INPUT_SCALE`. [`Scenario::encode`] divides
    /// instead; the two differ in the last bit for about one coefficient in
    /// seven, and each path keeps the form it has always used, so training
    /// and prediction stay bit-identical to earlier runs.
    fn branch_batch<'a>(&self, batch: &'a [Matrix]) -> Cow<'a, [Matrix]> {
        Cow::Owned(batch.iter().map(|h| h.scaled(1.0 / HTC_INPUT_SCALE)).collect())
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
        let (band, density) = (exp.config().power_layer_bounds(), exp.config().power_density());
        let source = Source::PerPoint { band, density };
        let s = source.values(1, &pts, |_| unreachable!("a per-point source")).unwrap();
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
        let field = exp.reference_field(&(500.0, 500.0)).unwrap();
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
        let pred = exp.predict_field(&(700.0, 400.0)).unwrap();
        assert_eq!(pred.len(), 9 * 9 * 12);
        let errors = exp.evaluate(&(700.0, 400.0)).unwrap();
        assert!(errors.mape.is_finite());
    }
}
