#![deny(unsafe_code)]
//! `train_physics`: `PowerMapExperiment::train_step` calls of the
//! default §V.A experiment, physics-informed, with a seeded training
//! seed.
//!
//! A traced run splits the step into layers by replaying it through
//! public functions — GRF sampling, collocation, parameter binding, the
//! branch, the trunk jet, the combine, the residuals, backward and Adam
//! — in the experiment's exact order and random-draw sequence, so the
//! replay's per-step loss is bit-identical to `train_step`'s.

use std::time::Instant;

use deepoheat::experiments::{PowerMapExperiment, PowerMapExperimentConfig};
use deepoheat::physics::{self, HtcInput, PhysicsScales};
use deepoheat::{DeepOHeat, DeepOHeatConfig, DeepOHeatError};
use deepoheat_autodiff::Graph;
use deepoheat_bench::BenchError;
use deepoheat_chip::{Chip, MeshPartition};
use deepoheat_fdm::{BoundaryCondition, Face};
use deepoheat_grf::GaussianRandomField;
use deepoheat_linalg::Matrix;
use deepoheat_nn::{Adam, AdamConfig};
use deepoheat_parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{self, Stream};
use crate::ledger::{self, Ceilings, LayerTimer, Ledger, Work};
use crate::report::{latency_json, Check, Json, Outcome};
use crate::stats::median;
use crate::{setup_before, Items, RunConfig};

/// Steps over which the replay must reproduce `train_step` bit for bit.
const REPLAY_STEPS: usize = 20;

/// The step's layers, in execution order.
const LAYERS: [&str; 9] = [
    "grf.sample",
    "core.collocation",
    "core.bind",
    "core.branch",
    "core.trunk_jet",
    "core.combine_jet",
    "core.residual",
    "autodiff.backward",
    "nn.adam",
];

fn experiment_config(seed: u64) -> PowerMapExperimentConfig {
    PowerMapExperimentConfig {
        seed: inputs::derived_seed(seed, Stream::Train),
        ..PowerMapExperimentConfig::default()
    }
}

/// Draws `count` entries of `pool` with replacement (all of it when
/// `count` is `None` or covers the pool) — the experiment's subsampler.
fn subsample(rng: &mut StdRng, pool: &[usize], count: Option<usize>) -> Vec<usize> {
    match count {
        Some(c) if c < pool.len() => (0..c).map(|_| pool[rng.gen_range(0..pool.len())]).collect(),
        _ => pool.to_vec(),
    }
}

/// The physics-informed step of `PowerMapExperiment`, rebuilt from the
/// public functions it calls and built from the same configuration, so
/// the model, optimiser and random stream evolve identically.
struct StepReplay {
    config: PowerMapExperimentConfig,
    chip: Chip,
    partition: MeshPartition,
    grf: GaussianRandomField,
    model: DeepOHeat,
    adam: Adam,
    scales: PhysicsScales,
    coords: Matrix,
    rng: StdRng,
}

impl StepReplay {
    fn new(config: PowerMapExperimentConfig) -> Result<StepReplay, BenchError> {
        let mut chip = Chip::single_cuboid(
            config.lx,
            config.ly,
            config.lz,
            config.nx,
            config.ny,
            config.nz,
            config.conductivity,
        )?;
        chip.set_boundary(
            Face::ZMin,
            BoundaryCondition::Convection { htc: config.htc_bottom, ambient: config.ambient },
        )?;
        let partition = MeshPartition::new(chip.grid());
        let grf = GaussianRandomField::on_unit_grid(config.nx, config.grf_length_scale)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut model_config = DeepOHeatConfig::single_branch(
            config.nx * config.ny,
            &config.branch_hidden,
            &config.trunk_hidden,
            config.latent_dim,
        )
        .with_output_transform(config.ambient, config.delta_t)
        .with_trunk_activation(config.activation);
        model_config.branches[0].activation = config.activation;
        model_config.fourier = config.fourier;
        let model = DeepOHeat::new(&model_config, &mut rng)?;
        let scales = PhysicsScales::new(
            config.conductivity,
            config.delta_t,
            [config.lx, config.ly, config.lz],
        )?;
        let coords = chip.grid().node_positions_normalized();
        let adam = Adam::new(AdamConfig::with_schedule(config.schedule));
        Ok(StepReplay { config, chip, partition, grf, model, adam, scales, coords, rng })
    }

    /// One step, each layer charged to `timer`; returns the loss.
    fn step(&mut self, timer: &mut LayerTimer) -> Result<f64, BenchError> {
        let config = &self.config;
        let (n_funcs, ny) = (config.functions_per_batch, config.ny);
        let (grf, rng) = (&self.grf, &mut self.rng);
        let power_units = timer.time("grf.sample", || -> Result<Matrix, BenchError> {
            let mut batch = Matrix::zeros(n_funcs, config.nx * ny);
            for f in 0..n_funcs {
                batch.row_mut(f).copy_from_slice(&grf.sample(rng)?);
            }
            Ok(batch)
        })?;

        let (partition, chip, coords) = (&self.partition, &self.chip, &self.coords);
        let (points, flux_targets) = timer.time("core.collocation", || {
            let interior = subsample(rng, partition.interior(), config.interior_points);
            let top = subsample(rng, partition.face(Face::ZMax), config.boundary_points);
            let bottom = subsample(rng, partition.face(Face::ZMin), config.boundary_points);
            let pair = |a: Face, b: Face| [partition.face(a), partition.face(b)].concat();
            let sides = config.boundary_points.map(|c| 2 * c);
            let x_sides = subsample(rng, &pair(Face::XMin, Face::XMax), sides);
            let y_sides = subsample(rng, &pair(Face::YMin, Face::YMax), sides);
            let unit_flux = chip.unit_flux_density();
            let grid = *chip.grid();
            let flux_targets = Matrix::from_fn(n_funcs, top.len(), |f, p| {
                let (i, j, _) = grid.coordinates(top[p]);
                power_units[(f, i * ny + j)] * unit_flux
            });
            let points: Vec<Matrix> = [&interior, &top, &bottom, &x_sides, &y_sides]
                .iter()
                .map(|rows| coords.select_rows(rows))
                .collect();
            (points, flux_targets)
        });

        let model = &self.model;
        let (mut graph, bound) = timer.time("core.bind", || {
            let mut graph = Graph::new();
            let bound = model.bind(&mut graph);
            (graph, bound)
        });
        let branch =
            timer.time("core.branch", || bound.branch_product(&mut graph, &[power_units]))?;

        let scales = &self.scales;
        let htc = HtcInput::Uniform(config.htc_bottom);
        let mut terms = Vec::with_capacity(points.len());
        for (term, rows) in points.iter().enumerate() {
            let jet = timer.time("core.trunk_jet", || bound.trunk_jet(&mut graph, rows))?;
            let t_jet =
                timer.time("core.combine_jet", || bound.combine_jet(&mut graph, branch, &jet))?;
            let loss = timer.time("core.residual", || -> Result<_, DeepOHeatError> {
                let r = match term {
                    0 => physics::pde_residual(&mut graph, &t_jet, scales, None)?,
                    1 => physics::flux_residual(
                        &mut graph,
                        &t_jet,
                        Face::ZMax,
                        scales,
                        &flux_targets,
                    )?,
                    2 => {
                        physics::convection_residual(&mut graph, &t_jet, Face::ZMin, scales, &htc)?
                    }
                    3 => physics::adiabatic_residual(&mut graph, &t_jet, Face::XMin)?,
                    _ => physics::adiabatic_residual(&mut graph, &t_jet, Face::YMin)?,
                };
                Ok(graph.mean_square(r)?)
            })?;
            terms.push(loss);
        }

        let weights = config.loss_weights;
        let (total, loss) = timer.time("core.residual", || -> Result<_, DeepOHeatError> {
            let mut total = graph.scale(terms[0], weights.pde)?;
            let rest = [weights.flux, weights.convection, weights.adiabatic, weights.adiabatic];
            for (&term, w) in terms[1..].iter().zip(rest) {
                let scaled = graph.scale(term, w)?;
                total = graph.add(total, scaled)?;
            }
            Ok((total, graph.scalar(total)))
        })?;
        if !loss.is_finite() {
            return Err(format!("replayed loss is not finite ({loss})").into());
        }
        let grads = timer.time("autodiff.backward", || graph.backward(total))?;
        timer.time("nn.adam", || self.adam.step_model(&mut self.model, &bound, &grads))?;
        Ok(loss)
    }
}

/// Step times and losses of one measured phase.
#[derive(Debug, Default)]
struct Phase {
    latencies: Vec<f64>,
    losses: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Phase {
    fn p50(&self) -> Result<f64, BenchError> {
        median(&self.latencies).ok_or_else(|| "no training step completed".into())
    }

    fn info(&self, out: &mut Outcome, prefix: &str) {
        out.info(
            prefix,
            Json::obj([
                ("attempted", Json::Int(self.attempted)),
                ("failed", Json::Int(self.failed)),
                ("latency", latency_json(&self.latencies)),
                ("last_loss", Json::Num(self.losses.last().copied().unwrap_or(f64::NAN))),
            ]),
        );
    }
}

/// Steps `experiment` for `items`.
fn steps(experiment: &mut PowerMapExperiment, items: Items) -> Result<Phase, BenchError> {
    let mut phase = Phase::default();
    let more = items.start();
    while more(phase.attempted as usize) {
        phase.attempted += 1;
        let start = Instant::now();
        let result = experiment.train_step();
        let elapsed = start.elapsed().as_secs_f64();
        match result {
            Ok(loss) => {
                phase.latencies.push(elapsed);
                phase.losses.push(loss);
            }
            Err(DeepOHeatError::Diverged { .. }) => phase.failed += 1,
            Err(err) => return Err(err.into()),
        }
    }
    Ok(phase)
}

/// Whether the replay reproduces `losses` (the experiment's first steps
/// from a fresh start) bit for bit.
fn replay_matches(config: &PowerMapExperimentConfig, losses: &[f64]) -> Result<Check, BenchError> {
    let mut replay = StepReplay::new(config.clone())?;
    let mut timer = LayerTimer::default();
    let mut matched = 0;
    for &expected in losses.iter().take(REPLAY_STEPS) {
        matched += usize::from(replay.step(&mut timer)?.to_bits() == expected.to_bits());
    }
    let compared = losses.len().min(REPLAY_STEPS);
    Ok(Check::new(
        "train_physics.replay_loss_bit_identical",
        compared > 0 && matched == compared,
        format!("{matched} of {compared} replayed step losses equal train_step's bit for bit"),
    ))
}

/// `train_physics`: the cost of a physics-informed training step.
pub fn physics(config: &RunConfig) -> Result<Outcome, BenchError> {
    let experiment_config = experiment_config(config.seed);
    let mut build = || {
        let mut experiment = PowerMapExperiment::new(experiment_config.clone())?;
        let loss = experiment.train_step()?;
        Ok((experiment, loss))
    };
    let (setup, (mut experiment, first_loss)) = setup_before(&mut build)?;

    let mut out = Outcome::default();
    out.info("functions_per_batch", Json::Int(experiment_config.functions_per_batch as u64));
    let finite = |phases: &[&Phase]| {
        let losses = phases.iter().flat_map(|p| p.losses.iter());
        Check::new(
            "train_physics.losses_finite",
            phases.iter().all(|p| p.failed == 0) && losses.clone().all(|l| l.is_finite()),
            format!("{} step losses, all finite", losses.count()),
        )
    };
    if !config.trace {
        let phase = steps(&mut experiment, config.measured())?;
        out.record_peak_rss()?;
        out.check(finite(&[&phase]));
        let mut losses = vec![first_loss];
        losses.extend(&phase.losses);
        out.check(replay_matches(&experiment_config, &losses)?);
        out.attempted = phase.attempted;
        out.failed = phase.failed;
        out.set("latency_p50_ms", phase.p50()? * 1e3);
        phase.info(&mut out, "steps");
        drop(experiment);
        out.set("setup_s", setup.after(&mut build)?);
    } else {
        let untraced = steps(&mut experiment, config.traced_third())?;
        let path = ledger::span_log_path(&config.workload, "traced");
        ledger::start_span_log(&path)?;
        let traced = steps(&mut experiment, Items::Count(untraced.attempted as usize));
        let program = ledger::stop_span_log(&path)?;
        let traced = traced?;

        // Fresh experiment and replay from the same configuration, step
        // for step on one thread: the end-to-end step against its layers.
        let pool = ThreadPool::new(1);
        let mut fresh = PowerMapExperiment::new(experiment_config.clone())?;
        let mut replay = StepReplay::new(experiment_config.clone())?;
        let mut timer = LayerTimer::default();
        let (mut e2e, mut matched) = (0.0, 0);
        pool.install(|| -> Result<(), BenchError> {
            for _ in 0..REPLAY_STEPS {
                let start = Instant::now();
                let expected = fresh.train_step()?;
                e2e += start.elapsed().as_secs_f64();
                matched += usize::from(replay.step(&mut timer)?.to_bits() == expected.to_bits());
            }
            Ok(())
        })?;
        out.check(Check::new(
            "train_physics.replay_loss_bit_identical",
            matched == REPLAY_STEPS,
            format!(
                "{matched} of {REPLAY_STEPS} replayed step losses equal train_step's bit for bit"
            ),
        ));
        out.check(finite(&[&untraced, &traced]));

        let mut ledger = Ledger::new(e2e, REPLAY_STEPS);
        for layer in LAYERS {
            ledger.covered_from(&timer, layer, |_| Work::None);
        }
        ledger.spans = program.spans;
        ledger.notes.push(format!(
            "step replayed through public functions on a 1-thread pool for {REPLAY_STEPS} steps, \
             against train_step of a fresh experiment with the same seed"
        ));
        out.attempted = untraced.attempted + traced.attempted;
        out.failed = untraced.failed + traced.failed;
        untraced.info(&mut out, "untraced_phase");
        traced.info(&mut out, "traced_phase");
        let overhead = traced.p50()? / untraced.p50()? - 1.0;
        out.ledger = Some((ledger, Ceilings::measure()?, overhead));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reproduces_train_step_bit_for_bit() {
        let config = PowerMapExperimentConfig {
            nx: 9,
            ny: 9,
            nz: 5,
            branch_hidden: vec![16, 16],
            trunk_hidden: vec![16, 16],
            latent_dim: 8,
            functions_per_batch: 3,
            interior_points: Some(40),
            boundary_points: Some(12),
            seed: 5,
            ..PowerMapExperimentConfig::default()
        };
        let mut experiment = PowerMapExperiment::new(config.clone()).unwrap();
        let losses: Vec<f64> = (0..4).map(|_| experiment.train_step().unwrap()).collect();
        let check = replay_matches(&config, &losses).unwrap();
        assert!(check.passed, "{}", check.detail);

        let mut replay = StepReplay::new(config).unwrap();
        let mut timer = LayerTimer::default();
        replay.step(&mut timer).unwrap();
        for layer in LAYERS {
            assert!(timer.get(layer).1 > 0, "{layer} was never charged");
        }
    }

    #[test]
    fn subsample_takes_everything_when_the_count_covers_the_pool() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(subsample(&mut rng, &[4, 5, 6], None), vec![4, 5, 6]);
        assert_eq!(subsample(&mut rng, &[4, 5, 6], Some(3)), vec![4, 5, 6]);
        let drawn = subsample(&mut rng, &[4, 5, 6], Some(2));
        assert_eq!(drawn.len(), 2);
        assert!(drawn.iter().all(|v| [4, 5, 6].contains(v)));
    }
}
