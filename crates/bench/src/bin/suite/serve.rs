#![deny(unsafe_code)]
//! The served-query workload `serve_field`: `ServeFrontend` with two
//! shards over the paper-scale surrogate (branch 441→9×256→128, trunk
//! Fourier(64, 2π)→5×128→128), one closed-loop client — a designer who
//! waits for each field before asking for the next — with Zipf(1.1)
//! popularity over 16 designs, every request the full §V.A mesh at F64,
//! caches warmed during set-up.

use std::time::Instant;

use deepoheat::{BranchEmbedding, DeepOHeat, DeepOHeatConfig, DEFAULT_TRUNK_CHUNK};
use deepoheat_bench::BenchError;
use deepoheat_fdm::StructuredGrid;
use deepoheat_linalg::Matrix;
use deepoheat_nn::Dense;
use deepoheat_parallel::{chunk_ranges, ThreadPool};
use deepoheat_serve::{FrontendOptions, InferenceEngine, ServeError, ServeFrontend, ServeOptions};

use crate::inputs::{self, Stream};
use crate::ledger::{self, ratio, Ceilings, LayerTimer, Ledger, TracedPhase, Work};
use crate::report::{latency_json, Check, Json, Outcome};
use crate::stats::median;
use crate::{setup_before, Items, RunConfig};

/// Distinct designs `serve_field` requests, and their popularity skew.
const FIELD_DESIGNS: usize = 16;
const ZIPF_EXPONENT: f64 = 1.1;
/// Probe points of each cache-warming request in set-up.
const WARM_PROBES: usize = 64;
/// Engine shards behind the front-end.
const SHARDS: usize = 2;
/// Requests of `serve_field` whose fields are checked bit for bit, drawn
/// from its first [`CHECK_WINDOW`] requests.
const FIELD_CHECKS: usize = 4;
const CHECK_WINDOW: usize = 16;
/// Designs replayed layer by layer in a traced run.
const FIELD_REPLAYS: usize = 8;

const DENSE_LAYERS: [&str; 6] = [
    "nn.trunk.dense0",
    "nn.trunk.dense1",
    "nn.trunk.dense2",
    "nn.trunk.dense3",
    "nn.trunk.dense4",
    "nn.trunk.dense5",
];

/// The paper-scale §V.A surrogate with seeded weights.
fn paper_model(seed: u64) -> Result<DeepOHeat, BenchError> {
    let config = DeepOHeatConfig::single_branch(441, &[256; 9], &[128; 5], 128)
        .with_fourier(64, std::f64::consts::TAU)
        .with_output_transform(298.15, 10.0);
    Ok(DeepOHeat::new(&config, &mut inputs::rng(seed, Stream::Model, 0))?)
}

/// Normalised coordinates of every node of the §V.A 21 × 21 × 11 mesh.
fn field_coords() -> Result<Matrix, BenchError> {
    Ok(StructuredGrid::new(21, 21, 11, 1e-3, 1e-3, 0.5e-3)?.node_positions_normalized())
}

fn build_frontend(model: &DeepOHeat) -> Result<ServeFrontend, BenchError> {
    let options = FrontendOptions { shards: SHARDS, ..FrontendOptions::default() };
    Ok(ServeFrontend::new(model.clone(), options)?)
}

/// Shed, deadline and shard failures count against the run; anything
/// else is a bug in the benchmark or the program and aborts it.
fn counts_as_failed(err: &ServeError) -> bool {
    matches!(
        err,
        ServeError::Overloaded { .. }
            | ServeError::DeadlineExceeded { .. }
            | ServeError::ShardFailed { .. }
    )
}

/// One served request, in seconds: from the call to the answer, and the
/// part of that it waited in its shard's queue.
#[derive(Debug, Clone, Copy)]
struct Request {
    latency: f64,
    queue: f64,
}

#[derive(Debug, Default)]
struct Phase {
    requests: Vec<Request>,
    attempted: u64,
    failed: u64,
    /// Answers kept for the output checks, with the design each asked for.
    kept: Vec<(usize, Matrix)>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.requests.iter().map(|r| r.latency).collect()
    }

    fn p50(&self) -> Result<f64, BenchError> {
        median(&self.latencies()).ok_or_else(|| "no request was served".into())
    }

    /// Share of the summed latency spent waiting in shard queues.
    fn queue_share(&self) -> f64 {
        let sum = |f: fn(&Request) -> f64| self.requests.iter().map(f).sum::<f64>();
        ratio(sum(|r| r.queue), sum(|r| r.latency))
    }

    fn info(&self, out: &mut Outcome, prefix: &str) {
        let queue: Vec<f64> = self.requests.iter().map(|r| r.queue).collect();
        out.info(
            prefix,
            Json::obj([
                ("served", Json::Int(self.requests.len() as u64)),
                ("attempted", Json::Int(self.attempted)),
                ("failed", Json::Int(self.failed)),
                ("latency", latency_json(&self.latencies())),
                ("queue_wait", latency_json(&queue)),
            ]),
        );
    }
}

/// One client calling for request `i`'s design — the `i`-th draw of
/// `picks` — once the answer to request `i - 1` is back, for `items`.
/// Answers to the requests in `keep` are kept for the output checks.
fn closed_loop(
    frontend: &ServeFrontend,
    designs: &[Matrix],
    coords: &Matrix,
    mut picks: impl FnMut() -> usize,
    items: Items,
    keep: &[usize],
) -> Result<Phase, BenchError> {
    let mut phase = Phase::default();
    let more = items.start();
    while more(phase.attempted as usize) {
        let i = phase.attempted as usize;
        let design = picks();
        phase.attempted += 1;
        let sent = Instant::now();
        let result = frontend.call(&[&designs[design]], coords);
        let latency = sent.elapsed().as_secs_f64();
        match result {
            Ok(served) => {
                phase.requests.push(Request { latency, queue: served.queue_micros as f64 * 1e-6 });
                if keep.contains(&i) {
                    phase.kept.push((design, served.values));
                }
            }
            Err(err) if counts_as_failed(&err) => phase.failed += 1,
            Err(err) => return Err(err.into()),
        }
    }
    Ok(phase)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.iter().map(|v| v.to_bits()).collect()
}

/// `serve_field`: interactive whole-field viewing of a popular design set.
pub fn field(config: &RunConfig) -> Result<Outcome, BenchError> {
    let seed = config.seed;
    let coords = field_coords()?;
    let designs = (0..FIELD_DESIGNS as u64)
        .map(|i| {
            inputs::branch_row(inputs::floorplan(&mut inputs::rng(seed, Stream::Designs, i), 21)?)
        })
        .collect::<Result<Vec<Matrix>, BenchError>>()?;
    let cdf = inputs::zipf_cdf(FIELD_DESIGNS, ZIPF_EXPONENT);
    // Request `i` always asks for the `i`-th draw of the stream's
    // popularity sequence.
    let picks = |stream: Stream| {
        let mut popularity = inputs::rng(seed, stream, 0);
        let cdf = &cdf;
        move || inputs::pick(&mut popularity, cdf)
    };
    let warm_probes = inputs::probes(&mut inputs::rng(seed, Stream::Warmup, 0), WARM_PROBES);

    let mut build = || {
        let model = paper_model(seed)?;
        let frontend = build_frontend(&model)?;
        for design in &designs {
            frontend.call(&[design], &warm_probes)?;
        }
        frontend.call(&[&designs[0]], &coords)?;
        Ok((model, frontend))
    };
    let (setup, (model, frontend)) = setup_before(&mut build)?;

    let mut out = Outcome::default();
    out.info("mesh_points", Json::Int(coords.rows() as u64));
    out.info("designs", Json::Int(FIELD_DESIGNS as u64));
    if !config.trace {
        let keep = inputs::sample_indices(
            &mut inputs::rng(seed, Stream::Checks, 0),
            CHECK_WINDOW,
            FIELD_CHECKS,
        );
        let phase = closed_loop(
            &frontend,
            &designs,
            &coords,
            picks(Stream::Requests),
            config.measured(),
            &keep,
        )?;
        out.record_peak_rss()?;
        let mut identical = 0;
        for (design, values) in &phase.kept {
            let expected = model.predict(&[&designs[*design]], &coords)?;
            identical += usize::from(bits(values) == bits(&expected));
        }
        out.check(Check::new(
            "serve_field.bit_identical_to_predict",
            !phase.kept.is_empty() && identical == phase.kept.len(),
            format!(
                "{identical} of {} sampled fields equal DeepOHeat::predict bit for bit",
                phase.kept.len()
            ),
        ));
        out.attempted = phase.attempted;
        out.failed = phase.failed;
        out.set("latency_p50_ms", phase.p50()? * 1e3);
        phase.info(&mut out, "requests");
        drop((model, frontend));
        out.set("setup_s", setup.after(&mut build)?);
    } else {
        let untraced = closed_loop(
            &frontend,
            &designs,
            &coords,
            picks(Stream::Trace),
            config.traced_third(),
            &[],
        )?;
        // The same requests again with tracing on: the difference is the
        // tracing cost.
        let same = Items::Count(untraced.attempted as usize);
        let (traced, program) = traced_phase(config, &frontend, |f| {
            closed_loop(f, &designs, &coords, picks(Stream::Trace), same, &[])
        })?;
        let replayed: Vec<&Matrix> = designs.iter().take(FIELD_REPLAYS).collect();
        layer_ledger(&mut out, &model, &replayed, &coords, &untraced, &traced, program)?;
    }
    Ok(out)
}

/// Runs `phase` with a telemetry recorder installed and returns it with
/// what the program recorded and the front-end's retry count.
fn traced_phase(
    config: &RunConfig,
    frontend: &ServeFrontend,
    phase: impl FnOnce(&ServeFrontend) -> Result<Phase, BenchError>,
) -> Result<(Phase, (TracedPhase, u64)), BenchError> {
    let path = ledger::span_log_path(&config.workload, "traced");
    let before = frontend.stats();
    ledger::start_span_log(&path)?;
    let result = phase(frontend);
    let program = ledger::stop_span_log(&path)?;
    let after = frontend.stats();
    Ok((result?, (program, after.retries - before.retries)))
}

fn trunk_parts(
    model: &DeepOHeat,
) -> Result<(&deepoheat_nn::FourierFeatures, &[Dense]), BenchError> {
    let fourier = model.fourier().ok_or("the paper surrogate has a Fourier layer")?;
    let layers = model.trunk().layers();
    if layers.len() != DENSE_LAYERS.len() {
        return Err(format!(
            "expected {} trunk layers, found {}",
            DENSE_LAYERS.len(),
            layers.len()
        )
        .into());
    }
    Ok((fourier, layers))
}

fn dense_flops(rows: usize, layer: &Dense) -> f64 {
    2.0 * (rows * layer.input_dim() * layer.output_dim()) as f64
}

/// Replays the engine's trunk evaluation (`eval_trunk_batch`) chunk by
/// chunk through the layers' public functions, charging each to its
/// layer.
fn replay_trunk(
    model: &DeepOHeat,
    embedding: &BranchEmbedding,
    coords: &Matrix,
    timer: &mut LayerTimer,
) -> Result<Matrix, BenchError> {
    let (fourier, layers) = trunk_parts(model)?;
    let activation = model.trunk().activation();
    let act = |v: f64| activation.eval(0, v);
    let (offset, scale) = model.output_transform();
    let (configs, latent) = (embedding.n_configs(), embedding.latent_dim());
    let n = coords.rows();
    let mut out = Matrix::zeros(configs, n);
    let mut col = 0;
    for range in chunk_ranges(n, DEFAULT_TRUNK_CHUNK) {
        let rows = range.len();
        let mut h = timer.time("nn.fourier", || -> Result<Matrix, BenchError> {
            Ok(fourier.forward_inference(&coords.row_block(range)?)?)
        })?;
        for (l, layer) in layers.iter().enumerate() {
            let flops = dense_flops(rows, layer);
            h = if l + 1 < layers.len() {
                timer
                    .time_work(DENSE_LAYERS[l], flops, || layer.forward_inference_fused(&h, act))?
            } else {
                timer.time_work(DENSE_LAYERS[l], flops, || layer.forward_inference(&h))?
            };
        }
        let combine_flops = 2.0 * (configs * latent * rows) as f64;
        let block = timer.time_work("linalg.combine", combine_flops, || {
            embedding.features().matmul_transposed_affine(&h, offset, scale)
        })?;
        timer.time("linalg.combine", || {
            for r in 0..configs {
                out.row_mut(r)[col..col + block.cols()].copy_from_slice(block.row(r));
            }
        });
        col += rows;
    }
    Ok(out)
}

/// Builds the serving ledger: the traced phase gives the queue wait and
/// the cache behaviour; a 1-thread
/// replay of `designs` over `coords` through the engine's trunk and
/// through each layer's public functions gives the query path's layers
/// and `layers.coverage`. Requests hit the warmed cache, so the query
/// path is the trunk evaluation; the replay encodes each design once,
/// untimed.
fn layer_ledger(
    out: &mut Outcome,
    model: &DeepOHeat,
    designs: &[&Matrix],
    coords: &Matrix,
    untraced: &Phase,
    traced: &Phase,
    (program, retries): (TracedPhase, u64),
) -> Result<(), BenchError> {
    let hits = program.counters.get("serve.cache.hits").copied().unwrap_or(0);
    let misses = program.counters.get("serve.cache.misses").copied().unwrap_or(0);

    let pool = ThreadPool::new(1);
    let mut engine = InferenceEngine::new(model.clone(), ServeOptions::default())?;
    let mut timer = LayerTimer::default();
    let (mut e2e, mut identical) = (0.0, 0usize);
    pool.install(|| -> Result<(), BenchError> {
        // One untimed pass warms allocations and code paths.
        if let Some(&design) = designs.first() {
            let embedding = engine.encode_branches(&[design])?;
            engine.eval_trunk_batch(&embedding, coords)?;
            replay_trunk(model, &embedding, coords, &mut LayerTimer::default())?;
        }
        for &design in designs {
            let embedding = engine.encode_branches(&[design])?;
            let start = Instant::now();
            let expected = engine.eval_trunk_batch(&embedding, coords)?;
            e2e += start.elapsed().as_secs_f64();
            let replayed = replay_trunk(model, &embedding, coords, &mut timer)?;
            identical += usize::from(bits(&replayed) == bits(&expected));
        }
        Ok(())
    })?;
    out.check(Check::new(
        "serve.replay_bit_identical_to_engine",
        identical == designs.len(),
        format!(
            "{identical} of {} replayed requests equal the engine's answer bit for bit",
            designs.len()
        ),
    ));

    let mut ledger = Ledger::new(e2e, designs.len());
    ledger.covered_from(&timer, "nn.fourier", |_| Work::None);
    for layer in DENSE_LAYERS {
        ledger.covered_from(&timer, layer, Work::Flops);
    }
    ledger.covered_from(&timer, "linalg.combine", Work::Flops);
    ledger.extra.insert("serve.queue_wait.share", traced.queue_share());
    ledger.extra.insert("serve.cache.hit_ratio", ratio(hits as f64, (hits + misses) as f64));
    ledger.extra.insert("serve.retries_per_req", ratio(retries as f64, traced.attempted as f64));
    ledger.spans = program.spans;
    ledger.notes.push(format!(
        "trunk layers replayed on a 1-thread pool over {} design(s); queue wait share from the \
         traced phase at the production pool width",
        designs.len()
    ));

    let overhead = traced.p50()? / untraced.p50()? - 1.0;
    out.attempted = untraced.attempted + traced.attempted;
    out.failed = untraced.failed + traced.failed;
    untraced.info(out, "untraced_phase");
    traced.info(out, "traced_phase");
    out.ledger = Some((ledger, Ceilings::measure()?, overhead));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_share_is_of_the_summed_latency() {
        let phase = Phase {
            requests: vec![
                Request { latency: 0.10, queue: 0.03 },
                Request { latency: 0.30, queue: 0.07 },
            ],
            attempted: 2,
            failed: 0,
            kept: Vec::new(),
        };
        assert!((phase.queue_share() - 0.25).abs() < 1e-12);
        assert!((phase.p50().unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn closed_loop_serves_the_picked_designs_in_order() {
        let config = DeepOHeatConfig::single_branch(4, &[8], &[8], 6);
        let model = DeepOHeat::new(&config, &mut inputs::rng(1, Stream::Model, 0)).unwrap();
        let frontend = build_frontend(&model).unwrap();
        let designs = vec![Matrix::filled(1, 4, 0.5), Matrix::filled(1, 4, 0.25)];
        let coords = Matrix::from_fn(16, 3, |i, j| 0.05 * (i + j) as f64);
        let mut next = 0;
        let picks = || {
            next += 1;
            next % 2
        };
        let phase =
            closed_loop(&frontend, &designs, &coords, picks, Items::Count(12), &[2, 3]).unwrap();
        assert_eq!((phase.attempted, phase.failed, phase.requests.len()), (12, 0, 12));
        assert!(phase.requests.iter().all(|r| r.latency >= r.queue && r.queue >= 0.0));
        // Request 2 asked for the third draw (design 1), request 3 for design 0.
        assert_eq!(phase.kept.iter().map(|(d, _)| *d).collect::<Vec<_>>(), [1, 0]);
        for (design, values) in &phase.kept {
            let expected = model.predict(&[&designs[*design]], &coords).unwrap();
            assert_eq!(bits(values), bits(&expected));
        }
    }

    #[test]
    fn only_load_failures_count_as_failed() {
        assert!(counts_as_failed(&ServeError::Overloaded { shard: 0, depth: 1 }));
        assert!(counts_as_failed(&ServeError::DeadlineExceeded { stage: "queue" }));
        assert!(!counts_as_failed(&ServeError::ShuttingDown));
    }
}
