#![deny(unsafe_code)]
//! The reference-solver workloads on the §V.A chip (1 × 1 × 0.5 mm,
//! k = 0.1 W/mK, bottom convection h = 500 W/m²K) refined to a
//! 41 × 41 × 21 mesh:
//!
//! - `solve_single`: sequential `HeatProblem::solve` of seeded random
//!   tile floorplans, one map at a time;
//! - `solve_sweep`: `HeatProblem::solve_batch` over batches of
//!   [`SWEEP_BATCH`] maps of the same floorplan family.
//!
//! The solver's kernels (SpMV, SSOR apply, level-1 updates, SpMM, block
//! GEMM updates) are not public entry points, so a traced run *models*
//! them: each is timed per call on a 7-point replay operator of the
//! assembled size, built with `CooMatrix`, and multiplied by the call
//! counts the solver reports.

use std::time::Instant;

use deepoheat_bench::BenchError;
use deepoheat_chip::Chip;
use deepoheat_fdm::{
    BatchReport, BatchSolveOptions, BoundaryCondition, Face, FluxMap, HeatProblem, Solution,
    SolveOptions,
};
use deepoheat_linalg::{
    axpy, dot, norm2, CooMatrix, CsrMatrix, Matrix, Preconditioner, SsorPreconditioner,
};
use deepoheat_parallel::ThreadPool;
use rand::Rng;

use crate::inputs::{self, Stream};
use crate::ledger::{self, ratio, Ceilings, Ledger, Source, TracedPhase, Work};
use crate::report::{latency_json, Check, Json, Outcome};
use crate::stats::median;
use crate::{setup_before, Items, RunConfig};

/// Mesh the §V.A chip is refined to.
const MESH: (usize, usize, usize) = (41, 41, 21);
/// Maps per `solve_batch` call.
pub const SWEEP_BATCH: usize = 32;
/// Maps in the set-up warm-up batch of `solve_sweep`.
const WARMUP_BATCH: usize = 1;
/// A sampled batch column must match a single solve to this many kelvin.
const COLUMN_MATCH_KELVIN: f64 = 1e-5;
/// Solves replayed on one thread in a traced `solve_single` run.
const SINGLE_REPLAYS: usize = 3;
/// First input index of a traced run's phases: the untraced and traced
/// phases solve the same maps, so their difference is the tracing cost;
/// the 1-thread phase solves others.
const TRACED_BASE: u64 = 0;
const REPLAY_BASE: u64 = 1 << 20;

/// The §V.A chip on the refined mesh, bottom face convecting.
fn chip() -> Result<Chip, BenchError> {
    let (nx, ny, nz) = MESH;
    let mut chip = Chip::single_cuboid(1e-3, 1e-3, 0.5e-3, nx, ny, nz, 0.1)?;
    chip.set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: 500.0, ambient: 298.15 })?;
    Ok(chip)
}

/// The reference problem for one top-surface power map (paper units).
fn problem_for(chip: &Chip, map: &Matrix) -> Result<HeatProblem, BenchError> {
    let mut chip = chip.clone();
    chip.set_top_power_map_units(map)?;
    Ok(chip.heat_problem()?)
}

fn single_map(seed: u64, stream: Stream, index: u64) -> Result<Matrix, BenchError> {
    inputs::floorplan(&mut inputs::rng(seed, stream, index), MESH.0)
}

/// Batch `batch` of `stream`: its maps `batch · maps ..`.
fn map_batch(
    seed: u64,
    stream: Stream,
    batch: u64,
    maps: usize,
) -> Result<Vec<Matrix>, BenchError> {
    let first = batch * maps as u64;
    (first..first + maps as u64).map(|index| single_map(seed, stream, index)).collect()
}

/// Timed items of one phase of a solve workload.
#[derive(Debug, Default)]
struct Phase {
    /// Items started (solves, or batches).
    items: usize,
    /// Seconds per item.
    latencies: Vec<f64>,
    /// Maps solved.
    maps: u64,
    attempted: u64,
    failed: u64,
    /// CG iterations per map.
    iterations: Vec<f64>,
    /// Worst relative residual over every accepted map.
    worst_residual: f64,
    degraded: u64,
    reports: Vec<BatchReport>,
}

impl Phase {
    fn p50(&self) -> Result<f64, BenchError> {
        median(&self.latencies).ok_or_else(|| "no item was solved".into())
    }

    fn record(&mut self, solution: &Solution) {
        self.iterations.push(solution.iterations() as f64);
        self.worst_residual = self.worst_residual.max(solution.relative_residual());
        if solution.is_degraded() {
            self.degraded += 1;
            self.failed += 1;
        }
    }

    fn info(&self, out: &mut Outcome, prefix: &str) {
        let per_batch = |f: fn(&BatchReport) -> usize| {
            Json::nums(&self.reports.iter().map(|r| f(r) as f64).collect::<Vec<f64>>())
        };
        out.info(
            prefix,
            Json::obj([
                ("maps", Json::Int(self.maps)),
                ("attempted", Json::Int(self.attempted)),
                ("failed", Json::Int(self.failed)),
                ("degraded", Json::Int(self.degraded)),
                ("latency", latency_json(&self.latencies)),
                ("cg_iterations_p50", Json::Num(median(&self.iterations).unwrap_or(f64::NAN))),
                ("worst_relative_residual", Json::Num(self.worst_residual)),
                ("block_iterations_per_batch", per_batch(|r| r.block_iterations)),
                ("polished_per_batch", per_batch(|r| r.polished)),
            ]),
        );
    }
}

/// Solves seeded maps `first ..` one at a time (map and problem
/// construction are not measured).
fn single_phase(
    chip: &Chip,
    seed: u64,
    (stream, first): (Stream, u64),
    items: Items,
) -> Result<Phase, BenchError> {
    let mut phase = Phase::default();
    let more = items.start();
    while more(phase.items) {
        let index = first + phase.items as u64;
        phase.items += 1;
        let problem = problem_for(chip, &single_map(seed, stream, index)?)?;
        phase.attempted += 1;
        let start = Instant::now();
        let result = problem.solve(SolveOptions::default());
        let elapsed = start.elapsed().as_secs_f64();
        match result {
            Ok(solution) => {
                phase.latencies.push(elapsed);
                phase.maps += 1;
                phase.record(&solution);
            }
            Err(deepoheat_fdm::FdmError::SolveFailed { .. }) => phase.failed += 1,
            Err(err) => return Err(err.into()),
        }
    }
    Ok(phase)
}

/// `solve_single`: the paper's reference-solver baseline.
pub fn single(config: &RunConfig) -> Result<Outcome, BenchError> {
    let seed = config.seed;
    let warm = single_map(seed, Stream::Warmup, 0)?;
    let mut build = || {
        let chip = chip()?;
        problem_for(&chip, &warm)?.solve(SolveOptions::default())?;
        Ok(chip)
    };
    let (setup, chip) = setup_before(&mut build)?;

    let tolerance = SolveOptions::default().tolerance;
    let mut out = Outcome::default();
    out.info("mesh", Json::str("41x41x21"));
    out.info("tolerance", Json::Num(tolerance));
    if !config.trace {
        let phase = single_phase(&chip, seed, (Stream::Maps, 0), config.measured())?;
        out.record_peak_rss()?;
        out.check(Check::new(
            "solve_single.converged_and_not_degraded",
            phase.degraded == 0 && phase.failed == 0 && phase.worst_residual <= tolerance,
            format!(
                "{} solves, {} degraded, worst relative residual {:.3e} (tolerance {tolerance:e})",
                phase.maps, phase.degraded, phase.worst_residual
            ),
        ));
        out.attempted = phase.attempted;
        out.failed = phase.failed;
        out.set("latency_p50_ms", phase.p50()? * 1e3);
        phase.info(&mut out, "solves");
        out.set("setup_s", setup.after(&mut build)?);
    } else {
        let same_maps = (Stream::Trace, TRACED_BASE);
        let untraced = single_phase(&chip, seed, same_maps, config.traced_third())?;
        let traced_path = ledger::span_log_path(&config.workload, "traced");
        ledger::start_span_log(&traced_path)?;
        let traced = single_phase(&chip, seed, same_maps, Items::Count(untraced.items));
        let program = ledger::stop_span_log(&traced_path)?;
        let traced = traced?;

        // The same kind of item on one thread, with the program's spans
        // recorded to split off assembly.
        let pool = ThreadPool::new(1);
        let replay_path = ledger::span_log_path(&config.workload, "replay");
        ledger::start_span_log(&replay_path)?;
        let replayed = pool.install(|| {
            single_phase(&chip, seed, (Stream::Trace, REPLAY_BASE), Items::Count(SINGLE_REPLAYS))
        });
        let one_thread = ledger::stop_span_log(&replay_path)?;
        let replayed = replayed?;

        let e2e: f64 = replayed.latencies.iter().sum();
        let mut ledger = Ledger::new(e2e, replayed.latencies.len());
        let solves = replayed.maps as f64;
        let iterations: f64 = replayed.iterations.iter().sum();
        let attempts = span_count(&one_thread, "fdm.cg.attempt");
        span_layer(&mut ledger, &one_thread, "fdm.assemble", true);
        span_layer(&mut ledger, &one_thread, "fdm.solve", false);
        let kernels = pool.install(Kernels::measure)?;
        ledger.covered(
            "fdm.precond_build",
            Source::Modelled,
            kernels.ssor_build * solves,
            solves as u64,
            Work::None,
        );
        let per_solve_calls = iterations + attempts;
        ledger.covered(
            "linalg.spmv",
            Source::Modelled,
            kernels.spmv * per_solve_calls,
            per_solve_calls as u64,
            Work::Bytes(kernels.spmv_bytes * per_solve_calls),
        );
        ledger.covered(
            "linalg.precond_apply",
            Source::Modelled,
            kernels.ssor_apply * per_solve_calls,
            per_solve_calls as u64,
            Work::Bytes(kernels.ssor_bytes * per_solve_calls),
        );
        ledger.covered(
            "linalg.level1",
            Source::Modelled,
            kernels.cg_level1 * iterations,
            iterations as u64,
            Work::Bytes(kernels.cg_level1_bytes * iterations),
        );
        let mut all_iterations = untraced.iterations.clone();
        all_iterations.extend(&traced.iterations);
        ledger.extra.insert("fdm.cg.iterations.p50", median(&all_iterations).unwrap_or(0.0));
        ledger.extra.insert(
            "fdm.cg.attempts_per_solve",
            ratio(span_count(&program, "fdm.cg.attempt"), span_count(&program, "fdm.solve")),
        );
        ledger.spans = program.spans;
        ledger.notes.push(kernels.note());

        let all = [&untraced, &traced, &replayed];
        out.check(Check::new(
            "solve_single.converged_and_not_degraded",
            all.iter().all(|p| p.degraded == 0 && p.failed == 0 && p.worst_residual <= tolerance),
            format!(
                "{} solves across the traced run's phases",
                all.iter().map(|p| p.maps).sum::<u64>()
            ),
        ));
        out.attempted = untraced.attempted + traced.attempted;
        out.failed = untraced.failed + traced.failed;
        untraced.info(&mut out, "untraced_phase");
        traced.info(&mut out, "traced_phase");
        replayed.info(&mut out, "one_thread_phase");
        let overhead = traced.p50()? / untraced.p50()? - 1.0;
        out.ledger = Some((ledger, Ceilings::measure()?, overhead));
    }
    Ok(out)
}

/// Solves map batches `first ..`. With `column_errors`, one sampled
/// column of each batch is compared with a single solve (kept out of
/// traced phases, whose spans must be the batch's own).
fn sweep_phase(
    chip: &Chip,
    base: &HeatProblem,
    seed: u64,
    (stream, first): (Stream, u64),
    items: Items,
    mut column_errors: Option<&mut Vec<f64>>,
) -> Result<Phase, BenchError> {
    let mut phase = Phase::default();
    let more = items.start();
    while more(phase.items) {
        let batch = first + phase.items as u64;
        phase.items += 1;
        let maps = map_batch(seed, stream, batch, SWEEP_BATCH)?;
        let flux: Vec<FluxMap> =
            maps.iter().map(|m| FluxMap::Field(chip.units_to_flux(m))).collect();
        phase.attempted += maps.len() as u64;
        let start = Instant::now();
        let outcome = base.solve_batch(Face::ZMax, &flux, &BatchSolveOptions::default());
        let elapsed = start.elapsed().as_secs_f64();
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(deepoheat_fdm::FdmError::SolveFailed { .. }) => {
                phase.failed += maps.len() as u64;
                continue;
            }
            Err(err) => return Err(err.into()),
        };
        phase.latencies.push(elapsed);
        phase.maps += outcome.solutions.len() as u64;
        for solution in &outcome.solutions {
            phase.record(solution);
        }
        phase.reports.push(outcome.report);

        if let Some(errors) = column_errors.as_deref_mut() {
            let column = inputs::rng(seed, Stream::Checks, batch).gen_range(0..maps.len());
            let single = problem_for(chip, &maps[column])?.solve(SolveOptions::default())?;
            let worst = outcome.solutions[column]
                .temperatures()
                .iter()
                .zip(single.temperatures())
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            errors.push(worst);
        }
    }
    Ok(phase)
}

fn sweep_base(chip: &Chip) -> Result<HeatProblem, BenchError> {
    let (nx, ny, _) = MESH;
    problem_for(chip, &Matrix::zeros(nx, ny))
}

/// `solve_sweep`: many right-hand sides against one operator.
pub fn sweep(config: &RunConfig) -> Result<Outcome, BenchError> {
    let seed = config.seed;
    let warm: Vec<FluxMap> = {
        let chip = chip()?;
        map_batch(seed, Stream::Warmup, 0, WARMUP_BATCH)?
            .iter()
            .map(|m| FluxMap::Field(chip.units_to_flux(m)))
            .collect()
    };
    let mut build = || {
        let chip = chip()?;
        let base = sweep_base(&chip)?;
        base.solve_batch(Face::ZMax, &warm, &BatchSolveOptions::default())?;
        Ok((chip, base))
    };
    let (setup, (chip, base)) = setup_before(&mut build)?;

    let tolerance = SolveOptions::default().tolerance;
    let mut out = Outcome::default();
    out.info("mesh", Json::str("41x41x21"));
    out.info("maps_per_batch", Json::Int(SWEEP_BATCH as u64));
    let mut column_errors = Vec::new();
    let phases = if !config.trace {
        let phase = sweep_phase(
            &chip,
            &base,
            seed,
            (Stream::Maps, 0),
            config.measured(),
            Some(&mut column_errors),
        )?;
        out.record_peak_rss()?;
        out.attempted = phase.attempted;
        out.failed = phase.failed;
        out.set("latency_p50_ms", phase.p50()? * 1e3);
        phase.info(&mut out, "batches");
        out.set("setup_s", setup.after(&mut build)?);
        vec![phase]
    } else {
        let same_maps = (Stream::Trace, TRACED_BASE);
        let untraced = sweep_phase(
            &chip,
            &base,
            seed,
            same_maps,
            config.traced_third(),
            Some(&mut column_errors),
        )?;
        let traced_path = ledger::span_log_path(&config.workload, "traced");
        ledger::start_span_log(&traced_path)?;
        let traced = sweep_phase(&chip, &base, seed, same_maps, Items::Count(untraced.items), None);
        let program = ledger::stop_span_log(&traced_path)?;
        let traced = traced?;

        // One batch on one thread, with the program's spans recorded.
        let pool = ThreadPool::new(1);
        let replay_path = ledger::span_log_path(&config.workload, "replay");
        ledger::start_span_log(&replay_path)?;
        let replayed = pool.install(|| {
            sweep_phase(&chip, &base, seed, (Stream::Trace, REPLAY_BASE), Items::Count(1), None)
        });
        let one_thread = ledger::stop_span_log(&replay_path)?;
        let replayed = replayed?;
        let report = replayed.reports.first().copied().unwrap_or_default();

        let mut ledger = Ledger::new(replayed.latencies.iter().sum(), replayed.latencies.len());
        span_layer(&mut ledger, &one_thread, "fdm.batch.assemble", true);
        span_layer(&mut ledger, &one_thread, "fdm.batch.solve", false);
        // Columns the block phase leaves unconverged are polished by the
        // scalar CG ladder, whose attempts are spans of their own; their
        // iterations are backed out of the per-column counts at the
        // modelled cost of one scalar CG iteration.
        let polish = one_thread.spans.get("fdm.cg.attempt").copied().unwrap_or_default();
        ledger.covered(
            "fdm.batch.polish",
            Source::Span,
            polish.total_seconds,
            polish.count,
            Work::None,
        );
        let kernels = pool.install(Kernels::measure)?;
        let scalar_iteration = kernels.spmv + kernels.ssor_apply + kernels.cg_level1;
        let polish_iterations = ratio(polish.total_seconds, scalar_iteration);
        let block_iterations = report.block_iterations as f64;
        let column_iterations =
            (replayed.iterations.iter().sum::<f64>() - polish_iterations).max(block_iterations);
        kernels.block_layers(&mut ledger, column_iterations, block_iterations);
        let traced_report = traced.reports.first().copied().unwrap_or_default();
        ledger.extra.insert("fdm.block_cg.iterations", traced_report.block_iterations as f64);
        ledger.extra.insert("fdm.block_cg.recycle_hit_ratio", traced_report.recycle_hit_ratio);
        ledger.extra.insert(
            "fdm.batch.polished_frac",
            ratio(traced_report.polished as f64, traced_report.columns as f64),
        );
        ledger.spans = program.spans;
        ledger.notes.push(kernels.note());
        ledger.notes.push(format!(
            "block kernels modelled at the replayed batch's mean active width {:.2} \
             ({column_iterations:.0} block column-iterations over {block_iterations} block \
             iterations, after backing out ~{polish_iterations:.0} polish iterations). A column \
             deflated out of its sub-batch reports the sub-batch's full iteration count, so on \
             warm-started sub-batches the width and the block layers are overstated \
             (coverage above 1); recycle-space projection and absorption are not modelled",
            ratio(column_iterations, block_iterations)
        ));

        out.attempted = untraced.attempted + traced.attempted;
        out.failed = untraced.failed + traced.failed;
        untraced.info(&mut out, "untraced_phase");
        traced.info(&mut out, "traced_phase");
        replayed.info(&mut out, "one_thread_phase");
        let overhead = traced.p50()? / untraced.p50()? - 1.0;
        out.ledger = Some((ledger, Ceilings::measure()?, overhead));
        vec![untraced, traced, replayed]
    };
    let worst_column = column_errors.iter().copied().fold(0.0, f64::max);
    out.check(Check::new(
        "solve_sweep.converged_and_not_degraded",
        phases.iter().all(|p| p.degraded == 0 && p.failed == 0 && p.worst_residual <= tolerance),
        format!(
            "{} maps, {} degraded, worst relative residual {:.3e} (tolerance {tolerance:e})",
            phases.iter().map(|p| p.maps).sum::<u64>(),
            phases.iter().map(|p| p.degraded).sum::<u64>(),
            phases.iter().map(|p| p.worst_residual).fold(0.0, f64::max),
        ),
    ));
    out.check(Check::new(
        "solve_sweep.sampled_column_matches_single_solve",
        !column_errors.is_empty() && worst_column <= COLUMN_MATCH_KELVIN,
        format!(
            "{} sampled column(s), worst |batch - single| = {worst_column:.3e} K (limit {COLUMN_MATCH_KELVIN:e} K)",
            column_errors.len()
        ),
    ));
    Ok(out)
}

fn span_count(phase: &TracedPhase, name: &str) -> f64 {
    phase.spans.get(name).map_or(0.0, |s| s.count as f64)
}

/// Adds a program span's self time as a layer; `covered` spans are
/// disjoint from the modelled kernels, the others contain them.
fn span_layer(ledger: &mut Ledger, phase: &TracedPhase, name: &str, covered: bool) {
    let stat = phase.spans.get(name).copied().unwrap_or_default();
    if covered {
        ledger.covered(name, Source::Span, stat.self_seconds, stat.count, Work::None);
    } else {
        let denominator = ledger.e2e_seconds;
        ledger.aside(name, Source::Span, stat.total_seconds, stat.count, denominator);
    }
}

/// Per-call times (seconds) and computed bytes of the solver kernels on
/// a 7-point replay operator the size of the assembled system, measured
/// on the calling thread's pool.
#[derive(Debug, Clone, Copy)]
struct Kernels {
    rows: usize,
    nnz: usize,
    spmv: f64,
    spmv_bytes: f64,
    ssor_build: f64,
    ssor_apply: f64,
    ssor_bytes: f64,
    /// One scalar-CG iteration's vector work: two dots, a norm, two
    /// axpys and the direction update.
    cg_level1: f64,
    cg_level1_bytes: f64,
    /// `A·P` for a block of [`BLOCK`] vectors.
    spmm: f64,
    /// The three `αᵀP`-style block updates at width [`BLOCK`].
    block_update: f64,
    /// Two `BLOCK × BLOCK` Gram blocks.
    gram: f64,
    /// One row's elementwise block update (`x += u`, `r -= v`, `p = z + w`).
    row_updates: f64,
}

/// Block width the block kernels are measured at (the batch solver's
/// default sub-batch size).
const BLOCK: usize = 8;
const KERNEL_REPS: usize = 15;

/// The 7-point operator of a conduction mesh: −1 per neighbour link and
/// a diagonal that dominates it, in CSR form.
fn replay_operator(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    let index = |i: usize, j: usize, k: usize| (k * ny + j) * nx + i;
    let n = nx * ny * nz;
    let mut coo = CooMatrix::new(n, n);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let row = index(i, j, k);
                let mut links = 0.0;
                let mut link = |col: usize| {
                    coo.push(row, col, -1.0);
                    links += 1.0;
                };
                if i > 0 {
                    link(index(i - 1, j, k));
                }
                if i + 1 < nx {
                    link(index(i + 1, j, k));
                }
                if j > 0 {
                    link(index(i, j - 1, k));
                }
                if j + 1 < ny {
                    link(index(i, j + 1, k));
                }
                if k > 0 {
                    link(index(i, j, k - 1));
                }
                if k + 1 < nz {
                    link(index(i, j, k + 1));
                }
                coo.push(row, row, links + 0.01);
            }
        }
    }
    coo.to_csr()
}

fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples).unwrap_or(f64::NAN)
}

impl Kernels {
    fn measure() -> Result<Kernels, BenchError> {
        let (nx, ny, nz) = MESH;
        let a = replay_operator(nx, ny, nz);
        let (n, nnz) = (a.rows(), a.nnz());
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.1).collect();
        let mut y = vec![0.0; n];
        let spmv = time_median(KERNEL_REPS, || {
            let _ = a.spmv_into(&x, &mut y);
            std::hint::black_box(&y);
        });
        let ssor_build = time_median(5, || {
            std::hint::black_box(SsorPreconditioner::new(&a, 1.5).ok());
        });
        let ssor = SsorPreconditioner::new(&a, 1.5)?;
        let ssor_apply = time_median(KERNEL_REPS, || {
            ssor.apply(&x, &mut y);
            std::hint::black_box(&y);
        });
        let (mut p, mut r, mut z, w) = (x.clone(), x.clone(), x.clone(), x.clone());
        let cg_level1 = time_median(KERNEL_REPS, || {
            let res = norm2(&r);
            let pap = dot(&p, &w);
            let alpha = 1e-3 / (1.0 + pap.abs() + res);
            axpy(alpha, &p, &mut z);
            axpy(-alpha, &w, &mut r);
            let beta = 1e-3 / (1.0 + dot(&r, &z).abs());
            for (pi, &zi) in p.iter_mut().zip(&z) {
                *pi = zi + beta * *pi;
            }
            std::hint::black_box(&p);
        });

        let block = Matrix::from_fn(BLOCK, n, |s, j| x[j] + s as f64);
        let mut q = Matrix::zeros(BLOCK, n);
        let spmm = time_median(KERNEL_REPS, || {
            let _ = a.spmm_into(&block, &mut q);
            std::hint::black_box(&q);
        });
        let alpha = Matrix::from_fn(BLOCK, BLOCK, |i, j| if i == j { 0.5 } else { 1e-3 });
        let block_update = time_median(KERNEL_REPS, || {
            for _ in 0..3 {
                std::hint::black_box(alpha.matmul(&block).ok());
            }
        });
        let gram = time_median(KERNEL_REPS, || {
            for _ in 0..2 {
                let g = Matrix::from_fn(BLOCK, BLOCK, |i, j| dot(block.row(i), q.row(j)));
                std::hint::black_box(g);
            }
        });
        let mut row = block.row(0).to_vec();
        let row_updates = time_median(KERNEL_REPS, || {
            for _ in 0..3 {
                for (ri, &bi) in row.iter_mut().zip(block.row(1)) {
                    *ri += 1e-3 * bi;
                }
            }
            std::hint::black_box(&row);
        });

        let (nf, nnzf) = (n as f64, nnz as f64);
        Ok(Kernels {
            rows: n,
            nnz,
            spmv,
            // Values and column indices once, row pointers, x and y.
            spmv_bytes: 16.0 * nnzf + 8.0 * (nf + 1.0) + 16.0 * nf,
            ssor_build,
            ssor_apply,
            // Two sweeps over the entries plus seven vector passes.
            ssor_bytes: 32.0 * nnzf + 56.0 * nf,
            cg_level1,
            // norm 1, dots 2 + 2, axpys 3 + 3, update 3 vector passes.
            cg_level1_bytes: 112.0 * nf,
            spmm,
            block_update,
            gram,
            row_updates,
        })
    }

    fn note(&self) -> String {
        let us = |s: f64| s * 1e6;
        format!(
            "solver kernels are modelled: per-call times on a 7-point replay operator \
             ({} rows, {} nonzeros) built with CooMatrix, times the solver's call counts; \
             bytes are computed from operand sizes. Per call (us): spmv {:.1}, ssor build {:.1}, \
             ssor apply {:.1}, CG level-1 iteration {:.1}, spmm x{BLOCK} {:.1}, block updates \
             x{BLOCK} {:.1}, Gram pair x{BLOCK} {:.1}, row updates {:.1}",
            self.rows,
            self.nnz,
            us(self.spmv),
            us(self.ssor_build),
            us(self.ssor_apply),
            us(self.cg_level1),
            us(self.spmm),
            us(self.block_update),
            us(self.gram),
            us(self.row_updates),
        )
    }

    /// The block-CG layers of a batch that took `block_iterations` block
    /// iterations and `column_iterations` column-iterations in total,
    /// modelled at the mean active width `w̄ = column / block`.
    fn block_layers(&self, ledger: &mut Ledger, column_iterations: f64, block_iterations: f64) {
        let (nf, nnzf) = (self.rows as f64, self.nnz as f64);
        let width = ratio(column_iterations, block_iterations);
        let scale = width / BLOCK as f64;
        ledger.covered("fdm.precond_build", Source::Modelled, self.ssor_build, 1, Work::None);
        ledger.covered(
            "linalg.spmm",
            Source::Modelled,
            self.spmm * scale * block_iterations,
            block_iterations as u64,
            // The operator streams once per block product; each active
            // column reads and writes one vector.
            Work::Bytes(
                block_iterations * (16.0 * nnzf + 8.0 * nf) + column_iterations * 16.0 * nf,
            ),
        );
        ledger.covered(
            "linalg.precond_apply",
            Source::Modelled,
            self.ssor_apply * column_iterations,
            column_iterations as u64,
            Work::Bytes((32.0 * nnzf + 56.0 * nf) * column_iterations),
        );
        ledger.covered(
            "linalg.block_update",
            Source::Modelled,
            self.block_update * scale * scale * block_iterations,
            3 * block_iterations as u64,
            Work::Flops(6.0 * width * width * nf * block_iterations),
        );
        ledger.covered(
            "linalg.level1",
            Source::Modelled,
            self.gram * scale * scale * block_iterations + self.row_updates * column_iterations,
            block_iterations as u64,
            Work::Bytes(
                2.0 * width * width * 16.0 * nf * block_iterations + 72.0 * nf * column_iterations,
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_operator_has_the_seven_point_structure() {
        let a = replay_operator(4, 3, 2);
        assert_eq!(a.rows(), 24);
        // Every node has itself plus one entry per neighbour link.
        let links = 3 * 3 * 2 + 4 * 2 * 2 + 4 * 3;
        assert_eq!(a.nnz(), 24 + 2 * links);
        assert!(a.is_symmetric(0.0));
        assert!(SsorPreconditioner::new(&a, 1.5).is_ok());
    }

    #[test]
    fn block_layers_scale_with_the_mean_active_width() {
        let kernels = Kernels {
            rows: 100,
            nnz: 700,
            spmv: 1.0,
            spmv_bytes: 0.0,
            ssor_build: 0.5,
            ssor_apply: 2.0,
            ssor_bytes: 0.0,
            cg_level1: 0.0,
            cg_level1_bytes: 0.0,
            spmm: 8.0,
            block_update: 64.0,
            gram: 64.0,
            row_updates: 1.0,
        };
        let mut ledger = Ledger::new(1.0, 1);
        // Width 4 on average: 10 block iterations, 40 column-iterations.
        kernels.block_layers(&mut ledger, 40.0, 10.0);
        let seconds = |name: &str| ledger.layers.iter().find(|l| l.name == name).unwrap().seconds;
        assert!((seconds("linalg.spmm") - 8.0 * 0.5 * 10.0).abs() < 1e-9);
        assert!((seconds("linalg.precond_apply") - 80.0).abs() < 1e-9);
        assert!((seconds("linalg.block_update") - 64.0 * 0.25 * 10.0).abs() < 1e-9);
        assert!((seconds("linalg.level1") - (64.0 * 0.25 * 10.0 + 40.0)).abs() < 1e-9);
    }
}
