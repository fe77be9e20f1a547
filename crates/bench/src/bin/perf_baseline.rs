#![deny(unsafe_code)]
//! Serial-vs-pool performance baseline for the `deepoheat-parallel`
//! substrate: times the four hot layers (dense matmul, CG solve, FDM
//! end-to-end, NN inference + one training epoch per experiment) once on
//! a 1-thread pool and once on the configured pool, and writes the
//! timings, speedup ratios and pool width to `BENCH_parallel.json`.
//!
//! ```text
//! cargo run --release -p deepoheat-bench --bin perf_baseline -- [--quick] [--repeats N]
//! ```
//!
//! The pool's determinism contract means both columns compute *identical
//! bits* — only wall-clock differs — so the speedup column is a pure
//! scheduling measurement. On a single-core host every ratio is ≈ 1.0 by
//! construction; the interesting numbers come from multi-core runners
//! (the CI job uploads this file as an artifact). `DEEPOHEAT_NUM_THREADS`
//! overrides the pool width of the "pool" column.

use deepoheat::experiments::{
    HtcExperiment, HtcExperimentConfig, PowerMapExperiment, PowerMapExperimentConfig, Trainable,
    VolumetricExperiment, VolumetricExperimentConfig,
};
use deepoheat_autodiff::Activation;
use deepoheat_bench::{init_telemetry, run_or_exit, time_median, Args, BenchError};
use deepoheat_fdm::{BoundaryCondition, Face, FluxMap, HeatProblem, SolveOptions, StructuredGrid};
use deepoheat_linalg::{
    conjugate_gradient, dot, CgOptions, CooMatrix, JacobiPreconditioner, Matrix,
};
use deepoheat_nn::{Mlp, MlpConfig};
use deepoheat_parallel as parallel;
use deepoheat_telemetry as telemetry;
use rand::SeedableRng;

fn main() {
    run_or_exit("parallel", run);
}

/// Records one serial-vs-pool comparison as telemetry gauges and a table
/// row. The gauges land in the `BENCH_parallel.json` manifest metrics.
fn report(name: &str, serial: f64, pooled: f64) {
    let speedup = if pooled > 0.0 { serial / pooled } else { 1.0 };
    telemetry::gauge(&format!("parallel.{name}.serial_secs"), serial);
    telemetry::gauge(&format!("parallel.{name}.pool_secs"), pooled);
    telemetry::gauge(&format!("parallel.{name}.speedup"), speedup);
    println!("{name:<24} serial {serial:>9.4}s   pool {pooled:>9.4}s   speedup {speedup:>5.2}x");
}

/// Times `f` on a fresh 1-thread pool and on the configured pool.
fn compare<F>(name: &str, repeats: usize, mut f: F) -> Result<(), BenchError>
where
    F: FnMut() -> Result<(), BenchError>,
{
    let one = parallel::ThreadPool::new(1);
    let serial = time_median(repeats, || one.install(&mut f))?;
    let pooled = time_median(repeats, &mut f)?;
    report(name, serial, pooled);
    Ok(())
}

/// A 7-point-Laplacian SPD system on an `n³` grid, the sparsity pattern of
/// every solve in the workspace.
fn laplacian(n: usize) -> (deepoheat_linalg::CsrMatrix, Vec<f64>) {
    let idx = |i: usize, j: usize, k: usize| (k * n + j) * n + i;
    let mut coo = CooMatrix::new(n * n * n, n * n * n);
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let r = idx(i, j, k);
                coo.push(r, r, 6.0);
                for (ni, nj, nk) in [(i + 1, j, k), (i, j + 1, k), (i, j, k + 1)] {
                    if ni < n && nj < n && nk < n {
                        let c = idx(ni, nj, nk);
                        coo.push(r, c, -1.0);
                        coo.push(c, r, -1.0);
                    }
                }
            }
        }
    }
    let b: Vec<f64> = (0..n * n * n).map(|i| ((i * 13) % 7) as f64 * 0.1 + 0.5).collect();
    (coo.to_csr(), b)
}

fn run() -> Result<(), BenchError> {
    let args = Args::from_env();
    let bench_telemetry = init_telemetry("parallel", &args);
    let quick = args.flag("quick");
    let repeats = args.get_usize("repeats", if quick { 3 } else { 5 })?;
    let threads = parallel::num_threads();
    telemetry::gauge("parallel.threads", threads as f64);

    println!("== perf_baseline: serial (1 thread) vs pool ({threads} threads) ==\n");

    // --- 1 · dense matmul --------------------------------------------------
    // The 160 case runs in both modes: benchcheck's
    // `parallel.matmul_160.speedup` gauge guards the
    // PARALLEL_MATMUL_THRESHOLD retune (a 160³ product sits just above the
    // threshold, so pool dispatch must never lose measurably to serial).
    let mut matmul_sizes = vec![160usize];
    if !quick {
        matmul_sizes.push(320);
    }
    for m in matmul_sizes {
        let a = Matrix::from_fn(m, m, |i, j| ((i * 31 + j * 7) % 17) as f64 * 0.1 - 0.8);
        let b = Matrix::from_fn(m, m, |i, j| ((i * 13 + j * 3) % 23) as f64 * 0.05 - 0.5);
        compare(&format!("matmul_{m}"), repeats, || {
            let c = a.matmul(&b)?;
            std::hint::black_box(c.sum());
            Ok(())
        })?;
    }

    // --- 1b · single-thread kernel throughput ------------------------------
    // Absolute GFLOP/s of the packed register-blocked kernel on one
    // thread, plus its ratio over the naive triple loop at 512 (the ratio
    // is robust across machines; the absolute numbers have generous
    // benchcheck floors).
    let one = parallel::ThreadPool::new(1);
    for m in [64usize, 160, 512] {
        let a = Matrix::from_fn(m, m, |i, j| ((i * 31 + j * 7) % 17) as f64 * 0.1 - 0.8);
        let b = Matrix::from_fn(m, m, |i, j| ((i * 13 + j * 3) % 23) as f64 * 0.05 - 0.5);
        let blocked = time_median(repeats, || {
            one.install(|| {
                std::hint::black_box(a.matmul(&b)?.sum());
                Ok(())
            })
        })?;
        let flops = 2.0 * (m as f64).powi(3);
        let gflops = if blocked > 0.0 { flops / blocked / 1e9 } else { 0.0 };
        telemetry::gauge(&format!("linalg.matmul_{m}.gflops"), gflops);
        println!("matmul_{m:<17} {gflops:>9.2} GFLOP/s (1 thread)");
        if m == 512 {
            let naive = time_median(repeats, || {
                one.install(|| {
                    std::hint::black_box(a.matmul_naive(&b)?.sum());
                    Ok(())
                })
            })?;
            let ratio = if blocked > 0.0 { naive / blocked } else { 1.0 };
            telemetry::gauge("linalg.matmul_512.speedup_vs_naive", ratio);
            println!("matmul_512_vs_naive      {ratio:>9.2}x (1 thread)");
        }
    }

    // --- 2 · CG solve ------------------------------------------------------
    let n = if quick { 16 } else { 32 };
    let (lap, rhs) = laplacian(n);
    let pc = JacobiPreconditioner::new(&lap)?;
    let cg_options = CgOptions { max_iterations: 10_000, tolerance: 1e-8, record_trace: false };
    compare(&format!("cg_{n}cubed"), repeats, || {
        let out = conjugate_gradient(&lap, &rhs, None, &pc, cg_options)?;
        std::hint::black_box(dot(&out.solution, &out.solution));
        Ok(())
    })?;

    // --- 3 · FDM end-to-end (§V.A geometry, refined) -----------------------
    let (gx, gz) = if quick { (21, 11) } else { (41, 21) };
    let grid = StructuredGrid::new(gx, gx, gz, 1e-3, 1e-3, 0.5e-3)?;
    let mut problem = HeatProblem::new(grid, 0.1);
    problem
        .set_boundary(Face::ZMax, BoundaryCondition::HeatFlux { flux: FluxMap::Uniform(1000.0) })?;
    problem
        .set_boundary(Face::ZMin, BoundaryCondition::Convection { htc: 500.0, ambient: 298.15 })?;
    compare(&format!("fdm_{gx}x{gx}x{gz}"), repeats, || {
        let solution = problem.solve(SolveOptions::default())?;
        std::hint::black_box(solution.max_temperature());
        Ok(())
    })?;

    // --- 4a · batched NN inference -----------------------------------------
    let batch = if quick { 1024 } else { 4096 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mlp = Mlp::new(&MlpConfig::new(3, &[128, 128, 128], 100, Activation::Swish), &mut rng)?;
    let x = Matrix::from_fn(batch, 3, |i, j| ((i * 5 + j * 11) % 101) as f64 / 101.0);
    compare(&format!("nn_inference_{batch}"), repeats, || {
        let y = mlp.forward_inference(&x)?;
        std::hint::black_box(y.sum());
        Ok(())
    })?;

    // --- 4b · one training epoch per experiment ----------------------------
    // Fresh experiment per timed column so both columns step from the same
    // initial state (the pool contract makes the *values* identical; this
    // keeps the *work* identical too).
    let steps = if quick { 1 } else { 3 };
    let train = |steps: usize, exp: &mut dyn Trainable| -> Result<(), BenchError> {
        for _ in 0..steps {
            exp.train_step()?;
        }
        Ok(())
    };
    type Build = dyn Fn() -> Result<Box<dyn Trainable>, BenchError>;
    let train_pair = |name: &str, build: &Build| -> Result<(), BenchError> {
        // Untimed warmup run: the first construction pays allocator and
        // page-cache costs that would otherwise bias the serial column.
        train(1, build()?.as_mut())?;
        let serial = time_median(1, || one.install(|| train(steps, build()?.as_mut())))?;
        let pooled = time_median(1, || train(steps, build()?.as_mut()))?;
        report(name, serial, pooled);
        Ok(())
    };
    train_pair("train_power_map", &|| {
        Ok(Box::new(PowerMapExperiment::new(PowerMapExperimentConfig::default())?))
    })?;
    train_pair("train_htc", &|| Ok(Box::new(HtcExperiment::new(HtcExperimentConfig::default())?)))?;
    train_pair("train_volumetric", &|| {
        Ok(Box::new(VolumetricExperiment::new(VolumetricExperimentConfig::default())?))
    })?;

    // --- 5 · training-step latency quantiles -------------------------------
    // The epochs above fed the train.step.seconds span histogram; surface
    // its bounded-error quantiles as benchcheck-visible gauges.
    if let Some(step) = telemetry::histogram_snapshot("train.step.seconds") {
        telemetry::gauge("train.step.seconds.p50", step.p50());
        telemetry::gauge("train.step.seconds.p99", step.p99());
        telemetry::gauge("train.step.seconds.p999", step.p999());
        println!(
            "\ntrain step latency       p50 {:.4}s   p99 {:.4}s   p99.9 {:.4}s   ({} step(s))",
            step.p50(),
            step.p99(),
            step.p999(),
            step.count
        );
    }

    println!("\nthreads = {threads} (set DEEPOHEAT_NUM_THREADS to override)");
    println!("manifest: BENCH_parallel.json");
    bench_telemetry.finish();
    Ok(())
}
