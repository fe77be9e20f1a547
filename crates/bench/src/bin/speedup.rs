#![deny(unsafe_code)]
//! Regenerates the **speedup comparison** of §V.A.7 and §V.B: wall-clock
//! time of reference solves vs DeepOHeat predictions.
//!
//! ```text
//! cargo run --release -p deepoheat-bench --bin speedup -- [--repeats N] [--train N]
//! ```
//!
//! Three comparisons are reported, because the baselines differ:
//!
//! 1. **Surrogate inference time** — directly comparable to the paper's
//!    "0.1 s on a CPU" claim (§V.A.7); the per-query cost of a trained
//!    DeepOHeat is hardware- and framework-bound, not solver-bound.
//! 2. **Against the paper's Celsius baseline** — the paper measures
//!    Celsius 3D at ~5 min (§V.A) and ~2 min (§V.B) per solve; dividing
//!    those by our measured inference time reproduces the paper's
//!    3000×/1200× CPU speedup claims.
//! 3. **Against our own finite-volume solver** — our FV substitute is
//!    itself ~4 orders of magnitude faster than Celsius on these small
//!    meshes, so a *single* prediction does not beat it. The operator
//!    advantage that survives even against a fast solver is **batch
//!    amortisation**: one trunk pass serves an entire batch of
//!    configurations, so the marginal cost per design collapses — which
//!    is exactly the thermal-optimisation workload the paper motivates.

use deepoheat::experiments::{
    HtcExperiment, HtcExperimentConfig, PowerMapExperiment, PowerMapExperimentConfig,
};
use deepoheat_bench::{init_telemetry, run_or_exit, time_median, Args, BenchError};
use deepoheat_linalg::Matrix;
use deepoheat_telemetry as telemetry;

fn main() {
    run_or_exit("speedup", run);
}

fn run() -> Result<(), BenchError> {
    let args = Args::from_env();
    let bench_telemetry = init_telemetry("speedup", &args);
    let repeats = args.get_usize("repeats", 7)?;
    let train = args.get_usize("train", 50)?;

    println!("== Speedup: reference solver vs DeepOHeat inference (§V.A.7, §V.B) ==\n");

    // --- §V.A configuration -------------------------------------------------
    let mut pm = PowerMapExperiment::new(PowerMapExperimentConfig::default())?;
    pm.run(train, train.max(1), |_| {})?;
    let map = deepoheat_grf::paper_test_suite(20)[0].1.to_grid(21);

    let solve = time_median(repeats, || {
        pm.reference_field(&map)?;
        Ok(())
    })?;
    let infer = time_median(repeats.max(15), || {
        pm.predict_field(&map)?;
        Ok(())
    })?;
    // Batched inference: 50 configurations share one trunk pass.
    let batch = 50usize;
    let batch_inputs = Matrix::from_fn(batch, 441, |i, j| ((i * 7 + j) % 9) as f64 * 0.2);
    let coords = pm.chip().grid().node_positions_normalized();
    let infer_batch = time_median(repeats.max(15), || {
        pm.model().predict(&[&batch_inputs], &coords)?;
        Ok(())
    })?;

    telemetry::gauge("bench.speedup.va.solve_ms", solve * 1e3);
    telemetry::gauge("bench.speedup.va.infer_ms", infer * 1e3);
    telemetry::gauge(
        "bench.speedup.va.infer_batch_ms_per_config",
        infer_batch * 1e3 / batch as f64,
    );
    println!("§V.A power-map chip (21x21x11, 4851 nodes):");
    println!("  our FV reference solve          {:>10.2} ms", solve * 1e3);
    println!("  DeepOHeat inference (1 config)  {:>10.2} ms   (paper: ~100 ms CPU)", infer * 1e3);
    println!(
        "  DeepOHeat inference (50 configs) {:>9.2} ms = {:.3} ms/config",
        infer_batch * 1e3,
        infer_batch * 1e3 / batch as f64
    );
    println!(
        "  vs paper's Celsius baseline (300 s): {:>8.0}x   (paper claims 3000x CPU)",
        300.0 / infer
    );
    println!("  vs our FV solver, single query:      {:>8.2}x", solve / infer);
    println!(
        "  vs our FV solver, batched:           {:>8.1}x   (amortised across a design sweep)\n",
        solve / (infer_batch / batch as f64)
    );

    // --- §V.B configuration -------------------------------------------------
    let mut htc = HtcExperiment::new(HtcExperimentConfig::default().supervised(10))?;
    htc.run(train, train.max(1), |_| {})?;
    let solve = time_median(repeats, || {
        htc.reference_field(&(700.0, 450.0))?;
        Ok(())
    })?;
    let infer = time_median(repeats.max(15), || {
        htc.predict_field(&(700.0, 450.0))?;
        Ok(())
    })?;
    let h_top = Matrix::from_fn(batch, 1, |i, _| 0.4 + 0.01 * i as f64);
    let h_bot = Matrix::from_fn(batch, 1, |i, _| 0.9 - 0.01 * i as f64);
    let htc_coords = htc.eval_coords();
    let infer_batch = time_median(repeats.max(15), || {
        htc.model().predict(&[&h_top, &h_bot], htc_coords)?;
        Ok(())
    })?;

    telemetry::gauge("bench.speedup.vb.solve_ms", solve * 1e3);
    telemetry::gauge("bench.speedup.vb.infer_ms", infer * 1e3);
    telemetry::gauge(
        "bench.speedup.vb.infer_batch_ms_per_config",
        infer_batch * 1e3 / batch as f64,
    );
    println!("§V.B dual-HTC chip (21x21x12, 5292 nodes):");
    println!("  our FV reference solve          {:>10.2} ms", solve * 1e3);
    println!("  DeepOHeat inference (1 config)  {:>10.2} ms   (paper: ~100 ms CPU)", infer * 1e3);
    println!(
        "  DeepOHeat inference (50 configs) {:>9.2} ms = {:.3} ms/config",
        infer_batch * 1e3,
        infer_batch * 1e3 / batch as f64
    );
    println!(
        "  vs paper's Celsius baseline (120 s): {:>8.0}x   (paper claims 1200x CPU)",
        120.0 / infer
    );
    println!("  vs our FV solver, single query:      {:>8.2}x", solve / infer);
    println!(
        "  vs our FV solver, batched:           {:>8.1}x\n",
        solve / (infer_batch / batch as f64)
    );

    // --- scaling sweep -------------------------------------------------------
    println!("grid-size sweep: FV solve cost grows superlinearly with unknowns,");
    println!("inference grows linearly in query points and is constant in design");
    println!("complexity (power map detail, number of configurations):");
    println!(
        "{:>12} {:>14} {:>18} {:>22}",
        "grid", "FV solve (ms)", "inference (ms)", "batched (ms/config)"
    );
    for n in [11usize, 21, 31, 41] {
        let nz = n / 2 + 1;
        use deepoheat_fdm::{
            BoundaryCondition, Face, FluxMap, HeatProblem, SolveOptions, StructuredGrid,
        };
        let grid = StructuredGrid::new(n, n, nz, 1e-3, 1e-3, 0.5e-3)?;
        let mut problem = HeatProblem::new(grid, 0.1);
        problem.set_boundary(
            Face::ZMax,
            BoundaryCondition::HeatFlux { flux: FluxMap::Uniform(2500.0) },
        )?;
        problem.set_boundary(
            Face::ZMin,
            BoundaryCondition::Convection { htc: 500.0, ambient: 298.15 },
        )?;
        let solve_ms = time_median(3, || {
            problem.solve(SolveOptions::default())?;
            Ok(())
        })? * 1e3;

        let sweep_coords = grid.node_positions_normalized();
        let one = Matrix::zeros(1, 441);
        let infer_ms = time_median(5, || {
            pm.model().predict(&[&one], &sweep_coords)?;
            Ok(())
        })? * 1e3;
        let batch_ms = time_median(3, || {
            pm.model().predict(&[&batch_inputs], &sweep_coords)?;
            Ok(())
        })? * 1e3
            / batch as f64;
        telemetry::event(
            "bench.speedup.sweep",
            &[
                ("grid", format!("{n}x{n}x{nz}").into()),
                ("solve_ms", solve_ms.into()),
                ("infer_ms", infer_ms.into()),
                ("batched_ms_per_config", batch_ms.into()),
            ],
        );
        println!(
            "{:>12} {:>14.2} {:>18.2} {:>22.3}",
            format!("{n}x{n}x{nz}"),
            solve_ms,
            infer_ms,
            batch_ms
        );
    }
    bench_telemetry.finish();
    Ok(())
}
