#![deny(unsafe_code)]
//! Regenerates **Fig. 5** and the §V.B metrics of the paper: temperature
//! fields of the dual-HTC experiment for the two unseen test pairs
//! `(h_top, h_bot) = (1000, 333.33)` and `(500, 500)`, with MAPE/PAPE and
//! the min/max temperature deltas the paper reads off the colour bars.
//!
//! ```text
//! cargo run --release -p deepoheat-bench --bin fig5_htc -- \
//!     [--mode supervised|physics] [--iterations N] [--dataset N] [--out DIR] [--quick]
//! ```
//!
//! Defaults use the supervised (data-driven) mode, which reaches the
//! paper's reported accuracy in about two minutes on a CPU; the
//! paper-faithful `--mode physics` trains on pure residuals but needs a
//! far larger iteration budget (the paper used 2 V100-hours) — see
//! EXPERIMENTS.md.

use deepoheat::experiments::{HtcExperiment, HtcExperimentConfig};
use deepoheat::report::{side_by_side, write_csv};
use deepoheat_bench::{init_telemetry, run_or_exit, secs, Args, BenchError};
use deepoheat_linalg::Matrix;

fn main() {
    run_or_exit("fig5_htc", run);
}

fn run() -> Result<(), BenchError> {
    let args = Args::from_env();
    let bench_telemetry = init_telemetry("fig5_htc", &args);
    let mode = args.get_str("mode", "supervised");
    let quick = args.flag("quick");
    let iterations = args.get_usize("iterations", if quick { 200 } else { 3000 })?;
    let dataset = args.get_usize("dataset", if quick { 15 } else { 150 })?;
    let out_dir = args.get_str("out", "target/fig5");
    let seed = args.get_usize("seed", 0)? as u64;

    let mut config = HtcExperimentConfig { seed, ..Default::default() };
    if quick {
        config.branch_hidden = vec![8; 2];
        config.trunk_hidden = vec![24; 2];
        config.latent_dim = 16;
        config.nx = 11;
        config.volume_points = 128;
        config.power_layer_points = 64;
    }
    match mode.as_str() {
        "supervised" => config = config.supervised(dataset),
        "physics" => {}
        other => return Err(format!("unknown --mode {other:?}; use supervised or physics").into()),
    }

    println!("== Fig. 5: dual-HTC experiment (§V.B) ==");
    println!("mode: {mode}, iterations: {iterations}");
    let t0 = std::time::Instant::now();
    let mut experiment = HtcExperiment::new(config)?;
    experiment.run(iterations, (iterations / 10).max(1), |r| {
        eprintln!("  iter {:>5}  loss {:.4e}  lr {:.2e}", r.iteration, r.loss, r.learning_rate);
    })?;
    println!("trained in {}\n", secs(t0.elapsed()));

    std::fs::create_dir_all(&out_dir)?;
    for (case, (htc_top, htc_bottom)) in [("case1", (1000.0, 333.33)), ("case2", (500.0, 500.0))] {
        let errors = experiment.evaluate(&(htc_top, htc_bottom))?;
        let reference = experiment.reference_field(&(htc_top, htc_bottom))?;
        let predicted = experiment.predict_field(&(htc_top, htc_bottom))?;
        let chip = experiment.reference_chip(&(htc_top, htc_bottom))?;
        let grid = *chip.grid();

        let fold = |f: &[f64]| {
            f.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
        };
        let (rmin, rmax) = fold(&reference);
        let (pmin, pmax) = fold(&predicted);

        println!("--- {case}: HTC top {htc_top}, bottom {htc_bottom}");
        println!("    MAPE {:.3}%  PAPE {:.3}%", errors.mape, errors.pape);
        println!("    reference range  [{rmin:.3}, {rmax:.3}] K");
        println!("    predicted range  [{pmin:.3}, {pmax:.3}] K");
        println!(
            "    colour-bar deltas: min {:.3} K, max {:.3} K (paper: within 0.1 K)",
            (rmin - pmin).abs(),
            (rmax - pmax).abs()
        );

        // Mid-height slice, as a stand-in for the paper's volume renders.
        let mid = grid.nz() / 2;
        let ref_slice =
            Matrix::from_fn(grid.nx(), grid.ny(), |i, j| reference[grid.index(i, j, mid)]);
        let pred_slice =
            Matrix::from_fn(grid.nx(), grid.ny(), |i, j| predicted[grid.index(i, j, mid)]);
        println!("{}", side_by_side("reference (mid slice)", &ref_slice, "deepoheat", &pred_slice));

        write_csv(&ref_slice, format!("{out_dir}/{case}_reference_mid.csv"))?;
        write_csv(&pred_slice, format!("{out_dir}/{case}_predicted_mid.csv"))?;
    }
    println!("paper reports: case1 MAPE 0.032% PAPE 0.043%; case2 MAPE 0.011% PAPE 0.025%");
    println!("CSV slices written to {out_dir}/");
    bench_telemetry.finish();
    Ok(())
}
