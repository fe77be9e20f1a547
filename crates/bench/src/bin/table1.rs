#![deny(unsafe_code)]
//! Regenerates **Table I** of the paper: MAPE and PAPE of the DeepOHeat
//! surrogate against the reference solver on the ten unseen test power
//! maps `p₁ … p₁₀` (§V.A.6).
//!
//! ```text
//! cargo run --release -p deepoheat-bench --bin table1 -- \
//!     [--mode physics|supervised] [--iterations N] [--dataset N] [--seed S] [--quick]
//! ```
//!
//! Defaults train the paper-faithful *physics-informed* model for 1500
//! iterations (~3 min on a laptop CPU); `--mode supervised` trains the
//! data-driven DeepONet baseline (reference \[16\] of the paper) instead,
//! which reaches the sharpest accuracy. `--quick` shrinks everything for
//! a smoke run.

use deepoheat::experiments::{PowerMapExperiment, PowerMapExperimentConfig};
use deepoheat::report::table_row;
use deepoheat_bench::{init_telemetry, run_or_exit, secs, Args, BenchError};
use deepoheat_grf::paper_test_suite;
use deepoheat_telemetry as telemetry;

fn main() {
    run_or_exit("table1", run);
}

fn run() -> Result<(), BenchError> {
    let args = Args::from_env();
    let bench_telemetry = init_telemetry("table1", &args);
    let mode = args.get_str("mode", "physics");
    let quick = args.flag("quick");
    // Supervised steps are ~3x cheaper than jet-propagating physics steps,
    // so the default budgets differ.
    let default_iterations = match (quick, mode.as_str()) {
        (true, _) => 100,
        (false, "supervised") => 4000,
        (false, _) => 1500,
    };
    let iterations = args.get_usize("iterations", default_iterations)?;
    let dataset = args.get_usize("dataset", if quick { 20 } else { 300 })?;
    let seed = args.get_usize("seed", 0)? as u64;

    let mut config = PowerMapExperimentConfig { seed, ..Default::default() };
    if quick {
        config.branch_hidden = vec![48; 2];
        config.trunk_hidden = vec![32; 2];
        config.latent_dim = 32;
    }
    if mode == "supervised" {
        config = config.supervised(dataset);
        // Fourier features sharpen hot spots in the supervised regression
        // (no PDE-residual conditioning issue there, unlike physics mode).
        if !quick {
            config.fourier =
                Some(deepoheat::FourierConfig { n_frequencies: 32, std: std::f64::consts::TAU });
        }
    } else if mode != "physics" {
        return Err(format!("unknown --mode {mode:?}; use physics or supervised").into());
    }

    println!("== Table I: 2-D power map experiment (§V.A) ==");
    println!("mode: {mode}, iterations: {iterations}, seed: {seed}");
    let t0 = std::time::Instant::now();
    let mut experiment = PowerMapExperiment::new(config)?;
    let train_span = telemetry::span("bench.table1.train");
    experiment.run(iterations, (iterations / 10).max(1), |r| {
        eprintln!("  iter {:>5}  loss {:.4e}  lr {:.2e}", r.iteration, r.loss, r.learning_rate);
    })?;
    drop(train_span);
    println!("trained in {}", secs(t0.elapsed()));

    let suite = paper_test_suite(20);
    let mut mape_row = Vec::new();
    let mut pape_row = Vec::new();
    let mut header = String::from("            ");
    for (name, map) in &suite {
        let grid_map = map.to_grid(21);
        let errors = experiment.evaluate(&grid_map)?;
        telemetry::event(
            "bench.table1.result",
            &[
                ("map", name.as_str().into()),
                ("mape", errors.mape.into()),
                ("pape", errors.pape.into()),
            ],
        );
        header.push_str(&format!(" {name:>10}"));
        mape_row.push(errors.mape);
        pape_row.push(errors.pape);
    }
    telemetry::gauge(
        "bench.table1.mape.mean",
        mape_row.iter().sum::<f64>() / mape_row.len() as f64,
    );
    telemetry::gauge(
        "bench.table1.pape.mean",
        pape_row.iter().sum::<f64>() / pape_row.len() as f64,
    );
    println!("\n{header}");
    println!("{}", table_row("MAPE (%)", &mape_row, 3));
    println!("{}", table_row("PAPE (%)", &pape_row, 3));
    println!("\npaper reports: MAPE 0.03/0.03/0.02/0.05/0.14/0.04/0.13/0.07/0.16/0.08");
    println!("               PAPE 0.10/0.20/0.24/0.38/0.52/0.49/0.71/0.66/1.00/0.40");
    bench_telemetry.finish();
    Ok(())
}
