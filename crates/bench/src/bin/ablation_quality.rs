#![deny(unsafe_code)]
//! Accuracy-per-budget ablations of the paper's design choices (§V.A.3):
//! for a fixed physics-informed training budget, compare the Swish
//! activation against Tanh and Sine, and the plain trunk against the
//! Fourier-features trunk.
//!
//! ```text
//! cargo run --release -p deepoheat-bench --bin ablation_quality -- \
//!     [--iterations N] [--quick]
//! ```
//!
//! The paper states "Swish yields relatively better results compared to
//! other popular activation functions used in PINNs, such as Sine and
//! Tanh" — this harness reproduces that comparison on our budget.

use deepoheat::experiments::{PowerMapExperiment, PowerMapExperimentConfig};
use deepoheat::FourierConfig;
use deepoheat_autodiff::Activation;
use deepoheat_bench::{init_telemetry, run_or_exit, secs, Args, BenchError};
use deepoheat_grf::paper_test_suite;

fn evaluate(
    config: PowerMapExperimentConfig,
    iterations: usize,
    label: &str,
) -> Result<(), BenchError> {
    let t0 = std::time::Instant::now();
    let mut experiment = PowerMapExperiment::new(config)?;
    let records = experiment.run(iterations, iterations.max(1), |_| {})?;
    let final_loss = records.last().map_or(f64::NAN, |r| r.loss);

    // Mean MAPE/PAPE across the ten test maps.
    let mut mape_sum = 0.0;
    let mut pape_max: f64 = 0.0;
    let suite = paper_test_suite(20);
    for (_, map) in &suite {
        let errors = experiment.evaluate(&map.to_grid(21))?;
        mape_sum += errors.mape;
        pape_max = pape_max.max(errors.pape);
    }
    println!(
        "{label:<28} loss {final_loss:>10.3e}  mean MAPE {:>7.3}%  worst PAPE {:>7.3}%  ({})",
        mape_sum / suite.len() as f64,
        pape_max,
        secs(t0.elapsed())
    );
    Ok(())
}

fn main() {
    run_or_exit("ablation_quality", run);
}

fn run() -> Result<(), BenchError> {
    let args = Args::from_env();
    let bench_telemetry = init_telemetry("ablation_quality", &args);
    let quick = args.flag("quick");
    let iterations = args.get_usize("iterations", if quick { 60 } else { 800 })?;

    let base = || {
        let mut cfg = PowerMapExperimentConfig::default();
        if quick {
            cfg.branch_hidden = vec![48; 2];
            cfg.trunk_hidden = vec![32; 2];
            cfg.latent_dim = 32;
        }
        cfg
    };

    println!("== Ablations: activation and Fourier features (§V.A.3) ==");
    println!("physics-informed training, {iterations} iterations each\n");

    for act in [Activation::Swish, Activation::Tanh, Activation::Sine] {
        let mut cfg = base();
        cfg.activation = act;
        evaluate(cfg, iterations, &format!("activation={act}"))?;
    }

    for (label, fourier) in [
        ("fourier=off".to_string(), None),
        (
            "fourier=2pi".to_string(),
            Some(FourierConfig { n_frequencies: 32, std: std::f64::consts::TAU }),
        ),
        (
            "fourier=pi/2".to_string(),
            Some(FourierConfig { n_frequencies: 32, std: std::f64::consts::FRAC_PI_2 }),
        ),
    ] {
        let mut cfg = base();
        cfg.fourier = fourier;
        evaluate(cfg, iterations, &label)?;
    }
    bench_telemetry.finish();
    Ok(())
}
