#![deny(unsafe_code)]
//! Volumetric (3-D) power maps — the configuration family §III of the
//! paper defines and its conclusion names as future work.
//!
//! Trains a DeepOHeat surrogate whose branch consumes a full 3-D power
//! map (one value per mesh node) and evaluates it on unseen stacked-tier
//! layouts, the situation that motivates 3D-IC thermal analysis in the
//! first place.
//!
//! ```text
//! cargo run --release --example volumetric_power
//! ```

use deepoheat::experiments::{
    volumetric_test_suite, VolumetricExperiment, VolumetricExperimentConfig,
};
use deepoheat::report::side_by_side;
use deepoheat_linalg::Matrix;
use deepoheat_telemetry::{self as telemetry, ConsoleSink};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = VolumetricExperimentConfig::default();
    let (nx, ny, nz) = (config.nx, config.ny, config.nz);

    telemetry::Recorder::builder("volumetric_power")
        .config("sensors", format!("{nx}x{ny}x{nz}"))
        .sink(Box::new(ConsoleSink::with_prefixes(&["train.loss", "fdm."])))
        .install();

    println!("training volumetric-power DeepOHeat ({}x{}x{} sensors)…", nx, ny, nz);
    let mut experiment = VolumetricExperiment::new(config)?;
    experiment.run(2000, 400, |_| {})?;

    let grid = *experiment.chip().grid();
    for (name, map) in volumetric_test_suite(nx, ny, nz) {
        let errors = experiment.evaluate(&map)?;
        println!(
            "\n{name}: MAPE {:.3}%  PAPE {:.3}%  peak |err| {:.3} K",
            errors.mape, errors.pape, errors.peak_abs
        );

        // Show the mid-height slice of reference vs prediction.
        let reference = experiment.reference_field(&map)?;
        let predicted = experiment.predict_field(&map)?;
        let mid = nz / 2;
        let ref_slice = Matrix::from_fn(nx, ny, |i, j| reference[grid.index(i, j, mid)]);
        let pred_slice = Matrix::from_fn(nx, ny, |i, j| predicted[grid.index(i, j, mid)]);
        println!("{}", side_by_side("reference (mid slice)", &ref_slice, "surrogate", &pred_slice));
    }
    telemetry::finish();
    Ok(())
}
